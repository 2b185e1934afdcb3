"""Typed errors for dynamical and structural failure modes."""


class ShrinkBetaError(Exception):
    """Base class for all package-specific errors."""


class OrbitEscapeError(ShrinkBetaError):
    """An orbit left the admissible interval by more than the drift guard."""

    def __init__(self, x, lo, hi, context=""):
        self.x = x
        self.lo = lo
        self.hi = hi
        msg = f"orbit escaped: x={x!r} outside [{lo!r}, {hi!r}]"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class StreamExhaustedError(ShrinkBetaError):
    """An explicit coin prefix was read past its end."""


class DeletedPointError(ShrinkBetaError):
    """The point belongs to the removed countable set (return time 1, or an
    orbit hitting a switch endpoint bitwise-exactly)."""


class InvariantViolationError(ShrinkBetaError):
    """A structural invariant failed (numeric drift, bad partition, ...)."""


class InequalityViolationError(ShrinkBetaError):
    """A strict inequality that must hold came out non-positive; indicates an
    implementation bug, not a tolerable numerical deviation."""


class PrecisionLimitError(ShrinkBetaError, ValueError):
    """n lies beyond what the requested precision resolves; a usage error,
    not a failed invariant."""
