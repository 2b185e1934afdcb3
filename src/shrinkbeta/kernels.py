"""Input checks, error types and seeded samplers around the bulk loops.

The loops themselves live in `_kernels_py`, which raises bare
RuntimeError with a "kind:payload" message; this module checks inputs at
the API boundary and turns those messages into the package's typed
errors. `BACKEND` names the kernel in bulk `simulate` output.
"""

import numpy as np

from . import _kernels_py
from ._bits import _MASK, STREAM_CHAIN, STREAM_COIN, STREAM_START
from .errors import InvariantViolationError, OrbitEscapeError

BACKEND = "python"
_MAX_STATES = np.iinfo(np.int8).max


def _retype(exc: RuntimeError, ctx):
    kind, _, payload = str(exc).partition(":")
    if kind == "escape":
        return OrbitEscapeError(float(payload), 0.0, ctx.domain_max,
                                "bulk kernel")
    if kind == "drift":
        return InvariantViolationError(
            f"return time exceeded n+1 = {ctx.n + 1} at x={payload} "
            f"(bulk kernel)")
    return exc


def _at_least(name, value, least):
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def induced_stats(ctx, x0, steps: int, seed: int):
    """Bulk first-return statistics. Returns (hist, final_x, tau1_count);
    hist[t] counts returns at time t over all points and steps, of which
    there must be one or more; starts must be finite and in [a, b]."""
    _at_least("steps", steps, 1)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    _at_least("x0 size", x0.size, 1)
    outside = ~((x0 >= ctx.a) & (x0 <= ctx.b))  # NaN lies outside too
    if outside.any():
        raise ValueError(f"starts must be finite and in [a, b] = [{ctx.a!r},"
                         f" {ctx.b!r}], got {float(x0[outside][0])!r}")
    try:
        return _kernels_py.induced_stats(ctx.beta, ctx.a, ctx.b,
                                         ctx.domain_max, ctx.n, x0,
                                         int(steps), int(seed) & _MASK)
    except RuntimeError as exc:
        raise _retype(exc, ctx) from None


def chain_sample(cum_rows, start_cum, steps: int, seed: int):
    """Seeded Markov path from non-decreasing cumulative rows; int8
    states, so at most 127 of them."""
    _at_least("steps", steps, 1)
    cum_rows = np.ascontiguousarray(cum_rows, dtype=np.float64)
    start_cum = np.ascontiguousarray(start_cum, dtype=np.float64)
    m = start_cum.size
    if start_cum.ndim != 1 or not 1 <= m <= _MAX_STATES:
        raise ValueError(f"start_cum must be 1-D with 1..{_MAX_STATES} "
                         f"states, got shape {start_cum.shape}")
    if cum_rows.shape != (m, m):
        raise ValueError(f"cum_rows must have shape {(m, m)}, "
                         f"got {cum_rows.shape}")
    if not ((np.diff(cum_rows, axis=1) >= 0).all()
            and (np.diff(start_cum) >= 0).all()):
        raise ValueError("cum_rows and start_cum must be non-decreasing "
                         "cumulative laws")
    return _kernels_py.chain_sample(cum_rows, start_cum, int(steps),
                                    int(seed) & _MASK)


def uniform_array(seed: int, count: int, stream: int = STREAM_CHAIN):
    """count uniforms in [0, 1) from the counter-based stream."""
    _at_least("count", count, 0)
    return _kernels_py._uniforms(int(seed) & _MASK, stream, 0, count)


def uniform_starts(seed: int, count: int, lo: float, hi: float):
    """Seeded start points spread over [lo, hi], on a stream of their own
    so they never collide with the coin bits for the same seed."""
    return lo + (hi - lo) * uniform_array(seed, count, STREAM_START)


def coin_bits(seed: int, count: int):
    """First `count` coin bits of the scalar stream, vectorized."""
    _at_least("count", count, 0)
    idx = np.arange(count, dtype=np.uint64)
    z = _kernels_py._raw(int(seed) & _MASK, STREAM_COIN, idx)
    return (z >> np.uint64(63)).astype(np.uint8)
