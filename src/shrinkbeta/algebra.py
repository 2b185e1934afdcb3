"""Defining polynomials and derived constants.

Two one-parameter families of algebraic numbers drive everything here:

* ``beta_n``: the largest root in (1, 2) of  x^n = x^(n-2) + ... + x + 1,
  equivalently  sum_{t=2..n} x^(-t) = 1.  It increases to the golden ratio.
* ``lambda_n``: the largest root in (1, 2) of  x^n = 2(1 + x + ... + x^(n-2)),
  the dominant eigenvalue of the transition structure built later.

Both are found by bisection on [1, 2] followed by Newton polishing.  An
optional extended-precision mode (mpmath, >= 100-bit significand) exists for
large n, where the roots crowd the golden ratio and double-precision
residuals flatten; doubles resolve lambda_n up to n = 53 and beta_n up to
n = 77, and larger n are refused without a precision.  The extended
bisection takes each sign from an exact integer, so only the Newton steps
round. mpmath is imported only where extended precision runs, so a
double-precision process never loads it.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

from .errors import InvariantViolationError, PrecisionLimitError

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

_REL_RESIDUAL_TOL = 1e-14
_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class AlgebraicBeta:
    """The pair (n, beta_n) with its derived constants.

    a = 1/(beta^2-1) and b = beta*a bound the switch region; domain_max =
    1/(beta-1) is the right end of the expansion domain [0, 1/(beta-1)].
    b is *defined* as beta*a, so T0(a) = b holds exactly, also in floats.
    """

    n: int
    beta: float
    a: float
    b: float
    domain_max: float


@dataclass(frozen=True)
class PerronValue:
    """The pair (n, lambda_n)."""

    n: int
    lam: float


def _poly(n: int, factor):
    """f(x) = x^n - factor * sum_{i=0}^{n-2} x^i, plus its derivative."""

    def f(x):
        p = 1 + 0 * x  # one, in x's arithmetic type
        s = 0 * x
        for _ in range(n - 1):
            s = s + p
            p = p * x
        return p * x - factor * s

    def fprime(x):
        # Horner on n x^(n-1) - factor * sum_{i=1}^{n-2} i x^(i-1), whose
        # x^(n-2) coefficient is 0
        d = n * x
        for i in range(n - 2, 0, -1):
            d = d * x - factor * i
        return d

    return f, fprime


# narrowest mpmath significand the extended-precision paths accept
MIN_PRECISION = 100
# bits the extended roots carry beyond the requested precision
_GUARD_BITS = 20
# extended-precision bisection steps before Newton takes over
_BISECT_STEPS = 80
# largest n each root has in doubles: above it lambda_n rounds to 2.0 and
# beta_n to the golden ratio. 2 - lambda_n = 2 / (lambda^(n-1) (lambda + 1))
# is 2^(2-n) / 3 up to a factor 1 + O(n 2^-n), so in a w-bit significand,
# where half an ulp below 2 is 2^-w, lambda_n rounds below 2 exactly while
# n <= w: 53 in doubles, precision + _GUARD_BITS in extended precision.
# phi - beta_n = beta^(1-n) / (beta + 1/phi) rounds onto fl(phi) from
# n = 78 (ROADMAP item 14).
_BETA_DOUBLE_N_MAX = 77
_LAMBDA_DOUBLE_N_MAX = 53


def _lambda_n_max(precision: int) -> int:
    """Largest n whose lambda_n rounds below 2 at the root's width."""
    return precision + _GUARD_BITS


def _beta_n_max(precision: int) -> int:
    """Largest n whose beta_n rounds below the rounded golden ratio at the
    root's width w = precision + 20, wherever phi falls in its ulp.

    phi - beta_n = beta^(1-n) / (beta + 1/phi) is phi^(1-n) / sqrt(5) up to
    a factor 1 + O(n phi^-n). A gap of one ulp at phi, 2^(1-w), keeps beta_n
    below the midpoint under the rounded phi, so the root rounds below it
    while n <= 1 + (w - 1 - log2(sqrt(5))) / log2(phi), about 1.44 w - 2.4.
    In doubles the offset of fl(phi) is known, and the limit is the last n
    that rounds below it, 77 (this bound would give 74)."""
    w = precision + _GUARD_BITS
    return 1 + math.floor((w - 1 - math.log2(math.sqrt(5)))
                          / math.log2(GOLDEN_RATIO))


def arithmetic(precision: int | None):
    """The arithmetic a precision selects: doubles for None (a no-op
    context), else mpmath at that significand width in bits."""
    if precision is None:
        return contextlib.nullcontext()
    import mpmath
    return mpmath.workprec(precision)


def _check_n(n) -> None:
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"n must be an integer >= 3, got {n!r}")


def _check_args(n, precision, name: str, double_n_max: int,
                extended_n_max) -> None:
    """Refuse n that the arithmetic cannot resolve: above double_n_max in
    doubles, above extended_n_max(precision) in extended precision."""
    # runs before the root cache: 3.0 and np.int64(3) hash like 3
    _check_n(n)
    if precision is None:
        if n > double_n_max:
            raise PrecisionLimitError(
                f"{name} in doubles supports n <= {double_n_max}, got "
                f"n={n}; pass precision (>= {MIN_PRECISION} bits) for "
                f"larger n")
    elif precision < MIN_PRECISION:
        raise ValueError(
            f"extended precision needs >= {MIN_PRECISION} bits")
    elif n > extended_n_max(precision):
        # bisect for the least precision that takes n: each limit grows by
        # at least one per bit, so precision + (n - limit) bits take it
        lo, hi = precision, precision + n - extended_n_max(precision)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if extended_n_max(mid) < n else (lo, mid)
        raise PrecisionLimitError(
            f"{name} at precision {precision} supports n <= "
            f"{extended_n_max(precision)}, got n={n}; pass precision >= "
            f"{hi} bits for this n")


@functools.lru_cache(maxsize=None)
def _solve_poly(n: int, factor, precision: int | None):
    """Largest root in (1, 2): bisection to tolerance, then Newton.

    In doubles the bisection evaluates f in rounded arithmetic. With a
    precision it runs 80 steps over the dyadics m/2^80 and takes each sign
    from an exact integer, then Newton polishes in mpmath.

    Cached: each root is solved once per process. Callers check their
    arguments first (`_check_args`).
    """
    f, fp = _poly(n, factor)
    if precision is None:
        lo, hi = 1.0, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            # f(1) = 2 - n - ... < 0 and f(2) > 0: root where sign flips
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        x = 0.5 * (lo + hi)
        for _ in range(4):
            x = x - f(x) / fp(x)
        scale = x ** n
        if abs(f(x)) / scale > _REL_RESIDUAL_TOL:
            raise InvariantViolationError(
                f"root residual {abs(f(x)) / scale:.3e} above tolerance at n={n}")
        return x
    # midpoints are m / 2^80 on [1, 2]; (x - 1) f(x) scaled by D^(n+1) is
    # an integer with the sign of f(x), since x > 1
    d = 1 << _BISECT_STEPS
    d_term = d ** (n - 1)
    lo, hi = d, 2 * d
    for _ in range(_BISECT_STEPS):
        mid = (lo + hi) >> 1
        p = mid ** (n - 1)
        if p * mid * (mid - d) - factor * (p - d_term) * d * d > 0:
            hi = mid
        else:
            lo = mid
    import mpmath
    with mpmath.workprec(precision + _GUARD_BITS):
        x = mpmath.mpf(lo + hi) / 2 ** (_BISECT_STEPS + 1)
        for _ in range(40):
            step = f(x) / fp(x)
            x = x - step
            if abs(step) < mpmath.mpf(2) ** (-(precision + 10)):
                break
        return +x  # round to the working precision


def solve_beta(n: int, precision: int | None = None) -> AlgebraicBeta:
    """Solve for beta_n and populate the derived constants.

    precision=None uses doubles (n <= 77); an integer is an mpmath
    significand width in bits (>= 100), in which case all fields are mpf
    values computed at the root's working precision, precision + 20, for
    n <= `_beta_n_max(precision)`, about 1.44 (precision + 20).
    """
    _check_args(n, precision, "beta_n", _BETA_DOUBLE_N_MAX, _beta_n_max)
    beta = _solve_poly(n, 1, precision)
    with arithmetic(None if precision is None
                    else precision + _GUARD_BITS):
        a = 1 / (beta * beta - 1)
        b = beta * a
        domain_max = 1 / (beta - 1)
        ctx = AlgebraicBeta(n=n, beta=beta, a=a, b=b, domain_max=domain_max)
        _check_ctx(ctx)
    return ctx


def solve_lambda(n: int, precision: int | None = None) -> PerronValue:
    """Solve for lambda_n (largest root of x^n = 2(1 + x + ... + x^(n-2))).

    precision=None uses doubles (n <= 53), and a precision p supports
    n <= p + 20; see `solve_beta`."""
    _check_args(n, precision, "lambda_n", _LAMBDA_DOUBLE_N_MAX,
                _lambda_n_max)
    lam = _solve_poly(n, 2, precision)
    if not (1 < lam < 2):
        raise InvariantViolationError(f"lambda out of (1,2) at n={n}: {lam!r}")
    return PerronValue(n=n, lam=lam)


def _check_ctx(ctx: AlgebraicBeta) -> None:
    beta, a, b = ctx.beta, ctx.a, ctx.b
    if not (1 < beta < GOLDEN_RATIO):
        raise InvariantViolationError(f"beta out of (1, golden): {beta!r}")
    if not (0 < a < b < ctx.domain_max):
        raise InvariantViolationError("derived constants out of order")
    if abs(beta * b - 1 - a) > _IDENTITY_TOL:
        raise InvariantViolationError("T1(b) = a identity failed")
    # sum_{t=2..n} beta^(-t) = 1 restates the defining equation
    s = sum(beta ** (-t) for t in range(2, ctx.n + 1))
    if abs(s - 1) > _IDENTITY_TOL:
        raise InvariantViolationError(f"sum beta^-t = {s!r}, expected 1")


def eval_word(word, beta):
    """Value of a finite 0/1 digit word in base beta, with its tail bound.

    Returns (sum_{k=1..m} w_k beta^(-k), beta^(-m)/(beta-1)).  The bound
    dominates the contribution of any infinite continuation of the word.
    """
    digits = list(word)
    for w in digits:
        if w not in (0, 1):
            raise ValueError(f"digit {w!r} not in {{0, 1}}")
    v = 0 * beta
    for w in reversed(digits):
        v = (v + w) / beta
    tail = beta ** (-len(digits)) / (beta - 1)
    return v, tail
