"""Piecewise-linear expansion maps on the switch interval [a, b].

The first-return map of the coin-driven system, restricted to one coin
outcome, is a full-branch piecewise-affine map of [a, b]:

* greedy side (coin 1): branch i (0-based) acts on [c_i, c_{i+1}) with
  slope beta^(n-i) and offset beta^(n-i-1); its return time is n-i.
* lazy side (coin 0): the mirror image under x -> 1/(beta-1) - x; branch i
  acts on (d_i, d_{i+1}] with slope beta^(i+2), return time i+2, and offset
  1 + beta + ... + beta^i.

Branch lengths are (b-a) * beta^(-t) for return time t, so the normalized
branch-length vector is exactly the return-time law (beta^-2, ..., beta^-n).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .algebra import AlgebraicBeta
from .errors import InvariantViolationError

_IMAGE_TOL = 1e-9


@dataclass(frozen=True)
class GlsPartition:
    """Breakpoints plus per-branch affine data for one side of the map.

    Every branch applies x -> slope*x - offset; offsets are beta powers on
    the greedy side and geometric sums of beta powers on the lazy side.
    """

    side: str
    a: float
    b: float
    breakpoints: tuple
    slopes: tuple
    offsets: tuple
    return_times: tuple

    def branch_of(self, x) -> int:
        if self.side == "greedy":
            if not (self.a <= x < self.b):
                raise ValueError(f"greedy branch lookup needs x in [a, b), got {x!r}")
            return bisect.bisect_right(self.breakpoints, x) - 1
        if not (self.a < x <= self.b):
            raise ValueError(f"lazy branch lookup needs x in (a, b], got {x!r}")
        return bisect.bisect_left(self.breakpoints, x) - 1

    def apply(self, x):
        """Apply the branch containing x; returns (image, return_time)."""
        i = self.branch_of(x)
        y = self.slopes[i] * x - self.offsets[i]
        if not (self.a - _IMAGE_TOL <= y <= self.b + _IMAGE_TOL):
            raise InvariantViolationError(
                f"{self.side} branch {i} image {y!r} left [a, b] at x={x!r}")
        return y, self.return_times[i]

    def branch_lengths(self) -> tuple:
        bp = self.breakpoints
        return tuple(bp[i + 1] - bp[i] for i in range(len(bp) - 1))


def _check_increasing(points, side):
    for x0, x1 in zip(points, points[1:]):
        if not x0 < x1:
            raise InvariantViolationError(
                f"{side} breakpoints not strictly increasing: {x0!r} !< {x1!r}")


def _greedy_points(ctx: AlgebraicBeta) -> list:
    """The greedy breakpoints, checked to increase. The lazy side and the
    return-time vector read them without building a partition."""
    beta, a, b, n = ctx.beta, ctx.a, ctx.b, ctx.n
    cs = [a]
    for j in range(1, n - 1):
        cs.append(beta ** j * a - beta ** (j - 1) + 1 / beta)
    cs.append(b)
    _check_increasing(cs, "greedy")
    return cs


def greedy_breakpoints(ctx: AlgebraicBeta) -> GlsPartition:
    """Greedy-side partition: c_1 = a, interior points beta^j*a - beta^(j-1)
    + 1/beta (j = 1..n-2), c_n = b."""
    beta, a, b, n = ctx.beta, ctx.a, ctx.b, ctx.n
    cs = _greedy_points(ctx)
    slopes = tuple(beta ** (n - i) for i in range(n - 1))
    offsets = tuple(beta ** (n - i - 1) for i in range(n - 1))
    rts = tuple(n - i for i in range(n - 1))
    return GlsPartition(side="greedy", a=a, b=b, breakpoints=tuple(cs),
                        slopes=slopes, offsets=offsets, return_times=rts)


def lazy_breakpoints(ctx: AlgebraicBeta) -> GlsPartition:
    """Lazy-side partition, mirrored from the greedy one.

    Interior points come from the reflection d_i = 1/(beta-1) - c_{n-i+1};
    the endpoints are pinned to a and b exactly so both partitions share
    them bitwise. Offsets use the exact geometric-sum form 1+...+beta^i
    (the reflected form domain_max*(1-slope) + greedy offset equals it only
    up to a couple of ulps).
    """
    beta, a, b, n = ctx.beta, ctx.a, ctx.b, ctx.n
    cs = _greedy_points(ctx)
    ds = [a]
    for j in range(1, n - 1):
        ds.append(ctx.domain_max - cs[n - 1 - j])
    ds.append(b)
    _check_increasing(ds, "lazy")
    slopes = tuple(beta ** (i + 2) for i in range(n - 1))
    offsets = tuple(sum(beta ** k for k in range(i + 1)) for i in range(n - 1))
    rts = tuple(i + 2 for i in range(n - 1))
    return GlsPartition(side="lazy", a=a, b=b, breakpoints=tuple(ds),
                        slopes=slopes, offsets=offsets, return_times=rts)


def return_time_vector(ctx: AlgebraicBeta) -> dict:
    """Return-time law {t: pi_t} from greedy branch lengths, pi_t =
    |branch_t|/(b-a), keyed t = n..2 in branch order.

    Equals beta^(-t) up to rounding; the total is 1 because
    sum_{t=2..n} beta^(-t) = 1 is the defining equation of beta.
    """
    cs = _greedy_points(ctx)
    width = ctx.b - ctx.a
    # greedy branch i has return time n - i
    return {ctx.n - i: (cs[i + 1] - cs[i]) / width for i in range(ctx.n - 1)}


def return_time_law(ctx: AlgebraicBeta) -> dict:
    """Closed-form return-time law {t: beta^(-t)}, independent of geometry."""
    return {t: ctx.beta ** (-t) for t in range(2, ctx.n + 1)}


def expected_return_time(law: dict):
    """sum_t t pi_t of a return-time law {t: pi_t}, added in the law's key
    order and in the arithmetic of its values."""
    return sum(t * w for t, w in law.items())
