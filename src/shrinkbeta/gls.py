"""Piecewise-linear expansion maps on the switch interval [a, b].

The first-return map of the coin-driven system, restricted to one coin
outcome, is a full-branch piecewise-affine map of [a, b]:

* greedy side (coin 1): branch i (0-based) acts on [c_i, c_{i+1}) with
  slope beta^(n-i) and offset beta^(n-i-1); its return time is n-i.
* lazy side (coin 0): the mirror image under x -> 1/(beta-1) - x; branch i
  acts on (d_i, d_{i+1}] with slope beta^(i+2), return time i+2, and offset
  1 + beta + ... + beta^i.

Each side is one read-only float array of shape (4, n-1), its branch
table: rows lo, hi, slope, offset (domain [lo, hi], action x -> slope*x -
offset) and column t - 2 for return time t. In x order the greedy columns
run t = n..2 and the lazy ones t = 2..n.

Branch lengths are (b-a) * beta^(-t) for return time t, so the normalized
branch-length vector is exactly the return-time law (beta^-2, ..., beta^-n).
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraicBeta
from .errors import InvariantViolationError


def _check_increasing(points, side):
    for x0, x1 in zip(points, points[1:]):
        if not x0 < x1:
            raise InvariantViolationError(
                f"{side} breakpoints not strictly increasing: {x0!r} !< {x1!r}")


def _greedy_points(ctx: AlgebraicBeta) -> list:
    """The greedy breakpoints, checked to increase. The lazy side reads them
    without building the greedy table."""
    beta, a, b, n = ctx.beta, ctx.a, ctx.b, ctx.n
    cs = [a]
    for j in range(1, n - 1):
        cs.append(beta ** j * a - beta ** (j - 1) + 1 / beta)
    cs.append(b)
    _check_increasing(cs, "greedy")
    return cs


def _table(rows):
    table = np.array(rows)
    table.setflags(write=False)
    return table


def greedy_breakpoints(ctx: AlgebraicBeta) -> np.ndarray:
    """Greedy-side branch table. Breakpoints c_1 = a, interior points
    beta^j*a - beta^(j-1) + 1/beta (j = 1..n-2), c_n = b; the cell
    [c_{n-t}, c_{n-t+1}) has return time t, slope beta^t and offset
    beta^(t-1)."""
    beta, n = ctx.beta, ctx.n
    cs = _greedy_points(ctx)
    ts = range(2, n + 1)
    return _table([[cs[n - t] for t in ts], [cs[n - t + 1] for t in ts],
                   [beta ** t for t in ts], [beta ** (t - 1) for t in ts]])


def lazy_breakpoints(ctx: AlgebraicBeta) -> np.ndarray:
    """Lazy-side branch table, mirrored from the greedy breakpoints.

    Interior points come from the reflection d_i = 1/(beta-1) - c_{n-i+1};
    the endpoints are pinned to a and b exactly so both tables share
    them bitwise. Offsets use the exact geometric-sum form 1+...+beta^(t-2)
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
    ts = range(2, n + 1)
    return _table([ds[:-1], ds[1:], [beta ** t for t in ts],
                   [sum(beta ** k for k in range(t - 1)) for t in ts]])


def return_time_law(ctx: AlgebraicBeta) -> dict:
    """Closed-form return-time law {t: beta^(-t)}, independent of geometry."""
    return {t: ctx.beta ** (-t) for t in range(2, ctx.n + 1)}


def expected_return_time(law: dict):
    """sum_t t pi_t of a return-time law {t: pi_t}, added in the law's key
    order and in the arithmetic of its values."""
    return sum(t * w for t, w in law.items())
