"""Interval Markov chain for the attractor [T1(a), T0(b)].

The attractor splits into 2n-1 cells: n-1 left cells iterating T0 from
T1(a) up to a, the switch cell [a, b], and n-1 right cells iterating down
from T0(b) to b. Each cell's image under its active branch(es) is a union
of cells, giving a 0/1 adjacency matrix S_n whose characteristic polynomial
is  x^(n-1) * (x^n - 2(1 + x + ... + x^(n-2))).

Its Perron eigenvalue lambda has closed-form eigenvectors

    v = (c, c*lam, ..., c*lam^(n-1), ..., c*lam, c)
    u = (d*s_0, d*s_1/lam, ..., d*s_{n-2}/lam^(n-2), d*lam, ... mirrored)

with s_k = 1 + lam + ... + lam^k, normalized by u.v = 1. The stationary
chain p_i = u_i v_i with transitions p_ij = S_ij v_j / (lam v_i) maximizes
entropy over the subshift, with entropy log lam; inducing on the switch
cell divides the entropy by its weight p_center = cd*lam^n.

`parry_center` computes the switch cell's numbers in one arithmetic;
`check_inequality` alone picks the default arithmetic for each n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (_LAMBDA_DOUBLE_N_MAX, AlgebraicBeta, _check_n,
                      arithmetic, solve_beta, solve_lambda)
from .errors import InequalityViolationError, InvariantViolationError

_EIGEN_TOL = 1e-10
_ROW_TOL = 1e-10
_PARTITION_TOL = 1e-10
_ALIGN_TOL = 1e-9  # image endpoints against cell boundaries
_POWER_TOL = 1e-13  # relative change of lambda that stops power iteration
_POWER_MAX_ITER = 20000
# check_inequality's default width above algebra._LAMBDA_DOUBLE_N_MAX,
# where lambda_n rounds to 2.0 in doubles
EXTENDED_BITS = 150


class Cell(NamedTuple):
    lo: float
    hi: float
    label: str


@dataclass(frozen=True)
class MarkovChain:
    n: int
    lam: float
    cells: tuple
    adjacency: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    P_trans: np.ndarray


def build_partition(ctx: AlgebraicBeta):
    """Cells of the attractor, ascending, with shared endpoints.

    Left cells iterate T0 from T1(a); the n-1-st iterate must land back on
    a, and the last left endpoint is pinned to a exactly. Right cells mirror
    this from T0(b) downward to b. Each multiplication by beta amplifies the
    ulp error of the previous endpoint, so the closure tolerance scales like
    n*beta^n ulps; any structural miss would be on the cell-width scale,
    orders of magnitude above the cap.
    """
    beta, a, b, n = ctx.beta, ctx.a, ctx.b, ctx.n
    tol = min(1e-3, max(_PARTITION_TOL, 50 * n * beta ** n * 1e-15))
    left = [beta * a - 1]
    for _ in range(n - 1):
        left.append(beta * left[-1])
    if abs(left[-1] - a) > tol:
        raise InvariantViolationError(
            f"left endpoint chain missed a by {left[-1] - a!r}")
    left[-1] = a
    right = [beta * b]
    for _ in range(n - 1):
        right.append(beta * right[-1] - 1)
    if abs(right[-1] - b) > tol:
        raise InvariantViolationError(
            f"right endpoint chain missed b by {right[-1] - b!r}")
    right[-1] = b
    right.reverse()  # ascending: b, ..., T0(b)
    cells = []
    for k in range(n - 1):
        cells.append(Cell(left[k], left[k + 1], f"L{k}"))
    cells.append(Cell(a, b, "C"))
    for m in range(n - 1):
        cells.append(Cell(right[m], right[m + 1], f"R{m}"))
    for c in cells:
        if not c.lo < c.hi:
            raise InvariantViolationError(f"degenerate cell {c}")
    for c0, c1 in zip(cells, cells[1:]):
        if c0.hi != c1.lo:
            raise InvariantViolationError(
                f"gap/overlap between {c0} and {c1}")
    return cells


def build_adjacency(n: int) -> np.ndarray:
    """Cell-to-cell reachability: left cells chain upward into the center,
    the center spreads to everything but itself, right cells chain downward
    into the center."""
    _check_n(n)
    size = 2 * n - 1
    center = n - 1
    s = np.zeros((size, size), dtype=np.int64)
    for k in range(n - 2):
        s[k, k + 1] = 1
    s[n - 2, center] = 1
    for j in range(size):
        if j != center:
            s[center, j] = 1
    s[n, center] = 1
    for m in range(1, n - 1):
        s[n + m, n + m - 1] = 1
    return s


def adjacency_from_images(ctx: AlgebraicBeta) -> np.ndarray:
    """Brute-force adjacency: push each cell through its active branch(es)
    and mark the cells its image covers.

    Also enforces the Markov property: every image interval must align with
    cell boundaries to within _ALIGN_TOL.
    """
    cells = build_partition(ctx)
    beta, a, b = ctx.beta, ctx.a, ctx.b
    size = len(cells)
    s = np.zeros((size, size), dtype=np.int64)

    def mark(i, lo, hi):
        covered = [j for j, c in enumerate(cells)
                   if lo - _ALIGN_TOL <= 0.5 * (c.lo + c.hi) <= hi + _ALIGN_TOL]
        if not covered:
            raise InvariantViolationError(f"image of cell {i} covers nothing")
        if covered != list(range(covered[0], covered[-1] + 1)):
            raise InvariantViolationError(f"image of cell {i} not contiguous")
        if (abs(cells[covered[0]].lo - lo) > _ALIGN_TOL
                or abs(cells[covered[-1]].hi - hi) > _ALIGN_TOL):
            raise InvariantViolationError(
                f"image of cell {i} does not align with cell boundaries")
        for j in covered:
            s[i, j] = 1

    for i, c in enumerate(cells):
        mid = 0.5 * (c.lo + c.hi)
        if mid < a:  # left of the switch: only T0 acts
            mark(i, beta * c.lo, beta * c.hi)
        elif mid > b:  # right of the switch: only T1 acts
            mark(i, beta * c.lo - 1, beta * c.hi - 1)
        else:  # switch cell: both branches act
            mark(i, beta * c.lo - 1, beta * c.hi - 1)
            mark(i, beta * c.lo, beta * c.hi)
    return s


def char_poly_closed_form(x, n: int):
    """x^(n-1) * (x^n - 2*(1 + x + ... + x^(n-2)))."""
    s = sum(x ** i for i in range(n - 1))
    return x ** (n - 1) * (x ** n - 2 * s)


def char_poly_residual(n: int, sample_points) -> float:
    """Max relative gap between det(xI - S_n) and the closed form."""
    s = build_adjacency(n).astype(float)
    worst = 0.0
    for x in sample_points:
        det = float(np.linalg.det(x * np.eye(2 * n - 1) - s))
        cf = char_poly_closed_form(float(x), n)
        worst = max(worst, abs(det - cf) / max(1.0, abs(cf)))
    return worst


def closed_form_inv_cd(lam, n: int):
    """The printed normalization constant: 1/(cd) = 2/(lam-1) *
    (lam^(n-1) - n + lam^n/2) + lam^n."""
    return 2 / (lam - 1) * (lam ** (n - 1) - n + lam ** n / 2) + lam ** n


def _inv_cd_direct(lam, n: int):
    """1/(cd) as the direct inner product of the unit-scale eigenvectors.

    Works for floats and mpmath values alike; `parry_center` runs it in
    either arithmetic.
    """
    total = lam ** n  # center: u_c * v_c = lam * lam^(n-1)
    for s, power in _wing_sums(lam, n):
        total += 2 * (s / power) * power  # two mirrored wings
    return total


def _wing_sums(lam, n: int):
    """(s_i, lam^i) for i = 0..n-2, where s_i = 1 + lam + ... + lam^i is
    one running sum from 0, added left to right in lam's arithmetic."""
    s = 0
    out = []
    for i in range(n - 1):
        power = lam ** i
        s = s + power
        out.append((s, power))
    return out


def eigen_closed_form(lam, n: int):
    """Closed-form Perron eigenvectors, scaled to c = 1 and u.v = 1.

    Returns (u, v); the scale cd is `1 / _inv_cd_direct(lam, n)`.
    Residuals are checked on infinity-norm-normalized copies (the raw
    entries grow like lam^(n-1), so only a scale-free residual is
    meaningful in fixed precision).
    """
    size = 2 * n - 1
    v = np.array([lam ** min(i, size - 1 - i) for i in range(size)])
    u_unit = np.empty(size, dtype=v.dtype)
    for i, (s, power) in enumerate(_wing_sums(lam, n)):
        u_unit[i] = s / power
        u_unit[size - 1 - i] = u_unit[i]
    u_unit[n - 1] = lam
    u = (1 / _inv_cd_direct(lam, n)) * u_unit
    res_v, res_u = eigen_residuals(build_adjacency(n), lam, u, v)
    if res_v > _EIGEN_TOL or res_u > _EIGEN_TOL:
        raise InvariantViolationError(
            f"eigen residuals too large: right {res_v:.3e}, left {res_u:.3e}")
    return u, v


def eigen_residuals(s_mat, lam, u, v):
    """Right and left residuals of (lam, u, v) against s_mat, each vector
    scaled to unit infinity norm first."""
    v_hat = v / np.abs(v).max()
    u_hat = u / np.abs(u).max()
    return (float(np.abs(s_mat @ v_hat - lam * v_hat).max()),
            float(np.abs(u_hat @ s_mat - lam * u_hat).max()))


def parry_measure(adjacency, lam, u, v):
    """Stationary vector p_i = u_i v_i and transition matrix
    p_ij = S_ij v_j / (lam v_i); the unique entropy maximizer."""
    p = u * v
    if abs(p.sum() - 1.0) > _ROW_TOL:
        raise InvariantViolationError(f"stationary mass {p.sum()!r} != 1")
    trans = adjacency * v[np.newaxis, :] / (lam * v[:, np.newaxis])
    row_err = np.abs(trans.sum(axis=1) - 1.0).max()
    if row_err > _ROW_TOL:
        raise InvariantViolationError(f"transition row sums off by {row_err:.3e}")
    stat_err = np.abs(p @ trans - p).max()
    if stat_err > _ROW_TOL:
        raise InvariantViolationError(f"stationarity off by {stat_err:.3e}")
    return p, trans


def build_chain(n: int) -> MarkovChain:
    """The Parry chain on the 2n-1 cells, with read-only arrays so that
    `parry_chain` can share one per n."""
    ctx = solve_beta(n)
    lam = solve_lambda(n).lam
    cells = build_partition(ctx)
    adjacency = build_adjacency(n)
    u, v = eigen_closed_form(lam, n)
    p, trans = parry_measure(adjacency, lam, u, v)
    for array in (adjacency, u, v, p, trans):
        array.setflags(write=False)
    return MarkovChain(n=n, lam=lam, cells=tuple(cells), adjacency=adjacency,
                       u=u, v=v, p=p, P_trans=trans)


# typed: 3.0 and np.int64(3) hash like 3 but must reach build_chain's checks
@functools.lru_cache(maxsize=None, typed=True)
def parry_chain(n: int) -> MarkovChain:
    """`build_chain(n)`, built once per process and shared by every caller."""
    return build_chain(n)


def entropy_rate(p, trans) -> float:
    """Shannon entropy rate -sum_i p_i sum_j p_ij log p_ij (nats)."""
    total = 0.0
    for i in range(len(p)):
        for q in trans[i]:
            if q > 0:
                total -= p[i] * q * math.log(q)
    return total


def cylinder_measure(chain: MarkovChain, word) -> float:
    """Chain measure of the cylinder on a cell-index word:
    p_{a1} * p_{a1 a2} * ... ; zero when a transition is forbidden."""
    word = list(word)
    if not word:
        raise ValueError("empty cylinder word")
    size = len(chain.p)
    for i in word:
        if not 0 <= i < size:
            raise ValueError(f"cell index {i} out of range")
    value = float(chain.p[word[0]])
    for i, j in zip(word, word[1:]):
        value *= float(chain.P_trans[i, j])
    return value


class ParryCenter(NamedTuple):
    """The switch cell's numbers under the chain's maximal measure."""

    lam: float
    inv_cd: float
    mu_center: float
    h_induced: float
    margin: float


def parry_center(n: int, precision: int | None = None) -> ParryCenter:
    """lambda_n, 1/(cd), the centre weight mu_center = cd lam^n, the
    induced entropy h_induced = log(lam) / (cd lam^n) and the entropy
    margin log(2n-2) - h_induced, all in one arithmetic: doubles for
    precision=None, else mpmath at that many bits (`algebra.arithmetic`).
    Computed once per (n, precision) and shared: the fields are immutable.
    """
    # one cache key however precision is passed
    return _parry_center(n, precision)


# typed: 3.0 and np.int64(3) hash like 3 but must reach solve_lambda's checks
@functools.lru_cache(maxsize=None, typed=True)
def _parry_center(n: int, precision: int | None) -> ParryCenter:
    lam = solve_lambda(n, precision).lam
    if precision is None:
        log = math.log
    else:
        from mpmath import log
    with arithmetic(precision):
        inv_cd = _inv_cd_direct(lam, n)
        h_induced = log(lam) * inv_cd / lam ** n
        return ParryCenter(lam=lam, inv_cd=inv_cd,
                           mu_center=lam ** n / inv_cd, h_induced=h_induced,
                           margin=log(2 * n - 2) - h_induced)


class InequalityRow(NamedTuple):
    n: int
    lam: float
    h_max: float
    h_induced: float
    margin: float


def check_inequality(n_max: int, precision: int | None = None):
    """Full-shift entropy minus induced chain entropy, for n = 3..n_max.

    The margin log(2n-2) - log(lam)/(cd lam^n) must stay strictly positive:
    a non-positive value means an implementation bug, not a borderline
    rounding case, so it raises. precision=None runs n <= 53, where
    lambda_n has a double below 2, in doubles and larger n at
    EXTENDED_BITS; an integer runs every n at that many bits.
    """
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    rows = []
    for n in range(3, n_max + 1):
        bits = precision
        if bits is None and n > _LAMBDA_DOUBLE_N_MAX:
            bits = EXTENDED_BITS
        center = parry_center(n, bits)
        margin = float(center.margin)
        if margin <= 0:
            raise InequalityViolationError(
                f"entropy margin non-positive at n={n}: {margin!r}")
        rows.append(InequalityRow(n=n, lam=float(center.lam),
                                  h_max=math.log(2 * n - 2),
                                  h_induced=float(center.h_induced),
                                  margin=margin))
    return rows


def perron_by_power_iteration(adjacency) -> float:
    """Dominant eigenvalue by plain power iteration; cross-check oracle for
    the closed forms, never the source of truth."""
    s = np.asarray(adjacency, dtype=float)
    vec = np.ones(s.shape[0])
    lam_prev = 0.0
    for _ in range(_POWER_MAX_ITER):
        nxt = s @ vec
        lam = nxt @ vec / (vec @ vec)
        vec = nxt / np.linalg.norm(nxt)
        if abs(lam - lam_prev) < _POWER_TOL * max(1.0, abs(lam)):
            return float(lam)
        lam_prev = lam
    return float(lam_prev)


def sample_chain(chain: MarkovChain, steps: int, seed: int):
    """Seeded sample path of the chain (stationary start), as int8 states."""
    from . import kernels
    cum_rows = np.cumsum(chain.P_trans, axis=1)
    start_cum = np.cumsum(chain.p)
    return kernels.chain_sample(np.ascontiguousarray(cum_rows),
                                np.ascontiguousarray(start_cum), steps, seed)
