"""Structured self-checks over every quantitative identity in the package.

Each check is a CheckRow with the two compared quantities, their deviation
and a pass flag; suites group them by area. The CLI renders rows as CSV or
JSON and exits nonzero if any row fails. All rows are deterministic:
sampled inputs come from fixed seeded streams.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import product

import numpy as np

from . import kernels, markov, measures, symbolic
from .algebra import eval_word, solve_beta, solve_lambda
from .dynamics import CoinStream, PointState, return_time
from .errors import InvariantViolationError, PrecisionLimitError
from .gls import expected_return_time, return_time_law

_DEFAULT_SEED = 20260814
# the markov suite's entropy-margin row covers n = 3.._N_INEQUALITY
_N_INEQUALITY = 40


@dataclass(frozen=True)
class CheckRow:
    check: str
    n: int
    params: str
    lhs: float
    rhs: float
    deviation: float
    passed: bool

    def as_json(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def _row(check, n, params, lhs, rhs, tol) -> CheckRow:
    dev = abs(lhs - rhs)
    return CheckRow(check=check, n=n, params=params, lhs=float(lhs),
                    rhs=float(rhs), deviation=float(dev), passed=bool(dev <= tol))


def _flag_row(check, n, params, value, threshold, want_above) -> CheckRow:
    """Row for one-sided requirements (margins, separations)."""
    ok = value > threshold if want_above else value <= threshold
    return CheckRow(check=check, n=n, params=params, lhs=float(value),
                    rhs=float(threshold), deviation=float(value - threshold),
                    passed=bool(ok))


# an induced image further than this outside [a, b] means a broken table
_IMAGE_TOL = 1e-9


def _x_order(ctx):
    """coin -> lists breakpoints, slopes, offsets, return times of the
    induced map's branches in x order. The branch tables' columns run
    t = 2..n, which is x order on the lazy side (coin 0) and the reverse
    of it on the greedy side (coin 1)."""
    sides = {}
    for coin, table in measures._branches(ctx).items():
        step = -1 if coin else 1
        lo, hi, slopes, offsets = table[:, ::step].tolist()
        sides[coin] = (lo + hi[-1:], slopes, offsets,
                       list(range(2, ctx.n + 1))[::step])
    return sides


def _induced_branch(sides, coin, x):
    """(image, return time) of x under the coin's branch that contains it.
    Greedy cells are [c_i, c_{i+1}), lazy cells (d_i, d_{i+1}]."""
    bp, slopes, offsets, ts = sides[coin]
    i = (bisect.bisect_right if coin else bisect.bisect_left)(bp, x) - 1
    if not 0 <= i < len(ts):
        raise ValueError(f"x={x!r} lies in no branch cell of coin {coin}")
    y = slopes[i] * x - offsets[i]
    if not (bp[0] - _IMAGE_TOL <= y <= bp[-1] + _IMAGE_TOL):
        raise InvariantViolationError(
            f"coin {coin} branch t={ts[i]} image {y!r} left [a, b] at x={x!r}")
    return y, ts[i]


def gls_suite(n_values=(3, 4, 5, 8, 12, 20), seed=_DEFAULT_SEED):
    rows = []
    for n in n_values:
        ctx = solve_beta(n)
        width = ctx.b - ctx.a
        sides = _x_order(ctx)
        for coin, side in ((1, "greedy"), (0, "lazy")):
            bp, slopes, offsets, ts = sides[coin]
            gaps = [x1 - x0 for x0, x1 in zip(bp, bp[1:])]
            rows.append(_flag_row("breakpoints-increasing", n, f"side={side}",
                                  min(gaps), 0.0, want_above=True))
            dev = max(abs(length / width - ctx.beta ** (-t))
                      for length, t in zip(gaps, ts))
            # rounding in the cumulative breakpoint sums grows mildly with n
            rows.append(_row("branch-length-law", n, f"side={side}",
                             dev, 0.0, 1e-11))
            # full branches: each maps its cell onto [a, b] endpoint-to-endpoint
            surj = 0.0
            for i in range(n - 1):
                lo = slopes[i] * bp[i] - offsets[i]
                hi = slopes[i] * bp[i + 1] - offsets[i]
                surj = max(surj, abs(lo - ctx.a), abs(hi - ctx.b))
            rows.append(_row("branch-surjectivity", n, f"side={side}",
                             surj, 0.0, 1e-9))
            rows.append(_row("slope-reciprocal-sum", n, f"side={side}",
                             sum(1.0 / s for s in slopes), 1.0, 1e-12))
        # piecewise maps agree with the coin-driven first-return orbit
        xs = kernels.uniform_starts(seed + n, 40, ctx.a + 1e-9, ctx.b - 1e-9)
        worst_img, worst_rt = 0.0, 0
        for x in xs:
            for bit in (1, 0):
                y, t = _induced_branch(sides, bit, float(x))
                res = return_time(
                    PointState(CoinStream.explicit([bit]), float(x)), ctx)
                worst_img = max(worst_img, abs(y - res.state.x))
                worst_rt = max(worst_rt, abs(t - res.t))
        rows.append(_row("induced-orbit-image-match", n, "bits=0,1",
                         worst_img, 0.0, 1e-10))
        rows.append(_row("induced-orbit-time-match", n, "bits=0,1",
                         float(worst_rt), 0.0, 0.0))
        # lazy = reflection of greedy through x -> m - x, m = domain_max:
        # S*x - O_l against m - (S*(m - x) - O_g), S = beta^t, equal for
        # every beta as O_l = S*m - m - O_g. Roundings in units of u*S*m,
        # u = eps/2: m - x times S (1); S*x, S*(m - x) (2); three results
        # in [0, m], S > 1 (3); S and O_g < S*m, pows within an ulp (2 + 2);
        # m = 1/(beta - 1) (1); O_l's pows (2) and additions, partial sums
        # below S*m*m with m < 3.1 (3.1). In all 16.1 u = 8.05 eps.
        m = ctx.domain_max
        tol = 8.05 * sys.float_info.epsilon * ctx.beta ** n * m
        refl = max(abs(_induced_branch(sides, 0, float(x))[0]
                       - (m - _induced_branch(sides, 1, m - float(x))[0]))
                   for x in xs)
        rows.append(_row("lazy-greedy-reflection", n, "", refl, 0.0, tol))
        law = return_time_law(ctx)
        # the greedy branch lengths, keyed t = n..2 in x order
        bp, _, _, ts = sides[1]
        pi = {t: (x1 - x0) / width for t, x0, x1 in zip(ts, bp, bp[1:])}
        dev = max(abs(pi[t] - law[t]) for t in law)
        rows.append(_row("return-law-from-geometry", n, "", dev, 0.0, 1e-11))
        rows.append(_row("expected-return-time", n, "",
                         expected_return_time(pi), expected_return_time(law),
                         1e-11))
    return rows


def symbolic_suite(n_values=(3, 4, 5), seed=_DEFAULT_SEED):
    rows = []
    for n in n_values:
        ctx = solve_beta(n)
        xs = kernels.uniform_starts(seed + 7 * n, 25, ctx.a + 1e-9, ctx.b - 1e-9)
        worst_dec = 0.0
        worst_round = 0
        for j, x in enumerate(xs):
            state = PointState(CoinStream.seeded(seed + j), float(x))
            word = symbolic.encode(state, 12, ctx)
            value, tail = symbolic.decode(word, ctx)
            # decoding a coding recovers the start within the tail bound
            worst_dec = max(worst_dec, abs(value - float(x)) - tail)
            redo = symbolic.encode(
                PointState(CoinStream.explicit([c for c, _ in word.letters]),
                           float(x)), 12, ctx)
            worst_round = max(worst_round, int(redo.letters != word.letters))
        rows.append(_flag_row("decode-within-tail", n, "k=12",
                              worst_dec, 0.0, want_above=False))
        rows.append(_row("coding-roundtrip", n, "k=12",
                         float(worst_round), 0.0, 0.0))
        for endpoint in ("a", "b"):
            rows.append(_flag_row("boundary-expansion", n, f"endpoint={endpoint}",
                                  _boundary_worst(endpoint, ctx), 0.0,
                                  want_above=False))
        # cylinders with different coin words overlap in x (the coin is an
        # input, not a function of x), so tiling holds per fixed coin word
        overlap = 0.0
        cover_dev = 0.0
        count = 0
        for coins in product((0, 1), repeat=4):
            lo, hi = measures.cylinder_preimage_table(coins, ctx)
            count += lo.size
            # x-order, as every branch increases and coin 1's run t = n..2
            # left to right, coin 0's t = 2..n; cumsum adds left to right
            flip = tuple(slice(None, None, -1 if c else 1) for c in coins)
            lo, hi = (v.reshape((n - 1,) * 4)[flip].ravel() for v in (lo, hi))
            overlap = max(overlap, float((hi[:-1] - lo[1:]).max(initial=0.0)))
            cover = float(np.cumsum(hi - lo)[-1])
            cover_dev = max(cover_dev, abs(cover - (ctx.b - ctx.a)))
        rows.append(_flag_row("depth4-cylinders-disjoint", n,
                              f"count={count} per-coin-word", overlap, 1e-12,
                              want_above=False))
        rows.append(_row("depth4-cylinders-cover", n, "per-coin-word",
                         cover_dev, 0.0, 1e-9))
        rows.append(_row("full-shift-entropy", n, "",
                         symbolic.mme_entropy(n), math.log(2 * n - 2), 0.0))
    return rows


def _boundary_worst(endpoint: str, ctx) -> float:
    target = ctx.a if endpoint == "a" else ctx.b
    worst = -math.inf
    for counts in ((3, 0), (2, 1, 2), (1, 1, 1, 1), (0, 2, 4), (5,)):
        digits = symbolic.boundary_expansions(endpoint, counts, ctx)
        if not digits:
            continue
        value, tail = eval_word(digits, ctx.beta)
        worst = max(worst, abs(value - target) - tail)
    return worst


def markov_suite(n_values=(3, 4, 5, 6, 8, 10), seed=_DEFAULT_SEED):
    rows = []
    for n in n_values:
        ctx = solve_beta(n)
        rule = markov.build_adjacency(n)
        images = markov.adjacency_from_images(ctx)
        rows.append(_row("adjacency-rule-vs-images", n, "",
                         float(np.abs(rule - images).sum()), 0.0, 0.0))
        pts = [-1.5, -0.5, 0.3, 0.9, 1.7, 2.5]
        rows.append(_row("char-poly-closed-form", n, f"points={len(pts)}",
                         markov.char_poly_residual(n, pts), 0.0, 1e-9))
        det = float(np.linalg.det(2.0 * np.eye(2 * n - 1) - rule))
        rows.append(_row("det-2I-minus-S", n, "", det / 2.0 ** n, 1.0,
                         1e-9))
        chain = markov.parry_chain(n)
        res_r, res_l = markov.eigen_residuals(rule, chain.lam, chain.u,
                                              chain.v)
        rows.append(_row("eigen-residual-right", n, "normalized",
                         res_r, 0.0, 1e-10))
        rows.append(_row("eigen-residual-left", n, "normalized",
                         res_l, 0.0, 1e-10))
        center = markov.parry_center(n)
        lam = center.lam
        rows.append(_row("normalization-closed-form", n, "",
                         markov.closed_form_inv_cd(lam, n) / center.inv_cd,
                         1.0, 1e-12))
        rows.append(_row("chain-entropy-is-log-lambda", n, "",
                         markov.entropy_rate(chain.p, chain.P_trans),
                         math.log(lam), 1e-10))
        rows.append(_row("perron-power-iteration", n, "",
                         markov.perron_by_power_iteration(rule), lam, 1e-9))
        if n <= 5:
            total = _depth3_cylinder_total(chain)
            rows.append(_row("depth3-chain-cylinders-sum", n, "",
                             total, 1.0, 1e-10))
        # Abramov: h_K = h_I * mu(switch cell) for K's maximal measure
        rows.append(_row("entropy-lift-identity", n, "kind=parry",
                         abs(math.log(lam) - center.h_induced
                             * center.mu_center), 0.0, 1e-12))
    margins = [r.margin for r in markov.check_inequality(_N_INEQUALITY)]
    rows.append(_flag_row("entropy-margin-positive", _N_INEQUALITY,
                          f"n=3..{_N_INEQUALITY}", min(margins), 0.0,
                          want_above=True))
    return rows


def _depth3_cylinder_total(chain) -> float:
    size = len(chain.p)
    total = 0.0
    for i in range(size):
        for j in range(size):
            if not chain.adjacency[i, j]:
                continue
            for k in range(size):
                if chain.adjacency[j, k]:
                    total += markov.cylinder_measure(chain, (i, j, k))
    return total


def measures_suite(n_values=(3, 4), seed=_DEFAULT_SEED):
    rows = []
    for n in n_values:
        ctx = solve_beta(n)
        depth = 3 if n == 3 else 2
        law = np.array(list(return_time_law(ctx).values()))
        worst = 0.0
        count = 0
        # each word's preimage mass against its product-measure value, one
        # coin word's table at a time
        for coins in product((0, 1), repeat=depth):
            lo, hi = measures.cylinder_preimage_table(coins, ctx)
            for p in (0.5, 0.3):
                mass = measures.bernoulli_mass(coins, p)
                lhs = mass * (hi - lo) / (ctx.b - ctx.a)
                rhs = reduce(np.multiply.outer, [law] * depth, mass).ravel()
                worst = max(worst, float(np.abs(lhs - rhs).max()))
                count += lo.size
        rows.append(_row("coding-pushforward-product", n,
                         f"depth<={depth} words={count}", worst, 0.0, 1e-12))
        # the word (1, 2)(0, n) under the uniform law, which the coding
        # does not carry Lebesgue onto
        lo, hi = measures.cylinder_preimage_table((1, 0), ctx)
        mass = measures.bernoulli_mass((1, 0), 0.5)
        lhs = mass * (hi[n - 2] - lo[n - 2]) / (ctx.b - ctx.a)
        uniform = 1.0 / (n - 1)
        rhs = mass * uniform * uniform
        rows.append(_flag_row("pushforward-negative-control", n,
                              "law=uniform", abs(lhs - rhs), 1e-3,
                              want_above=True))
        end_dev, mass_dev, words = _pullback_worst(ctx, n, depth, p=0.3)
        rows.append(_row("induced-cylinder-pullback", n,
                         f"words={words} letters={2 * (n - 1)}",
                         end_dev, 0.0, 1e-9))
        rows.append(_row("induced-cylinder-mass", n,
                         f"words={words} p=0.3", mass_dev, 0.0, 1e-12))
        att_lo, att_hi = ctx.beta * ctx.a - 1, ctx.beta * ctx.b
        nu_leb = measures.InducedMeasureSpec(kind="lebesgue", p=0.5)
        nu_uni = measures.InducedMeasureSpec(
            kind="product", p=0.5,
            pi=tuple(1.0 / (n - 1) for _ in range(2, n + 1)))
        for label, nu, tol in (("lebesgue", nu_leb, 1e-12),
                               ("uniform-product", nu_uni, 1e-10)):
            rows.append(_row("lift-total-mass", n, f"nu={label}",
                             measures.kac_lift(nu, (), (att_lo, att_hi), ctx),
                             1.0, tol))
            rows.append(_row("lift-switch-mass", n, f"nu={label}",
                             measures.kac_lift(nu, (), (ctx.a, ctx.b), ctx),
                             1.0 / expected_return_time(nu.law(ctx)), tol))
        dev = _invariance_worst(nu_leb, ctx, att_lo, att_hi, 40,
                                seed + 13 * n)
        rows.append(_row("lift-invariance", n, "nu=lebesgue rects=40",
                         dev, 0.0, 1e-10))
        # the uniform letter law's lift: h_I = log(2n-2), and the uniform
        # return-time law gives the switch cell mu_center = 2/(n+2)
        rows.append(_flag_row("uniform-lift-below-max", n, "",
                              math.log(solve_lambda(n).lam)
                              - math.log(2 * n - 2) * (2.0 / (n + 2)), 0.0,
                              want_above=True))
        # the overlap adds one term per letter-count vector, C(depth+n-2, n-2):
        # 321k for n = 4 at depth 800, but 86M for n = 5, so stop at n = 4
        if n <= 4:
            geo = tuple(ctx.beta ** (-t) for t in range(2, n + 1))
            uni = tuple(1.0 / (n - 1) for _ in range(2, n + 1))
            self_depth = 64
            rows.append(_row("cylinder-overlap-self", n, f"depth={self_depth}",
                             measures.cylinder_overlap(geo, geo, self_depth),
                             1.0, 1e-9))
            decay_depth = 5000 if n == 3 else 800
            rows.append(_flag_row("cylinder-overlap-decay", n,
                                  f"depth={decay_depth} laws=geometric/uniform",
                                  measures.cylinder_overlap(geo, uni, decay_depth),
                                  1e-3, want_above=False))
    return rows


def _pullback_worst(ctx, n, depth, p):
    """Pull every depth-`depth` cylinder back one induced step.

    For each word w and each letter l, the l-branch must map the preimage
    cylinder interval J(lw) onto J(w) endpoint to endpoint, and the coin-
    weighted preimage lengths must add back up to |J(w)|. Returns the worst
    endpoint deviation, the worst relative mass deviation and the word count.
    """
    branches = measures._branches(ctx)
    width = ctx.b - ctx.a
    end_dev = 0.0
    mass_dev = 0.0
    words = 0
    for coins in product((0, 1), repeat=depth):
        lo, hi = measures.cylinder_preimage_table(coins, ctx)
        # added over the letters (c, t) in order, as a scalar loop would
        pulled = 0.0
        for c in (0, 1):
            plo, phi = (v.reshape(n - 1, -1) for v in
                        measures.cylinder_preimage_table((c,) + coins, ctx))
            _, _, slope, offset = branches[c][:, :, None]
            end_dev = max(end_dev,
                          float(np.abs(slope * plo - offset - lo).max()),
                          float(np.abs(slope * phi - offset - hi).max()))
            pulled = reduce(np.add, (p if c else 1.0 - p) * (phi - plo),
                            pulled)
        mass_dev = max(mass_dev,
                       float((np.abs(pulled - (hi - lo)) / width).max()))
        words += lo.size
    return end_dev, mass_dev, words


def _invariance_worst(nu, ctx, att_lo, att_hi, count, seed) -> float:
    los = kernels.uniform_starts(seed, count, att_lo, att_hi)
    his = kernels.uniform_starts(seed + 1, count, att_lo, att_hi)
    bits = kernels.coin_bits(seed + 2, 2 * count)
    worst = 0.0
    for j in range(count):
        lo, hi = sorted((float(los[j]), float(his[j])))
        if hi - lo < 1e-6:
            hi = min(att_hi, lo + 1e-3)
        coins = tuple(int(b) for b in bits[2 * j: 2 * j + (j % 3)])
        worst = max(worst, measures.lift_invariance_deviation(
            nu, coins, (lo, hi), ctx))
    return worst


SUITES = {
    "gls": gls_suite,
    "symbolic": symbolic_suite,
    "markov": markov_suite,
    "measures": measures_suite,
}


# largest n each suite resolves in doubles. From n = 25 the measures
# suite's depth-3 cylinder preimages fall below an ulp; its failures at
# n = 11, 13, 14 and 16..24 are rows, not refusals (ROADMAP item 12)
_DOUBLE_N_MAX = {"gls": 21, "symbolic": 18, "markov": 27, "measures": 24}


def run(suite: str = "all", **kwargs):
    """Run one suite or all of them, each with the same keyword arguments;
    returns the combined row list. An n beyond what a suite resolves in
    doubles raises PrecisionLimitError before any row runs."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {sorted(SUITES)} or 'all'")
    names = list(SUITES) if suite == "all" else [suite]
    n_max = max(kwargs.get("n_values", ()), default=0)
    for name in names:
        limit = _DOUBLE_N_MAX.get(name, n_max)
        if n_max > limit:
            raise PrecisionLimitError(
                f"the {name} suite in doubles supports n <= {limit}, "
                f"got n={n_max}")
    return [row for name in names for row in SUITES[name](**kwargs)]
