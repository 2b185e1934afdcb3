"""Product measures, the first-return lift and entropy estimators."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkbeta import _bits, kernels, markov, measures, verify
from shrinkbeta.algebra import solve_beta
from shrinkbeta.gls import (expected_return_time, greedy_breakpoints,
                            lazy_breakpoints, return_time_law)
from shrinkbeta.measures import (InducedMeasureSpec, bernoulli_mass,
                                 block_entropy, cylinder_overlap,
                                 cylinder_preimage_table,
                                 entropy_rate_estimate, k_preimage_rectangles,
                                 kac_lift, lift_invariance_deviation)

CTX = solve_beta(3)
LEB = InducedMeasureSpec(kind="lebesgue", p=0.5)
UNI = InducedMeasureSpec(kind="product", p=0.5, pi=(0.5, 0.5))

INTEGRAL_TAU3 = 2.4301597090019467      # 2*beta^-2 + 3*beta^-3
SWITCH_MASS3 = 0.4114955886626458       # 1/INTEGRAL_TAU3, Lebesgue lift
H_K3 = 0.570579666779284                # log lambda_3
H_I3 = 1.3471974089195764
MU_CENTER3 = 0.42353085227270193
UNIFORM_LIFT_HK3 = 0.5545177444479562   # log(4) * (2/5)


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        InducedMeasureSpec(kind="other", p=0.5)
    with pytest.raises(ValueError):
        InducedMeasureSpec(kind="lebesgue", p=0.0)
    with pytest.raises(ValueError):
        InducedMeasureSpec(kind="product", p=0.5)
    with pytest.raises(ValueError):
        InducedMeasureSpec(kind="product", p=0.5, pi=(0.7, 0.7))
    assert UNI.law(CTX) == {2: 0.5, 3: 0.5}
    assert LEB.law(CTX) == return_time_law(CTX)


def test_product_kind_takes_only_laws_on_2_to_n():
    for pi in ((1.5, -0.5), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="negative or NaN entry"):
            InducedMeasureSpec(kind="product", p=0.5, pi=pi)
    # n = 3 has return times 2 and 3: three entries or one are no law there
    for pi in ((0.5, 0.25, 0.25), (1.0,)):
        nu = InducedMeasureSpec(kind="product", p=0.5, pi=pi)
        message = f"has {len(pi)} entries, n=3 needs 2"
        with pytest.raises(ValueError, match=message):
            nu.law(CTX)
        with pytest.raises(ValueError, match=message):
            kac_lift(nu, (), (CTX.a, CTX.b), CTX)


def test_bernoulli_mass():
    assert bernoulli_mass((1, 0, 1), 0.25) == pytest.approx(0.25 * 0.75 * 0.25)
    assert bernoulli_mass((), 0.3) == 1.0


def test_single_letter_cylinders_are_branch_cells():
    greedy = greedy_breakpoints(CTX)
    lazy = lazy_breakpoints(CTX)
    # coin 1 walks the greedy branch with that return time, coin 0 the lazy;
    # entry 0 of a one-letter table is return time 2
    lo, hi = cylinder_preimage_table((1,), CTX)
    assert (lo[0], hi[0]) == (greedy[0, 0], CTX.b)
    assert [lo.tolist(), hi.tolist()] == greedy[:2].tolist()
    lo, hi = cylinder_preimage_table((0,), CTX)
    assert (lo[0], hi[0]) == (CTX.a, lazy[1, 0])
    assert [lo.tolist(), hi.tolist()] == lazy[:2].tolist()


def pushforward(coins, rts, p, ctx, law=None):
    """The normalized Lebesgue mass of a symbolic cylinder's preimage, read
    from its coin word's table, and its product-measure value. With the
    geometric law pi_t = beta^-t the two agree: the coding carries
    Bernoulli(p) x Lebesgue onto Bernoulli(p) x pi^N."""
    lo, hi = cylinder_preimage_table(coins, ctx)
    j = 0
    for t in rts:  # the word's place in itertools.product order
        j = j * (ctx.n - 1) + t - 2
    mass = bernoulli_mass(coins, p)
    law = return_time_law(ctx) if law is None else law
    return (mass * (hi[j] - lo[j]) / (ctx.b - ctx.a),
            math.prod((law[t] for t in rts), start=mass))


def test_pushforward_exact_for_geometric_law():
    law = return_time_law(CTX)
    for coins, rts in [((1,), (2,)), ((0,), (3,)), ((1, 0), (3, 2)),
                       ((0, 0, 1), (2, 2, 3))]:
        lhs, rhs = pushforward(coins, rts, 0.3, CTX)
        expected = bernoulli_mass(coins, 0.3)
        for t in rts:
            expected *= law[t]
        assert rhs == pytest.approx(expected, abs=1e-15)
        assert abs(lhs - rhs) <= 1e-13


def test_pushforward_negative_control():
    lhs, rhs = pushforward((1, 0), (2, 3), 0.5, CTX, law={2: 0.5, 3: 0.5})
    assert abs(lhs - rhs) > 1e-3


@st.composite
def pushforward_inputs(draw):
    n = draw(st.integers(3, 12))
    length = draw(st.integers(1, 6))
    coins, rts = [], []
    budget = 40  # return times sum to at most this
    for left in range(length - 1, -1, -1):
        t = draw(st.integers(2, min(n, budget - 2 * left)))
        budget -= t
        rts.append(t)
        coins.append(draw(st.integers(0, 1)))
    return (tuple(coins), tuple(rts), draw(st.floats(0.01, 0.99)),
            solve_beta(n))


@settings(max_examples=200, deadline=None)
@given(args=pushforward_inputs())
def test_pushforward_exact_property(args):
    # the tolerance of verify's coding-pushforward-product row
    lhs, rhs = pushforward(*args)
    assert abs(lhs - rhs) <= 1e-12


def test_integral_tau():
    assert expected_return_time(LEB.law(CTX)) == pytest.approx(INTEGRAL_TAU3,
                                                               abs=1e-14)
    assert expected_return_time(UNI.law(CTX)) == pytest.approx(2.5, abs=1e-14)


def test_rectangle_measure_lebesgue():
    width = CTX.b - CTX.a
    mid = 0.5 * (CTX.a + CTX.b)
    value = measures._lebesgue_rectangle(0.5, (1,), CTX.a, mid, CTX)
    assert value == pytest.approx(0.5 * 0.5, abs=1e-14)
    assert measures._lebesgue_rectangle(0.5, (), CTX.a, CTX.b,
                                        CTX) == pytest.approx(1.0)
    # product kind resolves whole-cell targets exactly
    assert measures._product_rectangle(UNI, CTX, (), CTX.a,
                                       CTX.b) == pytest.approx(1.0)


@pytest.mark.parametrize("nu,switch_mass,tol", [
    (LEB, SWITCH_MASS3, 1e-14),
    (UNI, 0.4, 1e-12),
])
def test_kac_lift_totals(nu, switch_mass, tol):
    att = (CTX.beta * CTX.a - 1, CTX.beta * CTX.b)
    assert kac_lift(nu, (), att, CTX) == pytest.approx(1.0, abs=tol)
    assert kac_lift(nu, (), (CTX.a, CTX.b), CTX) == pytest.approx(
        switch_mass, abs=tol)
    assert kac_lift(nu, (), (CTX.a, CTX.b), CTX) * expected_return_time(
        nu.law(CTX)) == pytest.approx(1.0, abs=1e-12)


def test_k_preimage_covers_and_lift_is_invariant():
    pieces = k_preimage_rectangles((), (1.4, 1.6), CTX)
    assert 1 <= len(pieces) <= 4
    for coins, (lo, hi) in pieces:
        assert lo < hi
        # each piece maps into the target under one forward step
        for endpoint in (lo, hi):
            digit = coins[0] if coins else (0 if endpoint <= CTX.a else 1)
            image = CTX.beta * endpoint - digit
            assert 1.4 - 1e-9 <= image <= 1.6 + 1e-9
    for interval in [(1.4, 1.6), (0.9, 1.1), (1.334, 2.2)]:
        assert lift_invariance_deviation(LEB, (), interval, CTX) <= 1e-12


def test_abramov_identity_frozen():
    # h_K = h_I * mu(switch cell), from the switch cell's Parry numbers
    center = markov.parry_center(3)
    h_k = math.log(center.lam)
    assert h_k == pytest.approx(H_K3, abs=1e-15)
    assert center.h_induced == pytest.approx(H_I3, abs=1e-14)
    assert center.mu_center == pytest.approx(MU_CENTER3, abs=1e-14)
    assert abs(h_k - center.h_induced * center.mu_center) <= 1e-13
    # the uniform letter law: h_I = log 4 times its lift's switch mass 2/5
    uni_mu = kac_lift(UNI, (), (CTX.a, CTX.b), CTX)
    assert uni_mu == pytest.approx(0.4, abs=1e-15)
    assert math.log(4) * uni_mu == pytest.approx(UNIFORM_LIFT_HK3, abs=1e-14)
    row, = [r for r in verify.measures_suite(n_values=(3,))
            if r.check == "uniform-lift-below-max"]
    # strictly below the maximal lift
    assert row.lhs == pytest.approx(H_K3 - UNIFORM_LIFT_HK3, abs=1e-14)
    assert row.passed


def test_cylinder_overlap_basics():
    geo = tuple(CTX.beta ** (-t) for t in (2, 3))
    assert cylinder_overlap(geo, geo, 64) == pytest.approx(1.0, abs=1e-9)
    assert cylinder_overlap(geo, (0.5, 0.5), 0) == 1.0
    # decays below the Cauchy-Schwarz envelope
    bc = sum(math.sqrt(g * u) for g, u in zip(geo, (0.5, 0.5)))
    for depth in (10, 100, 1000):
        ov = cylinder_overlap(geo, (0.5, 0.5), depth)
        assert 0.0 < ov <= bc ** depth * (1 + 1e-12)
    with pytest.raises(ValueError):
        cylinder_overlap((0.5, 0.5), (0.5,), 3)
    with pytest.raises(ValueError):
        cylinder_overlap((0.5, 0.5), (0.5, 0.5), -1)


def empirical_entropy(sample, block_len, alphabet_size):
    """Per-symbol block entropy -(1/L) sum f log f over length-L blocks,
    from a sample where each block can appear about 100 times."""
    if len(sample) < 100 * alphabet_size ** block_len:
        raise ValueError("sample too short")
    return block_entropy(sample, block_len, alphabet_size) / block_len


def test_block_entropy_estimators():
    rng = np.random.default_rng(20260814)
    iid = rng.integers(0, 2, size=200000)
    assert entropy_rate_estimate(iid, 2, 2) == pytest.approx(math.log(2),
                                                           rel=5e-3)
    assert empirical_entropy(iid, 2, 2) == pytest.approx(math.log(2),
                                                       rel=5e-3)
    constant = np.zeros(1000, dtype=np.int64)
    assert block_entropy(constant, 3, 1) == 0.0
    # alternating sequence: rate 0 at block length 2, up to the window-count
    # edge effect (9999 pairs split 5000/4999, an O(1/L^2) bias)
    alternating = np.tile([0, 1], 5000)
    assert entropy_rate_estimate(alternating, 2, alphabet_size=2) == \
        pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ValueError):
        empirical_entropy(np.zeros(10, dtype=np.int64), 2, alphabet_size=4)


def reference_block_entropy(sample, block_len, alphabet_size):
    """The former estimator: the whole sample coded at once in int64."""
    sample = np.asarray(sample, dtype=np.int64)
    count = sample.size - block_len + 1
    codes = np.zeros(count, dtype=np.int64)
    for i in range(block_len):
        codes = codes * alphabet_size + sample[i:count + i]
    freqs = np.bincount(codes) / count
    freqs = freqs[freqs > 0]
    return float(-(freqs * np.log(freqs)).sum())


@pytest.mark.parametrize("chunk", [7, 1000, 65536])
@pytest.mark.parametrize("n", [3, 8])
def test_entropy_estimates_match_whole_sample_coding(n, chunk):
    chain = markov.build_chain(n)
    path = markov.sample_chain(chain, 25_003, seed=n)
    m = len(chain.p)
    with mock.patch.object(measures, "_BLOCK_CHUNK", chunk):
        for block_len in (1, 2, 3):
            got = block_entropy(path, block_len, m)
            assert got.hex() == \
                reference_block_entropy(path, block_len, m).hex()
        rate = entropy_rate_estimate(path, 2, alphabet_size=m)
    expected = (reference_block_entropy(path, 2, m)
                - reference_block_entropy(path, 1, m))
    assert rate.hex() == expected.hex()


def test_block_entropy_rejects_sample_shorter_than_block():
    with pytest.raises(ValueError, match="symbols"):
        block_entropy(np.zeros(2, dtype=np.int8), 3, 2)


@pytest.mark.parametrize("estimate", [
    lambda sample, block_len: entropy_rate_estimate(sample, block_len, 2),
    lambda sample, block_len: block_entropy(sample, block_len, 2),
], ids=["entropy_rate_estimate", "block_entropy"])
@pytest.mark.parametrize("block_len", [0, -1])
def test_estimators_reject_block_len_below_one(estimate, block_len):
    # before, these returned 0.0 and -0.0 for a valid sample
    sample = np.tile([0, 1], 500)
    with pytest.raises(ValueError, match="block_len must be >= 1"):
        estimate(sample, block_len)


def test_entropy_estimate_holds_no_full_length_int64():
    chain = markov.build_chain(8)
    path = markov.sample_chain(chain, 10 ** 6, seed=1)
    tracemalloc.start()
    try:
        entropy_rate_estimate(path, 2, alphabet_size=len(chain.p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one int64 copy of the 1e6-symbol path alone would be 8 MB. A chunk
    # holds two int64 arrays of 16,384 blocks (the symbols and their codes),
    # and one of the previous chunk's stays alive while the next chunk's
    # are made: at most three such arrays at once, and the bound allows
    # four. The block counts have 15**2 entries at most.
    assert peak < 4 * 16384 * 8


def sample_return_times(law, count, seed):
    """Seeded iid sample from a return-time law, via inverse transform."""
    ts = sorted(law)
    cum = np.cumsum([law[t] for t in ts])
    u = kernels._uniforms(seed, _bits.STREAM_CHAIN, 0, count)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(ts) - 1)
    return np.asarray(ts, dtype=np.int64)[idx]


def test_sample_return_times_law():
    law = return_time_law(CTX)
    sample = sample_return_times(law, 20000, seed=3)
    assert np.array_equal(sample, sample_return_times(law, 20000, seed=3))
    assert set(np.unique(sample)) <= {2, 3}
    for t, w in law.items():
        freq = (sample == t).mean()
        sigma = math.sqrt(w * (1 - w) / sample.size)
        assert abs(freq - w) <= 4 * sigma


def scalar_product_rectangle(nu, ctx, coins, x_lo, x_hi, min_first_rt=2):
    """Reference for measures._product_rectangle: the same tree walked one
    node at a time from a stack, adding each finished node to the total."""
    branches = measures._branches(ctx)
    law = nu.law(ctx)
    letters = [(c, t) for c in (0, 1) for t in law]
    p = nu.p
    x_lo = max(x_lo, ctx.a)
    x_hi = min(x_hi, ctx.b)
    if not x_lo < x_hi:
        return 0.0

    def coin_mass_from(depth):
        m = 1.0
        for bit in coins[depth:]:
            m *= p if bit else 1.0 - p
        return m

    total = 0.0
    stack = [(0, ctx.a, ctx.b, 1.0, 0.0, 1.0)]
    while stack:
        depth, j_lo, j_hi, s_acc, o_acc, weight = stack.pop()
        if j_hi <= x_lo or j_lo >= x_hi:
            continue
        if x_lo <= j_lo and j_hi <= x_hi and not (depth == 0 and min_first_rt > 2):
            total += weight * coin_mass_from(depth)
            continue
        if weight <= measures._REFINE_TOL or depth >= measures._MAX_DEPTH:
            total += 0.5 * weight * coin_mass_from(depth)
            continue
        forced = coins[depth] if depth < len(coins) else None
        for coin, t in letters:
            if forced is not None and coin != forced:
                continue
            if depth == 0 and t < min_first_rt:
                continue
            d_lo, d_hi, s, o = map(float, branches[coin][:, t - 2])
            c_lo = max(j_lo, (d_lo + o_acc) / s_acc)
            c_hi = min(j_hi, (d_hi + o_acc) / s_acc)
            if not c_lo < c_hi:
                continue
            w = weight * (p if coin else 1.0 - p) * law[t]
            stack.append((depth + 1, c_lo, c_hi, s * s_acc,
                          s * o_acc + o, w))
    return total


def recursive_overlap(law1, law2, depth):
    """Reference for measures.cylinder_overlap: one recursive call per
    letter count, one term added per count vector."""
    logp = [math.log(v) if v > 0.0 else -math.inf for v in law1]
    logq = [math.log(v) if v > 0.0 else -math.inf for v in law2]
    last = len(logp) - 1
    total = 0.0

    def scan(slot, remaining, lg, lp, lq):
        nonlocal total
        if slot == last:
            if remaining:
                lg -= math.lgamma(remaining + 1)
                lp += remaining * logp[slot]
                lq += remaining * logq[slot]
            exponent = lg + min(lp, lq)
            if exponent > -745.0:
                total += math.exp(exponent)
            return
        scan(slot + 1, remaining, lg, lp, lq)
        for k in range(1, remaining + 1):
            scan(slot + 1, remaining - k, lg - math.lgamma(k + 1),
                 lp + k * logp[slot], lq + k * logq[slot])

    scan(0, depth, math.lgamma(depth + 1), 0.0, 0.0)
    return total


def test_evaluators_match_references_on_every_verify_call(monkeypatch):
    # the calls `verify --suite measures --n 3..6` makes, bit for bit
    rect_calls, overlap_calls = [], []
    rect, overlap = measures._product_rectangle, measures.cylinder_overlap

    def record_rect(*args, **kwargs):
        value = rect(*args, **kwargs)
        rect_calls.append((args, kwargs, value))
        return value

    def record_overlap(*args):
        value = overlap(*args)
        overlap_calls.append((args, value))
        return value

    monkeypatch.setattr(measures, "_product_rectangle", record_rect)
    monkeypatch.setattr(measures, "cylinder_overlap", record_overlap)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = verify.measures_suite(n_values=(3, 4, 5, 6))
    assert all(row.passed for row in rows)
    assert {args[1].n for args, _, _ in rect_calls} == {3, 4, 5, 6}
    assert len(overlap_calls) == 4  # self and decay rows, n <= 4
    for args, kwargs, value in rect_calls:
        assert type(value) is float
        assert value.hex() == scalar_product_rectangle(*args, **kwargs).hex()
    for args, value in overlap_calls:
        assert type(value) is float
        assert value.hex() == recursive_overlap(*args).hex()


@st.composite
def rectangle_inputs(draw):
    n = draw(st.integers(3, 6))
    ctx = solve_beta(n)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1,
                            max_size=n - 1))
    nu = InducedMeasureSpec(kind="product", p=draw(st.floats(0.05, 0.95)),
                            pi=tuple(w / sum(weights) for w in weights))
    coins = tuple(draw(st.lists(st.integers(0, 1), max_size=4)))
    # endpoints anywhere in and around [a, b]: most targets straddle
    # cylinders at every depth, so the tolerance bounds the tree
    ends = sorted(draw(st.lists(st.floats(ctx.a - 0.05, ctx.b + 0.05),
                                min_size=2, max_size=2)))
    return nu, ctx, coins, ends[0], ends[1], draw(st.integers(2, n))


def walk_both(args, chunk, tol):
    """_product_rectangle and its scalar reference at one _CHUNK and
    _REFINE_TOL, as float.hex."""
    with mock.patch.object(measures, "_CHUNK", chunk), \
            mock.patch.object(measures, "_REFINE_TOL", tol), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return (measures._product_rectangle(*args).hex(),
                scalar_product_rectangle(*args).hex())


@settings(max_examples=60, deadline=None)
@given(args=rectangle_inputs(), chunk=st.sampled_from([1, 5, 1024]),
       tol=st.sampled_from([1e-3, 1e-5]))
def test_product_rectangle_matches_scalar_walk(args, chunk, tol):
    # chunk 1 and 5 split the frontier into many pieces
    value, reference = walk_both(args, chunk, tol)
    assert value == reference


@st.composite
def overlap_inputs(draw):
    size = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    laws = [draw(st.lists(entry, min_size=size, max_size=size))
            for _ in range(2)]
    # four letters have C(depth + 3, 3) count vectors: keep the
    # recursive reference quick
    depth = draw(st.integers(0, 300 if size < 4 else 40))
    return laws[0], laws[1], depth


def test_overlap_leaves_out_the_terms_the_sum_absorbs():
    # verify's decay row at n = 4: 321,201 count vectors, most of them
    # under half an ulp of the running sum, which reach no adder
    ctx = solve_beta(4)
    geo = tuple(ctx.beta ** (-t) for t in range(2, 5))
    uni = (1.0 / 3,) * 3
    with mock.patch.object(measures, "_add_in_order",
                           wraps=measures._add_in_order) as spy:
        value = cylinder_overlap(geo, uni, 800)
    assert sum(len(c.args[1]) for c in spy.call_args_list) < 100_000
    assert value.hex() == recursive_overlap(geo, uni, 800).hex()


@settings(max_examples=60, deadline=None)
@given(args=overlap_inputs())
def test_cylinder_overlap_matches_recursion(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = cylinder_overlap(*args)
    assert value.hex() == recursive_overlap(*args).hex()


@st.composite
def pruned_targets(draw):
    """Targets whose endpoints sit where children die at birth: branch
    breakpoints, the excursion preimages (a + off) / beta^k and
    (b + off) / beta^k that kac_lift cuts at, and one-ulp slivers."""
    n = draw(st.integers(3, 6))
    ctx = solve_beta(n)
    beta = ctx.beta
    points = {float(v) for rows in measures._branches(ctx).values()
              for v in rows[:2].ravel()}
    for k in range(1, n):
        for off in (beta ** (k - 1), (beta ** (k - 1) - 1) / (beta - 1)):
            points.update(x for x in ((ctx.a + off) / beta ** k,
                                      (ctx.b + off) / beta ** k)
                          if ctx.a <= x <= ctx.b)
    points = sorted(points)
    if draw(st.booleans()):
        x = draw(st.sampled_from(points) | st.floats(ctx.a, ctx.b))
        lo, hi = x, math.nextafter(x, math.inf)
    else:
        lo, hi = sorted(draw(st.lists(st.sampled_from(points), min_size=2,
                                      max_size=2, unique=True)))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1,
                            max_size=n - 1))
    nu = InducedMeasureSpec(kind="product", p=draw(st.floats(0.05, 0.95)),
                            pi=tuple(w / sum(weights) for w in weights))
    coins = tuple(draw(st.lists(st.integers(0, 1), max_size=4)))
    return nu, ctx, coins, lo, hi, draw(st.integers(2, n))


@settings(max_examples=80, deadline=None)
@given(args=pruned_targets(), chunk=st.sampled_from([1, 5, 1024]),
       tol=st.sampled_from([1e-3, 1e-5]))
def test_product_rectangle_pruning_matches_scalar_walk(args, chunk, tol):
    value, reference = walk_both(args, chunk, tol)
    assert value == reference


def test_product_rectangle_with_no_letter_left():
    # a first-letter bound above n leaves the root no child at all
    nu, ctx = InducedMeasureSpec(kind="product", p=0.5, pi=(0.5, 0.5)), CTX
    args = (nu, ctx, (1,), ctx.a, ctx.b, 4)
    assert measures._product_rectangle(*args) == 0.0
    assert scalar_product_rectangle(*args) == 0.0


@pytest.mark.parametrize("chunk", [1, 7, 8192])
@pytest.mark.parametrize("law1,law2,depth", [
    # 39,711 count vectors: five chunks of the default size
    ((0.1, 0.2, 0.3, 0.4), (0.25, 0.25, 0.25, 0.25), 60),
    ((0.1, 0.2, 0.3, 0.15, 0.25), (0.2, 0.2, 0.2, 0.2, 0.2), 24),
    ((0.5, 0.0, 0.25, 0.25), (0.3, 0.3, 0.0, 0.4), 50),
    ((0.25, 0.25, 0.5, 0.0, 0.0), (0.2, 0.0, 0.2, 0.3, 0.3), 20),
    # one tail longer than a default chunk
    ((0.6, 0.4), (0.5, 0.5), 9000),
], ids=["four-letters", "five-letters", "four-with-zeros",
        "five-with-zeros", "long-tail"])
def test_cylinder_overlap_chunks_match_recursion(law1, law2, depth, chunk):
    with mock.patch.object(measures, "_OVERLAP_CHUNK", chunk), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = cylinder_overlap(law1, law2, depth)
    assert value.hex() == recursive_overlap(law1, law2, depth).hex()


def test_partitions_are_built_once_per_context():
    ctx = solve_beta(11)
    measures._branches.cache_clear()
    greedy = mock.Mock(wraps=greedy_breakpoints)
    lazy = mock.Mock(wraps=lazy_breakpoints)
    with mock.patch.object(measures, "greedy_breakpoints", greedy), \
            mock.patch.object(measures, "lazy_breakpoints", lazy):
        first = measures._branches(ctx)
        assert measures._branches(ctx) is first
        cylinder_preimage_table((0, 1), ctx)
        verify.gls_suite(n_values=(11,))
    assert (greedy.call_count, lazy.call_count) == (1, 1)
    assert first[1].tobytes() == greedy_breakpoints(ctx).tobytes()
    assert first[0].tobytes() == lazy_breakpoints(ctx).tobytes()
    with pytest.raises(ValueError):
        cylinder_preimage_table((0, 2), ctx)
