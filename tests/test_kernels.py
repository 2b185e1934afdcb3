"""Bulk kernels: reference parity, stream addressing, input checks and
typed errors."""

import math
import re
import tracemalloc
from bisect import bisect_right
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkbeta import _bits, dynamics, kernels, markov
from shrinkbeta.algebra import solve_beta
from shrinkbeta.dynamics import CoinStream, PointState, return_time
from shrinkbeta.errors import InvariantViolationError, OrbitEscapeError

CTX = solve_beta(3)


def _splitmix64_reference(seed, count):
    """Textbook splitmix64: advance by the golden gamma, then finalize."""
    mask = (1 << 64) - 1
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_raw_stream_is_splitmix64():
    for seed in (0, 1, 20260814, (1 << 64) - 5):
        assert [_bits.raw_at(seed, i) for i in range(16)] == \
            _splitmix64_reference(seed, 16)
    # published first outputs for seed 0
    assert _bits.raw_at(0, 0) == 0xE220A8397B1DCDAF
    assert _bits.raw_at(0, 1) == 0x6E789E6AA1B965F4
    assert _bits.raw_at(0, 2) == 0x06C45D188009454F


def uniform_at(seed, index, stream=_bits.STREAM_COIN):
    """Scalar reference: uniform double in [0, 1) with 53 random mantissa
    bits."""
    return (_bits.raw_at(seed, index, stream) >> 11) * 2.0 ** -53


def uniform_array(seed, count):
    """The first count uniforms `chain_sample` draws for seed."""
    return kernels._uniforms(seed, _bits.STREAM_CHAIN, 0, count)


def test_vectorized_streams_match_scalar():
    seed = 987654321
    bits = kernels.coin_bits(seed, 200)
    assert [int(b) for b in bits] == \
        [_bits.bit_at(seed, k) for k in range(200)]
    uniforms = uniform_array(seed, 200)
    for k in (0, 1, 63, 199):
        assert float(uniforms[k]) == uniform_at(seed, k, _bits.STREAM_CHAIN)
    assert uniforms.min() >= 0.0 and uniforms.max() < 1.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       stream=st.sampled_from([_bits.STREAM_COIN, _bits.STREAM_START,
                               _bits.STREAM_CHAIN]),
       index=st.lists(st.integers(0, 2 ** 64 - 1), max_size=40)
       .map(lambda ints: [0, 2 ** 64 - 1] + ints))
def test_in_place_mixer_matches_scalar_words(seed, stream, index):
    # at index 2**64 - 1 the counter index + 1 wraps to 0
    idx = np.array(index, dtype=np.uint64)
    before = idx.copy()
    words = kernels._raw(seed, stream, idx)
    assert words.dtype == np.uint64
    assert [int(w) for w in words] == \
        [_bits.raw_at(seed, i, stream) for i in index]
    assert np.array_equal(idx, before)


def test_streams_are_disjoint_per_seed():
    seed = 42
    coins = kernels.coin_bits(seed, 64)
    starts = kernels.uniform_starts(seed, 64, 0.0, 1.0)
    chain = uniform_array(seed, 64)
    # same seed, three different tweaks: the raw words must differ
    raw_coin = _bits.raw_at(seed, 0, _bits.STREAM_COIN)
    raw_start = _bits.raw_at(seed, 0, _bits.STREAM_START)
    raw_chain = _bits.raw_at(seed, 0, _bits.STREAM_CHAIN)
    assert len({raw_coin, raw_start, raw_chain}) == 3
    assert not np.array_equal(starts, chain)
    assert coins.shape == (64,)


def test_uniform_starts_range():
    ctx = CTX
    starts = kernels.uniform_starts(7, 1000, ctx.a, ctx.b)
    assert starts.min() >= ctx.a and starts.max() < ctx.b


def test_bulk_matches_scalar_orbit():
    seed = 555
    steps = 300
    x0 = np.array([1.45])
    hist, xf = kernels.induced_stats(CTX, x0, steps, seed)
    # scalar route: the same coin stream drives return_time step by step
    state = PointState(CoinStream.seeded(seed), 1.45)
    taus = []
    for _ in range(steps):
        res = return_time(state, CTX)
        taus.append(res.t)
        state = res.state
    expected_hist = np.bincount(taus, minlength=CTX.n + 2)
    assert np.array_equal(hist, expected_hist)
    assert xf[0] == state.x  # bitwise, multiply-then-subtract in both paths


def test_bulk_histogram_support():
    ctx = solve_beta(4)
    x0 = kernels.uniform_starts(11, 256, ctx.a + 1e-9, ctx.b - 1e-9)
    hist, xf = kernels.induced_stats(ctx, x0, 200, 11)
    assert hist[0] == hist[1] == hist[ctx.n + 1] == 0
    assert hist.sum() == 256 * 200
    assert np.all(xf >= ctx.a) and np.all(xf <= ctx.b)


def test_escape_retyped():
    # a too-large expansion factor throws a start inside [a, b] past the
    # domain in its first round
    fake = SimpleNamespace(beta=3.0, a=CTX.a, b=CTX.b,
                           domain_max=CTX.domain_max, n=CTX.n)
    with pytest.raises(OrbitEscapeError):
        kernels.induced_stats(fake, np.array([1.5]), 4, 1)


def test_drift_retyped():
    # a too-small expansion factor cannot return within n steps
    fake = SimpleNamespace(beta=1.1, a=CTX.a, b=CTX.b,
                           domain_max=CTX.domain_max, n=CTX.n)
    with pytest.raises(InvariantViolationError):
        kernels.induced_stats(fake, np.array([1.5]), 4, 1)


def test_drift_message_names_n_plus_one():
    # time n + 1 is still counted and only a longer return drifts, so the
    # message names n+1, in dynamics.return_time's words
    fake = SimpleNamespace(beta=1.1, a=CTX.a, b=CTX.b,
                           domain_max=CTX.domain_max, n=CTX.n)
    with pytest.raises(InvariantViolationError) as info:
        kernels.induced_stats(fake, np.array([1.5]), 4, 1)
    assert re.fullmatch(r"return time exceeded n\+1 = 4 at x=\S+ "
                        r"\(bulk kernel\)", str(info.value))


@pytest.mark.parametrize("bad", [0.0, 0.5, 1.9, CTX.domain_max + 2.0],
                         ids=["0.0", "0.5", "1.9", "domain_max+2"])
def test_starts_outside_switch_interval_rejected(bad):
    # the first coin step is the map only on [a, b]; outside it the
    # kernel would report an escape or a drift
    with pytest.raises(ValueError, match=r"\[a, b\]"):
        kernels.induced_stats(CTX, np.array([1.45, bad]), 3, 1)


@pytest.mark.parametrize("steps", [0, -1])
def test_chain_sample_rejects_empty_path(steps):
    cum_rows = np.array([[0.5, 1.0], [0.25, 1.0]])
    with pytest.raises(ValueError, match="steps"):
        kernels.chain_sample(cum_rows, np.array([0.5, 1.0]), steps, seed=9)


def test_chain_sample_inverse_transform():
    cum_rows = np.array([[0.5, 1.0], [0.25, 1.0]])
    start_cum = np.array([1.0, 1.0])  # always start in state 0
    path = kernels.chain_sample(cum_rows, start_cum, 5000, seed=9)
    assert path[0] == 0
    assert set(np.unique(path)) == {0, 1}
    # transition frequencies near the specified rows
    from_zero = path[1:][path[:-1] == 0]
    freq01 = (from_zero == 1).mean()
    assert abs(freq01 - 0.5) < 4 * math.sqrt(0.25 / from_zero.size)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_starts_rejected(bad):
    # a NaN start would count as a return at time 1 and come back as NaN
    with pytest.raises(ValueError, match="finite"):
        kernels.induced_stats(CTX, np.array([bad, 1.45]), 3, 1)


@pytest.mark.parametrize("steps", [0, -3])
def test_induced_stats_rejects_no_steps(steps):
    with pytest.raises(ValueError, match="steps must be >= 1, got"):
        kernels.induced_stats(CTX, np.array([1.45]), steps, 1)


def test_induced_stats_rejects_an_extended_precision_context():
    # the rounds write into float64 buffers; an mpf beta is refused, not
    # cast
    with pytest.raises(ValueError, match="runs in doubles; got a context "
                                         "with beta of type mpf"):
        kernels.induced_stats(solve_beta(3, 100), np.array([1.45]), 3, 1)


def test_induced_stats_rejects_no_starts():
    with pytest.raises(ValueError, match="x0 size must be >= 1, got 0"):
        kernels.induced_stats(CTX, np.array([]), 3, 1)


@pytest.mark.parametrize("shape", [(4, 1), (2, 2)])
def test_induced_stats_rejects_starts_that_are_not_1d(shape):
    # valid starts in a column would broadcast against the coin row
    with pytest.raises(ValueError,
                       match=rf"x0 must be 1-D, got shape \({shape[0]}, "
                             rf"{shape[1]}\)"):
        kernels.induced_stats(CTX, np.full(shape, 1.45), 3, 1)


SAMPLERS = {
    "uniform_starts": lambda count: kernels.uniform_starts(1, count, 0, 1),
    "coin_bits": lambda count: kernels.coin_bits(1, count),
}


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_samplers_reject_negative_counts(sampler):
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        SAMPLERS[sampler](-1)
    assert SAMPLERS[sampler](0).size == 0


@pytest.mark.parametrize("cum_rows, start_cum", [
    (np.ones((128, 128)), np.ones(128)),        # beyond int8 states
    (np.ones((2, 3)), np.ones(2)),
    (np.ones((3, 2)), np.ones(2)),
    (np.ones(2), np.ones(2)),
    (np.ones((2, 2)), np.ones((1, 2))),
    (np.ones((0, 0)), np.ones(0)),
    (np.array([[0.5, 1.0], [0.75, 0.5]]), np.array([0.5, 1.0])),
    (np.array([[0.5, 1.0], [0.5, 1.0]]), np.array([0.6, 0.4])),
    (np.array([[0.5, 1.0], [math.nan, 1.0]]), np.array([0.5, 1.0])),
])
def test_chain_sample_rejects_bad_laws(cum_rows, start_cum):
    # bad shapes, more states than int8 holds, decreasing or NaN laws
    with pytest.raises(ValueError):
        kernels.chain_sample(cum_rows, start_cum, 10, seed=1)


def test_chain_sample_accepts_127_states():
    m = 127
    cum_rows = np.tile(np.arange(1, m + 1) / m, (m, 1))
    path = kernels.chain_sample(cum_rows, cum_rows[0], 3000, seed=4)
    assert path.dtype == np.int8 and path.min() >= 0 and path.max() == m - 1


def reference_induced_stats(beta, a, b, domain_max, n_cap, x0, steps, seed):
    """The former numpy loop: every point through every round of every
    step, with a return time kept per point."""
    x = np.array(x0, dtype=np.float64, copy=True)
    count = x.size
    hist = np.zeros(n_cap + 2, dtype=np.int64)
    offsets = np.arange(count, dtype=np.uint64) * np.uint64(steps)
    for k in range(steps):
        z = kernels._raw(seed, _bits.STREAM_COIN, offsets + np.uint64(k))
        bits = (z >> np.uint64(63)).astype(np.float64)
        x = beta * x - bits
        t = np.ones(count, dtype=np.int64)
        out = (x < a) | (x > b)
        rounds = 0
        while out.any():
            rounds += 1
            if rounds > n_cap:
                worst = float(x[int(np.argmax(out))])
                raise InvariantViolationError(
                    f"return time exceeded n+1 = {n_cap + 1} at x={worst!r} "
                    f"(bulk kernel)")
            x = np.where(out, np.where(x > b, beta * x - 1.0, beta * x), x)
            bad = ((x < -dynamics._DRIFT_GUARD)
                   | (x > domain_max + dynamics._DRIFT_GUARD))
            if bad.any():
                worst = float(x[int(np.argmax(bad))])
                raise OrbitEscapeError(worst, 0.0, domain_max, "bulk kernel")
            t += out
            out = (x < a) | (x > b)
        hist += np.bincount(t, minlength=n_cap + 2)
    return hist, x


def reference_chain_sample(cum_rows, start_cum, steps, seed):
    """The former sampler: one bisection of the current row per step."""
    m = len(start_cum)
    idx = np.arange(steps, dtype=np.uint64)
    z = kernels._raw(seed, _bits.STREAM_CHAIN, idx)
    u = (z >> np.uint64(11)) * 2.0 ** -53
    rows = [list(row) for row in cum_rows]
    out = np.empty(steps, dtype=np.int8)
    state = min(bisect_right(list(start_cum), u[0]), m - 1)
    out[0] = state
    for k in range(1, steps):
        state = min(bisect_right(rows[state], u[k]), m - 1)
        out[k] = state
    return out


def _outcome(fn, *args):
    """A kernel's result with finals as float.hex, or its error's class
    name and message."""
    try:
        hist, xf = fn(*args)
    except (OrbitEscapeError, InvariantViolationError) as exc:
        return type(exc).__name__, str(exc)
    return hist.tolist(), [v.hex() for v in xf.tolist()]


# small draws cross block boundaries at small sizes
KERNEL_SIZES = dict(words=st.sampled_from([1, 7, 64, 16384]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 24), seed=st.integers(0, 2 ** 64 - 1),
       points=st.integers(1, 300), steps=st.integers(1, 200), **KERNEL_SIZES)
def test_induced_stats_matches_reference(n, seed, points, steps, words):
    # from n = 11 on, 64 points run R = 9 < n rounds and points still out
    # go on to `_finish`
    ctx = solve_beta(n)
    x0 = kernels.uniform_starts(seed, points, ctx.a, ctx.b)
    args = (ctx.beta, ctx.a, ctx.b, ctx.domain_max, ctx.n, x0, steps, seed)
    with mock.patch.object(kernels, "_DRAW_WORDS", words):
        got = _outcome(kernels._induced, *args)
    assert type(got[0]) is list
    assert got == _outcome(reference_induced_stats, *args)


@pytest.mark.parametrize("n", [3, 4, 8, 10, 12, 24])
def test_induced_stats_matches_reference_at_full_block(n):
    # 1024 points draw 16 steps of coins per block: 70 steps cross four
    ctx = solve_beta(n)
    x0 = kernels.uniform_starts(n, 1024, ctx.a, ctx.b)
    args = (ctx.beta, ctx.a, ctx.b, ctx.domain_max, ctx.n, x0, 70, n)
    assert _outcome(kernels._induced, *args) == \
        _outcome(reference_induced_stats, *args)


@st.composite
def faulty_inputs(draw):
    """Starts that escape or an expansion factor too small to return:
    both kernels must stop at the same round of the same step, at the
    same point."""
    n = draw(st.integers(3, 12))
    ctx = solve_beta(n)
    inside = st.floats(ctx.a, ctx.b)
    outside = st.one_of(st.floats(ctx.domain_max + 1e-6, ctx.domain_max + 3),
                        st.floats(-3, -1e-6))
    x0 = draw(st.lists(inside, min_size=1, max_size=60))
    for _ in range(draw(st.integers(0, 2))):
        x0.insert(draw(st.integers(0, len(x0))), draw(outside))
    beta = draw(st.one_of(st.just(ctx.beta), st.floats(1.01, 1.2),
                          st.floats(1.2, ctx.beta)))
    return (beta, ctx.a, ctx.b, ctx.domain_max, ctx.n, np.array(x0),
            draw(st.integers(1, 40)), draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=60, deadline=None)
@given(args=faulty_inputs(), **KERNEL_SIZES)
def test_induced_stats_errors_match_reference(args, words):
    with mock.patch.object(kernels, "_DRAW_WORDS", words):
        got = _outcome(kernels._induced, *args)
    assert got == _outcome(reference_induced_stats, *args)


@st.composite
def dyadic_inputs(draw):
    """beta = 2 on dyadic starts: every product is exact, so points land
    exactly on a, b and 0, where a strict and a non-strict comparison
    part ways."""
    x0 = draw(st.lists(st.integers(4, 12), min_size=1, max_size=40))
    return (2.0, 0.25, 0.75, 1.0, draw(st.integers(1, 12)),
            np.array(x0) / 16, draw(st.integers(1, 40)),
            draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=60, deadline=None)
@given(args=dyadic_inputs(), **KERNEL_SIZES)
def test_induced_stats_boundary_hits_match_reference(args, words):
    with mock.patch.object(kernels, "_DRAW_WORDS", words):
        got = _outcome(kernels._induced, *args)
    assert got == _outcome(reference_induced_stats, *args)


def test_nan_start_beside_an_escape_matches_reference():
    # the private loop, below the finite-start check of `induced_stats`
    args = (CTX.beta, CTX.a, CTX.b, CTX.domain_max, CTX.n,
            np.array([math.nan] * 20 + [CTX.domain_max + 2.0]), 3, 1)
    got = _outcome(kernels._induced, *args)
    assert got[0] == "OrbitEscapeError"
    assert got == _outcome(reference_induced_stats, *args)


def test_fake_beta_drift_matches_reference():
    args = (1.1, CTX.a, CTX.b, CTX.domain_max, CTX.n,
            np.array([1.5, 1.2, 1.5]), 4, 1)
    got = _outcome(kernels._induced, *args)
    assert got[0] == "InvariantViolationError"
    assert got == _outcome(reference_induced_stats, *args)


def _landing_args(landing, n_cap, seed=3):
    """Kernel arguments at beta = 2 on [1/4, 3/4] whose one coin step
    lands each point on (about) its `landing` value: with steps = 1,
    point j reads coin j."""
    x0 = (np.array(landing) + kernels.coin_bits(seed, len(landing))) / 2
    return 2.0, 0.25, 0.75, 1.0, n_cap, x0, 1, seed


# (below a, above b) landing pairs: a point takes the first on coin 1 and
# the second on coin 0, so every start is inside [a, b]
def _escape_at(r, scale):
    """Landings that double away past the guard band at round r: scale in
    (1, 2) sets the escape value, about -scale * guard or 1 + scale *
    guard."""
    e = scale * dynamics._DRIFT_GUARD / 2 ** r
    return -e, 1.0 + e


def _slow(k):
    """Landings that k doublings take to a or b: return time k + 1."""
    return 0.25 / 2 ** k, 1.0 - 0.25 / 2 ** k


def _round_order_args(pairs, fill, n_cap, seed=3):
    """`_landing_args` for the bad landing pairs with `fill` points between
    them that return at time 2."""
    gap = [(0.125, 0.875)] * fill
    pairs = gap + [q for p in pairs for q in [p, *gap]]
    coins = kernels.coin_bits(seed, len(pairs)).tolist()
    return _landing_args([p[1 - c] for p, c in zip(pairs, coins)], n_cap,
                         seed)


# the batch size sets R = min(n_cap - 1, ceil(log2(points))) rounds over
# all points: fill 64, 2 and 0 give R = min(n_cap - 1, 8), min(n_cap - 1, 3)
# and 1, so the bad points reach `_finish` after their errors or before
# them
ROUND_ORDER_CASES = {
    # the higher-index point escapes at round 4, the lower one at round 5
    "later-point-escapes-first": ([_escape_at(5, 1.25), _escape_at(4, 1.5)],
                                  12, OrbitEscapeError),
    # 0 and 1 are fixed: a drift at round n + 1 = 7 before an escape at
    # round 3
    "drift-beside-earlier-escape": ([(0.0, 1.0), _escape_at(3, 1.5)], 6,
                                    OrbitEscapeError),
    # two drifts at round n + 1 = 4, at different values: the lower index
    # names it
    "two-drifts": ([_slow(6), _slow(5)], 3, InvariantViolationError),
}


@pytest.mark.parametrize("fill", [64, 2, 0])
@pytest.mark.parametrize("case", ROUND_ORDER_CASES)
def test_errors_follow_round_order_not_point_order(case, fill):
    pairs, n_cap, error = ROUND_ORDER_CASES[case]
    args = _round_order_args(pairs, fill, n_cap)
    assert ((args[5] >= args[1]) & (args[5] <= args[2])).all()
    got = _outcome(kernels._induced, *args)
    assert got[0] == error.__name__
    assert got == _outcome(reference_induced_stats, *args)


@pytest.mark.parametrize("case", ROUND_ORDER_CASES)
def test_a_step_run_whole_from_round_one_raises_without_a_replay(case):
    # with no rounds, each step runs whole through `_finish` from round 1,
    # whose error is already the one a round-by-round check meets first
    pairs, n_cap, error = ROUND_ORDER_CASES[case]
    args = _round_order_args(pairs, 64, n_cap)
    with mock.patch.object(kernels, "_MAX_ROUNDS", 0):
        got, calls = _finish_calls(args)
    assert got[0] == error.__name__ and calls == [194]
    assert got == _outcome(reference_induced_stats, *args)


def _bulk_shape_args(n_cap, seed=10):
    """1024 starts at n = 10, as in a default bulk `simulate` batch, under
    the round cap `n_cap`: return times above n_cap + 1 drift."""
    ctx = solve_beta(10)
    x0 = kernels.uniform_starts(seed, 1024, ctx.a, ctx.b)
    return [ctx.beta, ctx.a, ctx.b, ctx.domain_max, n_cap, x0, 20, seed]


def _finish_calls(args):
    """The kernel's outcome, and the point count of each of its `_finish`
    calls."""
    with mock.patch.object(kernels, "_finish",
                           wraps=kernels._finish) as spy:
        got = _outcome(kernels._induced, *args)
    return got, [len(c.args[6]) for c in spy.call_args_list]


def test_drift_at_the_round_cap_raises_from_the_points_still_out():
    # 231 of 1024 points are still out after n_cap - 1 = 3 rounds, so the
    # rounds over all points reach the cap and hand those points, and no
    # other, on to `_finish`, which meets the drift
    args = _bulk_shape_args(4)
    got, calls = _finish_calls(args)
    assert got[0] == "InvariantViolationError"
    assert calls == [231]
    assert got == _outcome(reference_induced_stats, *args)


def test_escape_at_round_one_beats_a_later_drift():
    # the start just above domain_max escapes at round 1 of the first
    # step; the rounds check no guard and meet the drift at the cap first
    args = _bulk_shape_args(4)
    args[5] = args[5].copy()
    args[5][1000] = args[3] + 1e-6
    got, calls = _finish_calls(args)
    assert got[0] == "OrbitEscapeError"
    assert calls == [232]  # the 231 still out and the escaped point
    assert got == _outcome(reference_induced_stats, *args)


def test_drift_in_the_tail_raises_from_the_points_still_out():
    # the rounds over all points stop at the cap, n_cap - 1 = 7; the few
    # points with return time 9 or 10 go on to `_finish`, and those with
    # time 10 drift there
    args = _bulk_shape_args(8)
    got, calls = _finish_calls(args)
    assert got[0] == "InvariantViolationError"
    assert calls == [26]
    assert got == _outcome(reference_induced_stats, *args)


def test_a_return_at_n_plus_one_is_counted_through_finish():
    # the rounds stop at n_cap - 1 = 4, so the one point with return time
    # n_cap + 1 = 6 reads the row of -inf and lands in `_finish`
    args = _round_order_args([_slow(5)], 64, 5)
    got, calls = _finish_calls(args)
    assert got[0] == [0, 0, 128, 0, 0, 0, 1] and calls == [1]
    assert got == _outcome(reference_induced_stats, *args)


@pytest.mark.parametrize("n", [4, 10])
def test_bulk_batches_finish_every_excursion_in_the_rounds(n):
    # a `simulate --samples` batch: 1024 points run R = n - 1 rounds per
    # step, and every return time is at most n
    ctx = solve_beta(n)
    x0 = kernels.uniform_starts(n, 1024, ctx.a, ctx.b)
    args = (ctx.beta, ctx.a, ctx.b, ctx.domain_max, ctx.n, x0, 100, n)
    got, calls = _finish_calls(args)
    assert type(got[0]) is list and calls == []
    assert got == _outcome(reference_induced_stats, *args)


def test_points_out_after_the_rounds_finish_from_their_coin_step():
    # 64 points at n = 24 run ceil(ln 64 / ln beta) = 9 rounds over all
    # points per step; fewer than one point per step, on average, has a
    # return time above 10 and goes on in `_finish`, which counts it
    ctx = solve_beta(24)
    rounds = math.ceil(math.log(64) / math.log(ctx.beta))
    assert rounds == 9
    x0 = kernels.uniform_starts(5, 64, ctx.a, ctx.b)
    args = (ctx.beta, ctx.a, ctx.b, ctx.domain_max, ctx.n, x0, 40, 5)
    got, calls = _finish_calls(args)
    assert type(got[0]) is list and sum(got[0][rounds + 2:]) > 0
    assert calls and sum(calls) == sum(got[0][rounds + 2:])
    assert got == _outcome(reference_induced_stats, *args)


def test_a_point_landing_past_the_interval_finishes_alone():
    # on [1/4, 1/2] at beta = 2, a point at 5/8 above b returns at 1/4 = a
    # and one at 1/8 below a at 1/4; a point at 0.6 lands past [a, b] on
    # either branch (at 0.2 above, or at once below), and runs alone from
    # its coin step through `_finish`, where it returns at time 3. Beside
    # a point that escapes at round 3, that call raises the escape
    coins = kernels.coin_bits(3, 40).tolist()
    landing = [0.125 if bit else 0.625 for bit in coins]
    args = list(_landing_args(landing, 6))
    args[2] = 0.5
    got, calls = _finish_calls(args)
    assert got[0] == [0, 0, 40, 0, 0, 0, 0, 0] and calls == []
    assert got == _outcome(reference_induced_stats, *args)
    landing[17] = 0.6
    args[5] = _landing_args(landing, 6)[5]
    got, calls = _finish_calls(args)
    assert got[0] == [0, 0, 39, 1, 0, 0, 0, 0] and calls == [1]
    assert got == _outcome(reference_induced_stats, *args)
    landing[30] = _escape_at(3, 1.5)[1 - coins[30]]
    args[5] = _landing_args(landing, 6)[5]
    got, calls = _finish_calls(args)
    assert got[0] == "OrbitEscapeError" and calls == [2]
    assert got == _outcome(reference_induced_stats, *args)


def test_a_branch_that_crosses_back_finishes_point_by_point():
    # at beta = 3 on [1/4, 3/4] the upper branch takes b to 5/4, back above
    # b, so a count of the rounds spent above b would misread a point that
    # returns at b; such a beta runs each step through `_finish`
    coins = kernels.coin_bits(3, 40).tolist()
    x0 = np.array([0.5 if bit else 0.25 for bit in coins])  # to 1/2 or b
    args = (3.0, 0.25, 0.75, 1.0, 6, x0, 1, 3)
    got, calls = _finish_calls(args)
    assert got[0] == [0, 40, 0, 0, 0, 0, 0, 0] and calls == [0]
    assert got == _outcome(reference_induced_stats, *args)


def _ulps_from(y, toward, count=8):
    """y and the `count` doubles after it toward `toward`."""
    out = [y]
    for _ in range(count):
        out.append(math.nextafter(out[-1], toward))
    return out


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 53), data=st.data())
def test_each_branch_moves_away_from_its_side_and_never_back(n, data):
    # the premise of the landing-round count in `kernels._induced`: in
    # doubles the upper branch fl(fl(beta*y) - 1) strictly decreases on
    # (b, beta*b] and the lower branch fl(beta*y) strictly increases on
    # [beta*a - 1, a); past its boundary, neither crosses back. The first
    # landing from just past either boundary is inside [a, b], so by
    # monotonicity no start inside [a, b] lands past it
    ctx = solve_beta(n)
    beta, a, b = ctx.beta, ctx.a, ctx.b
    assert beta * math.nextafter(b, math.inf) - 1.0 >= a
    assert beta * math.nextafter(a, -math.inf) <= b
    top, bottom = beta * b, beta * a - 1.0
    above = [data.draw(st.floats(b, top, exclude_min=True)),
             *_ulps_from(math.nextafter(b, math.inf), math.inf),
             *_ulps_from(top, -math.inf)]
    below = [data.draw(st.floats(bottom, a, exclude_max=True)),
             *_ulps_from(math.nextafter(a, -math.inf), -math.inf),
             *_ulps_from(bottom, math.inf)]
    landed = [data.draw(st.floats(bottom, top)), *_ulps_from(b, -math.inf),
              *_ulps_from(a, math.inf)]
    for y in above:
        assert b < y <= top and beta * y - 1.0 < y, y.hex()
    for y in below:
        assert bottom <= y < a and beta * y > y, y.hex()
    for y in landed:
        if y <= b:
            assert beta * y - 1.0 <= b, y.hex()
        if y >= a:
            assert beta * y >= a, y.hex()


def test_escape_that_falls_back_matches_reference():
    # beta = 1.2 is too small for n = 3's domain_max: above it, beta*x - 1
    # falls towards 1/(beta - 1) = 5, so the last start escapes at round 1
    # and comes back to [a, b] later in the step
    args = (1.2, CTX.a, CTX.b, CTX.domain_max, 40,
            np.array([1.5, 1.5, 1.5, 4.0]), 1, 1)
    got = _outcome(kernels._induced, *args)
    assert got[0] == "OrbitEscapeError"
    assert got == _outcome(reference_induced_stats, *args)


@st.composite
def chain_inputs(draw):
    m = draw(st.integers(1, 12))
    steps = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    u = uniform_array(seed, steps)
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["random", "deterministic", "short",
                                     "hits"]))
        if kind == "deterministic":
            row = np.zeros(m)
            row[draw(st.integers(0, m - 1))] = 1.0
            cum = np.cumsum(row)
        else:
            row = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
            cum = np.cumsum(row / row.sum()) if row.sum() else np.cumsum(row)
            if kind == "short":     # ends below 1.0
                cum = cum * draw(st.floats(0.1, 0.999))
            elif kind == "hits":    # an entry equal to a drawn uniform
                at = draw(st.integers(0, m - 1))
                cum[at] = float(u[draw(st.integers(0, steps - 1))])
                cum = np.maximum.accumulate(cum)
        rows.append(cum)
    cum_rows = np.array(rows).reshape(m, m)
    start_cum = cum_rows[draw(st.integers(0, m - 1))]
    return cum_rows, start_cum, steps, seed


@settings(max_examples=60, deadline=None)
@given(args=chain_inputs(), chunk=st.sampled_from([1, 3, 64, 65536]))
def test_chain_sample_matches_reference(args, chunk):
    with mock.patch.object(kernels, "_DRAW_WORDS", chunk):
        path = kernels.chain_sample(*args)
    assert path.dtype == np.int8
    assert np.array_equal(path, reference_chain_sample(*args))


def _lookup_steps(cum_rows):
    """Steps the chain walk takes per table lookup: the largest k with
    m^k <= 256 and m * nb^k <= a draw's words, nb the bin count."""
    m, nb = len(cum_rows), np.unique(cum_rows).size + 1
    k = 1
    while m ** (k + 1) <= 256 and m * nb ** (k + 1) <= kernels._DRAW_WORDS:
        k += 1
    return k


@st.composite
def few_bin_chain_inputs(draw):
    """Chains of 1..16 states whose cumulative rows take few distinct
    values, so the walk takes k > 1 steps per lookup, and a path whose
    transitions leave a tail shorter than k; the longer paths cross a
    draw of 16,384 steps, which k = 3 does not divide."""
    m = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    cum_rows = np.maximum.accumulate(
        np.array(draw(st.lists(grid, min_size=m * m, max_size=m * m)))
        .reshape(m, m), axis=1)
    if draw(st.booleans()):  # an entry equal to a drawn uniform
        cum_rows[draw(st.integers(0, m - 1))][-1] = \
            uniform_array(seed, 8)[draw(st.integers(0, 7))]
        cum_rows = np.maximum.accumulate(cum_rows, axis=1)
    k = _lookup_steps(cum_rows)
    steps = 1 + k * draw(st.integers(0, 12000)) + draw(st.integers(1, k - 1))
    return cum_rows, cum_rows[draw(st.integers(0, m - 1))], steps, seed


@settings(max_examples=60, deadline=None)
@given(args=few_bin_chain_inputs())
def test_chain_sample_walks_k_steps_per_lookup_as_the_reference(args):
    assert _lookup_steps(args[0]) > 1
    path = kernels.chain_sample(*args)
    assert np.array_equal(path, reference_chain_sample(*args))


def test_chain_sample_uniform_on_an_edge():
    # a uniform equal to a cumulative entry counts that entry as passed
    seed, steps = 5, 40
    u = uniform_array(seed, steps)
    start_cum = np.array([u[0], 1.0])
    cum_rows = np.array([[u[1], 1.0], [u[1], 1.0]])
    path = kernels.chain_sample(cum_rows, start_cum, steps, seed)
    assert path[0] == 1 and path[1] == 1
    assert np.array_equal(
        path, reference_chain_sample(cum_rows, start_cum, steps, seed))


def _bisected_draws(cum_rows, start_cum, steps, seed):
    """A chain path, and how many of its draws of `_DRAW_WORDS` uniforms
    went through `np.searchsorted`."""
    with mock.patch.object(np, "searchsorted",
                           wraps=np.searchsorted) as spy:
        path = kernels.chain_sample(cum_rows, start_cum, steps, seed)
    return path, sum(np.size(c.args[1]) == kernels._DRAW_WORDS
                     for c in spy.call_args_list)


@pytest.mark.parametrize("n", [3, 8, 9, 10, 11, 12])
def test_parry_path_matches_reference_across_chunks(n):
    # no Parry chain bisects a draw: n = 3..8 walk k > 1 steps per lookup,
    # and from n = 9 one step, over 20..26 bins counted in bytes
    chain = markov.build_chain(n)
    cum_rows = np.cumsum(chain.P_trans, axis=1)
    start_cum = np.cumsum(chain.p)
    steps = 2 * kernels._DRAW_WORDS + 3
    path, bisected = _bisected_draws(cum_rows, start_cum, steps, n)
    assert bisected == 0
    assert np.array_equal(
        path, reference_chain_sample(cum_rows, start_cum, steps, seed=n))


def _dense_chain(m=127, seed=7):
    """Cumulative rows of a dense random m-state chain: 16,015 bins at
    m = 127."""
    rows = np.random.default_rng(seed).random((m, m))
    return np.cumsum(rows / rows.sum(axis=1, keepdims=True), axis=1)


def test_a_chain_of_many_bins_bisects_its_draws():
    # the dense chain's 16,015 bins are too many to count in bytes
    cum_rows = _dense_chain()
    steps = kernels._DRAW_WORDS + 1
    path, bisected = _bisected_draws(cum_rows, cum_rows[0], steps, 1)
    assert bisected == 1
    assert np.array_equal(
        path, reference_chain_sample(cum_rows, cum_rows[0], steps, 1))


def test_chain_sample_holds_no_full_length_temporaries():
    chain = markov.build_chain(8)
    cum_rows = np.cumsum(chain.P_trans, axis=1)
    start_cum = np.cumsum(chain.p)
    tracemalloc.start()
    try:
        path = kernels.chain_sample(cum_rows, start_cum, 10 ** 6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int8 path itself is 10**6 bytes, and one float64 array of the
    # path's length alone would be 8 MB. A draw of 16,384 steps holds arrays
    # of 16,384 8-byte items (a list holds 8-byte pointers to small ints),
    # at most three at once: index, work and shift words; then uniforms,
    # bins and bin list; then uniforms, bin list and path list. The bound
    # allows four.
    assert path.size == 10 ** 6 and peak < 10 ** 6 + 4 * 16384 * 8


def test_chain_table_holds_one_byte_per_state_and_bin():
    # a dense random 127-state chain has nb = 16,015 bins (at most
    # 127^2 + 1); a 10-step path needs the table's m * nb bytes, beside the
    # sorted values and one row's counts, nb 8-byte items each, as many as
    # one draw of 16,384 words would hold. The bound allows three draws
    m = 127
    cum_rows = _dense_chain(m)
    nb = np.unique(cum_rows).size + 1
    assert nb == 16015
    tracemalloc.start()
    try:
        path = kernels.chain_sample(cum_rows, cum_rows[0], 10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(
        path, reference_chain_sample(cum_rows, cum_rows[0], 10, 1))
    assert peak < m * nb + 3 * 16384 * 8


def test_induced_stats_working_set_is_one_draw():
    ctx = solve_beta(4)
    x0 = kernels.uniform_starts(1, 1024, ctx.a, ctx.b)
    tracemalloc.start()
    try:
        kernels.induced_stats(ctx, x0, 1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the coins of all 1000 steps would be 8 MB as uint64. A draw covers
    # 16 steps of 1024 points in 16,384 8-byte words, at most three such
    # arrays at once (index, work and shift words; then words and float
    # coins), and the bound allows four. Beside them live a few arrays of
    # 1024 points (positions, counter offsets, the points out and their
    # values); the bound allows sixteen.
    assert peak < 4 * 16384 * 8 + 16 * 1024 * 8
