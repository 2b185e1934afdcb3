"""Letter coding of the first-return system and its inverse."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shrinkbeta.algebra import eval_word, solve_beta
from shrinkbeta.dynamics import CoinStream, PointState, induced_step
from shrinkbeta.errors import DeletedPointError
from shrinkbeta.kernels import uniform_starts
from shrinkbeta.symbolic import (SymbolicWord, alphabet, boundary_expansions,
                                 decode, encode, mme_entropy)

CTX = solve_beta(3)


def mme_letter_probability(n):
    """Per-letter weight of the uniform product measure on the full shift."""
    return 1.0 / (2 * (n - 1))


def test_alphabet_coin_major():
    assert alphabet(3) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert len(alphabet(6)) == 10


def test_word_digit_blocks():
    w = SymbolicWord(((1, 2), (0, 3)))
    # letter (c, t) contributes c followed by t-1 copies of 1-c
    assert w.digits() == [1, 0, 0, 1, 1]
    assert len(w) == 2


def test_word_validation():
    with pytest.raises(ValueError):
        SymbolicWord(((2, 2),))
    with pytest.raises(ValueError):
        SymbolicWord(((1, 1),))


def test_encode_reads_off_induced_orbit():
    state = PointState(CoinStream.explicit([1, 0]), 1.40)
    word = encode(state, 2, CTX)
    # first letter frozen by the n=3 oracle values: coin 1 returns in 3
    assert word.letters[0] == (1, 3)
    assert word.letters[1][0] == 0


def test_encode_shift_is_induced_step():
    xs = uniform_starts(424242, 200, CTX.a + 1e-9, CTX.b - 1e-9)
    for j, x in enumerate(xs):
        state = PointState(CoinStream.seeded(1000 + j), float(x))
        word = encode(state, 6, CTX)
        after = induced_step(state, CTX)
        assert encode(after, 5, CTX).letters == word.letters[1:]


@st.composite
def coded_starts(draw, digits=None):
    """A context for n in 3..12, a seeded start inside (a, b) and a word
    length k; with `digits`, k letters stay within that many digits, so
    the tail bound stays far above the float orbit's rounding."""
    ctx = solve_beta(draw(st.integers(3, 12)))
    x = draw(st.floats(ctx.a, ctx.b, exclude_min=True, exclude_max=True))
    state = PointState(CoinStream.seeded(draw(st.integers(0, 2 ** 64 - 1))),
                       x)
    k = draw(st.integers(1, digits // ctx.n) if digits
             else st.integers(2, 12))
    return ctx, state, k


def _encode_or_skip(state, k, ctx):
    try:
        return encode(state, k, ctx)
    except DeletedPointError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(coded_starts())
def test_encode_shift_is_induced_step_property(case):
    ctx, state, k = case
    word = _encode_or_skip(state, k, ctx)
    after = induced_step(state, ctx)
    assert encode(after, k - 1, ctx).letters == word.letters[1:]


@settings(max_examples=100, deadline=None)
@given(coded_starts(digits=30))
def test_decode_within_tail_property(case):
    ctx, state, k = case
    value, tail = decode(_encode_or_skip(state, k, ctx), ctx)
    assert abs(value - state.x) <= tail


def test_encode_rejects_deleted_points():
    with pytest.raises(DeletedPointError):
        encode(PointState(CoinStream.explicit([0]), CTX.a), 1, CTX)
    with pytest.raises(DeletedPointError):
        encode(PointState(CoinStream.explicit([1]), CTX.b), 1, CTX)


def test_encode_rejects_negative_length():
    # before, k < 0 gave an empty word
    state = PointState(CoinStream.seeded(1), 0.5 * (CTX.a + CTX.b))
    assert encode(state, 0, CTX).letters == ()
    with pytest.raises(ValueError, match="k must be >= 0"):
        encode(state, -1, CTX)


def test_encode_rejects_return_time_above_n():
    # one ulp above a with coin 1: the float orbit follows a's own orbit,
    # which hits a after n steps, and rounds to just below it
    ctx = solve_beta(12)
    state = PointState(CoinStream.explicit([1]), math.nextafter(ctx.a, 2))
    with pytest.raises(DeletedPointError, match="t=13"):
        encode(state, 1, ctx)


def test_decode_inverts_encode_within_tail():
    xs = uniform_starts(77, 100, CTX.a + 1e-9, CTX.b - 1e-9)
    for j, x in enumerate(xs):
        word = encode(PointState(CoinStream.seeded(j), float(x)), 10, CTX)
        value, tail = decode(word, CTX)
        assert abs(value - float(x)) <= tail, (
            f"decode missed x={float(x)!r} by more than tail={tail!r}")


def test_decode_range_and_validation():
    value, tail = decode(SymbolicWord(((1, 2),)), CTX)
    assert CTX.a - tail <= value <= CTX.b + tail
    with pytest.raises(ValueError):
        decode(SymbolicWord(((1, 4),)), CTX)  # return time above n
    with pytest.raises(ValueError):
        decode(SymbolicWord(()), CTX)


@pytest.mark.parametrize("endpoint", ["a", "b"])
@pytest.mark.parametrize("blocks", [(3,), (2, 1), (1, 1, 1), (0, 2, 4), (5,)])
def test_boundary_expansions_evaluate_to_endpoint(endpoint, blocks):
    digits = boundary_expansions(endpoint, blocks, CTX)
    target = CTX.a if endpoint == "a" else CTX.b
    value, tail = eval_word(digits, CTX.beta)
    assert abs(value - target) <= tail + 1e-15


def test_boundary_expansion_blocks_n4():
    ctx4 = solve_beta(4)
    assert boundary_expansions("a", (1, 1), ctx4) == [0, 1, 1, 0, 0, 0]
    assert boundary_expansions("b", (1, 1), ctx4) == [1, 0, 0, 1, 1, 1]
    with pytest.raises(ValueError):
        boundary_expansions("c", (1,), ctx4)


def test_full_shift_entropy_values():
    assert mme_entropy(3) == math.log(4)
    assert mme_entropy(5) == math.log(8)
    assert mme_letter_probability(3) == 0.25
    assert -math.log(mme_letter_probability(5)) == mme_entropy(5)
    with pytest.raises(ValueError):
        mme_entropy(2)
