"""The word-interval tables behind verify's cylinder rows, against a
per-word composition on Python floats."""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkbeta import measures, symbolic, verify
from shrinkbeta.algebra import solve_beta
from shrinkbeta.errors import InvariantViolationError
from shrinkbeta.gls import return_time_law
from shrinkbeta.measures import bernoulli_mass, cylinder_preimage_table


def reference_preimage_interval(coins, rts, ctx):
    # the composition on Python floats, from the last letter back
    branches = measures._branches(ctx)
    lo, hi, _, _ = map(float, branches[coins[-1]][:, rts[-1] - 2])
    for coin, t in zip(reversed(coins[:-1]), reversed(rts[:-1])):
        d_lo, d_hi, s, o = map(float, branches[coin][:, t - 2])
        lo, hi = max(d_lo, (lo + o) / s), min(d_hi, (hi + o) / s)
    return lo, hi


def all_words(n, depth):
    letters = symbolic.alphabet(n)
    words = [()]
    for _ in range(depth):
        words = [w + (letter,) for w in words for letter in letters]
    return words


def per_word_intervals(coins, n, ctx):
    return [reference_preimage_interval(coins, rts, ctx)
            for rts in product(range(2, n + 1), repeat=len(coins))]


def table_intervals(coins, n, ctx):
    lo, hi = cylinder_preimage_table(coins, ctx)
    return list(zip(lo.tolist(), hi.tolist()))


def reference_depth4_rows(n, ctx, intervals):
    # the intervals of each coin word as tuples, sorted
    overlap = 0.0
    cover_dev = 0.0
    count = 0
    for coins in product((0, 1), repeat=4):
        lo_hi = sorted(intervals(coins, n, ctx))
        count += len(lo_hi)
        overlap = max(overlap,
                      max((prev_hi - lo for (_, prev_hi), (lo, _)
                           in zip(lo_hi, lo_hi[1:])), default=0.0))
        cover = sum(hi - lo for lo, hi in lo_hi)
        cover_dev = max(cover_dev, abs(cover - (ctx.b - ctx.a)))
    return [
        verify._flag_row("depth4-cylinders-disjoint", n,
                         f"count={count} per-coin-word", overlap, 1e-12,
                         want_above=False),
        verify._row("depth4-cylinders-cover", n, "per-coin-word",
                    cover_dev, 0.0, 1e-9),
    ]


def reference_pushforward_worst(n, depth, ctx):
    # |normalized Lebesgue mass - product-measure value| of each cylinder
    law = return_time_law(ctx)
    worst = 0.0
    count = 0
    for p in (0.5, 0.3):
        for word in all_words(n, depth):
            coins = tuple(c for c, _ in word)
            rts = tuple(t for _, t in word)
            lo, hi = reference_preimage_interval(coins, rts, ctx)
            mass = bernoulli_mass(coins, p)
            lhs = mass * (hi - lo) / (ctx.b - ctx.a)
            rhs = math.prod((law[t] for t in rts), start=mass)
            worst = max(worst, abs(lhs - rhs))
            count += 1
    return worst, count


def reference_pullback_worst(ctx, n, depth, p):
    branches = measures._branches(ctx)
    width = ctx.b - ctx.a
    end_dev = 0.0
    mass_dev = 0.0
    words = 0
    for word in all_words(n, depth):
        coins = tuple(c for c, _ in word)
        rts = tuple(t for _, t in word)
        lo, hi = reference_preimage_interval(coins, rts, ctx)
        pulled = 0.0
        for c in (0, 1):
            for t in range(2, n + 1):
                plo, phi = reference_preimage_interval((c,) + coins,
                                                       (t,) + rts, ctx)
                _, _, slope, offset = map(float, branches[c][:, t - 2])
                end_dev = max(end_dev,
                              abs(slope * plo - offset - lo),
                              abs(slope * phi - offset - hi))
                pulled += (p if c else 1.0 - p) * (phi - plo)
        mass_dev = max(mass_dev, abs(pulled - (hi - lo)) / width)
        words += 1
    return end_dev, mass_dev, words


@st.composite
def coin_words(draw):
    n = draw(st.integers(3, 10))
    depth = draw(st.integers(1, 4))
    coins = tuple(draw(st.lists(st.integers(0, 1), min_size=depth,
                                max_size=depth)))
    return n, coins


@settings(max_examples=60, deadline=None)
@given(args=coin_words())
def test_table_entries_equal_scalar_preimages(args):
    n, coins = args
    ctx = solve_beta(n)
    lo, hi = cylinder_preimage_table(coins, ctx)
    words = list(product(range(2, n + 1), repeat=len(coins)))
    assert lo.shape == hi.shape == ((n - 1) ** len(coins),)
    for j, rts in enumerate(words):
        reference = reference_preimage_interval(coins, rts, ctx)
        assert ((lo[j].hex(), hi[j].hex())
                == tuple(v.hex() for v in reference))


def test_table_validates_coins():
    ctx = solve_beta(3)
    with pytest.raises(ValueError):
        cylinder_preimage_table((), ctx)
    with pytest.raises(ValueError):
        cylinder_preimage_table((0, 2), ctx)


def test_table_raises_on_an_empty_entry():
    ctx = solve_beta(3)
    # every branch maps [0, 1] far above itself, so no start has a
    # two-letter coding
    rows = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [-5.0, -5.0]])
    with mock.patch.object(measures, "_branches",
                           return_value={0: rows, 1: rows}):
        with pytest.raises(InvariantViolationError,
                           match=r"empty cylinder preimage for \(0, 1\)"):
            cylinder_preimage_table((0, 1), ctx)


def test_branch_table_is_read_only_and_ordered_by_return_time():
    ctx = solve_beta(4)
    branches = measures._branches(ctx)
    ts = range(2, ctx.n + 1)
    greedy_offsets = [ctx.beta ** (t - 1) for t in ts]
    lazy_offsets = [sum(ctx.beta ** k for k in range(t - 1)) for t in ts]
    for coin, offsets in ((1, greedy_offsets), (0, lazy_offsets)):
        lo, hi, slopes, offs = branches[coin].tolist()
        assert slopes == [ctx.beta ** t for t in ts]
        assert offs == offsets
        # the cells tile [a, b]: t = n..2 from a on the greedy side, t =
        # 2..n on the lazy side
        if coin:
            lo, hi = lo[::-1], hi[::-1]
        assert lo[0] == ctx.a and hi[-1] == ctx.b and lo[1:] == hi[:-1]
        with pytest.raises(ValueError):
            branches[coin][0, 0] = 0.0


@pytest.mark.parametrize("n_values, intervals", [
    (range(3, 9), per_word_intervals),
    # n = 18 is the largest n whose depth-4 preimages are all nonempty
    # in doubles
    ((9, 12, 15, 18), table_intervals),
])
def test_symbolic_suite_depth4_rows_match_sorted_intervals(n_values,
                                                           intervals):
    checks = ("depth4-cylinders-disjoint", "depth4-cylinders-cover")
    rows = [row for row in verify.symbolic_suite(n_values=n_values)
            if row.check in checks]
    expected = [row for n in n_values
                for row in reference_depth4_rows(n, solve_beta(n), intervals)]
    assert [row.as_json() for row in rows] == [row.as_json()
                                               for row in expected]


def test_symbolic_suite_counts_every_depth4_word_at_n12():
    rows = [row for row in verify.symbolic_suite(n_values=(12,))
            if row.check == "depth4-cylinders-disjoint"]
    assert [row.params for row in rows] == [
        f"count={16 * 11 ** 4} per-coin-word"]
    assert rows[0].passed


def test_measures_suite_cylinder_rows_match_per_word_loops():
    rows = verify.measures_suite(n_values=(3, 4, 5, 6))
    expected = []
    for n in (3, 4, 5, 6):
        ctx = solve_beta(n)
        depth = 3 if n == 3 else 2
        worst, count = reference_pushforward_worst(n, depth, ctx)
        end_dev, mass_dev, words = reference_pullback_worst(ctx, n, depth,
                                                            p=0.3)
        # the word (1, 2)(0, n) against the uniform law
        lo, hi = reference_preimage_interval((1, 0), (2, n), ctx)
        mass = bernoulli_mass((1, 0), 0.5)
        lhs = mass * (hi - lo) / (ctx.b - ctx.a)
        rhs = math.prod((1.0 / (n - 1), 1.0 / (n - 1)), start=mass)
        expected += [
            verify._row("coding-pushforward-product", n,
                        f"depth<={depth} words={count}", worst, 0.0, 1e-12),
            verify._flag_row("pushforward-negative-control", n, "law=uniform",
                             abs(lhs - rhs), 1e-3, want_above=True),
            verify._row("induced-cylinder-pullback", n,
                        f"words={words} letters={2 * (n - 1)}",
                        end_dev, 0.0, 1e-9),
            verify._row("induced-cylinder-mass", n, f"words={words} p=0.3",
                        mass_dev, 0.0, 1e-12),
        ]
    checks = {row.check for row in expected}
    got = [row.as_json() for row in rows if row.check in checks]
    assert got == [row.as_json() for row in expected]
    assert all(row.passed for row in rows)
