"""Piecewise-linear expansion branches on the switch interval."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shrinkbeta import measures, verify
from shrinkbeta.algebra import solve_beta
from shrinkbeta.dynamics import CoinStream, PointState, return_time
from shrinkbeta.errors import InvariantViolationError
from shrinkbeta.gls import (expected_return_time, greedy_breakpoints,
                            lazy_breakpoints, return_time_law)
from shrinkbeta.kernels import uniform_starts

CTX3 = solve_beta(3)

# frozen branch data at n=3
C2 = 1.509755332493385        # interior greedy breakpoint
D2 = 1.5698402909980533       # interior lazy breakpoint
GREEDY_IMAGE_160 = 1.4830863087499628   # greedy step of x=1.60 (rt 2)
LAZY_IMAGE_145 = 1.544572616057705      # lazy step of x=1.45 (rt 2)


def test_breakpoints_frozen_n3():
    greedy = greedy_breakpoints(CTX3)
    lazy = lazy_breakpoints(CTX3)
    # columns are t = 2, 3: greedy cells run t = 3, 2 left to right, lazy
    # cells t = 2, 3
    assert greedy[0, 1] == CTX3.a and greedy[1, 0] == CTX3.b
    assert lazy[0, 0] == CTX3.a and lazy[1, 1] == CTX3.b
    assert greedy[0, 0] == greedy[1, 1] == pytest.approx(C2, abs=1e-15)
    assert lazy[1, 0] == lazy[0, 1] == pytest.approx(D2, abs=1e-15)


def test_apply_frozen_values():
    sides = verify._x_order(CTX3)
    y, t = verify._induced_branch(sides, 1, 1.60)
    assert (y, t) == (pytest.approx(GREEDY_IMAGE_160, abs=1e-15), 2)
    y, t = verify._induced_branch(sides, 0, 1.45)
    assert (y, t) == (pytest.approx(LAZY_IMAGE_145, abs=1e-15), 2)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_branches_map_onto_switch_interval(n):
    ctx = solve_beta(n)
    for lo, hi, slope, offset in (greedy_breakpoints(ctx),
                                  lazy_breakpoints(ctx)):
        assert slope * lo - offset == pytest.approx([ctx.a] * (n - 1),
                                                    abs=1e-9)
        assert slope * hi - offset == pytest.approx([ctx.b] * (n - 1),
                                                    abs=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_branch_widths_follow_geometric_law(n):
    ctx = solve_beta(n)
    width = ctx.b - ctx.a
    law = [ctx.beta ** (-t) for t in range(2, n + 1)]
    for lo, hi, _, _ in (greedy_breakpoints(ctx), lazy_breakpoints(ctx)):
        assert (hi - lo) / width == pytest.approx(law, abs=1e-11)


def test_greedy_lazy_orientation():
    # greedy return times decrease left to right, lazy ones increase
    ctx = solve_beta(6)
    greedy, lazy = greedy_breakpoints(ctx), lazy_breakpoints(ctx)
    assert (np.diff(greedy[0]) < 0).all() and (np.diff(lazy[0]) > 0).all()
    sides = verify._x_order(ctx)
    assert sides[1][3] == [6, 5, 4, 3, 2] and sides[0][3] == [2, 3, 4, 5, 6]


def test_lazy_is_reflected_greedy():
    ctx = solve_beta(4)
    sides = verify._x_order(ctx)
    m = ctx.domain_max
    xs = uniform_starts(99, 50, ctx.a + 1e-9, ctx.b - 1e-9)
    for x in xs:
        x = float(x)
        y_lazy, t_lazy = verify._induced_branch(sides, 0, x)
        y_refl, t_refl = verify._induced_branch(sides, 1, m - x)
        assert y_lazy == pytest.approx(m - y_refl, abs=1e-12)
        assert t_lazy == t_refl


def test_branch_lookup_halfopen_conventions():
    sides = verify._x_order(CTX3)
    c2, d2 = sides[1][0][1], sides[0][0][1]
    # greedy cells are [c_i, c_{i+1}): the interior breakpoint belongs right
    assert verify._induced_branch(sides, 1, CTX3.a)[1] == 3
    assert verify._induced_branch(sides, 1, c2)[1] == 2
    with pytest.raises(ValueError):
        verify._induced_branch(sides, 1, CTX3.b)  # b is in no greedy cell
    # lazy cells are (d_i, d_{i+1}]: the interior breakpoint belongs left
    assert verify._induced_branch(sides, 0, CTX3.b)[1] == 3
    assert verify._induced_branch(sides, 0, d2)[1] == 2
    with pytest.raises(ValueError):
        verify._induced_branch(sides, 0, CTX3.a)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 21), bit=st.integers(0, 1), data=st.data())
def test_branch_lookup_matches_the_orbit(n, bit, data):
    ctx = solve_beta(n)
    x = data.draw(st.floats(ctx.a, ctx.b, exclude_min=True, exclude_max=True))
    sides = verify._x_order(ctx)
    # within rounding of a breakpoint the orbit may take the neighbouring
    # cell, whose image lies at the other end of [a, b]: all such starts
    # seen for n = 3..21 lay within 0.3 beta^n eps of one
    assume(min(abs(x - c) for c in sides[bit][0])
           > ctx.beta ** n * sys.float_info.epsilon)
    y, t = verify._induced_branch(sides, bit, x)
    res = return_time(PointState(CoinStream.explicit([bit]), x), ctx)
    assert t == res.t
    assert abs(y - res.state.x) <= 1e-10


def test_geometry_law_rows_match_closed_form():
    law = return_time_law(CTX3)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    rows = {row.check: row for row in verify.gls_suite(n_values=(3,))}
    assert rows["return-law-from-geometry"].deviation <= 1e-12
    expected = rows["expected-return-time"]
    assert expected.lhs == pytest.approx(2.4301597090019467, abs=1e-12)
    assert expected.rhs == pytest.approx(2.4301597090019467, abs=1e-12)
    # the law from geometry is keyed t = n..2, the greedy cells' x order;
    # at n = 4 the two key orders give different sums
    ctx = solve_beta(4)
    rows = {row.check: row for row in verify.gls_suite(n_values=(4,))}
    lo, hi = greedy_breakpoints(ctx)[:2].tolist()
    pi = {t: (hi[t - 2] - lo[t - 2]) / (ctx.b - ctx.a) for t in (4, 3, 2)}
    assert rows["expected-return-time"].lhs == expected_return_time(pi)
    assert expected_return_time(pi) != expected_return_time(
        dict(reversed(pi.items())))


def test_slope_reciprocals_sum_to_one():
    for n in (3, 5, 9):
        slopes = greedy_breakpoints(solve_beta(n))[2]
        assert math.fsum(1.0 / slopes) == pytest.approx(1.0, abs=1e-12)


def test_corrupted_partition_rejected_on_apply():
    greedy = greedy_breakpoints(CTX3).copy()
    greedy[3] += 0.5
    with mock.patch.object(measures, "_branches", return_value={
            1: greedy, 0: lazy_breakpoints(CTX3)}):
        with pytest.raises(InvariantViolationError, match="left \\[a, b\\]"):
            verify.gls_suite(n_values=(3,))


def test_reflection_row_passes_at_seed_965():
    # n = 20 deviated 1.52e-12 here, above the former fixed 1e-12
    rows = [row for row in verify.gls_suite(n_values=(20,), seed=965)
            if row.check == "lazy-greedy-reflection"]
    assert rows[0].passed
    assert 1e-12 < rows[0].deviation


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(3, 21))
def test_reflection_deviation_within_rounding_bound(seed, n):
    ctx = solve_beta(n)
    (row,) = [row for row in verify.gls_suite(n_values=(n,), seed=seed)
              if row.check == "lazy-greedy-reflection"]
    # the row's derived bound is 8.05 eps * beta^n * domain_max
    scale = sys.float_info.epsilon * ctx.beta ** n * ctx.domain_max
    assert row.passed
    assert row.deviation <= 8.05 * scale
