"""Piecewise-linear expansion branches on the switch interval."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkbeta import verify
from shrinkbeta.algebra import solve_beta
from shrinkbeta.errors import InvariantViolationError
from shrinkbeta.gls import (GlsPartition, expected_return_time,
                            greedy_breakpoints, lazy_breakpoints,
                            return_time_law, return_time_vector)
from shrinkbeta.kernels import uniform_starts

CTX3 = solve_beta(3)

# frozen branch data at n=3
C2 = 1.509755332493385        # interior greedy breakpoint
D2 = 1.5698402909980533       # interior lazy breakpoint
GREEDY_IMAGE_160 = 1.4830863087499628   # greedy step of x=1.60 (rt 2)
LAZY_IMAGE_145 = 1.544572616057705      # lazy step of x=1.45 (rt 2)


def test_breakpoints_frozen_n3():
    gp = greedy_breakpoints(CTX3)
    lp = lazy_breakpoints(CTX3)
    assert gp.breakpoints[0] == CTX3.a and gp.breakpoints[-1] == CTX3.b
    assert lp.breakpoints[0] == CTX3.a and lp.breakpoints[-1] == CTX3.b
    assert gp.breakpoints[1] == pytest.approx(C2, abs=1e-15)
    assert lp.breakpoints[1] == pytest.approx(D2, abs=1e-15)
    assert gp.return_times == (3, 2)
    assert lp.return_times == (2, 3)


def test_apply_frozen_values():
    gp = greedy_breakpoints(CTX3)
    lp = lazy_breakpoints(CTX3)
    y, t = gp.apply(1.60)
    assert (y, t) == (pytest.approx(GREEDY_IMAGE_160, abs=1e-15), 2)
    y, t = lp.apply(1.45)
    assert (y, t) == (pytest.approx(LAZY_IMAGE_145, abs=1e-15), 2)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_branches_map_onto_switch_interval(n):
    ctx = solve_beta(n)
    for part in (greedy_breakpoints(ctx), lazy_breakpoints(ctx)):
        for i in range(n - 1):
            lo = part.slopes[i] * part.breakpoints[i] - part.offsets[i]
            hi = part.slopes[i] * part.breakpoints[i + 1] - part.offsets[i]
            assert lo == pytest.approx(ctx.a, abs=1e-9)
            assert hi == pytest.approx(ctx.b, abs=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_branch_lengths_follow_geometric_law(n):
    ctx = solve_beta(n)
    width = ctx.b - ctx.a
    for part in (greedy_breakpoints(ctx), lazy_breakpoints(ctx)):
        for length, t in zip(part.branch_lengths(), part.return_times):
            assert length / width == pytest.approx(ctx.beta ** (-t), abs=1e-11)


def test_greedy_lazy_orientation():
    # greedy return times decrease left to right, lazy ones increase
    gp = greedy_breakpoints(solve_beta(6))
    lp = lazy_breakpoints(solve_beta(6))
    assert list(gp.return_times) == sorted(gp.return_times, reverse=True)
    assert list(lp.return_times) == sorted(lp.return_times)


def test_lazy_is_reflected_greedy():
    ctx = solve_beta(4)
    gp = greedy_breakpoints(ctx)
    lp = lazy_breakpoints(ctx)
    m = ctx.domain_max
    xs = uniform_starts(99, 50, ctx.a + 1e-9, ctx.b - 1e-9)
    for x in xs:
        x = float(x)
        y_lazy, t_lazy = lp.apply(x)
        y_refl, t_refl = gp.apply(m - x)
        assert y_lazy == pytest.approx(m - y_refl, abs=1e-12)
        assert t_lazy == t_refl


def test_branch_of_halfopen_conventions():
    gp = greedy_breakpoints(CTX3)
    lp = lazy_breakpoints(CTX3)
    # greedy cells are [c_i, c_{i+1}): the interior breakpoint belongs right
    assert gp.branch_of(CTX3.a) == 0
    assert gp.branch_of(gp.breakpoints[1]) == 1
    with pytest.raises(ValueError):
        gp.branch_of(CTX3.b)  # b itself is excluded on the greedy side
    # lazy cells are (d_i, d_{i+1}]: the interior breakpoint belongs left
    assert lp.branch_of(CTX3.b) == 1
    assert lp.branch_of(lp.breakpoints[1]) == 0
    with pytest.raises(ValueError):
        lp.branch_of(CTX3.a)


def test_return_time_vector_matches_closed_form():
    pi = return_time_vector(CTX3)
    law = return_time_law(CTX3)
    # keyed in branch order t = n..2, the closed form t = 2..n
    assert list(pi) == [3, 2] and list(law) == [2, 3]
    for t in law:
        assert pi[t] == pytest.approx(law[t], abs=1e-12)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    assert expected_return_time(pi) == pytest.approx(2.4301597090019467,
                                                     abs=1e-12)


def test_slope_reciprocals_sum_to_one():
    for n in (3, 5, 9):
        part = greedy_breakpoints(solve_beta(n))
        assert math.fsum(1.0 / s for s in part.slopes) == pytest.approx(1.0, abs=1e-12)


def test_corrupted_partition_rejected_on_apply():
    gp = greedy_breakpoints(CTX3)
    bad = GlsPartition(side="greedy", a=gp.a, b=gp.b,
                       breakpoints=gp.breakpoints, slopes=gp.slopes,
                       offsets=tuple(o + 0.5 for o in gp.offsets),
                       return_times=gp.return_times)
    with pytest.raises(InvariantViolationError):
        bad.apply(1.5)


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
