"""Product measures, the first-return lift and entropy estimators."""

import math

import numpy as np
import pytest

from shrinkbeta import kernels
from shrinkbeta.algebra import solve_beta
from shrinkbeta.gls import greedy_breakpoints, lazy_breakpoints, return_time_law
from shrinkbeta.measures import (CylinderSpec, InducedMeasureSpec,
                                 abramov_check, bernoulli_mass, block_entropy,
                                 cylinder_overlap, cylinder_preimage_interval,
                                 empirical_entropy, entropy_rate_estimate,
                                 integral_tau, k_preimage_rectangles,
                                 kac_lift, lift_invariance_deviation,
                                 pushforward_check, rectangle_measure)

CTX = solve_beta(3)
LEB = InducedMeasureSpec(kind="lebesgue", p=0.5)
UNI = InducedMeasureSpec(kind="product", p=0.5, pi=(0.5, 0.5))

INTEGRAL_TAU3 = 2.4301597090019467      # 2*beta^-2 + 3*beta^-3
SWITCH_MASS3 = 0.4114955886626458       # 1/integral_tau, Lebesgue lift
H_K3 = 0.570579666779284                # log lambda_3
H_I3 = 1.3471974089195764
MU_CENTER3 = 0.42353085227270193
UNIFORM_LIFT_HK3 = 0.5545177444479562   # log(4) * (2/5)


def test_cylinder_spec_validation():
    with pytest.raises(ValueError):
        CylinderSpec(coins=(1,), rts=(2, 3))
    with pytest.raises(ValueError):
        CylinderSpec(coins=(2,), rts=(2,))
    with pytest.raises(ValueError):
        CylinderSpec(coins=(1,), rts=(1,))


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


def test_bernoulli_mass():
    assert bernoulli_mass((1, 0, 1), 0.25) == pytest.approx(0.25 * 0.75 * 0.25)
    assert bernoulli_mass((), 0.3) == 1.0


def test_single_letter_cylinders_are_branch_cells():
    gp = greedy_breakpoints(CTX)
    lp = lazy_breakpoints(CTX)
    # coin 1 walks the greedy branch with that return time, coin 0 the lazy
    assert cylinder_preimage_interval(
        CylinderSpec(coins=(1,), rts=(2,)), CTX) == (gp.breakpoints[1], CTX.b)
    assert cylinder_preimage_interval(
        CylinderSpec(coins=(0,), rts=(2,)), CTX) == (CTX.a, lp.breakpoints[1])


def test_pushforward_exact_for_geometric_law():
    law = return_time_law(CTX)
    for coins, rts in [((1,), (2,)), ((0,), (3,)), ((1, 0), (3, 2)),
                       ((0, 0, 1), (2, 2, 3))]:
        res = pushforward_check(CylinderSpec(coins=coins, rts=rts), 0.3, CTX)
        expected = bernoulli_mass(coins, 0.3)
        for t in rts:
            expected *= law[t]
        assert res.rhs == pytest.approx(expected, abs=1e-15)
        assert res.deviation <= 1e-13


def test_pushforward_negative_control():
    res = pushforward_check(CylinderSpec(coins=(1, 0), rts=(2, 3)), 0.5, CTX,
                            law={2: 0.5, 3: 0.5})
    assert res.deviation > 1e-3


def test_integral_tau():
    assert integral_tau(LEB, CTX) == pytest.approx(INTEGRAL_TAU3, abs=1e-14)
    assert integral_tau(UNI, CTX) == pytest.approx(2.5, abs=1e-14)


def test_rectangle_measure_lebesgue():
    width = CTX.b - CTX.a
    mid = 0.5 * (CTX.a + CTX.b)
    value = rectangle_measure(LEB, (1,), (CTX.a, mid), CTX)
    assert value == pytest.approx(0.5 * 0.5, abs=1e-14)
    assert rectangle_measure(LEB, (), (CTX.a, CTX.b), CTX) == pytest.approx(1.0)
    # product kind resolves whole-cell targets exactly
    assert rectangle_measure(UNI, (), (CTX.a, CTX.b), CTX) == pytest.approx(1.0)


@pytest.mark.parametrize("nu,switch_mass,tol", [
    (LEB, SWITCH_MASS3, 1e-14),
    (UNI, 0.4, 1e-12),
])
def test_kac_lift_totals(nu, switch_mass, tol):
    att = (CTX.beta * CTX.a - 1, CTX.beta * CTX.b)
    assert kac_lift(nu, (), att, CTX) == pytest.approx(1.0, abs=tol)
    assert kac_lift(nu, (), (CTX.a, CTX.b), CTX) == pytest.approx(
        switch_mass, abs=tol)
    assert kac_lift(nu, (), (CTX.a, CTX.b), CTX) * integral_tau(nu, CTX) == \
        pytest.approx(1.0, abs=1e-12)


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
    res = abramov_check(3, kind="parry")
    assert res.h_K == pytest.approx(H_K3, abs=1e-15)
    assert res.h_I == pytest.approx(H_I3, abs=1e-14)
    assert res.mu_center == pytest.approx(MU_CENTER3, abs=1e-14)
    assert res.deviation <= 1e-13
    uni = abramov_check(3, kind="uniform")
    assert uni.h_I == math.log(4)
    assert uni.mu_center == pytest.approx(0.4, abs=1e-15)
    assert uni.h_K == pytest.approx(UNIFORM_LIFT_HK3, abs=1e-14)
    assert uni.h_K < H_K3  # strictly below the maximal lift
    with pytest.raises(ValueError):
        abramov_check(3, kind="parabolic")


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


def test_block_entropy_estimators():
    rng = np.random.default_rng(20260814)
    iid = rng.integers(0, 2, size=200000)
    assert entropy_rate_estimate(iid, 2) == pytest.approx(math.log(2), rel=5e-3)
    assert empirical_entropy(iid, 2) == pytest.approx(math.log(2), rel=5e-3)
    constant = np.zeros(1000, dtype=np.int64)
    assert block_entropy(constant, 3, 1) == 0.0
    # alternating sequence: rate 0 at block length 2, up to the window-count
    # edge effect (9999 pairs split 5000/4999, an O(1/L^2) bias)
    alternating = np.tile([0, 1], 5000)
    assert entropy_rate_estimate(alternating, 2, alphabet_size=2) == \
        pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ValueError):
        empirical_entropy(np.zeros(10, dtype=np.int64), 2, alphabet_size=4)


def sample_return_times(law, count, seed):
    """Seeded iid sample from a return-time law, via inverse transform."""
    ts = sorted(law)
    cum = np.cumsum([law[t] for t in ts])
    u = kernels.uniform_array(seed, count)
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
