"""Root solving and base-beta word evaluation."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkbeta import algebra
from shrinkbeta.algebra import (AlgebraicBeta, eval_word, solve_beta,
                                solve_lambda)
from shrinkbeta.errors import PrecisionLimitError

# frozen from 50-digit mpmath evaluations of the defining polynomials
BETA3 = 1.324717957244746
BETA4 = 1.4655712318767682
BETA5 = 1.534157744914267
LAMBDA3 = 1.7692923542386314
A3 = 1.3247179572447456
B3 = 1.7548776662466923
DOMAIN_MAX3 = 3.0795956234914383

GOLDEN = (1 + math.sqrt(5)) / 2


def beta_defining_poly(n):
    """x -> x^n - (x^(n-2) + ... + 1)."""
    return lambda x: x ** n - sum(x ** i for i in range(n - 1))


def lambda_defining_poly(n):
    """x -> x^n - 2(x^(n-2) + ... + 1)."""
    return lambda x: x ** n - 2 * sum(x ** i for i in range(n - 1))


def grid_sign_changes(f, lo, hi, num):
    """Count strict sign changes of f on a uniform grid of `num` points."""
    vals = [f(lo + (hi - lo) * i / (num - 1)) for i in range(num)]
    return sum(1 for v0, v1 in zip(vals, vals[1:])
               if v0 != 0 and v1 != 0 and (v0 < 0) != (v1 < 0))


def test_beta3_context_frozen_values():
    ctx = solve_beta(3)
    assert isinstance(ctx, AlgebraicBeta)
    assert ctx.n == 3
    assert ctx.beta == pytest.approx(BETA3, abs=1e-15)
    assert ctx.a == pytest.approx(A3, abs=1e-15)
    assert ctx.b == pytest.approx(B3, abs=1e-15)
    assert ctx.domain_max == pytest.approx(DOMAIN_MAX3, abs=1e-15)
    # b is beta*a bitwise, domain_max is 1/(beta-1)
    assert ctx.b == ctx.beta * ctx.a
    assert ctx.domain_max == 1.0 / (ctx.beta - 1.0)


@pytest.mark.parametrize("n,expected", [(3, BETA3), (4, BETA4), (5, BETA5)])
def test_beta_frozen(n, expected):
    assert solve_beta(n).beta == pytest.approx(expected, abs=1e-15)


def test_lambda3_frozen():
    assert solve_lambda(3).lam == pytest.approx(LAMBDA3, abs=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 21, 30])
def test_beta_satisfies_defining_equation(n):
    beta = solve_beta(n).beta
    # sum_{t=2..n} beta^-t = 1 characterizes beta_n in (1, 2)
    total = math.fsum(beta ** (-t) for t in range(2, n + 1))
    assert abs(total - 1.0) <= 1e-12, f"n={n}: sum beta^-t = {total!r}"
    f = beta_defining_poly(n)
    assert abs(f(beta)) <= 1e-10 * beta ** n


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 21, 30])
def test_lambda_satisfies_defining_equation(n):
    lam = solve_lambda(n).lam
    f = lambda_defining_poly(n)
    assert abs(f(lam)) <= 1e-10 * lam ** n
    # lam^n = 2*(1 + lam + ... + lam^(n-2))
    rhs = 2.0 * math.fsum(lam ** i for i in range(n - 1))
    assert lam ** n == pytest.approx(rhs, rel=1e-13)


def test_beta_monotone_below_golden_small_range():
    values = [solve_beta(n).beta for n in range(3, 13)]
    for lo, hi in zip(values, values[1:]):
        assert lo < hi
    assert all(v < GOLDEN for v in values)


def test_lambda_below_two_and_above_beta():
    for n in range(3, 13):
        lam = solve_lambda(n).lam
        assert solve_beta(n).beta < lam < 2.0


@pytest.mark.parametrize("n", [3, 10])
def test_extended_precision_agrees_with_double(n):
    ctx = solve_beta(n, precision=120)
    with mpmath.workprec(120):
        assert abs(float(ctx.beta) - solve_beta(n).beta) < 1e-14
        residual = sum(ctx.beta ** (-t) for t in range(2, n + 1)) - 1
        assert abs(residual) < mpmath.mpf(2) ** -100
    lam = solve_lambda(n, precision=120).lam
    assert abs(float(lam) - solve_lambda(n).lam) < 1e-14


@pytest.mark.parametrize("n", [40, 78])
def test_extended_context_fields_carry_the_precision(n):
    ctx = solve_beta(n, precision=150)
    with mpmath.workprec(400):
        beta = solve_beta(n, precision=400).beta
        want = {"beta": beta, "a": 1 / (beta * beta - 1),
                "b": beta / (beta * beta - 1), "domain_max": 1 / (beta - 1)}
        for field, value in want.items():
            got = getattr(ctx, field)
            assert abs(got - value) <= abs(value) * mpmath.mpf(2) ** -150, \
                field


@pytest.mark.parametrize("bad", [2, 1, 0, -3])
def test_small_n_rejected(bad):
    with pytest.raises(ValueError):
        solve_beta(bad)
    with pytest.raises(ValueError):
        solve_lambda(bad)


@pytest.mark.parametrize("solve", [solve_beta, solve_lambda])
@pytest.mark.parametrize("bad", [3.0, np.int64(3)], ids=["float", "numpy-int"])
def test_non_int_n_rejected_after_cached_solve(solve, bad):
    # both equal 3 and hash like it, so the check must run before the cache
    solve(3)
    with pytest.raises(ValueError, match="integer >= 3"):
        solve(bad)


def test_eval_word_geometric_tail():
    beta = solve_beta(3).beta
    value, tail = eval_word([1, 0, 1, 1], beta)
    direct = beta ** -1 + beta ** -3 + beta ** -4
    assert value == pytest.approx(direct, abs=1e-15)
    assert tail == pytest.approx(beta ** -4 / (beta - 1), abs=1e-15)
    # all-ones word: value + tail telescopes to 1/(beta-1)
    ones, tail1 = eval_word([1] * 40, beta)
    assert ones + tail1 == pytest.approx(1 / (beta - 1), rel=1e-12)


def test_eval_word_empty():
    value, tail = eval_word([], solve_beta(3).beta)
    assert value == 0.0
    assert tail == pytest.approx(1 / (solve_beta(3).beta - 1))


def test_grid_sign_changes_counts_roots():
    f = beta_defining_poly(3)
    # exactly one sign change in (1, 2): the root is simple and unique there
    assert grid_sign_changes(f, 1.0, 2.0, 4000) == 1
    g = lambda_defining_poly(3)
    assert grid_sign_changes(g, 1.0, 2.0, 4000) == 1


def reference_poly(n, factor):
    """The former `algebra._poly`: f by running sums, and its derivative
    as a sum of n - 1 separate powers."""

    def f(x):
        p = 1 + 0 * x
        s = 0 * x
        for _ in range(n - 1):
            s = s + p
            p = p * x
        return p * x - factor * s

    def fprime(x):
        d = n * x ** (n - 1)
        for i in range(1, n - 1):
            d = d - factor * i * x ** (i - 1)
        return d

    return f, fprime


def reference_mp_root(n, factor, precision):
    """The former extended-precision root: 80 bisection steps whose signs
    come from f evaluated in rounded mpf arithmetic, then Newton."""
    f, fp = reference_poly(n, factor)
    with mpmath.workprec(precision + 20):
        lo, hi = mpmath.mpf(1), mpmath.mpf(2)
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        x = (lo + hi) / 2
        for _ in range(40):
            step = f(x) / fp(x)
            x = x - step
            if abs(step) < mpmath.mpf(2) ** (-(precision + 10)):
                break
        return +x


def _assert_root_matches_reference(n, factor, precision):
    got = algebra._solve_poly(n, factor, precision)
    want = reference_mp_root(n, factor, precision)
    # exact signs differ from rounded ones only where rounding got a sign
    # wrong: a mismatch is a finding to report, not a tolerance to widen
    assert got._mpf_ == want._mpf_, (
        f"n={n} factor={factor} precision={precision}: {got} != {want}")


@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("precision,n_values", [
    # check_inequality's default width: `entropy --n-range 3..60` solves
    # n = 54..60 at it (and n = 31..53 did while doubles stopped at 30)
    (150, range(31, 61)),
    # `entropy --precision 200 --n 40`, `constants --n 40 --precision 200`
    (200, range(3, 41)),
], ids=["150-bits", "200-bits"])
def test_mp_roots_match_reference_where_cli_solves(precision, n_values,
                                                    factor):
    for n in n_values:
        _assert_root_matches_reference(n, factor, precision)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 150), precision=st.integers(100, 400),
       factor=st.sampled_from([1, 2]))
def test_mp_root_matches_reference(n, precision, factor):
    _assert_root_matches_reference(n, factor, precision)


@pytest.mark.parametrize("solve,root,n_max", [
    (solve_lambda, lambda value: value.lam, 53),
    (solve_beta, lambda ctx: ctx.beta, 77),
], ids=["lambda", "beta"])
def test_double_precision_limit(solve, root, n_max):
    assert 1 < root(solve(n_max)) < 2
    with pytest.raises(PrecisionLimitError,
                       match=f"n <= {n_max}, got n={n_max + 1}; pass "
                             "precision") as err:
        solve(n_max + 1)
    assert isinstance(err.value, ValueError)
    assert 1 < root(solve(n_max + 1, precision=150)) < 2


@pytest.mark.parametrize("precision", [None, 100, 150, 200, 300],
                         ids=["double", "100-bits", "150-bits", "200-bits",
                              "300-bits"])
def test_horner_derivative_keeps_every_root(precision, monkeypatch):
    # the Horner derivative rounds differently from the former power sum;
    # Newton must still land on the same root, bit for bit
    cases = ([(n, 2) for n in range(3, 54)] + [(n, 1) for n in range(3, 78)]
             if precision is None
             else [(n, factor) for n in range(3, 90) for factor in (1, 2)])
    got = [algebra._solve_poly(n, factor, precision) for n, factor in cases]
    monkeypatch.setattr(algebra, "_poly", reference_poly)
    want = [algebra._solve_poly.__wrapped__(n, factor, precision)
            for n, factor in cases]
    if precision is None:
        assert [x.hex() for x in got] == [x.hex() for x in want]
    else:
        assert [x._mpf_ for x in got] == [x._mpf_ for x in want]


def test_double_limits_are_where_the_roots_round_onto_their_limits():
    # the correctly rounded roots, from 300-bit solves: lambda_n rounds onto
    # 2.0 first at n = 54 and beta_n onto fl(phi) first at n = 78
    lam = {n: float(solve_lambda(n, precision=300).lam) for n in range(3, 55)}
    beta = {n: float(solve_beta(n, precision=300).beta)
            for n in range(3, 79)}
    assert lam[53] < 2.0 == lam[54]
    assert beta[77] < algebra.GOLDEN_RATIO == beta[78]
    assert algebra._LAMBDA_DOUBLE_N_MAX == min(
        n for n in lam if lam[n] == 2.0) - 1
    assert algebra._BETA_DOUBLE_N_MAX == min(
        n for n in beta if beta[n] == algebra.GOLDEN_RATIO) - 1
    # at the limits the double solver returns those correctly rounded roots
    assert solve_lambda(53).lam == lam[53]
    assert solve_beta(77).beta == beta[77]


@pytest.mark.parametrize("precision", [100, 150, 200])
def test_extended_beta_limit_keeps_a_gap_of_one_ulp(precision):
    # at the root's width w = precision + 20, one ulp at phi is 2^(1-w):
    # by the 300-bit roots, phi - beta_n stays at least that up to the
    # limit and falls below it just after, so every root up to the limit,
    # rounded to w bits, lies below the rounded phi
    w = precision + 20
    n_max = algebra._beta_n_max(precision)
    assert abs(n_max - 1.44 * w) < 3
    with mpmath.workprec(300):
        phi = (1 + mpmath.sqrt(5)) / 2
        exact = {n: solve_beta(n, precision=300).beta
                 for n in range(n_max - 4, n_max + 2)}
        assert phi - exact[n_max] >= mpmath.mpf(2) ** (1 - w)
        assert phi - exact[n_max + 1] < mpmath.mpf(2) ** (1 - w)
    roots = {n: solve_beta(n, precision).beta for n in range(n_max - 4,
                                                           n_max + 1)}
    with mpmath.workprec(w):
        for n, root in roots.items():
            assert root == +exact[n] < +phi, n
    # the root at the limit still tells n from n - 1
    assert roots[n_max] != roots[n_max - 1]
    with pytest.raises(PrecisionLimitError,
                       match=f"beta_n at precision {precision} supports "
                             f"n <= {n_max}, got n={n_max + 1}; pass "
                             f"precision >= {precision + 1} bits"):
        solve_beta(n_max + 1, precision)


@pytest.mark.parametrize("solve,limit", [
    (solve_lambda, algebra._lambda_n_max),
    (solve_beta, algebra._beta_n_max),
], ids=["lambda", "beta"])
@pytest.mark.parametrize("n", [171, 400, 10_000])
def test_extended_refusal_names_the_least_precision_that_takes_n(solve, limit,
                                                                 n):
    with pytest.raises(PrecisionLimitError) as err:
        solve(n, 100)
    least = int(re.search(r"precision >= (\d+) bits", str(err.value))[1])
    assert limit(least - 1) < n <= limit(least)
