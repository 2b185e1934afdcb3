"""Cell partition, adjacency matrix, Perron data and the maximal chain."""

import json
import math

import mpmath
import numpy as np
import pytest

from shrinkbeta import cli, markov
from shrinkbeta.algebra import solve_beta, solve_lambda
from shrinkbeta.errors import (InequalityViolationError,
                               InvariantViolationError)
from shrinkbeta.markov import (adjacency_from_images, build_adjacency,
                               build_chain, build_partition,
                               char_poly_closed_form, char_poly_residual,
                               check_inequality,
                               closed_form_inv_cd, cylinder_measure,
                               eigen_closed_form, eigen_residuals,
                               entropy_rate, parry_center,
                               parry_measure, perron_by_power_iteration,
                               sample_chain, _inv_cd_direct)

H_IND3 = 1.3471974089195764
MARGIN3 = 0.03909695220031417
MU_CENTER3 = 0.42353085227270193
LAMBDA3 = 1.7692923542386314
CD3 = 0.07646914772729807   # 1/(lam^3 + 2*lam + 4)


def test_partition_shape_and_pinning():
    ctx = solve_beta(3)
    cells = build_partition(ctx)
    assert len(cells) == 5
    assert [c.label for c in cells] == ["L0", "L1", "C", "R0", "R1"]
    assert cells[2].lo == ctx.a and cells[2].hi == ctx.b
    assert cells[0].lo == pytest.approx(ctx.beta * ctx.a - 1)
    assert cells[-1].hi == pytest.approx(ctx.beta * ctx.b)
    # shared endpoints, ascending
    for c0, c1 in zip(cells, cells[1:]):
        assert c0.hi == c1.lo


@pytest.mark.parametrize("n", [3, 4, 5, 10, 20, 30])
def test_partition_scales_with_n(n):
    cells = build_partition(solve_beta(n))
    assert len(cells) == 2 * n - 1


def test_adjacency_rule_equals_images():
    for n in range(3, 9):
        rule = build_adjacency(n)
        images = adjacency_from_images(solve_beta(n))
        assert np.array_equal(rule, images), f"adjacency mismatch at n={n}"


def test_adjacency_row_structure():
    s = build_adjacency(5)
    center = 4
    assert s[center].sum() == 2 * 5 - 2 and s[center, center] == 0
    for i in range(2 * 5 - 1):
        if i != center:
            assert s[i].sum() == 1  # deterministic march back to the center


def test_char_poly_matches_determinant():
    assert char_poly_residual(3, [-1.5, -0.5, 0.3, 0.9, 1.7, 2.5]) <= 1e-9
    assert char_poly_residual(6, [-1.5, 0.3, 1.7]) <= 1e-9
    lam = solve_lambda(4).lam
    assert char_poly_closed_form(lam, 4) == pytest.approx(0.0, abs=1e-10)


def test_det_two_i_minus_s():
    for n in (3, 4, 7):
        s = build_adjacency(n)
        det = np.linalg.det(2.0 * np.eye(2 * n - 1) - s)
        assert det == pytest.approx(2.0 ** n, rel=1e-9)


def test_eigen_closed_form_n3():
    lam = solve_lambda(3).lam
    u, v = eigen_closed_form(lam, 3)
    cd = 1 / _inv_cd_direct(lam, 3)
    assert cd == pytest.approx(CD3, abs=1e-15)
    assert u[2] == cd * lam
    assert np.allclose(v, [1.0, lam, lam ** 2, lam, 1.0], rtol=0, atol=1e-15)
    res_r, res_l = eigen_residuals(build_adjacency(3), lam, u, v)
    assert res_r <= 1e-10 and res_l <= 1e-10
    assert float(u @ v) == pytest.approx(1.0, abs=1e-14)


def test_inv_cd_closed_form_vs_direct():
    for n in range(3, 31):
        lam = solve_lambda(n).lam
        assert closed_form_inv_cd(lam, n) == pytest.approx(
            _inv_cd_direct(lam, n), rel=1e-12)


def test_chain_cd_is_parry_center_cd():
    # one computation of 1/(cd) behind the chain's eigenvectors and the
    # printed constants
    for n in range(3, 54):
        lam = solve_lambda(n).lam
        u, _ = eigen_closed_form(lam, n)
        cd = 1 / _inv_cd_direct(lam, n)
        assert cd == 1.0 / parry_center(n).inv_cd
        assert u[n - 1] == cd * lam  # the centre entry of cd * u_unit
    with mpmath.workprec(120):
        lam = solve_lambda(20, 100).lam
        u, _ = eigen_closed_form(lam, 20)
        cd = 1 / _inv_cd_direct(lam, 20)
        assert isinstance(cd, mpmath.mpf)
        assert u[19] == cd * lam


def test_parry_measure_frozen_n3():
    chain = build_chain(3)
    lam = chain.lam
    expected_p = np.array([1.0, 1.0 + lam, lam ** 3, 1.0 + lam, 1.0]) * CD3
    assert np.allclose(chain.p, expected_p, rtol=0, atol=1e-15)
    assert chain.p[2] == pytest.approx(MU_CENTER3, abs=1e-15)
    center_row = np.array([1.0, lam, 0.0, lam, 1.0]) / lam ** 3
    assert np.allclose(chain.P_trans[2], center_row, rtol=0, atol=1e-15)
    assert np.allclose(chain.P_trans.sum(axis=1), 1.0, atol=1e-12)


def test_parry_measure_rejects_bad_eigendata():
    chain = build_chain(3)
    with pytest.raises(InvariantViolationError):
        parry_measure(chain.adjacency, chain.lam, chain.u * 1.01, chain.v)


@pytest.mark.parametrize("n", [3, 4, 8, 16, 30])
def test_entropy_rate_is_log_lambda(n):
    chain = build_chain(n)
    assert entropy_rate(chain.p, chain.P_trans) == pytest.approx(
        math.log(chain.lam), abs=1e-10)


def test_induced_entropy_and_margin_frozen():
    assert parry_center(3).h_induced == pytest.approx(H_IND3, abs=1e-14)
    rows = check_inequality(10)
    assert [r.n for r in rows] == list(range(3, 11))
    assert rows[0].margin == pytest.approx(MARGIN3, abs=1e-14)
    assert rows[0].h_max == math.log(4)
    assert all(r.margin > 0 for r in rows)


def test_extended_precision_margin_continuity():
    # force the mpmath path at small n and compare with the double path
    ext = check_inequality(6, 150)
    dbl = check_inequality(6)
    for r_ext, r_dbl in zip(ext, dbl):
        assert r_ext.margin == pytest.approx(r_dbl.margin, rel=1e-12)


def test_depth3_cylinders_sum_to_one():
    chain = build_chain(3)
    size = len(chain.p)
    total = math.fsum(
        cylinder_measure(chain, (i, j, k))
        for i in range(size) for j in range(size) for k in range(size))
    assert total == pytest.approx(1.0, abs=1e-12)
    # a forbidden transition gives a zero cylinder
    assert cylinder_measure(chain, (0, 0)) == 0.0


def test_power_iteration_cross_check():
    for n in (3, 5, 9):
        lam = perron_by_power_iteration(build_adjacency(n))
        assert lam == pytest.approx(solve_lambda(n).lam, abs=1e-9)


def test_chain_to_json_fields(capsys):
    # the markov report is this module's chain and centre data, printed to
    # 12 significant digits
    assert cli.main(["markov", "--n", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    chain, center = markov.parry_chain(3), parry_center(3)

    def printed(x):
        return float(f"{float(x):.12g}")

    assert report["adjacency"] == [[0, 1, 0, 0, 0],
                                   [0, 0, 1, 0, 0],
                                   [1, 1, 0, 1, 1],
                                   [0, 0, 1, 0, 0],
                                   [0, 0, 0, 1, 0]]
    assert report["adjacency"] == chain.adjacency.tolist()
    assert report["margin"] == printed(MARGIN3) == printed(center.margin)
    assert report["h_K"] == printed(math.log(LAMBDA3))
    assert report["cd"] == printed(CD3)
    assert report["p"] == [printed(x) for x in chain.p]
    assert len(report["cells"]) == 5


def test_sample_chain_deterministic_and_stationary():
    chain = build_chain(3)
    path1 = sample_chain(chain, 40000, seed=5)
    path2 = sample_chain(chain, 40000, seed=5)
    assert np.array_equal(path1, path2)
    assert path1.dtype == np.int8
    freqs = np.bincount(path1, minlength=5) / path1.size
    # loose agreement with the stationary law
    assert np.abs(freqs - chain.p).max() < 0.01
    # every realized transition is allowed by the adjacency matrix
    allowed = chain.adjacency[path1[:-1], path1[1:]]
    assert allowed.min() == 1


def reference_inv_cd_direct(lam, n):
    """The former O(n^2) normalisation: each wing sum added from scratch."""
    total = lam ** n
    for i in range(n - 1):
        s = sum(lam ** j for j in range(i + 1))
        total += 2 * (s / lam ** i) * lam ** i
    return total


def reference_wing_sums(lam, n):
    return [(sum(lam ** j for j in range(i + 1)), lam ** i)
            for i in range(n - 1)]


def _bits(x):
    return x._mpf_ if isinstance(x, mpmath.mpf) else float(x).hex()


# doubles from the 150-bit roots, so n above the double-precision limit of
# solve_lambda is covered too
LAMBDAS = {n: solve_lambda(n, precision=150).lam for n in range(3, 61)}


@pytest.mark.parametrize("bits,n_values", [
    (None, range(3, 61)),
    (150, range(31, 61)),   # check_inequality's extended rows
    (200, range(3, 41)),
], ids=["double", "150-bits", "200-bits"])
def test_inv_cd_direct_matches_reference(bits, n_values):
    for n in n_values:
        lam = (float(LAMBDAS[n]) if bits is None
               else solve_lambda(n, precision=bits).lam)
        with mpmath.workprec(bits or 53):
            assert _bits(_inv_cd_direct(lam, n)) == _bits(
                reference_inv_cd_direct(lam, n)), n


@pytest.mark.parametrize("kind,n_values", [
    ("double", range(3, 61)),
    # the object-array residual check is slow: every seventh n
    ("mpf", range(3, 61, 7)),
], ids=["double", "mpf"])
def test_eigen_closed_form_matches_reference_sums(kind, n_values,
                                                  monkeypatch):
    def run(lam, n):
        with mpmath.workprec(150):
            u, v = eigen_closed_form(lam, n)
            cd = 1 / _inv_cd_direct(lam, n)
        return [_bits(x) for x in u], [_bits(x) for x in v], _bits(cd)

    for n in n_values:
        lam = float(LAMBDAS[n]) if kind == "double" else LAMBDAS[n]
        got = run(lam, n)
        with monkeypatch.context() as patch:
            patch.setattr(markov, "_wing_sums", reference_wing_sums)
            want = run(lam, n)
        assert got == want, n


def test_eigen_closed_form_stays_in_mpf():
    # an mpf lam gives mpf eigenvectors normalised in mpf, not doubles
    with mpmath.workprec(150):
        u, v = eigen_closed_form(LAMBDAS[40], 40)
        cd = 1 / _inv_cd_direct(LAMBDAS[40], 40)
        assert all(isinstance(x, mpmath.mpf) for x in u)
        assert isinstance(cd, mpmath.mpf)
        assert abs(mpmath.fsum(u * v) - 1) <= mpmath.mpf(2) ** -140


def reference_induced_parry_entropy(n, precision=None):
    """The former `markov.induced_parry_entropy`, which chose its own
    arithmetic: log(lam) * (1/cd) / lam^n."""
    if precision is None:
        lam = solve_lambda(n).lam
        return math.log(lam) * _inv_cd_direct(lam, n) / lam ** n
    lam = solve_lambda(n, precision).lam
    with mpmath.workprec(precision):
        return mpmath.log(lam) * _inv_cd_direct(lam, n) / lam ** n


def reference_check_inequality(n_max, extended_threshold=53, bits=150):
    """The former `markov.check_inequality`, with its per-row precision
    switch and margin branch."""
    rows = []
    for n in range(3, n_max + 1):
        precision = None if n <= extended_threshold else bits
        lam = solve_lambda(n, precision).lam
        h_ind = reference_induced_parry_entropy(n, precision)
        h_max = math.log(2 * n - 2)
        if precision is None:
            margin = h_max - h_ind
        else:
            with mpmath.workprec(bits):
                margin = mpmath.log(2 * n - 2) - h_ind
        lam, h_ind, margin = float(lam), float(h_ind), float(margin)
        if margin <= 0:
            raise InequalityViolationError(
                f"entropy margin non-positive at n={n}: {margin!r}")
        rows.append((n, lam, h_max, h_ind, margin))
    return rows


def reference_center(n, precision=None):
    """The switch-cell numbers as the former callers computed them:
    `cmd_constants` (1/(cd), mu_center), `induced_parry_entropy` and
    `check_inequality`'s margin."""
    lam = solve_lambda(n, precision).lam
    # 53 bits is mpmath's default, so doubles run as they did
    with mpmath.workprec(precision or 53):
        inv_cd = _inv_cd_direct(lam, n)
        mu_center = lam ** n / inv_cd
    h_ind = reference_induced_parry_entropy(n, precision)
    if precision is None:
        margin = math.log(2 * n - 2) - h_ind
    else:
        with mpmath.workprec(precision):
            margin = mpmath.log(2 * n - 2) - h_ind
    return lam, inv_cd, mu_center, h_ind, margin


@pytest.mark.parametrize("bits,n_values", [
    (None, range(3, 54)),
    (150, range(3, 61)),
    (200, range(3, 61)),
], ids=["double", "150-bits", "200-bits"])
def test_parry_center_matches_reference(bits, n_values):
    for n in n_values:
        got = parry_center(n, bits)
        assert [_bits(x) for x in got] == [
            _bits(x) for x in reference_center(n, bits)], n
        kind = float if bits is None else mpmath.mpf
        assert all(type(x) is kind for x in got), n


@pytest.mark.parametrize("bits", [None, 150, 200], ids=["default", "150-bits",
                                                         "200-bits"])
def test_check_inequality_matches_reference(bits):
    # the default runs n <= 53 (lambda_n's double limit) in doubles and
    # n = 54..60 at 150 bits; an explicit width runs every n at it (the
    # former extended_threshold=0). Up to the previous threshold of 30,
    # n = 31..53 ran at 150 bits; their doubles lie a few ulps away (see
    # test_double_parry_center_within_forward_error_bound)
    want = (reference_check_inequality(60) if bits is None
            else reference_check_inequality(60, extended_threshold=0,
                                            bits=bits))
    got = check_inequality(60, bits)
    assert [[_bits(x) for x in r] for r in got] == [
        [_bits(x) for x in r] for r in want]
    assert all(type(x) is float for r in got for x in r[1:])


def _gamma(k):
    u = 2.0 ** -53
    return k * u / (1 - k * u)


def test_double_parry_center_within_forward_error_bound():
    # Forward error bounds from the operation count, written before any
    # deviation was looked at. u = 2^-53 and gamma(k) = k u / (1 - k u)
    # (Higham, ch. 3); math.log and float ** int are within an ulp (2u
    # relative), so each counts as two roundings.
    # * lam: f(x) = x^n - 2 sum_{i<=n-2} x^i, by running sums, is off by at
    #   most gamma(2n) (x^n + 2 s(x)) = 2 gamma(2n) x^n near the root, and
    #   f'(lam) >= 2 lam^(n-1) (checked below). So the bisection on the
    #   sign of fl(f) brackets lam to gamma(2n) lam; the last bracket's ulp
    #   (2u) and Newton's rounded update (u) add 3u: e_lam <= gamma(2n+3).
    # * inv_cd = P(lam) has degree n and positive coefficients, so the
    #   root's error moves it by at most (1 + e_lam)^n - 1 <= gamma(n k)
    #   with k = 2n + 3. Each term takes a pow, at most n - 2 running
    #   additions, a division and a product, then at most n - 1 additions
    #   into the total: gamma(2n + 2) more.
    # * mu_center = lam^n / P(lam): its log-derivative in lam lies in
    #   [0, n], so the root moves it by at most gamma(n k); the pow and the
    #   division add 3 to inv_cd's count.
    # * h_induced = log(lam) P(lam) / lam^n: log lam >= log lam_3 > 1/2,
    #   so the root moves log lam by at most 2 e_lam relative and P / lam^n
    #   by gamma(n k): gamma((n + 2) k). log, product, pow and division add
    #   6 to inv_cd's count.
    # * margin = log(2n - 2) - h_induced, absolute: log's 2u log(2n - 2),
    #   h_induced's error and the subtraction's u |margin|.
    # The 150-bit centres are exact to far below these bounds.
    u = 2.0 ** -53
    for n in range(3, 54):
        got, want = parry_center(n), parry_center(n, 150)
        lam = want.lam
        with mpmath.workprec(150):
            fprime = n * lam ** (n - 1) - 2 * sum(
                i * lam ** (i - 1) for i in range(1, n - 1))
            assert fprime >= 2 * lam ** (n - 1), n
            k = 2 * n + 3
            rel = {"lam": _gamma(k),
                   "inv_cd": _gamma(n * k + 2 * n + 2),
                   "mu_center": _gamma(n * k + 2 * n + 5),
                   "h_induced": _gamma((n + 2) * k + 2 * n + 8)}
            for field, bound in rel.items():
                exact = getattr(want, field)
                assert abs(getattr(got, field) - exact) <= bound * abs(
                    exact), (n, field)
            margin_bound = (2 * u * math.log(2 * n - 2)
                            + rel["h_induced"] * float(want.h_induced)
                            + u * float(want.margin))
            assert abs(got.margin - want.margin) <= margin_bound, n


def test_second_check_inequality_reuses_the_centres(monkeypatch):
    first = check_inequality(40)
    # every centre is cached now: no root is solved again
    monkeypatch.setattr(markov, "solve_lambda", None)
    assert check_inequality(40) == first
    assert parry_center(30) is parry_center(30, None)
    assert parry_center(40, 150) is parry_center(40, 150)


def test_parry_chain_is_built_once_and_read_only(monkeypatch):
    markov.parry_chain.cache_clear()
    builds = []
    monkeypatch.setattr(markov, "build_chain",
                        lambda n: builds.append(n) or build_chain(n))
    chain = markov.parry_chain(6)
    assert markov.parry_chain(6) is chain
    assert builds == [6]
    for array in (chain.adjacency, chain.u, chain.v, chain.p, chain.P_trans):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("n", [3.0, np.int64(3), True],
                         ids=["float", "numpy-int", "bool"])
def test_caches_check_n_first(n):
    # each equals or hashes like a cached int key
    markov.parry_chain(3)
    parry_center(3)
    with pytest.raises(ValueError, match="integer"):
        markov.parry_chain(n)
    with pytest.raises(ValueError, match="integer"):
        parry_center(n)
