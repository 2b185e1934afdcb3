"""End-to-end acceptance checks, each with its runtime budget.

Every test here pins one user-facing guarantee of the package: root values
against an in-test bisection oracle, bulk statistics against the geometric
return-time law, product form of the pushforward, coding conjugacy,
adjacency structure, eigendata, entropy identities, sampled entropy rates
and byte-stable CLI artifacts. Budgets are asserted so a regression in the
kernels or the eigensolvers shows up as a failure, not a slow suite.
"""

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from shrinkbeta import _bits, kernels, markov
from shrinkbeta.algebra import solve_beta, solve_lambda
from shrinkbeta.cli import main
from shrinkbeta.dynamics import CoinStream, PointState, induced_step
from shrinkbeta.gls import return_time_law
from shrinkbeta.kernels import uniform_starts
from shrinkbeta.measures import (bernoulli_mass, cylinder_preimage_table,
                                 entropy_rate_estimate)
from shrinkbeta.symbolic import SymbolicWord, alphabet, decode, encode

SEED = 20260814
GOLDEN = 1.6180339887498949


def _bisect_root(f, lo, hi, iterations=200):
    flo = f(lo)
    assert flo * f(hi) < 0, "oracle bracket must straddle the root"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def test_roots_match_bisection_oracle():
    start = time.perf_counter()

    def beta_gap(n):
        return lambda x: math.fsum(x ** -t for t in range(2, n + 1)) - 1.0

    def lam_gap(n):
        return lambda x: x ** n - 2.0 * math.fsum(x ** k
                                                  for k in range(n - 1))

    assert abs(_bisect_root(beta_gap(3), 1.0 + 1e-9, 2.0)
               - 1.3247179572) <= 1e-9
    assert abs(_bisect_root(lam_gap(3), 1.0 + 1e-9, 2.0)
               - 1.7692923542) <= 1e-9
    for n in range(3, 13):
        oracle_beta = _bisect_root(beta_gap(n), 1.0 + 1e-9, 2.0)
        oracle_lam = _bisect_root(lam_gap(n), 1.0 + 1e-9, 2.0)
        assert abs(solve_beta(n).beta - oracle_beta) <= 1e-12, f"beta n={n}"
        assert abs(solve_lambda(n).lam - oracle_lam) <= 1e-12, f"lambda n={n}"
    assert time.perf_counter() - start < 1.0


def test_beta_family_increases_toward_golden_ratio():
    start = time.perf_counter()
    betas = [solve_beta(n).beta for n in range(3, 41)]
    for prev, cur in zip(betas, betas[1:]):
        assert prev < cur, f"family not strictly increasing at {cur}"
    assert all(b < GOLDEN for b in betas)
    assert GOLDEN - betas[-1] < 1e-8  # n = 40 is already at the limit
    assert time.perf_counter() - start < 1.0


def test_bulk_return_times_follow_geometric_law():
    start = time.perf_counter()
    for n in (3, 4, 5):
        ctx = solve_beta(n)
        x0 = uniform_starts(SEED + n, 1000, ctx.a + 1e-9, ctx.b - 1e-9)
        hist, final_x = kernels.induced_stats(ctx, x0, 1000, SEED + n)
        total = 1000 * 1000
        assert hist[1] == 0, f"n={n}: unexpected time-1 returns"
        assert hist[0] == hist[1] == hist[n + 1] == 0
        assert np.all(final_x >= ctx.a) and np.all(final_x <= ctx.b)
        for t in range(2, n + 1):
            pi = ctx.beta ** -t
            sigma = math.sqrt(pi * (1.0 - pi) / total)
            freq = hist[t] / total
            assert abs(freq - pi) <= 4 * sigma, \
                f"n={n} t={t}: freq {freq:.6f} vs {pi:.6f}"
    assert time.perf_counter() - start < 30.0


def test_pushforward_is_product_measure_on_depth3_cylinders():
    start = time.perf_counter()
    for n in (3, 4):
        ctx = solve_beta(n)
        law = return_time_law(ctx)
        for p in (0.3, 0.5):
            worst = 0.0
            for coins in product((0, 1), repeat=3):
                lo, hi = cylinder_preimage_table(coins, ctx)
                mass = bernoulli_mass(coins, p)
                for j, rts in enumerate(product(range(2, n + 1), repeat=3)):
                    lhs = mass * (hi[j] - lo[j]) / (ctx.b - ctx.a)
                    rhs = math.prod((law[t] for t in rts), start=mass)
                    worst = max(worst, abs(lhs - rhs))
            assert worst <= 1e-12, f"n={n} p={p}: worst {worst:.3e}"
    assert time.perf_counter() - start < 5.0


def test_codings_decode_in_range_and_conjugate():
    start = time.perf_counter()
    ctx = solve_beta(3)
    for letters in product(alphabet(3), repeat=4):
        value, tail = decode(SymbolicWord(tuple(letters)), ctx)
        assert ctx.a - tail <= value <= ctx.b + tail, f"word {letters}"
    x0 = uniform_starts(SEED, 10000, ctx.a + 1e-9, ctx.b - 1e-9)
    for j, x in enumerate(x0):
        state = PointState(CoinStream.seeded(5000 + j), float(x))
        word = encode(state, 6, ctx)
        after = induced_step(state, ctx)
        assert encode(after, 5, ctx).letters == word.letters[1:], \
            f"conjugacy broke at point {j}"
    assert time.perf_counter() - start < 10.0


def test_adjacency_matches_interval_images():
    start = time.perf_counter()
    expected = np.array([[0, 1, 0, 0, 0],
                         [0, 0, 1, 0, 0],
                         [1, 1, 0, 1, 1],
                         [0, 0, 1, 0, 0],
                         [0, 0, 0, 1, 0]])
    assert np.array_equal(markov.build_adjacency(3), expected)
    for n in range(3, 9):
        rule = markov.build_adjacency(n)
        images = markov.adjacency_from_images(solve_beta(n))
        assert np.array_equal(rule, images), f"n={n}"
    assert time.perf_counter() - start < 1.0


def test_eigendata_residuals_and_normalizer():
    start = time.perf_counter()
    for n in range(3, 31):
        chain = markov.parry_chain(n)
        right, left = markov.eigen_residuals(markov.build_adjacency(n),
                                             chain.lam, chain.u, chain.v)
        assert right <= 1e-10, f"n={n}: right residual {right:.3e}"
        assert left <= 1e-10, f"n={n}: left residual {left:.3e}"
        lam = solve_lambda(n).lam
        closed = markov.closed_form_inv_cd(lam, n)
        direct = markov._inv_cd_direct(lam, n)
        assert abs(closed - direct) <= 1e-12 * direct, f"n={n}"
    assert time.perf_counter() - start < 2.0


def test_chain_entropy_rate_equals_log_lambda():
    start = time.perf_counter()
    for n in range(3, 31):
        chain = markov.build_chain(n)
        rate = markov.entropy_rate(chain.p, chain.P_trans)
        assert abs(rate - math.log(chain.lam)) <= 1e-10, f"n={n}"
    assert time.perf_counter() - start < 2.0


def test_abramov_and_kac_identities():
    start = time.perf_counter()
    for n in range(3, 31):
        parry = markov.parry_center(n)
        abramov = abs(math.log(parry.lam)
                      - parry.h_induced * parry.mu_center)
        assert abramov <= 1e-12, f"n={n}: abramov {abramov:.3e}"
        chain = markov.build_chain(n)
        m = 2 * n - 1
        center = n - 1
        # each non-center state has one successor: walk it to the center
        dist = [0] * m
        for i in range(m):
            steps, j = 0, i
            while j != center:
                j = int(np.flatnonzero(chain.adjacency[j])[0])
                steps += 1
            dist[i] = steps
        expected_tau = math.fsum(chain.P_trans[center][j] * (1 + dist[j])
                                 for j in range(m))
        kac = chain.p[center] * expected_tau
        assert abs(kac - 1.0) <= 1e-12, f"n={n}: kac {kac!r}"
    assert time.perf_counter() - start < 2.0


def test_entropy_margin_positive_with_closed_form():
    start = time.perf_counter()
    rows = markov.check_inequality(50)
    assert [r.n for r in rows] == list(range(3, 51))
    for r in rows:
        assert r.margin > 0.0, f"n={r.n}: margin {r.margin!r}"
    row3 = rows[0]
    lam = row3.lam
    closed = math.log(4.0) - math.log(lam) * (3 + 2 * lam) / (lam + 1)
    assert abs(row3.margin - closed) <= 1e-12
    assert abs(row3.margin - 0.0390969522) <= 1e-5
    assert abs(row3.h_max - 1.3862943611) <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_sampled_entropy_rates_match_theory():
    start = time.perf_counter()
    chain = markov.build_chain(3)
    path = markov.sample_chain(chain, 1_000_000, seed=1)
    est = entropy_rate_estimate(np.asarray(path), 2, alphabet_size=5)
    target = math.log(chain.lam)
    assert abs(est - target) <= 0.02 * target, f"chain rate {est:.6f}"
    uniforms = kernels._uniforms(7, _bits.STREAM_CHAIN, 0, 1_000_000)
    letters = np.minimum((uniforms * 4).astype(np.int64), 3)
    est_uniform = entropy_rate_estimate(letters, 2, alphabet_size=4)
    assert abs(est_uniform - math.log(4.0)) <= 0.01 * math.log(4.0), \
        f"uniform rate {est_uniform:.6f}"
    assert time.perf_counter() - start < 20.0


@pytest.mark.parametrize("argv", [
    ["constants", "--n", "5"],
    ["simulate", "--samples", "5000", "--points", "128"],
    ["verify", "--suite", "gls", "--n", "3..4", "--format", "csv"],
], ids=["constants", "simulate", "verify"])
def test_cli_artifacts_byte_stable(argv, tmp_path):
    first = tmp_path / "first.out"
    second = tmp_path / "second.out"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    if argv[0] == "constants":
        assert json.loads(first.read_text())["n"] == 5
