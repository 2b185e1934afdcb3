"""Bulk kernels: backend parity, stream addressing and error retyping."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from shrinkbeta import _bits, kernels
from shrinkbeta.algebra import solve_beta
from shrinkbeta.dynamics import CoinStream, PointState, return_time
from shrinkbeta.errors import InvariantViolationError, OrbitEscapeError

CTX = solve_beta(3)

BOTH_BACKENDS = pytest.mark.parametrize(
    "backend",
    ["python",
     pytest.param("compiled",
                  marks=pytest.mark.skipif(kernels.BACKEND != "compiled",
                                           reason="extension not built"))])


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


def test_vectorized_streams_match_scalar():
    seed = 987654321
    bits = kernels.coin_bits(seed, 200)
    assert [int(b) for b in bits] == \
        [_bits.bit_at(seed, k) for k in range(200)]
    uniforms = kernels.uniform_array(seed, 200)
    for k in (0, 1, 63, 199):
        assert float(uniforms[k]) == _bits.uniform_at(seed, k,
                                                      _bits.STREAM_CHAIN)
    assert uniforms.min() >= 0.0 and uniforms.max() < 1.0


def test_streams_are_disjoint_per_seed():
    seed = 42
    coins = kernels.coin_bits(seed, 64)
    starts = kernels.uniform_starts(seed, 64, 0.0, 1.0)
    chain = kernels.uniform_array(seed, 64)
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


@BOTH_BACKENDS
def test_bulk_matches_scalar_orbit(backend):
    seed = 555
    steps = 300
    x0 = np.array([1.45])
    hist, xf, tau1 = kernels.induced_stats(CTX, x0, steps, seed,
                                           backend=backend)
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
    assert tau1 == sum(1 for t in taus if t == 1)


def test_backends_bitwise_identical():
    if kernels.BACKEND != "compiled":
        pytest.skip("extension not built")
    for n in (3, 4, 5):
        ctx = solve_beta(n)
        for seed in (1, 77, 20260814):
            x0 = kernels.uniform_starts(seed, 128, ctx.a + 1e-9, ctx.b - 1e-9)
            out_c = kernels.induced_stats(ctx, x0, 400, seed,
                                          backend="compiled")
            out_p = kernels.induced_stats(ctx, x0, 400, seed,
                                          backend="python")
            assert np.array_equal(out_c[0], out_p[0])
            assert np.array_equal(out_c[1], out_p[1])  # exact float equality
            assert out_c[2] == out_p[2]


@BOTH_BACKENDS
def test_bulk_histogram_support(backend):
    ctx = solve_beta(4)
    x0 = kernels.uniform_starts(11, 256, ctx.a + 1e-9, ctx.b - 1e-9)
    hist, xf, tau1 = kernels.induced_stats(ctx, x0, 200, 11, backend=backend)
    assert tau1 == 0
    assert hist[0] == hist[1] == hist[ctx.n + 1] == 0
    assert hist.sum() == 256 * 200
    assert np.all(xf >= ctx.a) and np.all(xf <= ctx.b)


@BOTH_BACKENDS
def test_escape_retyped(backend):
    x0 = np.array([CTX.domain_max + 2.0])
    with pytest.raises(OrbitEscapeError):
        kernels.induced_stats(CTX, x0, 4, 1, backend=backend)


@BOTH_BACKENDS
def test_drift_retyped(backend):
    # a too-small expansion factor cannot return within n steps
    fake = SimpleNamespace(beta=1.1, a=CTX.a, b=CTX.b,
                           domain_max=CTX.domain_max, n=CTX.n)
    with pytest.raises(InvariantViolationError):
        kernels.induced_stats(fake, np.array([1.5]), 4, 1, backend=backend)


def test_compiled_request_without_build():
    if kernels.BACKEND == "compiled":
        pytest.skip("extension is built here")
    with pytest.raises(RuntimeError):
        kernels.induced_stats(CTX, np.array([1.5]), 1, 1, backend="compiled")


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
