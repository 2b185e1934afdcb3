"""Pure-numpy implementations of the hot loops.

Used when the compiled extension is unavailable. Must stay bit-for-bit
equivalent to `_kernels.pyx`: same counter-based coin stream, same
multiply-then-subtract update order, same drift guards. Both backends raise
bare RuntimeError with a structured "kind:payload" message; the dispatcher
in `kernels` translates those into the package's typed errors.
"""

from bisect import bisect_right

import numpy as np

from . import _bits

_GOLDEN = np.uint64(_bits._GOLDEN)
_MIX1 = np.uint64(_bits._MIX1)
_MIX2 = np.uint64(_bits._MIX2)
_GUARD = 1e-9


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _raw(seed, stream, index):
    """Vectorized counter-based generator word, index may be an array."""
    base = np.uint64(seed) ^ np.uint64(stream)
    return _mix64(base + (index + np.uint64(1)) * _GOLDEN)


def induced_stats(beta, a, b, domain_max, n_cap, x0, steps, seed):
    """Run `steps` first-return steps for every start in x0 (all inside the
    switch interval), consuming one coin bit per step.

    Point j consumes coin indices j*steps .. j*steps + steps - 1, so point
    0 sees exactly the scalar stream for the same seed. Returns
    (histogram of return times, final positions, count of exact returns at
    time 1). Return times above n_cap mean drift and raise.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    count = x.size
    hist = np.zeros(n_cap + 2, dtype=np.int64)
    tau1 = 0
    offsets = np.arange(count, dtype=np.uint64) * np.uint64(steps)
    for k in range(steps):
        z = _raw(seed, _bits.STREAM_COIN, offsets + np.uint64(k))
        bits = (z >> np.uint64(63)).astype(np.float64)
        x = beta * x - bits
        t = np.ones(count, dtype=np.int64)
        out = (x < a) | (x > b)
        rounds = 0
        while out.any():
            rounds += 1
            if rounds > n_cap:
                worst = float(x[int(np.argmax(out))])
                raise RuntimeError(f"drift:{worst!r}")
            x = np.where(out, np.where(x > b, beta * x - 1.0, beta * x), x)
            bad = (x < -_GUARD) | (x > domain_max + _GUARD)
            if bad.any():
                worst = float(x[int(np.argmax(bad))])
                raise RuntimeError(f"escape:{worst!r}")
            t += out
            out = (x < a) | (x > b)
        hist += np.bincount(t, minlength=n_cap + 2)
        tau1 += int((t == 1).sum())
    return hist, x, tau1


def chain_sample(cum_rows, start_cum, steps, seed):
    """Sample a Markov path: one uniform for the start, one per transition.

    cum_rows holds cumulative transition rows, start_cum the cumulative
    start law. Uses its own stream constant so chain paths never collide
    with coin bits drawn from the same seed.
    """
    m = len(start_cum)
    idx = np.arange(steps, dtype=np.uint64)
    z = _raw(seed, _bits.STREAM_CHAIN, idx)
    u = (z >> np.uint64(11)) * 2.0 ** -53
    rows = [list(row) for row in cum_rows]
    out = np.empty(steps, dtype=np.int8)
    state = min(bisect_right(list(start_cum), u[0]), m - 1)
    out[0] = state
    for k in range(1, steps):
        state = min(bisect_right(rows[state], u[k]), m - 1)
        out[k] = state
    return out
