"""The bulk kernels, in numpy: first-return statistics over many points,
the Markov chain sampler and the seeded samplers, with their input checks.
`BACKEND` names the kernel in bulk `simulate` output.

The invariant that keeps every output bit fixed is the per-point order of
float operations: each point sees `x = beta*x - bit` for its coin, then
`x = beta*x - 1.0` (above `b`) or `beta*x` (below `a`) once per round until
it lands in `[a, b]`, exactly as the scalar `dynamics.step` does. How
points are grouped into numpy calls does not change a result, only how
fast it comes:

* `induced_stats` draws the coins of a block of steps for all points in
  one draw of about `_DRAW_WORDS` words (word `j*steps + k` depends only
  on the seed and that index; Salmon et al., SC'11). The words `_raw`
  mixes for index `j*steps + k` are `(j*steps + k + 1)*G + seed'` mod
  2**64, which is `(j*steps + 1)*G + seed'`, formed once per point, plus
  `k*G`: one add per draw forms them all. A coin step puts a point above
  `b` (bit 0, as `beta*[a, b] = [b, beta*b]`) or below `a` (bit 1), and
  its excursion runs on that one branch. In doubles, for n = 3..53, the upper
  branch `fl(fl(beta*y) - 1)` strictly decreases on `(b, beta*b]`, the
  lower branch `fl(beta*y)` strictly increases on `[beta*a - 1, a)`, and
  neither crosses back over its boundary once past it (a Hypothesis test
  checks all three). So the kernel keeps `w = x` above and `w = -x`
  below, where both branches read `w = beta*w - d` with `d` = 1 or 0;
  negation is exact, so no point's float operations change. Each step
  runs R rounds of that over all points, with no compaction, into one
  `(R + 2) x points` array: rows 0..R, then a row of -inf. A point's
  landing round is the number of its rows with `w > t`, for `t = b` above
  and `-a` below: one compare, one uint8 reduce and one flat `take` of
  the landing values per step, and per draw one `count_nonzero` of each
  landing round, which is the histogram.
  The count is exact because each branch map is non-decreasing: given
  `beta*b - 1 <= b` and `beta*a >= a` (checked per call), a point at or
  past its boundary stays there, so the rows with `w > t` come first.
  `R = min(n_cap - 1, ceil(ln(points) / ln(beta)))` (and at most
  `_MAX_ROUNDS`), so that under the paper's return-time law
  `P(tau = t) = beta^-t` fewer than one point per step is expected still
  out; the array grows with points, not with steps. Return times are
  2..n, so row n - 1 already sees every landing; a point with time n + 1,
  which the scalar map accepts, is still out after the rounds and counted
  in `hist[n + 1]` by `_finish`. The rounds check no guard: `outward`
  (checked per call) makes `beta*x - 1` rise past `domain_max + guard`
  and `beta*x` fall below `-guard`, so an escaped point is still out when
  they end.
* `_finish` runs leftover points one by one from their coin-step values
  to their returns: every point of a step with R = 0 (one point, a beta
  too small for `domain_max`, or a failed check above), and in a step
  with rounds each point whose landing value lies below its least one,
  `lo`: still out after R rounds (it reads the -inf row) or landed past
  `[a, b]`. Such a point's landing round is set to R + 1, which the
  histogram skips. Only starts outside `[a, b]`, which `induced_stats`
  refuses, land past: at n = 3..53, `fl(fl(beta*b') - 1) >= a` for the
  double `b'` after b and `fl(beta*a') <= b` for the double `a'` before
  a (a test checks both), so by monotonicity every landing is in `[a, b]`.
  It is the one place that raises `OrbitEscapeError` or
  `InvariantViolationError`. A call raises the least (round, drift
  before escape, index) of its points' first errors, which a
  round-by-round check meets first: no excursion reads another, and a
  point the rounds land never errs (an escaped point only moves further
  out, and the rounds end before a drift).
* `chain_sample` turns each uniform into its bin among the nb - 1
  distinct values of all cumulative rows, then walks a table over `bytes`
  rows, one draw of `_DRAW_WORDS` steps at a time. The next state is the
  number of row values at most `u`, capped at `m - 1`; every row value is
  a bin edge, so that number is the same for every `u` in one bin, and
  each one-step `(state, bin)` entry counts it at a value from its bin.
  Each state's row of nb bytes is made on its own, so the table costs
  `m*nb` bytes. One lookup walks k steps: k is the largest with
  `m^k <= 256`, so that the id `s_1 m^(k-1) + ... + s_k` of the k states
  it passes fits in a byte, and with `m*nb^k <= _DRAW_WORDS` table bytes.
  A k-step row, keyed by the k bins in base nb, gives that id, and a
  small table turns the ids back into states. The row of an id is that of
  its last state, so the walk reads `state := table[state][key]` for any
  k, and k = 1 is the one-step walk itself. Parry chains with n <= 8 take
  2 or 3 steps per lookup; a draw's tail shorter than k runs one step at
  a time. Where `nb^2 <= _DRAW_WORDS`, so at most 127 edges (every chain
  with k > 1, and every Parry chain up to n = 53, which has 107 bins),
  counting the edges at most `u` in bytes, one compare and add per edge,
  finds the bins faster than `searchsorted`'s branchy bisection.
  Rows must be non-decreasing, as checked on entry.

`_DRAW_WORDS` sizes every draw, so a bulk loop's working set is about
three arrays of 16,384 8-byte items (128 KiB each) whatever its length;
`induced_stats` adds its rounds array and a few rows of points, which
grow with points, not steps, and `chain_sample` its `m*nb` table bytes.
`_mix` mixes each draw in place, in one work array and one shift
temporary, and each loop frees one draw before it makes the next. At
16,384 words a draw still amortizes numpy's per-call cost over 1024
points times 16 steps or 16,384 chain steps, and larger draws only add
memory. Word values depend on the index alone, so the draw size changes
no output bit.
"""

import math

import numpy as np

from . import _bits
from ._bits import _MASK, STREAM_CHAIN, STREAM_COIN, STREAM_START
from .dynamics import _DRIFT_GUARD
from .errors import InvariantViolationError, OrbitEscapeError

BACKEND = "python"
_MAX_STATES = np.iinfo(np.int8).max
_GOLDEN = np.uint64(_bits._GOLDEN)
_MIX1 = np.uint64(_bits._MIX1)
_MIX2 = np.uint64(_bits._MIX2)
_DRAW_WORDS = 16384  # words per `_raw` draw: 16 steps of 1024 points
_MAX_ROUNDS = 254    # round counts are uint8


def _at_least(name, value, least):
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def induced_stats(ctx, x0, steps: int, seed: int):
    """Bulk first-return statistics. Returns (hist, final_x); hist[t]
    counts returns at time t over all points and steps, of which
    there must be one or more; starts must be a 1-D array of finite
    values in [a, b], and ctx a double-precision context."""
    _at_least("steps", steps, 1)
    if not isinstance(ctx.beta, float):
        raise ValueError(f"induced_stats runs in doubles; got a context "
                         f"with beta of type {type(ctx.beta).__name__}")
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    if x0.ndim != 1:
        raise ValueError(f"x0 must be 1-D, got shape {x0.shape}")
    _at_least("x0 size", x0.size, 1)
    outside = ~((x0 >= ctx.a) & (x0 <= ctx.b))  # NaN lies outside too
    if outside.any():
        raise ValueError(f"starts must be finite and in [a, b] = [{ctx.a!r},"
                         f" {ctx.b!r}], got {float(x0[outside][0])!r}")
    return _induced(ctx.beta, ctx.a, ctx.b, ctx.domain_max, ctx.n, x0,
                    int(steps), int(seed) & _MASK)


def _induced(beta, a, b, domain_max, n_cap, x0, steps, seed):
    """Run `steps` first-return steps for every start in x0 (all inside the
    switch interval), consuming one coin bit per step.

    Point j consumes coin indices j*steps .. j*steps + steps - 1, so point
    0 sees exactly the scalar stream for the same seed. Returns
    (histogram of return times, final positions). A return time of
    n_cap + 1 is counted in hist[n_cap + 1]; return times above it mean
    drift and raise.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    count = x.size
    hist = [0] * (n_cap + 2)
    low, high = -_DRIFT_GUARD, domain_max + _DRIFT_GUARD
    # the words `_raw` forms for indices j*steps + k, with k*G added per
    # draw: (j*steps + k + 1)*G + seed' = (j*steps + 1)*G + seed' + k*G
    base = np.arange(count, dtype=np.uint64) * np.uint64(steps)
    base += np.uint64(1)
    base *= _GOLDEN
    base += np.uint64(seed ^ STREAM_COIN)
    block = max(1, _DRAW_WORDS // count)
    outward = beta * low < low and beta * high - 1.0 > high
    stays = beta * b - 1.0 <= b and beta * a >= a
    # return times are 2..n_cap, so the rounds up to n_cap - 1 see every
    # landing; a point with time n_cap + 1 goes on in `_finish`
    rounds = (min(n_cap - 1, _MAX_ROUNDS,
                  math.ceil(math.log(count) / math.log(beta)))
              if outward and stays else 0)
    # per coin bit (column 0 or 1): the bit, then for the branch it starts
    # the subtrahend d, the sign s of w = s*x, the threshold t that w stays
    # above while out, and the least landing w
    coin = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, -1.0], [b, -a], [a, -b]])
    aux = np.empty((5, count))
    bit, d, s, t, lo = aux
    w = np.empty((rounds + 2, count))
    w[-1] = -np.inf  # the landing value of a point still out
    rows = list(w)
    moves = list(zip(rows[:rounds], rows[1:]))  # round r: row r to r + 1
    away = np.empty((rounds + 1, count), dtype=bool)
    lands = np.empty((block, count), dtype=np.uint8)  # landing rounds
    hits = np.empty((block, count), dtype=bool)
    size, cols = np.array(count, dtype=np.intp), np.arange(count)
    flat = np.empty(count, dtype=np.intp)
    land = np.empty(count)
    past = np.empty(count, dtype=bool)
    # ufuncs take a 0-d array operand faster than a Python float, and
    # `out` faster by position than by keyword
    mul, sub, factor = np.multiply, np.subtract, np.array(beta)
    greater, less = np.greater, np.less
    for k0 in range(0, steps, block):
        ks = np.arange(k0, min(k0 + block, steps), dtype=np.uint64)
        ks *= _GOLDEN
        z = _mix(ks[:, None] + base)
        z >>= np.uint64(63)
        for back, bits in zip(lands, z.view(np.int64)):
            coin.take(bits, axis=1, out=aux, mode="clip")
            mul(x, factor, x)
            x -= bit
            if not rounds:
                idx = ((x < a) | (x > b)).nonzero()[0]
                hist[1] += count - idx.size
                x[idx] = _finish(beta, a, b, domain_max, n_cap, hist,
                                 x[idx].tolist())
                continue
            mul(x, s, rows[0])
            for src, dst in moves:
                mul(src, factor, dst)
                sub(dst, d, dst)
            greater(w[:-1], t, away)
            np.add.reduce(away.view(np.uint8), 0, None, back)
            mul(back, size, flat)  # the flat index of each landing
            flat += cols
            w.take(flat, out=land, mode="clip")
            mul(land, s, x)
            if np.count_nonzero(less(land, lo, past)):
                # still out or landed past [a, b]: the histogram skips
                # these landing rounds, and each point runs from its
                # coin-step value
                odd = past.nonzero()[0]
                back[odd] = rounds + 1
                x[odd] = _finish(beta, a, b, domain_max, n_cap, hist,
                                 (rows[0].take(odd) * s.take(odd)).tolist())
        if rounds:
            done, eq = lands[:len(z)], hits[:len(z)]
            for r in range(rounds + 1):
                hist[r + 1] += np.count_nonzero(np.equal(done, r, eq))
        del z, bits  # free this draw before the next one is made
    return np.array(hist, dtype=np.int64), x


def _finish(beta, a, b, domain_max, n_cap, hist, v):
    """Run each of a few points from its coin step to its return, one
    after the other; `v` holds their values after the coin step in index
    order and comes back holding their final values. Each point's first
    error is keyed by (round, drift before escape, position), and the
    least key is raised: the error a round-by-round check over all points
    would meet first."""
    low, high = -_DRIFT_GUARD, domain_max + _DRIFT_GUARD
    errors = []
    for i, y in enumerate(v):
        r = 1
        while r <= n_cap:
            y = beta * y - 1.0 if y > b else beta * y
            if y < a or y > b:
                if y < low or y > high:
                    errors.append((r, 1, i, y))
                    break
                r += 1
            else:
                hist[r + 1] += 1
                v[i] = y
                break
        else:
            errors.append((r, 0, i, y))
    if errors:
        _, escaped, _, y = min(errors)
        if escaped:
            raise OrbitEscapeError(y, 0.0, domain_max, "bulk kernel")
        raise InvariantViolationError(
            f"return time exceeded n+1 = {n_cap + 1} at x={y!r} "
            f"(bulk kernel)")
    return v


def chain_sample(cum_rows, start_cum, steps: int, seed: int):
    """Seeded Markov path from non-decreasing cumulative rows: one uniform
    for the start, one per transition; int8 states, so at most 127 of
    them. Uses its own stream constant so chain paths never collide with
    coin bits drawn from the same seed."""
    _at_least("steps", steps, 1)
    cum_rows = np.ascontiguousarray(cum_rows, dtype=np.float64)
    start_cum = np.ascontiguousarray(start_cum, dtype=np.float64)
    m = start_cum.size
    if start_cum.ndim != 1 or not 1 <= m <= _MAX_STATES:
        raise ValueError(f"start_cum must be 1-D with 1..{_MAX_STATES} "
                         f"states, got shape {start_cum.shape}")
    if cum_rows.shape != (m, m):
        raise ValueError(f"cum_rows must have shape {(m, m)}, "
                         f"got {cum_rows.shape}")
    if not ((np.diff(cum_rows, axis=1) >= 0).all()
            and (np.diff(start_cum) >= 0).all()):
        raise ValueError("cum_rows and start_cum must be non-decreasing "
                         "cumulative laws")
    steps, seed = int(steps), int(seed) & _MASK
    # sorted distinct values; np.unique would cost about 1.3 MB of RSS on
    # its first call
    edges = np.sort(cum_rows, axis=None)
    reps = np.append(-np.inf, edges[np.append(True, edges[1:] != edges[:-1])])
    edges, nb = reps[1:], reps.size  # reps: a value inside every bin
    # next state per (state, bin), one bytes row per state
    one = []
    for row in cum_rows:
        ahead = np.searchsorted(row, reps, side="right")
        np.minimum(ahead, m - 1, out=ahead)
        one.append(ahead.astype(np.uint8).tobytes())
        del ahead
    k, table, tuples = 1, one, np.arange(m, dtype=np.int8)[:, None]
    while m ** (k + 1) <= 256 and m * nb ** (k + 1) <= _DRAW_WORDS:
        k += 1
    if k > 1:
        # id s_1 m^(k-1) + ... + s_k of the states after each of k steps,
        # per (state, bin_1 nb^(k-1) + ... + bin_k); the row of an id is
        # that of its last state
        step = np.frombuffer(b"".join(one), np.uint8).reshape(m, nb)
        ids = step.astype(np.intp)
        for _ in range(k - 1):
            ids = (ids[..., None] * m + step[ids % m]).reshape(m, -1)
        rows = [row.astype(np.uint8).tobytes() for row in ids]
        table = [rows[i % m] for i in range(m ** k)]
        tuples = (np.arange(m ** k)[:, None] // m ** np.arange(k - 1, -1, -1)
                  % m).astype(np.int8)
    u0 = _uniforms(seed, STREAM_CHAIN, 0, 1)[0]
    state = min(int(np.searchsorted(start_cum, u0, side="right")), m - 1)
    out = np.empty(steps, dtype=np.int8)
    out[0] = state
    for k0 in range(1, steps, _DRAW_WORDS):
        u = _uniforms(seed, STREAM_CHAIN, k0, min(k0 + _DRAW_WORDS, steps))
        if nb * nb <= _DRAW_WORDS:  # <= 127 edges: count those <= u in bytes
            at, hit = np.zeros(u.size, dtype=np.uint8), np.empty(u.size, bool)
            for edge in edges.tolist():
                np.add(at, np.greater_equal(u, edge, hit).view(np.uint8), at)
        else:
            at = np.searchsorted(edges, u, side="right")
        del u
        end = at.size - at.size % k
        keys = at[0:end:k].astype(np.intp, copy=False)
        for j in range(1, k):
            keys = keys * nb + at[j:end:k]
        ids = [state := table[state][i] for i in keys.tolist()]
        out[k0:k0 + end] = tuples.take(np.frombuffer(bytes(ids), np.uint8),
                                       axis=0).ravel()
        state %= m
        tail = [state := one[state][i] for i in at[end:].tolist()]
        out[k0 + end:k0 + at.size] = tail
        del at, keys, ids  # free this draw before the next one is made
    return out


def uniform_starts(seed: int, count: int, lo: float, hi: float):
    """Seeded start points spread over [lo, hi], on a stream of their own
    so they never collide with the coin bits for the same seed."""
    _at_least("count", count, 0)
    return lo + (hi - lo) * _uniforms(int(seed) & _MASK, STREAM_START, 0,
                                      count)


def coin_bits(seed: int, count: int):
    """First `count` coin bits of the scalar stream, vectorized."""
    _at_least("count", count, 0)
    idx = np.arange(count, dtype=np.uint64)
    z = _raw(int(seed) & _MASK, STREAM_COIN, idx)
    z >>= np.uint64(63)
    return z.astype(np.uint8)


def _raw(seed, stream, index):
    """Vectorized counter-based generator words for an index array, which
    is left as it is. splitmix64 runs in place on one work array and one
    shift temporary; every operation is the same mod 2**64."""
    z = index + np.uint64(1)
    z *= _GOLDEN
    z += np.uint64(seed) ^ np.uint64(stream)
    return _mix(z)


def _mix(z):
    """splitmix64's finalizer, in place on the words z, with one shift
    temporary; returns z."""
    t = z >> np.uint64(30)
    z ^= t
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _uniforms(seed, stream, lo, hi):
    """Uniforms in [0, 1) with 53 random mantissa bits, draws lo .. hi - 1
    of a stream."""
    z = _raw(seed, stream, np.arange(lo, hi, dtype=np.uint64))
    z >>= np.uint64(11)
    return z * 2.0 ** -53
