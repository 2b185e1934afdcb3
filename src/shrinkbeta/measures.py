"""Measures for the induced system and their lift to the full map.

Everything here is an evaluator on rectangles (coin cylinder x interval);
all verification reduces to exact piecewise-affine interval arithmetic, no
quadrature. Supported induced measures on Omega x [a, b]:

* lebesgue(p): Bernoulli(p) coins x normalized Lebesgue on [a, b]. This is
  invariant for the induced map, and the coding pushes it onto the product
  of Bernoulli(p) with the return-time law (beta^-2, ..., beta^-n).
* product(p, pi): the pullback through the coding of Bernoulli(p) x pi^N
  for an arbitrary return-time law pi. Rectangle values are computed by
  adaptive refinement of symbolic cylinders, whose preimages are nested
  intervals shrinking geometrically.

Every evaluator reads the induced map from one branch table per coin,
built by gls and cached per context in _branches: a read-only (4, n-1)
float array with rows lo, hi, slope, offset and column t - 2 for return
time t (coin 1 the greedy side, coin 0 the lazy side).

Cylinder preimages compose inverse branches from the last letter back;
cylinder_preimage_table composes a coin word's shared suffixes only once.

An induced-invariant measure nu lifts to an invariant measure mu of the
full map by the first-return sum

    mu(E) = (1/int tau dnu) * sum_{k>=0} nu({tau > k} & K^-k E),

finite here because tau <= n. The lift lives on Omega x [T1(a), T0(b)].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraicBeta
from .errors import InvariantViolationError
from .gls import (expected_return_time, greedy_breakpoints, lazy_breakpoints,
                  return_time_law)

_REFINE_TOL = 1e-14
_MAX_DEPTH = 200
# longest frontier chunk _product_rectangle expands at once
_CHUNK = 1024
# blocks block_entropy encodes and counts at once: a long int8 path is
# never copied whole to int64, and a chunk holds two int64 arrays of this
# size (the kernels' draw size); the counts are integers, so no result
# depends on it
_BLOCK_CHUNK = 16384
# most terms cylinder_overlap evaluates at once (one prefix's tail may
# exceed it and is then evaluated alone)
_OVERLAP_CHUNK = 8192


@dataclass(frozen=True)
class InducedMeasureSpec:
    """kind 'lebesgue': Bernoulli(p) x normalized Lebesgue.
    kind 'product': coding pullback of Bernoulli(p) x pi^N, with pi given
    as probabilities for t = 2..n."""

    kind: str
    p: float
    pi: tuple = None

    def __post_init__(self):
        if self.kind not in ("lebesgue", "product"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if not 0 < self.p < 1:
            raise ValueError("coin bias must lie in (0, 1)")
        if self.kind == "product":
            if self.pi is None:
                raise ValueError("product kind needs a return-time law")
            if not all(w >= 0 for w in self.pi):
                raise ValueError(f"return-time law {self.pi!r} has a "
                                 f"negative or NaN entry")
            if abs(sum(self.pi) - 1.0) > 1e-12:
                raise ValueError(f"return-time law sums to {sum(self.pi)!r}")

    def law(self, ctx: AlgebraicBeta) -> dict:
        if self.kind == "lebesgue":
            return return_time_law(ctx)
        if len(self.pi) != ctx.n - 1:
            raise ValueError(f"return-time law has {len(self.pi)} entries, "
                             f"n={ctx.n} needs {ctx.n - 1} (t = 2..n)")
        return {t + 2: w for t, w in enumerate(self.pi)}


def bernoulli_mass(bits, p: float) -> float:
    m = 1.0
    for b in bits:
        m *= p if b else 1.0 - p
    return m


@functools.lru_cache(maxsize=None)
def _branches(ctx: AlgebraicBeta) -> dict:
    """coin -> the branch table of ctx's induced map (see gls), built once
    per context: coin 1 takes the greedy side, coin 0 the lazy side."""
    return {1: greedy_breakpoints(ctx), 0: lazy_breakpoints(ctx)}


def cylinder_preimage_table(coins, ctx: AlgebraicBeta):
    """Arrays lo, hi of the switch-region points whose coding starts with
    the coin word and a return-time word, ordered as
    itertools.product(range(2, n + 1), repeat=len(coins)).

    All branches are affine and increasing, so each entry is an interval;
    none is empty for valid letters (the coding is onto the full shift).
    Composed from the back, J = D_1 & L_1^-1(D_2 & ...), so each shared
    suffix is composed once.
    """
    if not coins or not set(coins) <= {0, 1}:
        raise ValueError(f"coin word {coins!r} is not a nonempty 0/1 word")
    branches = _branches(ctx)
    lo, hi = branches[coins[-1]][:2]
    for coin in reversed(coins[:-1]):
        d_lo, d_hi, s, o = branches[coin][:, :, None]
        lo = np.maximum(d_lo, (lo + o) / s).ravel()
        hi = np.minimum(d_hi, (hi + o) / s).ravel()
        if not (lo < hi).all():
            raise InvariantViolationError(
                f"empty cylinder preimage for {tuple(coins)!r}")
    return lo, hi


def _lebesgue_rectangle(p: float, coins, lo: float, hi: float,
                        ctx: AlgebraicBeta) -> float:
    lo = max(lo, ctx.a)
    hi = min(hi, ctx.b)
    if not lo < hi:
        return 0.0
    return bernoulli_mass(coins, p) * (hi - lo) / (ctx.b - ctx.a)


def _add_in_order(total: float, values) -> float:
    """total + values[0] + values[1] + ..., added left to right as a scalar
    loop would (np.sum adds pairwise and math.fsum exactly, so both round
    differently)."""
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


def _product_rectangle(nu: InducedMeasureSpec, ctx: AlgebraicBeta, coins,
                       x_lo: float, x_hi: float,
                       min_first_rt: int = 2) -> float:
    """Product-kind measure of {omega starts with coins} x [x_lo, x_hi].

    Walks the symbolic cylinder tree, keeping for each node the forward
    affine map F(x) = S*x - O of its letter prefix and the interval J of
    starts consistent with it. Nodes with J inside the target contribute
    fully; a node with J outside it contributes nothing and is dropped
    when it is built. Straddling nodes split until their weight drops
    below _REFINE_TOL, then contribute half their weight.

    The tree is walked depth-first, one numpy frontier chunk at a time. A
    chunk is a run of the depth-first sequence: open nodes of one depth,
    each replaced in place by its children (last letter first, the order
    a stack pops them), and finished values that keep their place until
    everything before them is summed. Each chunk is classified and
    expanded with the expressions of a scalar stack walk, and its leading
    finished values are added to the total left to right, so the result
    is bit-identical to that walk (the dead nodes it pops and discards add
    nothing to its sum). Only the kept children's rows are built. Chunks
    longer than _CHUNK are split and walked one after the other, so about
    _CHUNK open nodes and their children are held at once, never a whole
    level.

    Cost caveat: because the coin is an input, cylinders with different
    coins overlap in x, so a target endpoint interior to cylinders at every
    depth straddles one node per coin prefix. For such targets the node
    count grows like _REFINE_TOL^(-1/2) and the truncation error can reach
    the sum of the cut weights, far above _REFINE_TOL. Dropping dead
    children does not change that growth: at n = 3 the target
    [(a + b)/2, b] under the uniform law takes about 18 s on a 2-vCPU
    Xeon. Exact callers therefore only pass targets that resolve at finite
    depth: whole-interval targets, branch domains, or symbolic cylinder
    preimages.
    """
    branches = _branches(ctx)
    law = nu.law(ctx)
    letters = [(c, t) for c in (0, 1) for t in law]
    p = nu.p

    x_lo = max(x_lo, ctx.a)
    x_hi = min(x_hi, ctx.b)
    if not x_lo < x_hi:
        return 0.0

    @functools.cache
    def letter_rows(forced, first: bool):
        # one column per letter, last letter first, as a stack pops them
        # (none when a constraint excludes them all)
        kids = [(*branches[coin][:, t - 2], p if coin else 1.0 - p, law[t])
                for coin, t in reversed(letters)
                if (forced is None or coin == forced)
                and not (first and t < min_first_rt)]
        return np.array(kids).reshape(-1, 6).T

    total = 0.0
    # chunk: (depth of its open nodes, open flags, rows J_lo, J_hi, S, O, m)
    # where m is the weight of an open node and the value of a finished one
    stack = [(0, np.ones(1, bool),
              np.array([[ctx.a], [ctx.b], [1.0], [0.0], [1.0]]))]
    while stack:
        depth, is_open, rows = stack.pop()
        j_lo, j_hi, _, _, weight = rows
        # dead children are never kept, so every open node meets the target
        inside = is_open & (x_lo <= j_lo) & (j_hi <= x_hi)
        # the root may not shortcut when a first-letter return-time
        # constraint is active: it is not encoded in the weight yet
        if depth == 0 and min_first_rt > 2:
            inside[:] = False
        # straddling leaf: its mass lies between 0 and weight
        cut = is_open & ~inside & ((weight <= _REFINE_TOL)
                                   | (depth >= _MAX_DEPTH))
        split = is_open & ~inside & ~cut
        done = ~split
        mass = bernoulli_mass(coins[depth:], p)
        value = np.where(inside, weight * mass,
                         np.where(cut, 0.5 * weight * mass, weight))

        d_lo, d_hi, s, o, coin_p, law_t = letter_rows(
            coins[depth] if depth < len(coins) else None, depth == 0)
        split_rows = rows[:, split]
        lo, hi, s_acc, o_acc, _ = split_rows[:, :, None]
        # child starts satisfy F(x) in [d_lo, d_hi]; a child whose starts
        # miss the target is dead and dropped here
        c_lo = np.maximum(lo, (d_lo + o_acc) / s_acc)
        c_hi = np.minimum(hi, (d_hi + o_acc) / s_acc)
        born = (c_lo < c_hi) & (c_hi > x_lo) & (c_lo < x_hi)
        # each entry gives way in place to its finished value or to its
        # live children: entry i fills the run of rows ending before end[i]
        n_kids = born.sum(axis=1)
        count = done.astype(np.intp)
        count[split] = n_kids
        end = count.cumsum()
        rows = np.zeros((5, int(end[-1])))
        rows[4, end[done] - 1] = value[done]
        parent, slot = born.nonzero()
        at = np.arange(parent.size) + (end[split] - n_kids.cumsum())[parent]
        s_acc, o_acc, weight = split_rows[2:, parent]
        rows[:, at] = (c_lo[born], c_hi[born], s[slot] * s_acc,
                       s[slot] * o_acc + o[slot],
                       weight * coin_p[slot] * law_t[slot])
        is_open = np.zeros(rows.shape[1], bool)
        is_open[at] = True
        head = int(is_open.argmax()) if is_open.any() else len(is_open)
        total = _add_in_order(total, rows[4, :head])
        for at in reversed(range(head, len(is_open), _CHUNK)):
            stack.append((depth + 1, is_open[at:at + _CHUNK],
                          rows[:, at:at + _CHUNK]))
    return total


def kac_lift(nu: InducedMeasureSpec, coins, interval,
             ctx: AlgebraicBeta) -> float:
    """Lifted invariant measure of a rectangle E = cylinder x interval.

    Splits the first-return sum by the coin bit consumed when leaving the
    switch region. Given first bit 1 the k-th image of x is
    beta^k x - beta^(k-1) (excursion below a); given bit 0 it is
    beta^k x - (beta^(k-1)-1)/(beta-1) (excursion above b). Both are affine
    and the excursions are monotone, so {tau > k} & K^-k E meets each
    first-bit slice in one rectangle. Only k <= n-1 contributes.
    """
    beta = ctx.beta
    lo, hi = interval
    if not lo < hi:
        return 0.0
    denom = expected_return_time(nu.law(ctx))
    # k = 0 term
    if nu.kind == "lebesgue":
        total = _lebesgue_rectangle(nu.p, coins, lo, hi, ctx)
    else:
        total = _product_rectangle(nu, ctx, coins, lo, hi)
    for k in range(1, ctx.n):
        scale = beta ** k
        for first_bit in (0, 1):
            off = (beta ** (k - 1) if first_bit
                   else (beta ** (k - 1) - 1) / (beta - 1))
            # preimage of the target interval under the excursion map
            x_lo = max(ctx.a, (lo + off) / scale)
            x_hi = min(ctx.b, (hi + off) / scale)
            if not x_lo < x_hi:
                continue
            if nu.kind == "lebesgue":
                # tau > k: the k-th image has not yet re-entered [a, b]
                if first_bit == 1:
                    x_hi = min(x_hi, (ctx.a + off) / scale)
                else:
                    x_lo = max(x_lo, (ctx.b + off) / scale)
                total += _lebesgue_rectangle(nu.p, (first_bit, *coins),
                                             x_lo, x_hi, ctx)
            else:
                # tau = first letter's return time: tau > k symbolically
                total += _product_rectangle(nu, ctx, (first_bit, *coins),
                                            x_lo, x_hi, min_first_rt=k + 1)
    return total / denom


def k_preimage_rectangles(coins, interval, ctx: AlgebraicBeta):
    """Decompose K^-1(cylinder x interval) into rectangles.

    At most four pieces: the two coin-free branches (below a, above b) keep
    the cylinder, and the switch branch contributes one piece per consumed
    bit, with that bit prepended to the cylinder.
    """
    beta = ctx.beta
    lo, hi = interval
    pieces = []
    f_lo, f_hi = max(lo / beta, 0.0), min(hi / beta, ctx.a)
    if f_lo < f_hi:
        pieces.append((tuple(coins), (f_lo, f_hi)))
    g_lo, g_hi = max((lo + 1) / beta, ctx.b), min((hi + 1) / beta, ctx.domain_max)
    if g_lo < g_hi:
        pieces.append((tuple(coins), (g_lo, g_hi)))
    for bit in (0, 1):
        s_lo = max((lo + bit) / beta, ctx.a)
        s_hi = min((hi + bit) / beta, ctx.b)
        if s_lo < s_hi:
            pieces.append(((bit,) + tuple(coins), (s_lo, s_hi)))
    return pieces


def lift_invariance_deviation(nu: InducedMeasureSpec, coins, interval,
                              ctx: AlgebraicBeta) -> float:
    """|mu(E) - mu(K^-1 E)| for the lifted measure, via the exact rectangle
    decomposition of the preimage."""
    direct = kac_lift(nu, coins, interval, ctx)
    back = sum(kac_lift(nu, cs, iv, ctx)
               for cs, iv in k_preimage_rectangles(coins, interval, ctx))
    return abs(direct - back)


def cylinder_overlap(law1, law2, depth: int) -> float:
    """Shared mass sum_w min(P1[w], P2[w]) over length-`depth` letter words.

    law1 and law2 are per-letter probability vectors over a common alphabet
    and P_i[w] is the product of entries along w. Words with the same letter
    counts have the same mass under both laws, so the sum collapses to count
    vectors weighted by multinomial coefficients; everything is accumulated
    in log space to survive large depths.

    The count vectors are enumerated with the counts of the first letters in
    increasing lexicographic order: a Python loop over the counts of all
    but the last two letters (a prefix), then numpy over the count of the
    second-to-last letter with the rest on the last letter (the prefix's
    tail). Consecutive prefixes' tails are evaluated in one pass of up to
    _OVERLAP_CHUNK terms. A letter with count 0 adds nothing to the log
    terms, every term comes from math.exp and the terms are added left to
    right in that order, so the result is bit-identical to a scalar
    recursion over the same count vectors. The cost is one term per count
    vector, C(depth + A - 1, A - 1) for A letters; terms too small to
    change the running sum are dropped before `math.exp`.

    By Cauchy-Schwarz the result is at most (sum_j sqrt(law1_j*law2_j))**depth,
    so distinct laws drive it to zero geometrically. Used with the geometric
    and uniform return-time laws it quantifies how fast the two product
    measures concentrate on disjoint families of cylinders (the coin factor
    is common to both and drops out of every min).
    """
    p = tuple(float(v) for v in law1)
    q = tuple(float(v) for v in law2)
    if not p or len(p) != len(q):
        raise ValueError("laws must be nonempty and of equal length")
    if any(v < 0.0 for v in p + q):
        raise ValueError("law entries must be nonnegative")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    logp = tuple(math.log(v) if v > 0.0 else -math.inf for v in p)
    logq = tuple(math.log(v) if v > 0.0 else -math.inf for v in q)
    last = len(p) - 1
    lg_fact = np.array([math.lgamma(k + 1) for k in range(depth + 1)])

    def prefixes(slot: int, remaining: int, lg: float, lp: float, lq: float):
        # counts of letters slot..last-2 in increasing lexicographic order,
        # as (count left for the last two letters, lg, lp, lq)
        if slot >= last - 1:
            yield remaining, lg, lp, lq
            return
        yield from prefixes(slot + 1, remaining, lg, lp, lq)
        for k in range(1, remaining + 1):
            yield from prefixes(slot + 1, remaining - k, lg - lg_fact[k],
                                lp + k * logp[slot], lq + k * logq[slot])

    def add_tails(total: float, batch) -> float:
        # every prefix's tail, in order: count k of letter last-1 over
        # 0..remaining (only 0 when there is one letter), the remaining r
        # on letter `last`
        remaining, lg, lp, lq = map(np.array, zip(*batch))
        width = remaining + 1 if last else np.ones_like(remaining)
        first = width.cumsum() - width
        k = np.arange(width.sum()) - np.repeat(first, width)
        r = np.repeat(remaining, width) - k
        lg, lp, lq = (np.repeat(v, width) for v in (lg, lp, lq))
        for at, count, slot in ((k > 0, k, last - 1), (r > 0, r, last)):
            count = count[at]
            lg[at] -= lg_fact[count]
            lp[at] += count * logp[slot]
            lq[at] += count * logq[slot]
        exponent = lg + np.minimum(lp, lq)
        # exp underflows to 0 below -745 anyway. Every term is positive, so
        # the running sum never falls below total, and a term under half
        # an ulp of total rounds away wherever it sits in the batch; the
        # 1e-9 margin covers the error of math.exp (ulp(0.0) / 2 rounds to
        # 0, hence the log of 2 apart)
        absorbed = math.log(math.ulp(total)) - math.log(2.0) - 1e-9
        return _add_in_order(total, list(map(
            math.exp, exponent[exponent > max(-745.0, absorbed)].tolist())))

    total, batch, terms = 0.0, [], 0
    for prefix in prefixes(0, depth, lg_fact[depth], 0.0, 0.0):
        width = prefix[0] + 1 if last else 1
        if batch and terms + width > _OVERLAP_CHUNK:
            total, batch, terms = add_tails(total, batch), [], 0
        batch.append(prefix)
        terms += width
    return add_tails(total, batch)


def block_entropy(sample, block_len: int, alphabet_size: int) -> float:
    """Shannon entropy (nats) of the empirical distribution of overlapping
    length-block_len blocks."""
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    sample = np.asarray(sample)
    count = sample.size - block_len + 1
    if count < 1:
        raise ValueError(f"need >= {block_len} symbols, got {sample.size}")
    counts = np.zeros(0, dtype=np.int64)
    for lo in range(0, count, _BLOCK_CHUNK):
        size = min(_BLOCK_CHUNK, count - lo)
        chunk = sample[lo:lo + size + block_len - 1].astype(np.int64)
        codes = np.zeros(size, dtype=np.int64)
        for i in range(block_len):
            codes *= alphabet_size
            codes += chunk[i:size + i]
        part = np.bincount(codes)
        counts = np.pad(counts, (0, max(0, part.size - counts.size)))
        counts[:part.size] += part
    freqs = counts / count
    freqs = freqs[freqs > 0]
    return float(-(freqs * np.log(freqs)).sum())


def entropy_rate_estimate(sample, block_len: int,
                          alphabet_size: int) -> float:
    """Conditional block-entropy estimate H(L) - H(L-1) of the entropy rate.

    Unlike the per-symbol average, this converges to the true rate for
    Markov sources once block_len exceeds the memory length. The sample
    must let every length-block_len block appear about 100 times.
    """
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    sample = np.asarray(sample)
    need = 100 * alphabet_size ** block_len
    if sample.size < need:
        raise ValueError(f"need >= {need} symbols for block length "
                         f"{block_len}, got {sample.size}")
    if block_len == 1:
        return block_entropy(sample, 1, alphabet_size)
    return (block_entropy(sample, block_len, alphabet_size)
            - block_entropy(sample, block_len - 1, alphabet_size))
