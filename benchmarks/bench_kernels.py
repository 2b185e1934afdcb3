"""Time the bulk kernels.

Runs the first-return statistics loop (`induced_stats`) and the Parry
chain sampler (`chain_sample`) for a few problem sizes and prints each
case's best wall time over `--repeat` runs, with their median and
quartiles, beside the peak of memory that `tracemalloc` traced in one
more, untimed call (arrays the kernel allocates, including its result).
Kernel times on a shared machine can swing by 2x between runs, so read a
"no slower" claim from the medians and quartiles, not from the best. Two
last tables time work the kernels do not touch. One is the
extended-precision work behind `entropy --n-range 3..60`:
`solve_lambda` at 150 bits for n = 31..60 from an empty root cache, and
`_inv_cd_direct` on those roots. The other is the depth-4 cylinder
preimage intervals behind `verify`'s `depth4-cylinders-*` rows: one
`measures.cylinder_preimage_table` per coin word, 16 (n-1)^4 words.

Usage: python3 benchmarks/bench_kernels.py [--repeat 7] [--seed 1]
"""

import argparse
import statistics
import time
import tracemalloc
from functools import partial
from itertools import product

import mpmath
import numpy as np

from shrinkbeta import algebra, kernels, markov, measures
from shrinkbeta.algebra import solve_beta, solve_lambda

INDUCED_CASES = [
    (3, 1024, 1000),
    (5, 1024, 1000),
    (10, 4096, 500),
    # the batch shape of bulk `simulate --points 64`: per-call and
    # per-step overhead dominate
    (3, 64, 512),
    (10, 64, 512),
    (24, 64, 512),
    # the batches of bulk `simulate --samples 10000000` (1024 points)
    (4, 1024, 9765),
    (10, 1024, 9765),
]
CHAIN_CASES = [
    (3, 1_000_000),
    (8, 1_000_000),
]
# the n of verify --suite symbolic's depth-4 rows (3..5 by default, 3..6
# in verify-sweep) and a larger one
CYLINDER_NS = (3, 4, 5, 6, 10)
# check_inequality's extended rows: n above 30 at 150 bits
MP_NS = range(31, 61)
MP_BITS = 150


# the columns `_timed` fills
TIMES = f"{'best [s]':>10} {'median [s]':>10} {'quartiles [s]':>19}"


def _timed(call, repeat):
    """Best, median and quartiles of `repeat` wall times of call()."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    q1, _, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                 if repeat > 1 else times * 3)
    quartiles = f"{q1:.4f}-{q3:.4f}"
    return (f"{min(times):>10.4f} {statistics.median(times):>10.4f} "
            f"{quartiles:>19}")


def _traced_mb(call):
    """Peak traced memory of one call, in MB (2**20 bytes)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def run(repeat: int, seed: int) -> None:
    print(f"induced_stats\n{'n':>4} {'points':>8} {'steps':>7} {TIMES} "
          f"{'peak [MB]':>10}")
    for n, points, steps in INDUCED_CASES:
        ctx = solve_beta(n)
        x0 = kernels.uniform_starts(seed, points, ctx.a + 1e-9,
                                    ctx.b - 1e-9)
        call = partial(kernels.induced_stats, ctx, x0, steps, seed)
        print(f"{n:>4} {points:>8} {steps:>7} {_timed(call, repeat)} "
              f"{_traced_mb(call):>10.2f}")

    print(f"chain_sample\n{'n':>4} {'steps':>16} {TIMES} {'peak [MB]':>10}")
    for n, steps in CHAIN_CASES:
        chain = markov.build_chain(n)
        cum_rows = np.cumsum(chain.P_trans, axis=1)
        start_cum = np.cumsum(chain.p)
        call = partial(kernels.chain_sample, cum_rows, start_cum, steps, seed)
        print(f"{n:>4} {steps:>16} {_timed(call, repeat)} "
              f"{_traced_mb(call):>10.2f}")

    def solve_cold():
        algebra._solve_poly.cache_clear()
        for n in MP_NS:
            solve_lambda(n, MP_BITS)

    roots = [(n, solve_lambda(n, MP_BITS).lam) for n in MP_NS]

    def inv_cd():
        with mpmath.workprec(MP_BITS):
            for n, lam in roots:
                markov._inv_cd_direct(lam, n)

    print(f"extended precision, n = {MP_NS.start}..{MP_NS.stop - 1} at "
          f"{MP_BITS} bits, times for all n\n{'case':>29} {TIMES}")
    for name, call in (("solve_lambda (cold cache)", solve_cold),
                       ("_inv_cd_direct", inv_cd)):
        print(f"{name:>29} {_timed(call, repeat)}")

    print(f"depth-4 cylinder preimages\n{'n':>4} {'words':>8} {TIMES}")
    for n in CYLINDER_NS:
        ctx = solve_beta(n)
        measures.cylinder_preimage_table((0, 0, 0, 0), ctx)  # warm caches

        def tables():
            for coins in product((0, 1), repeat=4):
                measures.cylinder_preimage_table(coins, ctx)

        print(f"{n:>4} {16 * (n - 1) ** 4:>8} {_timed(tables, repeat)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7,
                        help="time each case this many times")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run(args.repeat, args.seed)


if __name__ == "__main__":
    main()
