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

`--against PATH` compares this checkout with the one at PATH instead. It
loads PATH's `src/shrinkbeta` under another package name, checks that
both trees return equal results for every case (arrays by their bytes),
and then times the two trees' calls alternately, each tree first in
every other pair, so that both see the same machine load. Each case
prints both trees' median times and the median speed-up of this tree
(PATH's time over this tree's, per pair) with its quartiles, and the
number of pairs this tree won. Timing two trees one after the other, in
two processes, cannot resolve a change of a few percent on a shared
machine; alternating them in one process can.

Usage: python3 benchmarks/bench_kernels.py [--repeat 7] [--seed 1]
                                           [--against PATH]
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import mpmath
import numpy as np

# this checkout's package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import shrinkbeta  # noqa: E402

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
    # one point runs no rounds: every step goes whole through `_finish`
    (3, 1, 20000),
    # 4 points run 3 of n - 1 = 23 rounds, so many points outlive them
    (24, 4, 10000),
]
CHAIN_CASES = [
    (3, 1_000_000),
    (8, 1_000_000),
    # one step per lookup, with bins counted in bytes
    (12, 1_000_000),
]
# the n of verify --suite symbolic's depth-4 rows (3..5 by default, 3..6
# in verify-sweep) and a larger one
CYLINDER_NS = (3, 4, 5, 6, 10)
# check_inequality's extended rows: n above 30 at 150 bits
MP_NS = range(31, 61)
MP_BITS = 150


def _modules(package):
    """The modules the cases call, from one tree's package."""
    return {name: importlib.import_module(f"{package.__name__}.{name}")
            for name in ("algebra", "kernels", "markov", "measures")}


def _load_tree(path):
    """The `shrinkbeta` package of the checkout at `path`, loaded under the
    name `shrinkbeta_against`; its modules import each other relatively,
    so none of them resolves to this checkout's."""
    source = Path(path).resolve() / "src" / "shrinkbeta"
    name = "shrinkbeta_against"
    spec = importlib.util.spec_from_file_location(
        name, source / "__init__.py", submodule_search_locations=[str(source)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _tables(seed):
    """(title, header, cases): each case is a row label and a function
    that takes one tree's modules and returns the call to time."""

    def induced(n, points, steps):
        def make(mod):
            ctx = mod["algebra"].solve_beta(n)
            x0 = mod["kernels"].uniform_starts(seed, points, ctx.a + 1e-9,
                                               ctx.b - 1e-9)
            return lambda: mod["kernels"].induced_stats(ctx, x0, steps, seed)
        return f"{n:>4} {points:>8} {steps:>7}", make

    def chain(n, steps):
        def make(mod):
            chain = mod["markov"].build_chain(n)
            cum_rows = np.cumsum(chain.P_trans, axis=1)
            start_cum = np.cumsum(chain.p)
            return lambda: mod["kernels"].chain_sample(cum_rows, start_cum,
                                                       steps, seed)
        return f"{n:>4} {steps:>16}", make

    def solve_cold(mod):
        def call():
            mod["algebra"]._solve_poly.cache_clear()
            return [mod["algebra"].solve_lambda(n, MP_BITS).lam
                    for n in MP_NS]
        return call

    def inv_cd(mod):
        roots = [(n, mod["algebra"].solve_lambda(n, MP_BITS).lam)
                 for n in MP_NS]

        def call():
            with mpmath.workprec(MP_BITS):
                return [mod["markov"]._inv_cd_direct(lam, n)
                        for n, lam in roots]
        return call

    def cylinders(n):
        def make(mod):
            ctx = mod["algebra"].solve_beta(n)
            table = mod["measures"].cylinder_preimage_table
            table((0, 0, 0, 0), ctx)  # warm caches
            return lambda: [table(coins, ctx)
                            for coins in product((0, 1), repeat=4)]
        return f"{n:>4} {16 * (n - 1) ** 4:>8}", make

    return [
        ("induced_stats", f"{'n':>4} {'points':>8} {'steps':>7}",
         [induced(*case) for case in INDUCED_CASES]),
        ("chain_sample", f"{'n':>4} {'steps':>16}",
         [chain(*case) for case in CHAIN_CASES]),
        (f"extended precision, n = {MP_NS.start}..{MP_NS.stop - 1} at "
         f"{MP_BITS} bits, times for all n", f"{'case':>29}",
         [(f"{'solve_lambda (cold cache)':>29}", solve_cold),
          (f"{'_inv_cd_direct':>29}", inv_cd)]),
        ("depth-4 cylinder preimages", f"{'n':>4} {'words':>8}",
         [cylinders(n) for n in CYLINDER_NS]),
    ]


def _quartiles(values):
    """Lower quartile, median and upper quartile."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _wall(call):
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def _traced_mb(call):
    """Peak traced memory of one call, in MB (2**20 bytes)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _key(value):
    """A comparable form of a result: arrays by dtype, shape and bytes, so
    that equal keys mean bit-identical results."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_key(item) for item in value)
    return getattr(value, "_mpf_", repr(value))  # mpf by its exact bits


def run(repeat: int, seed: int) -> None:
    mod = _modules(shrinkbeta)
    for title, header, cases in _tables(seed):
        print(f"{title}\n{header} {'best [s]':>10} {'median [s]':>10} "
              f"{'quartiles [s]':>19} {'peak [MB]':>10}")
        for label, make in cases:
            call = make(mod)
            times = [_wall(call) for _ in range(repeat)]
            q1, median, q3 = _quartiles(times)
            print(f"{label} {min(times):>10.4f} {median:>10.4f} "
                  f"{f'{q1:.4f}-{q3:.4f}':>19} {_traced_mb(call):>10.2f}")


def run_against(path, repeat: int, seed: int) -> int:
    """Alternate this tree's calls with the tree at `path`'s; returns the
    number of cases whose results differ."""
    ours, theirs = _modules(shrinkbeta), _modules(_load_tree(path))
    differ = 0
    for title, header, cases in _tables(seed):
        print(f"{title}\n{header} {'this [s]':>10} {'other [s]':>10} "
              f"{'speed-up':>8} {'quartiles':>11} {'won':>7}")
        for label, make in cases:
            mine, other = make(ours), make(theirs)
            if _key(mine()) != _key(other()):
                differ += 1
                print(f"{label} results differ")
                continue
            pairs = []
            for i in range(repeat):
                if i % 2:
                    t_other, t_mine = _wall(other), _wall(mine)
                else:
                    t_mine, t_other = _wall(mine), _wall(other)
                pairs.append((t_mine, t_other))
            q1, ratio, q3 = _quartiles([b / a for a, b in pairs])
            won = sum(a < b for a, b in pairs)
            print(f"{label} {statistics.median(a for a, _ in pairs):>10.4f} "
                  f"{statistics.median(b for _, b in pairs):>10.4f} "
                  f"{ratio:>7.3f}x {f'{q1:.2f}-{q3:.2f}':>11} "
                  f"{f'{won}/{repeat}':>7}")
    return differ


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7,
                        help="time each case this many times (pairs of "
                             "calls with --against)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", metavar="PATH",
                        help="alternate calls with the checkout at PATH and "
                             "print the speed-up of this one")
    args = parser.parse_args()
    if args.against is None:
        run(args.repeat, args.seed)
    elif run_against(args.against, args.repeat, args.seed):
        sys.exit(1)


if __name__ == "__main__":
    main()
