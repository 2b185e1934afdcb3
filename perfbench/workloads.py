"""The benchmark's workloads: lists of CLI invocations made from a seed.

Every workload runs each command family the end-to-end metrics divide by
(`verify`, bulk `simulate`, `parry --samples`), so each metric is defined on
each workload. The families outside a workload's purpose are kept small, so
they do not move its layer shares.

* verify-sweep: the paper's self-check as a user runs it. The measure and
  partition layers dominate; the kernels barely run.
* monte-carlo: bulk return-time statistics and Parry-chain sampling in
  large batches. The kernels dominate.
* explore: an interactive sweep of many small commands over n = 3..24.
  Kernels run in small batches, where per-call overhead counts; root
  solving on the mpmath path and CLI formatting show up only here.

`tiny=True` gives the same command mix at toy sizes, for smoke tests.
"""

from __future__ import annotations

import random

NAMES = ("verify-sweep", "monte-carlo", "explore")


def _parry_samples(n: int) -> int:
    # `parry` needs about 100 draws per transition-matrix entry; below
    # that it fails (a known defect, not exercised here)
    return 100 * (2 * n - 1) ** 2


def verify_sweep(seed: int, tiny: bool = False):
    s = str(seed)
    big = "3..4" if tiny else "3..6"
    return [["verify", "--suite", "gls" if tiny else "all", "--seed", s],
            ["verify", "--suite", "measures" if tiny else "all", "--n", big,
             "--seed", s],
            ["simulate", "--n", "4", "--samples", "100000", "--seed", s],
            ["parry", "--n", "3", "--samples", "10000", "--seed", s]]


def monte_carlo(seed: int, tiny: bool = False):
    s = str(seed)
    x0 = f"{random.Random(seed).uniform(0.05, 1.5):.6f}"
    induced = "100000" if tiny else "10000000"
    chain = "25000" if tiny else "1000000"
    return [["simulate", "--n", "4", "--x0", x0, "--steps", "64", "--seed", s],
            ["verify", "--suite", "measures", "--n", "3", "--seed", s],
            ["entropy", "--n-range", "3..32", "--seed", s],
            ["simulate", "--n", "4", "--samples", induced, "--seed", s],
            ["simulate", "--n", "10", "--samples", induced, "--seed", s],
            ["parry", "--n", "3", "--samples", chain, "--seed", s],
            ["parry", "--n", "8", "--samples", chain, "--seed", s]]


def explore(seed: int, tiny: bool = False):
    s = str(seed)
    # any start in [0.05, 1.5] lies in every domain [0, 1/(beta_n - 1)]
    rng = random.Random(seed)
    n_max = 5 if tiny else 24
    ops = []
    for n in range(3, n_max + 1):
        x0 = f"{rng.uniform(0.05, 1.5):.6f}"
        ops += [["constants", "--n", str(n)],
                ["markov", "--n", str(n)],
                ["simulate", "--n", str(n), "--x0", x0, "--steps", "64",
                 "--seed", s],
                ["simulate", "--n", str(n), "--samples", "32768",
                 "--points", "64", "--seed", s]]
        # the gls suite's own n range ends at 20; from n = 22 on its
        # expected-return-time row exceeds its tolerance in doubles
        if n <= 20:
            ops.append(["verify", "--suite", "gls", "--n", str(n),
                        "--seed", s])
        if n <= 12:
            ops.append(["parry", "--n", str(n), "--samples",
                        str(_parry_samples(n)), "--seed", s])
    ops += [["verify", "--suite", "measures", "--n", "3", "--seed", s],
            ["entropy", "--n-range", "3..35" if tiny else "3..60"],
            ["constants", "--n", "40", "--precision", "200"]]
    return ops


def ops(name: str, seed: int, tiny: bool = False):
    """The workload's operations, each an argv list for `shrinkbeta`."""
    builders = {"verify-sweep": verify_sweep, "monte-carlo": monte_carlo,
                "explore": explore}
    return builders[name](seed, tiny)
