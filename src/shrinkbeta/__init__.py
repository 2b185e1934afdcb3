"""Coin-driven beta-expansions with a shrinking switch region.

For each n >= 3, beta_n in (1, golden ratio) solves
sum_{t=2..n} beta^-t = 1. The map x -> beta*x (mod a digit) on
[0, 1/(beta-1)] consults a coin only on the switch interval
[a, b] = [1/(beta^2-1), beta/(beta^2-1)]; its first-return dynamics on the
switch interval, symbolic codings, interval Markov chains, maximal-entropy
measures and invariant lifts live in the submodules re-exported here.
"""

from .algebra import (AlgebraicBeta, PerronValue, eval_word, solve_beta,
                      solve_lambda)
from .dynamics import (CoinStream, PointState, induced_step, orbit,
                       return_time, step)
from .errors import (DeletedPointError, InequalityViolationError,
                     InvariantViolationError, OrbitEscapeError,
                     PrecisionLimitError, ShrinkBetaError,
                     StreamExhaustedError)
from .gls import (expected_return_time, greedy_breakpoints, lazy_breakpoints,
                  return_time_law)
from .markov import (MarkovChain, build_adjacency, build_chain,
                     build_partition, check_inequality, eigen_closed_form,
                     parry_center, parry_measure, sample_chain)
from .measures import InducedMeasureSpec, entropy_rate_estimate, kac_lift
from .symbolic import (SymbolicWord, alphabet, boundary_expansions, decode,
                       encode, mme_entropy)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicBeta", "PerronValue", "eval_word", "solve_beta", "solve_lambda",
    "CoinStream", "PointState", "induced_step", "orbit", "return_time", "step",
    "ShrinkBetaError", "OrbitEscapeError", "StreamExhaustedError",
    "DeletedPointError", "InvariantViolationError", "InequalityViolationError",
    "PrecisionLimitError",
    "expected_return_time", "greedy_breakpoints", "lazy_breakpoints",
    "return_time_law", "MarkovChain", "build_adjacency", "build_chain",
    "build_partition", "check_inequality", "eigen_closed_form",
    "parry_center", "parry_measure", "sample_chain",
    "InducedMeasureSpec", "entropy_rate_estimate", "kac_lift",
    "SymbolicWord", "alphabet", "boundary_expansions", "decode", "encode",
    "mme_entropy", "__version__",
]
