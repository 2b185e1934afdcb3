"""Symbolic coding of the first-return dynamics.

Each induced step is summarized by a letter (coin bit, return time) from the
alphabet {0,1} x {2,...,n} of size 2(n-1). Conversely a letter (w, t)
contributes the digit block  w (1-w)^(t-1)  to the expansion of the point,
so finite words decode to digit strings and then to numbers via base-beta
evaluation with an explicit geometric tail bound.

The full shift on this alphabet carries a unique measure of maximal entropy:
the uniform product measure, with entropy log(2(n-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import AlgebraicBeta, _check_n, eval_word
from .dynamics import PointState, _undeleted_bit, return_time
from .errors import DeletedPointError, InvariantViolationError


@dataclass(frozen=True)
class SymbolicWord:
    """Finite word of (coin, return-time) letters."""

    letters: tuple

    def __post_init__(self):
        for (c, t) in self.letters:
            if c not in (0, 1):
                raise ValueError(f"coin component {c!r} not in {{0, 1}}")
            if not isinstance(t, int) or t < 2:
                raise ValueError(f"return-time component {t!r} must be an int >= 2")

    def __len__(self):
        return len(self.letters)

    def digits(self) -> list:
        out = []
        for (c, t) in self.letters:
            out.append(c)
            out.extend([1 - c] * (t - 1))
        return out


def alphabet(n: int):
    """All 2(n-1) letters, coin-major then return time."""
    return [(c, t) for c in (0, 1) for t in range(2, n + 1)]


def encode(state: PointState, k: int, ctx: AlgebraicBeta) -> SymbolicWord:
    """First k letters of the coding of a switch-region point.

    Letter i is (coin bit consumed at induced step i, its return time).
    Orbits that meet the deleted set (return time 1, or a free step hitting
    an endpoint bitwise-exactly) raise DeletedPointError: their coding is
    not defined. So do float orbits that pass within rounding of it and
    come back after n + 1 steps, a return time no exact orbit has.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not (ctx.a <= state.x <= ctx.b):
        raise ValueError(f"encode needs x in [a, b], got {state.x!r}")
    letters = []
    cur = state
    for _ in range(k):
        bit = _undeleted_bit(cur, ctx)
        res = return_time(cur, ctx)
        if res.t == 1 or res.t > ctx.n or res.boundary_hit:
            raise DeletedPointError(
                f"orbit from x={cur.x!r} met the deleted set (t={res.t}, "
                f"boundary_hit={res.boundary_hit})")
        letters.append((bit, res.t))
        cur = res.state
    return SymbolicWord(tuple(letters))


def decode(word: SymbolicWord, ctx: AlgebraicBeta):
    """Point of [a, b] coded by the word, with its tail bound.

    Expands the letters to digit blocks, evaluates in base beta, and returns
    (value, tail). Any infinite continuation of the word codes a point
    within tail of the returned value.
    """
    if len(word) == 0:
        raise ValueError("cannot decode an empty word")
    for (_, t) in word.letters:
        if t > ctx.n:
            raise ValueError(f"return time {t} exceeds n={ctx.n}")
    value, tail = eval_word(word.digits(), ctx.beta)
    if not (ctx.a - tail <= value <= ctx.b + tail):
        raise InvariantViolationError(
            f"decoded value {value!r} outside [a, b] by more than the tail")
    return value, tail


def boundary_expansions(endpoint: str, block_counts, ctx: AlgebraicBeta):
    """Digit strings of the expansions of the switch endpoints.

    For a, the expansions are exactly the concatenations
    (01)^(j1) (1 0^(n-1))^(j2) (01)^(j3) ... ; for b, the 0/1-swapped
    mirror. Any truncation evaluates to the endpoint within the tail bound,
    because some infinite word of this shape extends it and sums exactly to
    the endpoint.
    """
    if endpoint not in ("a", "b"):
        raise ValueError("endpoint must be 'a' or 'b'")
    n = ctx.n
    if endpoint == "a":
        blocks = ([0, 1], [1] + [0] * (n - 1))
    else:
        blocks = ([1, 0], [0] + [1] * (n - 1))
    digits = []
    for idx, count in enumerate(block_counts):
        if not isinstance(count, int) or count < 0:
            raise ValueError(f"block count {count!r} must be an int >= 0")
        digits.extend(blocks[idx % 2] * count)
    return digits


def mme_entropy(n: int) -> float:
    """Entropy of the measure of maximal entropy of the full letter shift:
    log of the alphabet size 2(n-1), in nats."""
    _check_n(n)
    return math.log(2 * (n - 1))
