"""The coin-driven interval map and its first-return dynamics.

State space: Omega x [0, 1/(beta-1)] where Omega = {0,1}^N holds the coin
stream. One step maps

    x in [0, a)              ->  beta*x            (digit 0, coins untouched)
    x in [a, b]  (switch)    ->  beta*x - bit      (digit = next coin bit)
    x in (b, 1/(beta-1)]     ->  beta*x - 1        (digit 1, coins untouched)

with a = 1/(beta^2-1), b = beta*a. Interval membership uses exact float
comparisons; the switch region is closed on both sides. A coin bit is
consumed exactly once per visit to [a, b].

The first return time to the switch region lies in {2, ..., n} off a
countable deleted set (return time 1 happens only for (x=a, bit 0) or
(x=b, bit 1), which map straight back into [a, b]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import _bits
from .algebra import AlgebraicBeta
from .errors import (DeletedPointError, InvariantViolationError,
                     OrbitEscapeError, StreamExhaustedError)

_DRIFT_GUARD = 1e-9


@dataclass(frozen=True)
class CoinStream:
    """Immutable coin-bit source with a cursor.

    Seeded mode: bit k is a pure function of (seed, k) via the counter-based
    generator, so any position is addressable without generating its
    predecessors. Explicit mode: a finite prefix; reading past it raises
    rather than recycling.
    """

    mode: str
    seed: int = 0
    prefix: tuple = ()
    cursor: int = 0

    @classmethod
    def seeded(cls, seed: int) -> "CoinStream":
        return cls(mode="seeded", seed=seed & ((1 << 64) - 1))

    @classmethod
    def explicit(cls, bits) -> "CoinStream":
        bits = tuple(int(b) for b in bits)
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"coin bit {b!r} not in {{0, 1}}")
        return cls(mode="explicit", prefix=bits)

    def bit_at(self, k: int) -> int:
        if self.mode == "seeded":
            return _bits.bit_at(self.seed, k)
        if k >= len(self.prefix):
            raise StreamExhaustedError(
                f"explicit coin prefix of length {len(self.prefix)} exhausted "
                f"at position {k}")
        return self.prefix[k]

    def peek(self) -> int:
        return self.bit_at(self.cursor)

    def advanced(self) -> "CoinStream":
        return CoinStream(self.mode, self.seed, self.prefix, self.cursor + 1)


@dataclass(frozen=True)
class PointState:
    omega: CoinStream
    x: float


class OrbitRow(NamedTuple):
    step: int
    x: float
    digit: int
    in_switch: int
    coin_cursor: int


@dataclass(frozen=True)
class ReturnTimeResult:
    t: int
    state: PointState
    boundary_hit: bool  # some free step landed bitwise-exactly on a or b


def _check_in_domain(x: float, ctx: AlgebraicBeta) -> None:
    """Raise OrbitEscapeError for x outside the domain, NaN included."""
    if not -_DRIFT_GUARD <= x <= ctx.domain_max + _DRIFT_GUARD:
        raise OrbitEscapeError(x, 0.0, ctx.domain_max, "before step")


def step(state: PointState, ctx: AlgebraicBeta):
    """One application of the map. Returns (new_state, digit).

    A start outside the domain, NaN included, raises OrbitEscapeError.
    """
    x = state.x
    _check_in_domain(x, ctx)
    beta = ctx.beta
    if x < ctx.a:
        return PointState(state.omega, beta * x), 0
    if x > ctx.b:
        return PointState(state.omega, beta * x - 1), 1
    digit = state.omega.peek()
    return PointState(state.omega.advanced(), beta * x - digit), digit


def return_time(state: PointState, ctx: AlgebraicBeta) -> ReturnTimeResult:
    """First return time to the switch region and the state it returns in.

    The start must lie in [a, b]. Returns the smallest t >= 1 with the t-th
    iterate back in [a, b] (t = 1 included: deletion of such points is the
    induced map's concern, not this function's). t beyond n+1 signals
    numeric drift and raises.

    The excursion runs `step`'s arithmetic and checks on the bare value:
    one coin step, then free steps until the orbit is back in [a, b].
    """
    a, b, beta = ctx.a, ctx.b, ctx.beta
    x = state.x
    if not (a <= x <= b):
        raise ValueError(f"return_time needs x in [a, b], got {x!r}")
    _check_in_domain(x, ctx)
    x = beta * x - state.omega.peek()
    boundary = False
    t = 1
    while not (a <= x <= b):
        if t > ctx.n + 1:
            raise InvariantViolationError(
                f"return time exceeded n+1 = {ctx.n + 1} from x={state.x!r}")
        _check_in_domain(x, ctx)
        x = beta * x if x < a else beta * x - 1
        t += 1
        if x == a or x == b:
            boundary = True  # free step hit an endpoint bitwise-exactly
    return ReturnTimeResult(t=t, state=PointState(state.omega.advanced(), x),
                            boundary_hit=boundary)


def _undeleted_bit(state: PointState, ctx: AlgebraicBeta) -> int:
    """The coin bit the next step from a switch-region point consumes;
    DeletedPointError for the return-time-1 points (see induced_step)."""
    bit = state.omega.peek()
    if (state.x == ctx.a and bit == 0) or (state.x == ctx.b and bit == 1):
        raise DeletedPointError(
            f"return time 1 at x={state.x!r} with coin bit {bit}")
    return bit


def induced_step(state: PointState, ctx: AlgebraicBeta) -> PointState:
    """The first-return map: iterate until the orbit re-enters [a, b].

    Points with return time 1 belong to the removed countable set and raise
    DeletedPointError; they are exactly (x=a with bit 0) and (x=b with bit
    1), tested on the input so the float orbit cannot blur them.
    """
    if not (ctx.a <= state.x <= ctx.b):
        raise ValueError(f"induced_step needs x in [a, b], got {state.x!r}")
    bit = _undeleted_bit(state, ctx)
    res = return_time(state, ctx)
    if res.t == 1:
        raise DeletedPointError(
            f"return time 1 at x={state.x!r} with coin bit {bit}")
    return res.state


def orbit(state: PointState, steps: int, ctx: AlgebraicBeta):
    """Iterate the map `steps` times; one OrbitRow per step.

    Row k holds the point after k steps, the digit emitted at step k,
    whether that step consumed a coin, and the coin cursor afterwards. The
    emitted digits d_1 d_2 ... expand the start: for every m,
    |x_0 - sum d_k beta^(-k)| <= beta^(-m)/(beta-1). A start outside the
    domain raises OrbitEscapeError, also when `steps` is 0.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_in_domain(state.x, ctx)
    rows = []
    cur = state
    for k in range(1, steps + 1):
        in_switch = 1 if ctx.a <= cur.x <= ctx.b else 0
        cur, digit = step(cur, ctx)
        rows.append(OrbitRow(step=k, x=cur.x, digit=digit,
                             in_switch=in_switch,
                             coin_cursor=cur.omega.cursor))
    return rows

