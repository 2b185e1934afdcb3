"""Scalar map, first-return orbits and the coin stream."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shrinkbeta.algebra import solve_beta
from shrinkbeta.dynamics import (CoinStream, PointState, ReturnTimeResult,
                                 induced_step, orbit, return_time, step)
from shrinkbeta.errors import (DeletedPointError, InvariantViolationError,
                               OrbitEscapeError, StreamExhaustedError)

CTX = solve_beta(3)

# frozen one-step and first-return values at n=3
STEP_140_BIT1 = 0.8546051401426444        # 1.40 is in the switch: beta*x - 1
INDUCED_140_BIT1 = (3, 1.4997274738959518)
INDUCED_140_BIT0 = (2, 1.45682873274537)


def _state(x, bits):
    return PointState(CoinStream.explicit(bits), x)


def test_step_switch_consumes_coin():
    state, digit = step(_state(1.40, [1]), CTX)
    assert digit == 1
    assert state.x == pytest.approx(STEP_140_BIT1, abs=1e-15)
    assert state.omega.cursor == 1


def test_step_free_regions_leave_coins_alone():
    left, digit0 = step(_state(0.5, []), CTX)
    assert digit0 == 0 and left.x == pytest.approx(CTX.beta * 0.5)
    right, digit1 = step(_state(2.5, []), CTX)
    assert digit1 == 1 and right.x == pytest.approx(CTX.beta * 2.5 - 1)
    assert left.omega.cursor == right.omega.cursor == 0


@pytest.mark.parametrize("bit,expected", [(1, INDUCED_140_BIT1),
                                          (0, INDUCED_140_BIT0)])
def test_induced_step_frozen(bit, expected):
    t_exp, x_exp = expected
    res = return_time(_state(1.40, [bit]), CTX)
    assert res.t == t_exp
    assert res.state.x == pytest.approx(x_exp, abs=1e-15)
    after = induced_step(_state(1.40, [bit]), CTX)
    assert after.x == res.state.x


def test_return_time_orbit_trace():
    res = return_time(_state(1.40, [1]), CTX)
    # coin bit 1 sends 1.40 below a; two free doublings bring it back
    rows = orbit(_state(1.40, [1]), res.t, CTX)
    assert [row.digit for row in rows] == [1, 0, 0]
    assert res.t == 3
    assert rows[-1].x == res.state.x
    assert not res.boundary_hit


def test_return_time_from_exact_endpoints():
    # from b with bit 0: up, then two digit-1 steps back down
    res = return_time(_state(CTX.b, [0]), CTX)
    assert res.t == 3
    # from a + eps with bit 1: mirrored, return time 3 as well
    res2 = return_time(_state(CTX.a + 1e-9, [1]), CTX)
    assert res2.t == 3


def test_return_time_one_is_honest():
    # x = a with bit 0 maps straight to b: return time 1, not an error here
    res = return_time(_state(CTX.a, [0]), CTX)
    assert res.t == 1
    assert res.state.x == pytest.approx(CTX.b, abs=1e-15)


@pytest.mark.parametrize("x,bit", [("a", 0), ("b", 1)])
def test_induced_step_deletes_return_time_one(x, bit):
    x0 = CTX.a if x == "a" else CTX.b
    with pytest.raises(DeletedPointError):
        induced_step(_state(x0, [bit]), CTX)


def test_induced_step_requires_switch_point():
    with pytest.raises(ValueError):
        induced_step(_state(0.3, [1]), CTX)
    with pytest.raises(ValueError):
        return_time(_state(2.9, [1]), CTX)


def test_orbit_rows_and_digit_expansion():
    state = PointState(CoinStream.seeded(7), 1.5)
    rows = orbit(state, 40, CTX)
    assert [r.step for r in rows] == list(range(1, 41))
    # emitted digits expand the start point in base beta
    acc = 0.0
    for r in rows:
        acc += r.digit * CTX.beta ** (-r.step)
    tail = CTX.beta ** (-40) / (CTX.beta - 1)
    assert abs(acc - 1.5) <= tail
    # coins advance exactly on switch visits
    visits = sum(r.in_switch for r in rows)
    assert rows[-1].coin_cursor == visits


def test_escape_guard():
    with pytest.raises(OrbitEscapeError):
        step(_state(CTX.domain_max + 1.0, []), CTX)


def test_nan_start_escapes_before_step():
    # NaN fails every comparison, so it must not pass for a switch point
    with pytest.raises(OrbitEscapeError, match="before step"):
        step(_state(float("nan"), [1]), CTX)
    for steps in (4, 0):
        with pytest.raises(OrbitEscapeError, match="before step"):
            orbit(PointState(CoinStream.seeded(1), float("nan")), steps, CTX)


def test_explicit_stream_exhausts():
    state = _state(1.5, [1])
    res = return_time(state, CTX)  # consumes the only bit
    with pytest.raises(StreamExhaustedError):
        return_time(res.state, CTX)


def test_seeded_stream_is_positionally_addressable():
    s = CoinStream.seeded(123)
    bits = [s.bit_at(k) for k in range(64)]
    assert set(bits) <= {0, 1}
    # advancing never changes the underlying bits, only the cursor
    s2 = s.advanced().advanced()
    assert [s2.bit_at(k) for k in range(64)] == bits
    assert s2.peek() == bits[2]


def test_advanced_moves_only_the_cursor():
    for stream in (CoinStream.seeded(7), CoinStream.explicit([1, 0, 1])):
        step_ = stream.advanced()
        assert type(step_) is CoinStream
        assert (step_.mode, step_.seed, step_.prefix, step_.cursor) == (
            stream.mode, stream.seed, stream.prefix, stream.cursor + 1)
        assert step_.advanced().peek() == stream.bit_at(2)


def test_explicit_stream_validates_bits():
    with pytest.raises(ValueError):
        CoinStream.explicit([0, 2])


def reference_return_time(state, ctx):
    """The former loop: `step` on a PointState until the orbit is back in
    [a, b]."""
    if not (ctx.a <= state.x <= ctx.b):
        raise ValueError(f"return_time needs x in [a, b], got {state.x!r}")
    cur = state
    boundary = False
    t = 0
    while True:
        cur, _ = step(cur, ctx)
        t += 1
        if t > 1 and (cur.x == ctx.a or cur.x == ctx.b):
            boundary = True
        if ctx.a <= cur.x <= ctx.b:
            return ReturnTimeResult(t=t, state=cur, boundary_hit=boundary)
        if t > ctx.n + 1:
            raise InvariantViolationError(
                f"return time exceeded n+1 = {ctx.n + 1} from x={state.x!r}")


def _return_outcome(fn, state, ctx):
    """A return's time, state (x as float.hex, and its coins) and boundary
    flag, or its error's class name and message."""
    try:
        res = fn(state, ctx)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (res.t, res.state.x.hex(), res.state.omega, res.boundary_hit)


@st.composite
def return_inputs(draw):
    """Starts in and just around [a, b], at n = 3..53: the endpoints and
    their neighbouring doubles, with either coin bit or none; contexts
    with beta, domain_max or the cap n perturbed, so that orbits drift
    or escape (a cap n of 1 to 4 drifts early at large n)."""
    ctx = solve_beta(draw(st.integers(3, 53)))
    a, b = ctx.a, ctx.b
    x = draw(st.one_of(
        st.floats(a, b),
        st.sampled_from([a, b, math.nextafter(a, b), math.nextafter(b, a),
                         math.nextafter(a, 0.0), math.nextafter(b, 2.0)])))
    perturbed = {"beta": st.floats(0.95, 1.05).map(lambda f: ctx.beta * f),
                 "domain_max": st.floats(a, ctx.domain_max),
                 "n": st.integers(1, 4)}
    field = draw(st.sampled_from([None, None, *perturbed]))
    if field:
        ctx = dataclasses.replace(ctx, **{field: draw(perturbed[field])})
    bits = draw(st.sampled_from([[0], [1], [0], [1], []]))
    return PointState(CoinStream.explicit(bits), x), ctx


def _from_endpoint(n, end, bit):
    ctx = solve_beta(n)
    return PointState(CoinStream.explicit([bit]), getattr(ctx, end)), ctx


@settings(max_examples=300, deadline=None)
@given(case=return_inputs())
# free steps that land bitwise-exactly on a and on b
@example(case=_from_endpoint(6, "a", 1))
@example(case=_from_endpoint(8, "b", 1))
def test_return_time_matches_step_by_step_reference(case):
    state, ctx = case
    assert _return_outcome(return_time, state, ctx) == \
        _return_outcome(reference_return_time, state, ctx)
