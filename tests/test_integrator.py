import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from cbfsim.dynamics import EXAMPLE1_A
from cbfsim.integrator import OdeProblem, rk4_step, time_grid


def test_zero_field_fixed_point():
    prob = OdeProblem(dim=3, rhs=lambda t, x, stage: np.zeros(3))
    s = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(rk4_step(prob, 0.0, s, 0.1), s)


def test_single_step_exponential():
    # x' = x, x(0)=1, dt=0.1: the 4-stage update is the degree-4 Taylor
    # polynomial of e^0.1 = 1 + .1 + .1^2/2 + .1^3/6 + .1^4/24.
    prob = OdeProblem(dim=1, rhs=lambda t, x, stage: x.copy())
    out = rk4_step(prob, 0.0, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(1.1051708333333333, abs=1e-14)


def test_decay_many_steps():
    prob = OdeProblem(dim=1, rhs=lambda t, x, stage: -x)
    x = np.array([1.0])
    for i in range(100):
        x = rk4_step(prob, i * 0.01, x, 0.01)
    assert abs(x[0] - math.exp(-1.0)) < 1e-8


def test_matches_matrix_exponential():
    prob = OdeProblem(dim=3, rhs=lambda t, x, stage: EXAMPLE1_A @ x)
    x0 = np.array([1.0, -1.0, 2.0])
    out = x0
    times = time_grid(1.0, 1e-3)
    for t, t_next in zip(times[:-1], times[1:]):
        out = rk4_step(prob, t, out, t_next - t)
    np.testing.assert_allclose(out, expm(EXAMPLE1_A) @ x0, atol=1e-9)


def test_fourth_order_convergence():
    # endpoint error against e^{-1} must shrink ~16x per dt halving
    prob = OdeProblem(dim=1, rhs=lambda t, x, stage: -x)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        out = np.array([1.0])
        times = time_grid(1.0, dt)
        for t, t_next in zip(times[:-1], times[1:]):
            out = rk4_step(prob, t, out, t_next - t)
        errs.append(abs(out[0] - math.exp(-1.0)))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        ratio = e_coarse / e_fine
        assert 14.0 <= ratio <= 18.0, f"convergence ratio {ratio}"


def test_determinism():
    prob = OdeProblem(dim=2, rhs=lambda t, x, stage: np.array([x[1], -x[0]]))
    times = time_grid(3.0, 1e-3)
    a = b = np.array([1.0, 0.0])
    for t, t_next in zip(times[:-1], times[1:]):
        a = rk4_step(prob, t, a, t_next - t)
        b = rk4_step(prob, t, b, t_next - t)
    assert a.tobytes() == b.tobytes()


def _rk4_reference(f, t, state, dt):
    """The allocating expression rk4_step computes in place: a new array per
    stage state and per term of the weighted sum."""
    half = 0.5 * dt
    t_mid = t + half
    k1 = f(t, state)
    k2 = f(t_mid, state + half * k1)
    k3 = f(t_mid, state + half * k2)
    k4 = f(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)


@settings(max_examples=200, deadline=None)
@given(data=hst.data(), dim=hst.integers(1, 16), nonlinear=hst.booleans(),
       t=hst.floats(0.0, 100.0), dt=hst.floats(1e-6, 1.0))
def test_in_place_step_equals_the_allocating_expression(data, dim, nonlinear, t, dt):
    values = hst.floats(-10.0, 10.0)
    state = data.draw(hnp.arrays(np.float64, dim, elements=values))
    A = data.draw(hnp.arrays(np.float64, (dim, dim), elements=hst.floats(-5.0, 5.0)))

    def f(t, z):
        return np.sin(z) * z[::-1] + math.cos(t) if nonlinear else A.dot(z)

    ks = np.empty((4, dim))  # one derivative array per stage, as the contract asks

    def rhs(t, z, stage):
        ks[stage] = f(t, z)
        return ks[stage]

    prob = OdeProblem(dim=dim, rhs=rhs)
    before = state.tobytes()
    first, second = np.empty(dim), np.empty(dim)
    assert rk4_step(prob, t, state, dt, out=first) is first
    assert state.tobytes() == before  # state is never written
    assert first.tobytes() == _rk4_reference(f, t, state, dt).tobytes()
    # the next step reuses every work buffer; it leaves the last result intact
    kept = first.tobytes()
    assert rk4_step(prob, t + dt, first, dt, out=second) is second
    assert first.tobytes() == kept
    assert second.tobytes() == _rk4_reference(f, t + dt, first, dt).tobytes()
    # without out the result is a new array, bit for bit the same
    fresh = rk4_step(prob, t, state, dt)
    assert fresh.tobytes() == kept and not np.shares_memory(fresh, first)
    # out may be state: a copy stepped into itself holds the same bits
    own = state.copy()
    assert rk4_step(prob, t, own, dt, out=own) is own
    assert own.tobytes() == _rk4_reference(f, t, state, dt).tobytes()


@pytest.mark.parametrize("out", ["none", "separate", "state"])
def test_rhs_sees_the_state_then_the_stage_buffer(out):
    # the call contract a caller may build views on: stage 0 gets state
    # itself, stages 1-3 the problem's stage buffer itself, at t, t + dt/2,
    # t + dt/2 and t + dt, on every step
    calls = []
    ks = np.empty((4, 3))

    def rhs(t, z, stage):
        calls.append((t, z, stage))
        np.negative(z, ks[stage])
        return ks[stage]

    prob = OdeProblem(dim=3, rhs=rhs)
    state = np.array([1.0, -2.0, 0.5])
    target = {"none": None, "separate": np.empty(3), "state": state}[out]
    t, dt = 0.3, 0.125
    for _ in range(2):
        calls.clear()
        rk4_step(prob, t, state, dt, out=target)
        assert [stage for _, _, stage in calls] == [0, 1, 2, 3]
        assert [time for time, _, _ in calls] == [t, t + dt / 2, t + dt / 2, t + dt]
        assert calls[0][1] is state
        assert all(z is prob.stage for _, z, _ in calls[1:])
        t += dt


@settings(max_examples=200, deadline=None)
@given(data=hst.data(), dim=hst.integers(1, 8), t=hst.floats(0.0, 100.0),
       dt1=hst.floats(1e-6, 1.0), dt2=hst.floats(1e-6, 1.0))
def test_steps_of_changing_size_equal_the_allocating_expression(data, dim, t, dt1, dt2):
    # one problem stepped with dt1, dt1, dt2, dt1: the step's multipliers
    # live in the problem, and every step must still be bit for bit the
    # allocating expression at its own dt
    state = data.draw(hnp.arrays(np.float64, dim, elements=hst.floats(-10.0, 10.0)))

    def f(t, z):
        return np.sin(z) * z[::-1] + math.cos(t)

    ks = np.empty((4, dim))

    def rhs(t, z, stage):
        ks[stage] = f(t, z)
        return ks[stage]

    prob = OdeProblem(dim=dim, rhs=rhs)
    for dt in (dt1, dt1, dt2, dt1):
        nxt = rk4_step(prob, t, state, dt)
        assert nxt.tobytes() == _rk4_reference(f, t, state, dt).tobytes(), dt
        t, state = t + dt, nxt


def test_empty_interval():
    # a zero span is the initial point alone: no step
    np.testing.assert_array_equal(time_grid(0.0, 0.25), [0.0])
    assert math.copysign(1.0, time_grid(-0.0, 0.25)[0]) == 1.0  # +0.0, not -0.0


def test_time_grid_whole_steps():
    np.testing.assert_allclose(time_grid(1.0, 0.25), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_final_partial_step_lands_on_t_end():
    g = time_grid(1.0, 0.3)
    assert len(g) == 5  # 0, .3, .6, .9, 1.0
    assert g[-1] == 1.0


def test_time_grid_float_noise_absorbed():
    # 0.1+0.1+... drift must not spawn a degenerate trailing step
    g = time_grid(1.0, 0.1)
    assert len(g) == 11
    assert g[-1] == 1.0


def test_time_grid_step_longer_than_the_span_lands_on_t_end():
    # no whole step fits, so the remainder is the whole span, not noise
    np.testing.assert_array_equal(time_grid(10.0, 1e12), [0.0, 10.0])


def test_nonfinite_rhs_state_is_returned():
    # rk4_step only does the arithmetic; run_simulation checks the state
    prob = OdeProblem(dim=1, rhs=lambda t, x, stage: x * np.inf)
    out = rk4_step(prob, 2.0, np.array([1.0]), 0.1)
    assert out.shape == (1,)
    assert not np.isfinite(out).any()


def test_bad_dt_rejected():
    with pytest.raises(ValueError):
        time_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        time_grid(1.0, -0.1)
    with pytest.raises(ValueError):
        time_grid(-1.0, 0.1)
