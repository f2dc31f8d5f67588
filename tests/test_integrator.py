import math

import numpy as np
import pytest
from scipy.linalg import expm

from cbfsim.dynamics import EXAMPLE1_A
from cbfsim.integrator import OdeProblem, rk4_step, time_grid


def test_zero_field_fixed_point():
    prob = OdeProblem(dim=3, rhs=lambda t, x: np.zeros(3))
    s = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(rk4_step(prob, 0.0, s, 0.1), s)


def test_single_step_exponential():
    # x' = x, x(0)=1, dt=0.1: the 4-stage update is the degree-4 Taylor
    # polynomial of e^0.1 = 1 + .1 + .1^2/2 + .1^3/6 + .1^4/24.
    prob = OdeProblem(dim=1, rhs=lambda t, x: x)
    out = rk4_step(prob, 0.0, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(1.1051708333333333, abs=1e-14)


def test_decay_many_steps():
    prob = OdeProblem(dim=1, rhs=lambda t, x: -x)
    x = np.array([1.0])
    for i in range(100):
        x = rk4_step(prob, i * 0.01, x, 0.01)
    assert abs(x[0] - math.exp(-1.0)) < 1e-8


def test_matches_matrix_exponential():
    prob = OdeProblem(dim=3, rhs=lambda t, x: EXAMPLE1_A @ x)
    x0 = np.array([1.0, -1.0, 2.0])
    out = x0
    times = time_grid(1.0, 1e-3)
    for t, t_next in zip(times[:-1], times[1:]):
        out = rk4_step(prob, t, out, t_next - t)
    np.testing.assert_allclose(out, expm(EXAMPLE1_A) @ x0, atol=1e-9)


def test_fourth_order_convergence():
    # endpoint error against e^{-1} must shrink ~16x per dt halving
    prob = OdeProblem(dim=1, rhs=lambda t, x: -x)
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
    prob = OdeProblem(dim=2, rhs=lambda t, x: np.array([x[1], -x[0]]))
    times = time_grid(3.0, 1e-3)
    a = b = np.array([1.0, 0.0])
    for t, t_next in zip(times[:-1], times[1:]):
        a = rk4_step(prob, t, a, t_next - t)
        b = rk4_step(prob, t, b, t_next - t)
    assert a.tobytes() == b.tobytes()


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
    prob = OdeProblem(dim=1, rhs=lambda t, x: x * np.inf)
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
