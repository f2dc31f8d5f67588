import math

import numpy as np
import pytest
from scipy.linalg import expm

from cbfsim import OdeProblem, integrate
from cbfsim.dynamics import EXAMPLE1_A
from cbfsim.integrator import IntegrationError, rk4_step, time_grid


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
    out = integrate(prob, 0.0, x0, 1.0, 1e-3)
    np.testing.assert_allclose(out, expm(EXAMPLE1_A) @ x0, atol=1e-9)


def test_fourth_order_convergence():
    # endpoint error against e^{-1} must shrink ~16x per dt halving
    prob = OdeProblem(dim=1, rhs=lambda t, x: -x)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        out = integrate(prob, 0.0, np.array([1.0]), 1.0, dt)
        errs.append(abs(out[0] - math.exp(-1.0)))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        ratio = e_coarse / e_fine
        assert 14.0 <= ratio <= 18.0, f"convergence ratio {ratio}"


def test_determinism():
    prob = OdeProblem(dim=2, rhs=lambda t, x: np.array([x[1], -x[0]]))
    x0 = np.array([1.0, 0.0])
    a = integrate(prob, 0.0, x0, 3.0, 1e-3)
    b = integrate(prob, 0.0, x0, 3.0, 1e-3)
    assert a.tobytes() == b.tobytes()


def test_empty_interval():
    prob = OdeProblem(dim=1, rhs=lambda t, x: x)
    seen = []
    out = integrate(prob, 0.0, np.array([4.0]), 0.0, 0.25, on_sample=lambda t, s: seen.append(t))
    np.testing.assert_array_equal(out, [4.0])
    assert seen == [0.0]


def test_callback_count_whole_steps():
    prob = OdeProblem(dim=1, rhs=lambda t, x: np.zeros(1))
    seen = []
    integrate(prob, 0.0, np.array([0.0]), 1.0, 0.25, on_sample=lambda t, s: seen.append(t))
    assert len(seen) == 5
    np.testing.assert_allclose(seen, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_final_partial_step_lands_on_t_end():
    prob = OdeProblem(dim=1, rhs=lambda t, x: np.ones(1))
    seen = []
    out = integrate(prob, 0.0, np.array([0.0]), 1.0, 0.3, on_sample=lambda t, s: seen.append(t))
    assert seen[-1] == 1.0
    assert len(seen) == 5  # 0, .3, .6, .9, 1.0
    assert out[0] == pytest.approx(1.0, abs=1e-12)  # integral of 1 over [0,1]


def test_time_grid_float_noise_absorbed():
    # 0.1+0.1+... drift must not spawn a degenerate trailing step
    g = time_grid(0.0, 1.0, 0.1)
    assert len(g) == 11
    assert g[-1] == 1.0


def test_time_grid_step_longer_than_the_span_lands_on_t_end():
    # no whole step fits, so the remainder is the whole span, not noise
    np.testing.assert_array_equal(time_grid(0.0, 10.0, 1e12), [0.0, 10.0])


def test_nonfinite_rhs_raises_with_context():
    prob = OdeProblem(dim=1, rhs=lambda t, x: x * np.inf)
    with pytest.raises(IntegrationError) as exc:
        rk4_step(prob, 2.0, np.array([1.0]), 0.1)
    assert exc.value.t == 2.0
    np.testing.assert_array_equal(exc.value.state, [1.0])


def test_bad_dt_rejected():
    prob = OdeProblem(dim=1, rhs=lambda t, x: x)
    with pytest.raises(ValueError):
        rk4_step(prob, 0.0, np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        time_grid(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        time_grid(1.0, 0.0, 0.1)
