import math

import numpy as np
import pytest

from cbfsim import ErrorBoundModel
from cbfsim.dynamics import (
    EXAMPLE1_A,
    EXAMPLE1_B,
    EXAMPLE1_C,
    ControlAffineSystem,
    make_example1_system,
    make_rossler_system,
)
from cbfsim.integrator import OdeProblem, rk4_step, time_grid
from cbfsim.observer import make_luenberger, make_rossler_observer
from cbfsim.presets import LUENBERGER_GAIN, PRESET_NAMES, ROSSLER_PARAMS, make_preset

BOUND = ErrorBoundModel.constant(1.0)

# Gain exactly as printed alongside the plant matrices; used for the rhs
# arithmetic oracles. The presets flip its sign (see presets.py) because
# A - gain C is only Hurwitz for the flipped version.
PRINTED_GAIN = np.array([[-2.23029], [0.190287], [0.232326]])


def _luenberger(gain):
    return make_luenberger(make_example1_system(), gain, BOUND)


def test_luenberger_zero_innovation_at_origin():
    obs = _luenberger(PRINTED_GAIN)
    out = obs.rhs(np.zeros(3), np.zeros(1), np.zeros(1), 0.0)
    np.testing.assert_array_equal(out, np.zeros(3))


def test_luenberger_rhs_hand_arithmetic():
    # A@[3,3.5,3] = [-2,-0.5,0]; innovation 4.2-6.5 = -2.3 scaled by the gain.
    obs = _luenberger(PRINTED_GAIN)
    out = obs.rhs(np.array([3.0, 3.5, 3.0]), np.array([4.2]), np.array([0.0]), 0.0)
    expected = np.array([-2.0, -0.5, 0.0]) + PRINTED_GAIN[:, 0] * (-2.3)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(out, [3.129667, -0.9376601, -0.5343498], atol=1e-12)


def test_luenberger_zero_gain_open_loop():
    obs = _luenberger(np.zeros((3, 1)))
    xhat = np.array([1.0, 2.0, 3.0])
    u = np.array([0.7])
    out = obs.rhs(xhat, np.array([99.0]), u, 0.0)
    np.testing.assert_allclose(out, EXAMPLE1_A @ xhat + EXAMPLE1_B[:, 0] * 0.7, atol=1e-14)


def test_luenberger_zero_innovation_general():
    obs = _luenberger(PRINTED_GAIN)
    xhat = np.array([1.0, -1.0, 0.5])
    y = EXAMPLE1_C @ xhat
    out = obs.rhs(xhat, y, np.array([0.3]), 0.0)
    np.testing.assert_allclose(out, EXAMPLE1_A @ xhat + EXAMPLE1_B[:, 0] * 0.3, atol=1e-14)


def test_preset_gain_is_stabilizing():
    eigs = np.linalg.eigvals(EXAMPLE1_A - LUENBERGER_GAIN @ EXAMPLE1_C)
    assert np.all(eigs.real < 0), f"A - gain C not Hurwitz: {eigs}"


def test_printed_gain_sign_is_not():
    # The flip in presets.py is deliberate: verbatim sign gives an unstable
    # error system (one eigenvalue ~ +0.86).
    eigs = np.linalg.eigvals(EXAMPLE1_A - PRINTED_GAIN @ EXAMPLE1_C)
    assert np.any(eigs.real > 0)


def test_error_bound_values():
    exp = ErrorBoundModel.exponential(D=2.0, lam=-0.05)
    assert exp.value(0.0) == pytest.approx(2.0)
    assert exp.value(10.0) == pytest.approx(2.0 * math.exp(0.5), rel=1e-12)
    const = ErrorBoundModel.constant(0.3)
    assert const.value(0.0) == 0.3
    assert const.value(123.0) == 0.3


def test_exponential_value_derivative_consistent():
    m = ErrorBoundModel.exponential(D=2.0, lam=-0.05)
    for t in (0.1, 1.0, 5.0):
        assert m.derivative(t) == pytest.approx(0.05 * m.value(t), rel=1e-12)


def test_derivative_matches_finite_difference():
    step = 1e-6
    models = (
        ErrorBoundModel.exponential(D=2.0, lam=-0.15),
        ErrorBoundModel.constant(0.4),
    )
    for m in models:
        for t in (0.1, 1.0, 5.0):
            fd = (m.value(t + step) - m.value(t - step)) / (2 * step)
            assert m.derivative(t) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_nonnegativity_guards():
    with pytest.raises(ValueError):
        ErrorBoundModel.exponential(D=-1.0, lam=0.1)
    with pytest.raises(ValueError):
        ErrorBoundModel.constant(-0.5)


def test_rossler_observer_zero_innovation_is_drift_plus_u():
    bound = ErrorBoundModel.constant(1.0)
    obs = make_rossler_observer(3.0, -3.0, 3.0, 10.0, 10.0, 10.0, 3, ROSSLER_PARAMS, bound)
    xhat = np.array([1.0, 2.0, 3.0])
    u = np.array([0.1, 0.2, 0.3])
    a, b, c = ROSSLER_PARAMS
    drift = np.array([-xhat[1] - xhat[2], xhat[0] + a * xhat[1], b + xhat[2] * (xhat[0] - c)])
    out = obs.rhs(xhat, np.array([1.0]), u, 0.0)
    np.testing.assert_allclose(out, drift + u, atol=1e-14)


def test_rossler_observer_unit_innovation():
    # xhat = 0, y = [1]: each equation picks up its linear gain plus its
    # cubic gain (1^3 = 1). With s1 = -3, s2 = 10 the middle row is +7.
    bound = ErrorBoundModel.constant(1.0)
    obs = make_rossler_observer(3.0, -3.0, 3.0, 10.0, 10.0, 10.0, 3, (0.2, 0.2, 5.0), bound)
    out = obs.rhs(np.zeros(3), np.array([1.0]), np.zeros(3), 0.0)
    np.testing.assert_allclose(out, [13.0, 7.0, 13.2], atol=1e-12)


def test_rossler_observer_cubic_term_scales():
    bound = ErrorBoundModel.constant(1.0)
    obs = make_rossler_observer(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 3, (0.2, 0.0, 5.0), bound)
    out = obs.rhs(np.zeros(3), np.array([2.0]), np.zeros(3), 0.0)
    np.testing.assert_allclose(out, [8.0, 8.0, 8.0], atol=1e-12)  # e^3 = 8


def test_rossler_observer_m_exp_validation():
    bound = ErrorBoundModel.constant(1.0)
    # a float, even a whole one, NaN, inf or a bool is not an odd integer
    for bad in (0, -3, 2, 4, 2.5, 3.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="^m_exp must be a positive odd integer$"):
            make_rossler_observer(3.0, -3.0, 3.0, 10.0, 10.0, 10.0, bad, ROSSLER_PARAMS, bound)
    for good in (1, 3, np.int64(3)):
        make_rossler_observer(3.0, -3.0, 3.0, 10.0, 10.0, 10.0, good, ROSSLER_PARAMS, bound)


def test_non_finite_observer_and_plant_parameters_are_rejected_at_construction():
    # a NaN gain or an inf correction gain or Rossler parameter must fail
    # where it is passed in, not as a non-finite state in the first step
    gain = PRINTED_GAIN.copy()
    gain[1, 0] = math.nan
    with pytest.raises(ValueError, match="^gain must be finite$"):
        _luenberger(gain)
    gains = [3.0, -3.0, 3.0, 10.0, 10.0, 10.0]
    for j, name in enumerate(("q1", "s1", "r1", "q2", "s2", "r2")):
        bad = gains[:j] + [math.inf] + gains[j + 1:]
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            make_rossler_observer(*bad, 3, ROSSLER_PARAMS, BOUND)
    for j, name in enumerate("abc"):
        params = list(ROSSLER_PARAMS)
        params[j] = -math.inf if j else math.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            make_rossler_observer(*gains, 3, tuple(params), BOUND)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            make_rossler_system(*params)


def test_luenberger_shape_validation():
    with pytest.raises(ValueError, match="gain must be n x k"):
        make_luenberger(make_example1_system(), np.zeros((2, 1)), BOUND)


def test_observer_rhs_dimension_mismatch():
    # a mis-sized estimate is rejected, never broadcast
    obs = _luenberger(PRINTED_GAIN)
    with pytest.raises(ValueError):
        obs.rhs(np.zeros(2), np.zeros(1), np.zeros(1), 0.0)


def test_estimation_error_within_bound_closed_loop():
    # Plant + observer under u = 0 from the preset initial conditions: the
    # error norm must stay under M(t) = 2 e^{0.05 t} over the whole horizon.
    bound = ErrorBoundModel.exponential(D=2.0, lam=-0.05)
    obs = make_luenberger(make_example1_system(), LUENBERGER_GAIN, bound)
    u = np.zeros(1)

    def rhs(t, z, stage):
        x, xhat = z[:3], z[3:]
        y = EXAMPLE1_C @ x
        return np.concatenate([EXAMPLE1_A @ x, obs.rhs(xhat, y, u, t)])

    def ratio(t, z):
        return np.linalg.norm(z[3:] - z[:3]) / bound.value(t)

    problem = OdeProblem(dim=6, rhs=rhs)
    z = np.concatenate([[2.0, 2.2, 2.0], [3.0, 3.5, 3.0]])
    times = time_grid(10.0, 1e-3)
    worst = ratio(times[0], z)  # at t = 0, then after every step
    for t, t_next in zip(times[:-1], times[1:]):
        z = rk4_step(problem, t, z, t_next - t)
        worst = max(worst, ratio(t_next, z))
    assert worst <= 1.0, f"bound exceeded, worst ratio {worst}"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_observer_copies_its_plant(name):
    # with no innovation (y = l(xhat)) the observer is the plant's own
    # model, f(xhat) + g(xhat) u, bit for bit
    cfg = make_preset(name).cfg
    sys_ = cfg.system
    rng = np.random.default_rng(18)
    for _ in range(5):
        xhat = rng.uniform(-5.0, 5.0, sys_.n)
        u = rng.uniform(-3.0, 3.0, sys_.m)
        t = float(rng.uniform(0.0, 10.0))
        out = cfg.observer.rhs(xhat, sys_.output_map(xhat), u, t)
        np.testing.assert_array_equal(out, sys_.drift(xhat) + sys_.input_map(xhat).dot(u))


def test_luenberger_follows_the_plant_it_is_given():
    # a plant with drift -x, input map [[1], [2]] and output x1 + x2: the
    # observer is built from these callables, not from any preset's matrices
    plant = ControlAffineSystem(
        n=2, m=1, k=1,
        drift=lambda x: -x,
        input_map=lambda x: np.array([[1.0], [2.0]]),
        output_map=lambda x: np.array([x[0] + x[1]]),
    )
    gain = np.array([[0.5], [-1.0]])
    obs = make_luenberger(plant, gain, BOUND)
    xhat, u = np.array([1.0, -3.0]), np.array([0.25])
    np.testing.assert_array_equal(obs.rhs(xhat, np.array([-2.0]), u, 0.0), [-0.75, 3.5])
    # an innovation y - l(xhat) = 1 adds the gain column
    np.testing.assert_array_equal(obs.rhs(xhat, np.array([-1.0]), u, 0.0), [-0.25, 2.5])
