import math
from dataclasses import replace

import numpy as np
import pytest

from cbfsim import AdaptiveState
from cbfsim.fat import adaptive_rhs, basis_row, fat_eval
from cbfsim.integrator import OdeProblem, rk4_step, time_grid


def _state(theta_hat, theta_bar=None, epsilon=0.1, mu=3.5):
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_bar is None:
        theta_bar = np.full(theta_hat.shape[0], 0.5)
    return AdaptiveState(theta_hat=theta_hat, theta_bar=theta_bar, epsilon=epsilon, mu=mu)


def _phi(i, omega, t):
    """phi_i(t), i >= 1, read off the basis row."""
    return basis_row(i, omega, t)[i - 1]


def test_basis_index_map():
    assert _phi(1, 1.0, 0.0) == 1.0   # cos 0
    assert _phi(2, 1.0, 0.0) == 0.0   # sin 0
    assert _phi(3, 1.0, math.pi) == pytest.approx(1.0, abs=1e-12)  # cos 2pi
    assert _phi(4, 2.0, math.pi / 8) == pytest.approx(math.sin(math.pi / 2), abs=1e-12)


def test_basis_row_matches_scalar():
    t, omega = 0.73, 1.7
    row = basis_row(5, omega, t)
    np.testing.assert_allclose(row, [_phi(i, omega, t) for i in range(1, 6)], atol=1e-15)


def test_fat_eval_zero_coefficients():
    np.testing.assert_array_equal(fat_eval(_state(np.zeros((3, 2))), 1.0), np.zeros(2))


def test_fat_eval_single_term():
    out = fat_eval(_state([[2.0, 0.0]]), 0.0)
    np.testing.assert_allclose(out, [2.0, 0.0], atol=1e-15)


def test_fat_eval_two_terms_quarter_period():
    out = fat_eval(_state([[1.0], [1.0]]), math.pi / 2)
    # cos(pi/2) + sin(pi/2) = 1
    np.testing.assert_allclose(out, [1.0], atol=1e-12)


def test_fat_eval_linear_in_theta():
    rng = np.random.default_rng(2)
    th1, th2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    t = 0.9
    lhs = fat_eval(_state(2.0 * th1 + 3.0 * th2), t)
    rhs = 2.0 * fat_eval(_state(th1), t) + 3.0 * fat_eval(_state(th2), t)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_adaptive_rhs_hand_value():
    # -(0.25 / 0.2) grad with zero leak contribution
    out = adaptive_rhs(_state(np.zeros((1, 3))), np.array([0.0, 1.0, 0.0]), 0.0)
    np.testing.assert_allclose(out, [[0.0, -1.25, 0.0]], atol=1e-14)


def test_adaptive_rhs_pure_leak():
    out = adaptive_rhs(_state([[1.0, 1.0]], mu=2.0), np.zeros(2), 0.0)
    np.testing.assert_allclose(out, [[-2.0, -2.0]], atol=1e-15)


def test_adaptive_rhs_equilibrium():
    out = adaptive_rhs(_state(np.zeros((2, 3))), np.zeros(3), 0.5)
    np.testing.assert_array_equal(out, np.zeros((2, 3)))


def test_adaptive_rhs_basis_scaling():
    # at t where phi_2 = sin(omega t) = 1, row 2 sees the full gradient gain
    st = _state(np.zeros((2, 1)), theta_bar=np.array([1.0, 1.0]), epsilon=0.5)
    out = adaptive_rhs(st, np.array([1.0]), math.pi / 2)
    np.testing.assert_allclose(out[1], [-1.0], atol=1e-12)
    np.testing.assert_allclose(out[0], [0.0], atol=1e-12)  # cos(pi/2) = 0


def test_adaptive_rhs_grad_length_checked():
    with pytest.raises(ValueError):
        adaptive_rhs(_state(np.zeros((1, 3))), np.zeros(2), 0.0)


def test_leak_decay_norm():
    # grad = 0 reduces the law to theta' = -mu theta; integrate and compare
    # against the exact exponential decay of the norm.
    mu = 2.0
    th0 = np.array([[1.0, -2.0], [0.5, 0.25]])

    def rhs(t, z):
        return adaptive_rhs(_state(z.reshape(2, 2), mu=mu), np.zeros(2), t).ravel()

    problem = OdeProblem(dim=4, rhs=rhs)
    out = th0.ravel()
    times = time_grid(1.0, 1e-3)
    for t, t_next in zip(times[:-1], times[1:]):
        out = rk4_step(problem, t, out, t_next - t)
    for i in range(2):
        want = np.linalg.norm(th0[i]) * math.exp(-mu)
        assert np.linalg.norm(out.reshape(2, 2)[i]) == pytest.approx(want, abs=1e-8)


def test_orthogonality_on_one_period():
    # trapezoid quadrature of phi_i phi_j over [0, 2pi/omega]
    for omega in (1.0, 2.0):
        period = 2.0 * math.pi / omega
        ts = np.linspace(0.0, period, 10_001)
        for i in range(1, 5):
            for j in range(1, 5):
                vals = np.array([_phi(i, omega, t) * _phi(j, omega, t) for t in ts])
                integral = np.trapezoid(vals, ts)
                want = math.pi / omega if i == j else 0.0
                assert integral == pytest.approx(want, abs=1e-6), (i, j, omega)


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveState(theta_hat=np.zeros((0, 2)), theta_bar=np.zeros(0), epsilon=0.1, mu=1.0)
    with pytest.raises(ValueError, match="omega must be > 0"):
        AdaptiveState(theta_hat=np.zeros((1, 2)), theta_bar=np.array([0.5]), epsilon=0.1, mu=1.0,
                      omega=0.0)
    with pytest.raises(ValueError, match="E must be >= 0"):
        AdaptiveState(theta_hat=np.zeros((1, 2)), theta_bar=np.array([0.5]), epsilon=0.1, mu=1.0,
                      E=-0.1)
    with pytest.raises(ValueError):
        AdaptiveState(theta_hat=np.zeros((1, 2)), theta_bar=np.array([0.5]), epsilon=0.0, mu=1.0)
    with pytest.raises(ValueError):
        AdaptiveState(theta_hat=np.zeros((1, 2)), theta_bar=np.array([-0.5]), epsilon=0.1, mu=1.0)
    with pytest.raises(ValueError):
        AdaptiveState(theta_hat=np.zeros(3), theta_bar=np.array([0.5]), epsilon=0.1, mu=1.0)


def test_derived_constants_follow_replace():
    # gain and terms are derived in __post_init__; replace must rebuild them,
    # so every replaced record matches a fresh construction
    base = dict(theta_hat=np.zeros((3, 2)), theta_bar=np.array([0.5, 1.0, 2.0]),
                epsilon=0.1, mu=3.5, omega=1.0, E=0.1)
    st = AdaptiveState(**base)
    rng = np.random.default_rng(4)
    for change in (
        {"epsilon": 0.4},
        {"omega": 2.5},
        {"theta_hat": rng.normal(size=(5, 2)), "theta_bar": np.full(5, 0.7)},
    ):
        fresh = AdaptiveState(**{**base, **change})
        got = replace(st, **change)
        assert got.gain.tobytes() == fresh.gain.tobytes(), change
        assert got.terms == fresh.terms, change
        assert got.N == fresh.N == fresh.theta_hat.shape[0] == len(fresh.terms), change
        np.testing.assert_array_equal(got.basis_row(0.9), basis_row(fresh.N, fresh.omega, 0.9))
    assert replace(st, epsilon=0.4).gain.tolist() == [-0.3125, -1.25, -5.0]
    assert [w for _, w in replace(st, omega=2.5).terms] == [2.5, 2.5, 5.0]
    with pytest.raises(ValueError):
        replace(st, gain=np.zeros(3))  # derived, not settable
