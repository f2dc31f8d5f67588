import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cbfsim import PRESET_NAMES, AdaptiveState, make_preset
from cbfsim.integrator import OdeProblem, rk4_step, time_grid
from reference_loop import law_rhs


def _state(theta_hat, theta_bar=None, epsilon=0.1, mu=3.5):
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_bar is None:
        theta_bar = np.full(theta_hat.shape[0], 0.5)
    return AdaptiveState(theta_hat=theta_hat, theta_bar=theta_bar, epsilon=epsilon, mu=mu)


def _row(N, omega, t):
    """[phi_1(t), ..., phi_N(t)], the basis row of an N-term law at omega."""
    return replace(_state(np.zeros((N, 1))), omega=omega).basis_rows([t])[0]


def _phi(i, omega, t):
    """phi_i(t), i >= 1, read off the basis row."""
    return _row(i, omega, t)[i - 1]


def _series(st, t):
    """The estimated series sum_i theta_hat_i phi_i(t) at t."""
    return st.basis_rows([t])[0].dot(st.theta_hat)


def test_basis_index_map():
    assert _phi(1, 1.0, 0.0) == 1.0   # cos 0
    assert _phi(2, 1.0, 0.0) == 0.0   # sin 0
    assert _phi(3, 1.0, math.pi) == pytest.approx(1.0, abs=1e-12)  # cos 2pi
    assert _phi(4, 2.0, math.pi / 8) == pytest.approx(math.sin(math.pi / 2), abs=1e-12)


def test_basis_row_matches_scalar():
    t, omega = 0.73, 1.7
    row = _row(5, omega, t)
    np.testing.assert_allclose(row, [_phi(i, omega, t) for i in range(1, 6)], atol=1e-15)


def test_fat_eval_zero_coefficients():
    np.testing.assert_array_equal(_series(_state(np.zeros((3, 2))), 1.0), np.zeros(2))


def test_fat_eval_single_term():
    out = _series(_state([[2.0, 0.0]]), 0.0)
    np.testing.assert_allclose(out, [2.0, 0.0], atol=1e-15)


def test_fat_eval_two_terms_quarter_period():
    out = _series(_state([[1.0], [1.0]]), math.pi / 2)
    # cos(pi/2) + sin(pi/2) = 1
    np.testing.assert_allclose(out, [1.0], atol=1e-12)


def test_fat_eval_linear_in_theta():
    rng = np.random.default_rng(2)
    th1, th2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    t = 0.9
    lhs = _series(_state(2.0 * th1 + 3.0 * th2), t)
    rhs = 2.0 * _series(_state(th1), t) + 3.0 * _series(_state(th2), t)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_adaptive_rhs_hand_value():
    # -(0.25 / 0.2) grad with zero leak contribution
    st = _state(np.zeros((1, 3)))
    out = law_rhs(st, st.theta_hat, np.array([0.0, 1.0, 0.0]), 0.0)
    np.testing.assert_allclose(out, [[0.0, -1.25, 0.0]], atol=1e-14)


def test_adaptive_rhs_pure_leak():
    st = _state([[1.0, 1.0]], mu=2.0)
    out = law_rhs(st, st.theta_hat, np.zeros(2), 0.0)
    np.testing.assert_allclose(out, [[-2.0, -2.0]], atol=1e-15)


def test_adaptive_rhs_equilibrium():
    st = _state(np.zeros((2, 3)))
    out = law_rhs(st, st.theta_hat, np.zeros(3), 0.5)
    np.testing.assert_array_equal(out, np.zeros((2, 3)))


def test_adaptive_rhs_basis_scaling():
    # at t where phi_2 = sin(omega t) = 1, row 2 sees the full gradient gain
    st = _state(np.zeros((2, 1)), theta_bar=np.array([1.0, 1.0]), epsilon=0.5)
    out = law_rhs(st, st.theta_hat, np.array([1.0]), math.pi / 2)
    np.testing.assert_allclose(out[1], [-1.0], atol=1e-12)
    np.testing.assert_allclose(out[0], [0.0], atol=1e-12)  # cos(pi/2) = 0


def test_leak_decay_norm():
    # grad = 0 reduces the law to theta' = -mu theta; integrate and compare
    # against the exact exponential decay of the norm.
    mu = 2.0
    th0 = np.array([[1.0, -2.0], [0.5, 0.25]])
    st = _state(th0, mu=mu)

    def rhs(t, z, stage):
        return law_rhs(st, z.reshape(2, 2), np.zeros(2), t).ravel()

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
        phis = replace(_state(np.zeros((4, 1))), omega=omega).basis_rows(ts)
        for i in range(1, 5):
            for j in range(1, 5):
                vals = phis[:, i - 1] * phis[:, j - 1]
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
        assert got.basis_rows([0.9]).tobytes() == fresh.basis_rows([0.9]).tobytes(), change
    assert replace(st, epsilon=0.4).gain.tolist() == [-0.3125, -1.25, -5.0]
    assert [w for _, w in replace(st, omega=2.5).terms] == [2.5, 2.5, 5.0]
    with pytest.raises(ValueError):
        replace(st, gain=np.zeros(3))  # derived, not settable


def test_basis_rows_and_coefficients_match_one_row_at_a_time():
    # run_simulation's block tables: each row and each coefficient column is
    # the same double as the single-row path gives at that time
    st = AdaptiveState(theta_hat=np.zeros((5, 2)), theta_bar=np.array([0.5, 1.0, 2.0, 0.3, 0.7]),
                       epsilon=0.1, mu=1.0, omega=0.7)
    ts = time_grid(2.3004, 1e-3).tolist()
    ts += [t + 0.5 * (t_next - t) for t, t_next in zip(ts, ts[1:])]
    rows = st.basis_rows(ts)
    coefs = st.coefficient(rows)
    assert rows.shape == (len(ts), 5) and coefs.shape == (len(ts), 5, 1)
    for t, row, coef in zip(ts, rows, coefs):
        one = st.basis_rows([t])[0]
        assert row.tobytes() == one.tobytes(), t
        assert coef.tobytes() == st.coefficient(one).tobytes(), t
    assert st.basis_rows([]).shape == (0, 5) and st.coefficient(st.basis_rows([])).shape == (0, 5, 1)


def _libm_basis(N: int, omega: float, ts) -> np.ndarray:
    """The basis from math.cos and math.sin, one Python float at a time."""
    return np.array([[(math.cos if i % 2 else math.sin)(((i + 1) // 2) * omega * t)
                      for i in range(1, N + 1)] for t in ts]).reshape(len(ts), N)


def _assert_libm_bits(st: AdaptiveState, ts) -> None:
    got, want = st.basis_rows(ts), _libm_basis(st.N, st.omega, ts)
    bad = np.flatnonzero((got != want).any(axis=1))
    assert bad.size == 0, (
        f"numpy's float64 cos/sin differ from libm's math.cos/math.sin at t = {float(ts[bad[0]])!r} "
        f"(omega {st.omega}): {got[bad[0]].tolist()} != {want[bad[0]].tolist()}; every CSV "
        "pin assumes the two agree bit for bit")


@settings(max_examples=300, deadline=None)
@given(ts=hst.lists(hst.floats(0.0, 1e4), min_size=1, max_size=20),
       omega=hst.sampled_from([0.7, 1.0, 2.5]), N=hst.integers(1, 6))
def test_basis_equals_libm_bit_for_bit(ts, omega, N):
    # the basis is built with numpy's trig ufuncs over arrays of times, and
    # must give the doubles of math.cos and math.sin at k omega t
    st = AdaptiveState(theta_hat=np.zeros((N, 2)), theta_bar=np.full(N, 0.5),
                       epsilon=0.1, mu=1.0, omega=omega)
    _assert_libm_bits(st, ts)
    for t in ts[:3]:
        assert st.basis_rows([t]).tobytes() == _libm_basis(N, omega, [t]).tobytes()


@pytest.mark.parametrize("name,dt", [(name, None) for name in PRESET_NAMES] + [("example2", 5e-4)])
def test_preset_stage_times_equal_libm_bit_for_bit(name, dt):
    # every RK4 stage time of the preset grids (grid times and the
    # midpoints t + 0.5 (t_next - t)) and of the long 5e-4 example2 grid
    cfg = make_preset(name).cfg
    ts = time_grid(cfg.t_end, dt or cfg.dt)
    ts = np.concatenate((ts, ts[:-1] + 0.5 * (ts[1:] - ts[:-1])))
    _assert_libm_bits(cfg.adaptive0, ts)
