import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbfsim.barrier import ConstraintCoeffs
from cbfsim.qp import solve_halfspace_qp


def _c(a, b):
    return ConstraintCoeffs(a=np.asarray(a, dtype=float), b=float(b))


def test_projection_hand_values():
    res = solve_halfspace_qp(np.array([0.0]), _c([1.0], -0.35))
    np.testing.assert_allclose(res.u, [0.35], atol=1e-15)
    assert res.active and res.feasible

    res = solve_halfspace_qp(np.array([5.0]), _c([1.0], 0.0))
    np.testing.assert_array_equal(res.u, [5.0])
    assert not res.active and res.feasible

    # projection moves only along a
    res = solve_halfspace_qp(np.array([1.0, 1.0]), _c([1.0, 0.0], -2.0))
    np.testing.assert_allclose(res.u, [2.0, 1.0], atol=1e-15)
    assert res.active


def test_inactive_returns_nominal_exactly():
    u_d = np.array([0.123456789, -9.87654321])
    res = solve_halfspace_qp(u_d, _c([1.0, 1.0], 100.0))
    np.testing.assert_array_equal(res.u, u_d)
    assert res.u is not u_d  # defensive copy


def test_active_constraint_tight():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m = rng.integers(1, 4)
        a = rng.normal(size=m)
        if np.linalg.norm(a) < 1e-3:
            continue
        u_d = rng.normal(scale=2.0, size=m)
        b = float(rng.normal(scale=2.0))
        res = solve_halfspace_qp(u_d, _c(a, b))
        if res.active:
            assert abs(a @ res.u + b) <= 1e-10


def test_infeasible_halfspace():
    res = solve_halfspace_qp(np.array([1.0, 2.0]), _c([0.0, 0.0], -1.0))
    assert not res.feasible and not res.active
    np.testing.assert_array_equal(res.u, [1.0, 2.0])
    # b >= 0 with a = 0 is trivially satisfied everywhere
    res = solve_halfspace_qp(np.array([1.0]), _c([0.0], 0.0))
    assert res.feasible and not res.active


def test_battery_matches_grid_oracle(qp_battery):
    assert qp_battery["count"] == 1000
    assert qp_battery["max_u_err"] <= 2e-3
    assert qp_battery["max_obj_err"] <= 1e-5
    assert qp_battery["class_mismatches"] == 0


def test_local_optimality_under_perturbation():
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(1, 4))
        a = rng.normal(size=m)
        if np.linalg.norm(a) < 0.3:
            continue
        u_d = rng.normal(scale=2.0, size=m)
        b = float(rng.normal(scale=2.0))
        res = solve_halfspace_qp(u_d, _c(a, b))
        assert res.feasible
        delta = rng.normal(size=m)
        delta *= 1e-4 / np.linalg.norm(delta)
        if a @ (res.u + delta) + b < 0:
            delta = -delta  # mirror into the halfspace when possible
            if a @ (res.u + delta) + b < 0:
                continue
        assert np.linalg.norm(res.u + delta - u_d) >= np.linalg.norm(res.u - u_d) - 1e-9
        checked += 1


def test_idempotence():
    rng = np.random.default_rng(43)
    for _ in range(100):
        a = rng.normal(size=2)
        u_d = rng.normal(size=2)
        b = float(rng.normal())
        first = solve_halfspace_qp(u_d, _c(a, b))
        again = solve_halfspace_qp(first.u, _c(a, b))
        np.testing.assert_allclose(again.u, first.u, atol=1e-12)
        if np.linalg.norm(a) > 1e-6:
            assert not again.active or abs(a @ first.u + b) <= 1e-10


def test_scale_equivariance():
    rng = np.random.default_rng(53)
    for _ in range(100):
        a = rng.normal(size=3)
        u_d = rng.normal(size=3)
        b = float(rng.normal())
        alpha = float(rng.uniform(0.1, 10.0))
        base = solve_halfspace_qp(u_d, _c(a, b))
        scaled = solve_halfspace_qp(u_d, _c(alpha * a, alpha * b))
        np.testing.assert_allclose(scaled.u, base.u, atol=1e-10)
        assert scaled.active == base.active


# Entries of a are exactly 0 or at least 1e-6 in magnitude, so that ||a||^2
# is either 0 or a normal float (the projection divides by it).
_entry = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
_a_entry = st.one_of(st.just(0.0), _entry.filter(lambda v: abs(v) >= 1e-6))


@st.composite
def _qp_instances(draw):
    m = draw(st.integers(1, 4))
    u_d = np.array(draw(st.lists(_entry, min_size=m, max_size=m)))
    a = np.array(draw(st.lists(_a_entry, min_size=m, max_size=m)))
    return u_d, a, draw(_entry)


@settings(max_examples=300, deadline=None)
@given(_qp_instances())
@example((np.array([0.0, -97.05873900692615]), np.array([0.0, 72.72801804911515]), 0.0))
@example((np.array([0.0, 5e-324]), np.array([0.0, -2.0]), 0.0))
def test_projection_kkt_and_idempotence(instance):
    # min ||u - u_d||^2 s.t. a.u + b >= 0: u - u_d = lam a with lam >= 0,
    # a.u + b >= 0 and lam (a.u + b) = 0; projecting the answer again
    # returns it
    u_d, a, b = instance
    c = _c(a, b)
    res = solve_halfspace_qp(u_d, c)
    nrm2 = float(a @ a)
    if not res.feasible:
        assert nrm2 == 0.0 and b < 0.0 and not res.active
        np.testing.assert_array_equal(res.u, u_d)
        return
    # u_d + a * step rounds by an ulp of u_d or u, and u ~ 0 when the
    # projection cancels u_d, so the slack's scale carries both norms
    scale = 1.0 + abs(b) + float(np.linalg.norm(a)) * (float(np.linalg.norm(u_d)) + float(np.linalg.norm(res.u)))
    slack = float(a @ res.u + b)
    assert slack >= -1e-12 * scale
    lam = float(a @ (res.u - u_d)) / nrm2 if nrm2 > 0.0 else 0.0
    np.testing.assert_allclose(res.u - u_d, lam * a, atol=1e-12 * (1.0 + float(np.abs(u_d).max())))
    assert lam >= 0.0
    assert abs(lam * slack) <= 1e-9 * scale * (1.0 + lam)
    # active means u_d violated the row; a step below the smallest
    # subnormal rounds to 0, so an active result may still have lam = 0
    assert res.active == (float(a @ u_d + b) < 0.0)
    assert res.active or lam == 0.0
    again = solve_halfspace_qp(res.u, c)
    assert again.feasible
    np.testing.assert_allclose(again.u, res.u, rtol=1e-12, atol=1e-12 * scale)


# Entries of a and b from 0 or +-10^k with k in [-160, 2]: ||a||^2 may be
# subnormal or underflow to 0, and (a.u_d + b) / ||a||^2 may overflow.
_tiny = st.builds(lambda sign, k: sign * 10.0 ** k, st.sampled_from([-1.0, 1.0]), st.floats(-160.0, 2.0))
_tiny_entry = st.one_of(st.just(0.0), _tiny, _entry)


@st.composite
def _tiny_qp_instances(draw):
    m = draw(st.integers(1, 4))
    u_d = np.array(draw(st.lists(_entry, min_size=m, max_size=m)))
    a = np.array(draw(st.lists(_tiny_entry, min_size=m, max_size=m)))
    return u_d, a, draw(_tiny_entry)


@settings(max_examples=300, deadline=None)
@given(_tiny_qp_instances())
@example((np.array([0.0]), np.array([1e-155]), -1.0))
@example((np.array([0.0]), np.array([-1e-153]), -14.0))  # |u| ~ 1.4e154: u @ u overflows
def test_projection_with_tiny_a_is_finite(instance):
    # u is always finite: either the KKT conditions hold, or the result is
    # infeasible with u = u_d. Stationarity is checked along a / max|a_i|,
    # whose squared norm is at least 1, so the check does not underflow.
    u_d, a, b = instance
    res = solve_halfspace_qp(u_d, _c(a, b))
    assert np.isfinite(res.u).all()
    if not res.feasible:
        assert not res.active
        np.testing.assert_array_equal(res.u, u_d)
        return
    d = res.u - u_d
    if not res.active:
        np.testing.assert_array_equal(res.u, u_d)
        assert float(a @ u_d + b) >= 0.0
        return
    # rounding u_d + a * step moves each u_i by up to an ulp of u_d_i or u_i;
    # math.hypot takes the norms without squaring, so a finite u beyond
    # 1e154 does not overflow them
    scale = 1.0 + abs(b) + math.hypot(*a) * (math.hypot(*u_d) + math.hypot(*res.u))
    slack = float(a @ res.u + b)
    assert slack >= -1e-12 * scale
    unit = a / np.abs(a).max()
    along = float(unit @ d) / float(unit @ unit)  # u - u_d = along * unit
    assert along >= 0.0
    np.testing.assert_allclose(d, along * unit, atol=1e-12 * (1.0 + float(np.abs(u_d).max())))
    assert abs(along * slack) <= 1e-9 * scale * (1.0 + along)
