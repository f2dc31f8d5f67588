import dataclasses
import hashlib
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from cbfsim import (
    AdaptiveState,
    BarrierChain,
    ControlAffineSystem,
    EeqObserver,
    ErrorBoundModel,
    RunError,
    SimConfig,
    SimTrace,
    make_preset,
    run_pair,
    run_simulation,
    safety_report,
)
from cbfsim import fat, simloop
from cbfsim.cli import emit_csv, run_preset
from cbfsim.dynamics import make_example1_system
from cbfsim.integrator import time_grid
from cbfsim.observer import make_luenberger
from cbfsim.presets import LUENBERGER_GAIN
from cbfsim.simloop import INFEASIBLE_MODES


def _cfg_1a() -> SimConfig:
    return make_preset("example1a").cfg


def test_config_validation():
    cfg = _cfg_1a()
    for controller in ("pid", ["proposed"]):
        with pytest.raises(ValueError, match="^controller must be one of"):
            replace(cfg, controller=controller)
    with pytest.raises(ValueError):
        replace(cfg, on_infeasible="skip")
    with pytest.raises(ValueError):
        replace(cfg, dt=0.0)
    with pytest.raises(ValueError):
        replace(cfg, t_end=-1.0)
    with pytest.raises(ValueError, match="^dt must be finite$"):
        replace(cfg, dt=math.inf)
    with pytest.raises(ValueError, match="^t_end must be finite$"):
        replace(cfg, t_end=math.nan)
    with pytest.raises(ValueError):
        replace(cfg, baseline_gamma=0.0)
    with pytest.raises(ValueError):
        replace(cfg, x0=np.zeros(2))
    with pytest.raises(ValueError):
        replace(cfg, xhat0=np.zeros(4))
    with pytest.raises(ValueError, match="^x0 and xhat0 must be finite$"):
        replace(cfg, x0=np.array([math.nan, 1.0, 1.0]))
    with pytest.raises(ValueError, match="^x0 and xhat0 must be finite$"):
        replace(cfg, xhat0=np.array([math.inf, 1.0, 1.0]))
    with pytest.raises(ValueError):
        replace(cfg, observer=EeqObserver(
            rhs=lambda xh, y, u, t: np.zeros(2),
            bound=ErrorBoundModel.constant(0.0)))
    with pytest.raises(ValueError, match="3 columns"):
        replace(cfg, adaptive0=AdaptiveState(
            theta_hat=np.zeros((3, 2)), theta_bar=np.full(3, 0.5),
            epsilon=0.1, mu=3.5))


def _law(**changes) -> AdaptiveState:
    return replace(_cfg_1a().adaptive0, **changes)


@pytest.mark.parametrize("name,build", [
    ("E", lambda: _law(E=math.inf)),
    ("E", lambda: _law(E=math.nan)),
    ("mu", lambda: _law(mu=math.inf)),
    ("epsilon", lambda: _law(epsilon=math.inf)),
    ("omega", lambda: _law(omega=math.inf)),
    ("theta_hat", lambda: _law(theta_hat=np.full((3, 3), math.nan))),
    ("theta_bar", lambda: _law(theta_bar=np.array([0.5, math.inf, 0.5]))),
    ("L_k", lambda: BarrierChain(s=(lambda x: x[1] - 1.0,), grad_s=(lambda x: np.ones(3),), L_k=(math.inf,))),
    ("baseline_gamma", lambda: replace(_cfg_1a(), baseline_gamma=math.inf)),
    ("D", lambda: ErrorBoundModel.exponential(D=math.inf, lam=-0.05)),
    ("D", lambda: ErrorBoundModel.exponential(D=math.nan, lam=-0.05)),
    ("lam", lambda: ErrorBoundModel.exponential(D=2.0, lam=-math.inf)),
    ("beta", lambda: ErrorBoundModel.constant(math.nan)),
], ids=["E-inf", "E-nan", "mu-inf", "epsilon-inf", "omega-inf", "theta_hat-nan", "theta_bar-inf",
        "L_k-inf", "baseline_gamma-inf", "D-inf", "D-nan", "lam-inf", "beta-nan"])
def test_constructors_reject_non_finite_scalars(name, build):
    # each of these but theta_bar used to build, so the run failed at t = 0
    # with a non-finite constraint row: a config error reported as a run
    # error; an infinite theta_bar was reported as a gain overflow at epsilon
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        build()


def _bad_callable(cfg: SimConfig, what: str) -> dict:
    """One SimConfig change that makes a single callable return a wrong
    shape, or, for "<name>:<kind>", the right shape as a <kind>."""
    sys_, chain = cfg.system, cfg.barrier
    if what == "drift":
        return {"system": replace(sys_, drift=lambda x: np.zeros(4))}
    if what == "drift:list":
        return {"system": replace(sys_, drift=lambda x: [0.0, 0.0, 0.0])}
    if what == "input map":
        return {"system": replace(sys_, input_map=lambda x: np.zeros((4, 1)))}
    if what == "input map:int64":
        return {"system": replace(sys_, input_map=lambda x: np.array([[0], [1], [1]], dtype=np.int64))}
    if what == "output map":
        return {"system": replace(sys_, output_map=lambda x: np.zeros(2))}
    if what == "observer rhs":
        return {"observer": replace(cfg.observer, rhs=lambda xh, y, u, t: np.zeros(2))}
    if what.startswith("s_"):  # s_k for the chain's top level k
        return {"barrier": replace(chain, s=(*chain.s[:-1], lambda x: x[:2]))}
    if what == "grad_s_2:list":
        return {"barrier": replace(chain, grad_s=(*chain.grad_s[:-1], lambda x: [-1.0, 4.0, -2.0]))}
    if what.startswith("grad_s_"):
        return {"barrier": replace(chain, grad_s=(*chain.grad_s[:-1], lambda x: np.ones(2)))}
    if what == "u_nominal:tuple":
        return {"u_nominal": lambda t, xh: (-2.0,)}
    return {"u_nominal": lambda t, xh: np.zeros(2)}


@pytest.mark.parametrize(
    "what", ["drift", "input map", "output map", "observer rhs", "s_0", "grad_s_0", "u_nominal",
             "s_2", "grad_s_2", "drift:list", "input map:int64", "u_nominal:tuple", "grad_s_2:list"])
def test_config_checks_callable_shapes_at_construction(what):
    # the loop calls these unchecked and unconverted, so a wrong shape, or
    # a vector that is not a float64 array, must fail when the config is
    # built, naming the callable; s_2 and grad_s_2 are the top level of
    # example1c's three-level chain
    name, _, kind = what.partition(":")
    cfg = make_preset("example1c").cfg if name.endswith("_2") else _cfg_1a()
    want = f"{kind}, expected a float64 array" if kind else "shape"
    with pytest.raises(ValueError, match=f"^{name} returned {want}"):
        replace(cfg, **_bad_callable(cfg, what))


def test_time_grid_and_shapes(preset_runs):
    for name, run in preset_runs.items():
        for tr in (run["proposed"], run["baseline"]):
            assert len(tr) == 10001
            assert tr.t[0] == 0.0 and tr.t[-1] == 10.0
            assert np.all(np.diff(tr.t) > 0)
            n = run["cfg"].system.n
            assert tr.x.shape == (10001, n) and tr.xhat.shape == (10001, n)
            assert tr.u.shape == (10001, run["cfg"].system.m)
            assert np.all(np.isfinite(tr.x)) and np.all(np.isfinite(tr.u))


def test_columns_order_1a(preset_runs):
    cols = preset_runs["example1a"]["proposed"].columns()
    assert list(cols) == [
        "t", "x1", "x2", "x3", "xhat1", "xhat2", "xhat3", "u1",
        "h_true", "h0", "barrier_eps", "residual", "M",
        "theta_norm_1", "theta_norm_2", "theta_norm_3",
        "qp_active", "qp_feasible",
    ]
    for arr in cols.values():
        assert arr.shape == (10001,)


def test_initial_rows_match_config(preset_runs):
    for name, run in preset_runs.items():
        cfg = run["cfg"]
        tr = run["proposed"]
        np.testing.assert_array_equal(tr.x[0], cfg.x0)
        np.testing.assert_array_equal(tr.xhat[0], cfg.xhat0)
        assert tr.M[0] == pytest.approx(2.0)  # D at t = 0


def test_residual_nonnegative_at_feasible_samples(preset_runs):
    for name, run in preset_runs.items():
        tr = run["proposed"]
        feas = tr.qp_feasible
        if np.any(feas):
            assert tr.residual[feas].min() >= -1e-8, name


def test_deflated_barrier_stays_nonnegative(preset_runs):
    for name in ("example1a", "example2"):
        tr = preset_runs[name]["proposed"]
        assert tr.h0.min() >= -1e-6, name


def test_error_bound_never_violated(preset_runs):
    for name, run in preset_runs.items():
        assert run["report_p"].bound_violations == 0, name
        assert run["report_b"].bound_violations == 0, name


def test_epsilon_bounds_reported(preset_runs):
    rp = preset_runs["example1a"]["report_p"]
    assert rp.epsilon_bound == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert rp.epsilon_used == 0.1 and rp.epsilon_ok

    rp = preset_runs["example2"]["report_p"]
    assert rp.epsilon_bound == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rp.epsilon_ok

    rp = preset_runs["example1b"]["report_p"]
    assert rp.epsilon_bound == pytest.approx(-4.6 / 3.0, abs=1e-12)
    assert not rp.epsilon_ok


def test_epsilon_bound_is_evaluated_once_per_config(monkeypatch, tmp_path, capsys):
    # run_preset prints the verdict and reports both runs from one config,
    # so the bound is derived once; a replaced config derives its own
    calls = []
    bound_fn = simloop.epsilon_bound_rdr

    def counted(*args):
        calls.append(args)
        return bound_fn(*args)

    monkeypatch.setattr(simloop, "epsilon_bound_rdr", counted)
    assert run_preset("example1c", {"t_end": 0.05}, out_dir=str(tmp_path)) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("warning: epsilon bound ")

    cfg = _cfg_1a()
    assert cfg.epsilon_ok
    wide = replace(cfg, adaptive0=replace(cfg.adaptive0, epsilon=2.0))
    assert wide.epsilon_ok is False
    assert wide.epsilon_bound == cfg.epsilon_bound


def test_error_norm_overflow_counts_as_a_bound_violation():
    # the squared error overflows to inf: no warning, and inf > M is one
    # bound violation
    cfg = replace(_cfg_1a(), x0=np.array([1e308, 1.5, 1e308]), t_end=0.0)
    report = safety_report(run_simulation(cfg), cfg)
    assert report.bound_violations == 1
    assert report.min_h_true == 0.5


def test_baseline_adaptation_frozen(preset_runs):
    for name, run in preset_runs.items():
        assert np.all(run["baseline"].theta_norms == 0.0), name
    # a nonzero theta_hat0 is carried bit-exactly by a controller that does not adapt
    for name in ("example1a", "example2"):
        cfg = make_preset(name).cfg
        law = replace(cfg.adaptive0, theta_hat=THETA0_OFF_DEFAULT)
        trace = run_simulation(replace(cfg, adaptive0=law, controller="baseline", t_end=0.3))
        norms0 = np.linalg.norm(THETA0_OFF_DEFAULT, axis=1)
        assert all(np.array_equal(row, norms0) for row in trace.theta_norms), name


def test_baseline_violates_on_1a(preset_runs):
    rb = preset_runs["example1a"]["report_b"]
    assert rb.min_h_true < 0
    assert rb.first_violation_t is not None
    tr = preset_runs["example1a"]["baseline"]
    idx = int(np.flatnonzero(tr.h_true < 0)[0])
    assert rb.first_violation_t == tr.t[idx]


def test_chain_preset_has_no_control_authority(preset_runs):
    # grad_s1 . B = [1, 2, -2] . [0, 1, 1] = 0: the constraint row never
    # depends on u, every step is infeasible, and both controllers fall
    # back to the same nominal input, so the trajectories coincide.
    run = preset_runs["example1b"]
    assert not run["proposed"].qp_feasible.any()
    assert run["report_p"].infeasible_steps == 10001
    np.testing.assert_array_equal(run["proposed"].x, run["baseline"].x)
    np.testing.assert_array_equal(run["proposed"].u, run["baseline"].u)


def test_single_sample_run():
    cfg = replace(_cfg_1a(), t_end=0.0)
    prop, base = run_pair(cfg)
    for tr in (prop, base):
        assert len(tr) == 1
        assert tr.t[0] == 0.0
    rep = safety_report(prop, cfg)
    assert rep.min_h_true == pytest.approx(1.2)
    assert rep.min_h0 == pytest.approx(0.5)
    assert rep.first_violation_t is None
    assert rep.bound_violations == 0  # ||xhat0 - x0|| = 1.92 <= M(0) = 2
    assert rep.infeasible_steps == 0


def test_perfect_information_matches_baseline():
    # zero error bound, exact initial estimate, zero estimates, E = 0 and
    # epsilon -> 0 collapse the assembled row onto the plain zeroing row
    # with gamma = mu, so both filters compute the same control.
    bound = ErrorBoundModel.constant(0.0)
    obs = make_luenberger(make_example1_system(), LUENBERGER_GAIN, bound)
    x0 = np.array([2.0, 2.2, 2.0])
    cfg = SimConfig(
        system=make_example1_system(),
        observer=obs,
        barrier=BarrierChain(s=(lambda x: x[1] - 1.0,),
                             grad_s=(lambda x: np.array([0.0, 1.0, 0.0]),), L_k=(1.0,)),
        adaptive0=AdaptiveState(theta_hat=np.zeros((3, 3)),
                                theta_bar=np.full(3, 0.5),
                                epsilon=1e-9, mu=3.5),
        x0=x0, xhat0=x0.copy(),
        u_nominal=lambda t, xh: np.array([-6.0]),
        t_end=0.0,
        baseline_gamma=3.5,
    )
    prop, base = run_pair(cfg)
    np.testing.assert_allclose(base.u[0], [-4.0], atol=1e-12)
    assert abs(prop.u[0, 0] - base.u[0, 0]) <= 1e-6
    assert prop.qp_active[0] and base.qp_active[0]


def test_hold_mode_keeps_last_feasible_control():
    # scalar plant with zero input map: a = 0 always, and b(t) = 1.94 - 3t
    # flips sign between t = 0.64 and t = 0.65. After that the QP is
    # infeasible; "hold" must repeat the last feasible control while
    # "nominal" keeps tracking the time-varying nominal.
    bound = ErrorBoundModel(value=lambda t: t, derivative=lambda t: 1.0)
    sys_ = ControlAffineSystem(
        n=1, m=1, k=1,
        drift=lambda x: np.zeros(1),
        input_map=lambda x: np.zeros((1, 1)),
        output_map=lambda x: x.copy(),
    )
    obs = EeqObserver(rhs=lambda xh, y, u, t: np.zeros(1), bound=bound)
    cfg = SimConfig(
        system=sys_,
        observer=obs,
        barrier=BarrierChain(s=(lambda x: x[0],), grad_s=(lambda x: np.ones(1),), L_k=(1.0,)),
        adaptive0=AdaptiveState(theta_hat=np.zeros((1, 1)),
                                theta_bar=np.array([1e-8]),
                                epsilon=0.01, mu=3.0),
        x0=np.ones(1), xhat0=np.ones(1),
        u_nominal=lambda t, xh: np.array([math.sin(t) + 2.0]),
        t_end=1.0, dt=0.01,
        on_infeasible="hold",
    )
    hold = run_simulation(cfg)
    nominal = run_simulation(replace(cfg, on_infeasible="nominal"))

    assert hold.qp_feasible[:65].all() and not hold.qp_feasible[65:].any()
    np.testing.assert_array_equal(hold.u[65:], np.broadcast_to(hold.u[64], (36, 1)))
    expect = np.sin(nominal.t) + 2.0
    np.testing.assert_allclose(nominal.u[:, 0], expect, atol=1e-12)
    # the two modes agree while feasible and diverge after
    np.testing.assert_array_equal(hold.u[:65], nominal.u[:65])
    assert np.any(hold.u[65:] != nominal.u[65:])


def _check_blowup_sample(**changes) -> SimTrace:
    """A run of example1a's config on the drift x^3, with changes, raises
    RunError at a step start whose sample is that row of the trace; returns
    the run stopped at that row."""
    unstable = ControlAffineSystem(
        n=3, m=1, k=1,
        drift=lambda x: x ** 3,  # finite-time escape from x0 ~ 2
        input_map=lambda x: np.zeros((3, 1)),
        output_map=lambda x: x[:1],
    )
    cfg = replace(_cfg_1a(), system=unstable, t_end=1.0, **changes)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RunError) as exc:
            run_simulation(cfg)
    match = re.match(r"^state became non-finite during the step starting at t=(\S+)$", str(exc.value))
    assert match, str(exc.value)
    sample = exc.value.last_sample
    assert set(sample) == {"t", "x", "xhat", "u"}
    assert 0.0 <= sample["t"] < 1.0
    # the sample is the state at the start of the failed step, a grid point
    assert sample["t"] in time_grid(1.0, cfg.dt)[:-1]
    assert match.group(1) == f"{sample['t']:.6g}"
    assert np.all(np.isfinite(sample["x"]))
    # byte for byte the last row of the same run stopped where that step began,
    # u included: the control applied there, not what its array holds later
    last = run_simulation(replace(cfg, t_end=sample["t"]))
    assert last.t[-1] == sample["t"]
    for key in ("x", "xhat", "u"):
        assert getattr(last, key)[-1].tobytes() == sample[key].tobytes(), key
    return last


def test_blowup_raises_run_error():
    _check_blowup_sample()


def test_blowup_sample_holds_the_applied_u_when_u_d_views_the_state():
    # every row is infeasible (a = 0, b < 0), so the applied u is u_d, which
    # here is a view of the estimate the step overwrites in place
    last = _check_blowup_sample(barrier=BarrierChain.affine((1, 0, 0), -100.0),
                                controller="baseline", u_nominal=lambda t, xhat: xhat[:1])
    assert not last.qp_feasible.any()


def _run_capturing_states(monkeypatch, cfg: SimConfig) -> tuple[RunError, np.ndarray]:
    """run_simulation(cfg)'s RunError and the state of the step that raised it."""
    states = []
    step = simloop.rk4_step

    def capturing(problem, t, z, dt, out):
        states.append(step(problem, t, z, dt, out).copy())  # out is z, stepped on in place
        return out

    monkeypatch.setattr(simloop, "rk4_step", capturing)
    with pytest.raises(RunError) as exc:
        run_simulation(cfg)
    return exc.value, states[-1]


@pytest.mark.parametrize("controller", ["proposed", "baseline"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_estimate_alone_is_caught_after_its_step(monkeypatch, bad, controller):
    # the observer's rate turns non-finite from stage time 0.0505 on, the
    # second stage of the step starting at t = 0.05; x and theta_hat stay finite
    cfg = _cfg_1a()
    rhs = cfg.observer.rhs

    def failing(xhat, y, u, t):
        return np.full(3, bad) if t >= 0.05025 else rhs(xhat, y, u, t)

    cfg = replace(cfg, observer=replace(cfg.observer, rhs=failing), t_end=0.1, controller=controller)
    err, z = _run_capturing_states(monkeypatch, cfg)
    assert str(err) == "state became non-finite during the step starting at t=0.05"
    assert err.last_sample["t"] == 0.05
    assert np.isfinite(z[:3]).all() and not np.isfinite(z[3:6]).any() and np.isfinite(z[6:]).all()


def test_non_finite_estimates_alone_are_caught_after_their_step(monkeypatch):
    # gain 5e300 times a gradient of norm 1e10 overflows the adaptive law in
    # the first step; x and xhat do not read theta_hat and stay finite
    cfg = _cfg_1a()
    chain = BarrierChain(s=(lambda x: 1e10 * (x[1] - 1.0),),
                         grad_s=(lambda x: np.array([0.0, 1e10, 0.0]),), L_k=(1e10,))
    law = replace(cfg.adaptive0, theta_bar=np.full(3, 1e150))
    err, z = _run_capturing_states(monkeypatch, replace(cfg, barrier=chain, adaptive0=law, t_end=0.1))
    assert str(err) == "state became non-finite during the step starting at t=0"
    assert err.last_sample["t"] == 0.0
    assert np.isfinite(z[:6]).all() and not np.isfinite(z[6:]).all()


def test_non_finite_row_at_t0_samples_the_nominal_u():
    # gamma * h overflows on the baseline row at t = 0: no step applied a u,
    # so the sample's u is the one u_nominal returned for that row
    cfg = replace(_cfg_1a(), controller="baseline", baseline_gamma=1e308)
    with pytest.raises(RunError, match=r"^constraint row became non-finite at t=0$") as exc:
        run_simulation(cfg)
    sample = exc.value.last_sample
    assert sample["t"] == 0.0
    assert sample["u"].tobytes() == cfg.u_nominal(0.0, cfg.xhat0).tobytes()
    first = run_simulation(replace(cfg, controller="proposed", t_end=0.0))
    for key in ("x", "xhat"):
        assert sample[key].tobytes() == getattr(first, key)[0].tobytes(), key


@pytest.mark.parametrize("on_infeasible", INFEASIBLE_MODES)
def test_non_finite_row_after_some_steps_samples_the_nominal_u(monkeypatch, on_infeasible):
    # h is inf once xhat3 passes 3.003, which example1a's estimate does at
    # row 4 (t = 0.004); rows 0-3 are feasible and the QP moved their u off
    # u_d, so the u still held differs from the sample's
    cfg = _cfg_1a()
    level = cfg.barrier.s[0]
    chain = replace(cfg.barrier, s=(lambda x: level(x) if x[2] < 3.003 else math.inf,))
    cfg = replace(cfg, barrier=chain, on_infeasible=on_infeasible, t_end=0.05)
    err, z = _run_capturing_states(monkeypatch, cfg)
    assert str(err) == "constraint row became non-finite at t=0.004"
    sample = err.last_sample
    assert sample["t"] == time_grid(0.05, cfg.dt)[4]
    # the state the last step produced, at which the row failed
    assert sample["x"].tobytes() == z[:3].tobytes()
    assert sample["xhat"].tobytes() == z[3:6].tobytes()
    assert sample["u"].tobytes() == cfg.u_nominal(sample["t"], sample["xhat"]).tobytes()
    held = run_simulation(replace(cfg, t_end=0.003)).u[-1]
    assert held.tobytes() != sample["u"].tobytes()


@pytest.mark.parametrize("controller", ["proposed", "baseline"])
def test_huge_finite_state_is_not_non_finite(controller):
    # 0 * v is 0 for every finite v, however large: a state near 1e300 runs
    cfg = replace(_cfg_1a(), x0=np.array([1e300, 1.5, -1e300]), t_end=0.05, controller=controller)
    trace = run_simulation(cfg)
    assert len(trace) == 51
    assert 1e299 < np.abs(trace.x).max() < 1e301
    assert np.isfinite(trace.x).all() and np.isfinite(trace.xhat).all()


def test_determinism():
    cfg = replace(_cfg_1a(), t_end=1.0)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.u.tobytes() == b.u.tobytes()
    assert a.theta_norms.tobytes() == b.theta_norms.tobytes()


def test_step_size_robustness():
    cfg = _cfg_1a()
    coarse = run_simulation(replace(cfg, t_end=3.0, dt=1e-3))
    fine = run_simulation(replace(cfg, t_end=3.0, dt=5e-4))
    # zero-order-hold control makes the coupling O(dt); halving the step
    # must barely move the endpoint and the safety margin
    assert np.linalg.norm(coarse.x[-1] - fine.x[-1]) < 5e-3
    assert abs(coarse.h_true.min() - fine.h_true.min()) < 1e-4


@pytest.mark.parametrize("name", ["example1a", "example1c"])
def test_constraint_rdr_is_the_only_row_seam(monkeypatch, name):
    # one barrier type, one constraint path: the proposed loop assembles its
    # row through simloop.constraint_rdr once per row, whatever the chain's r
    calls = []
    real = simloop.constraint_rdr

    def counting(*args):
        calls.append(args[0].r)
        return real(*args)

    monkeypatch.setattr(simloop, "constraint_rdr", counting)
    cfg = replace(make_preset(name).cfg, t_end=0.05)
    proposed = run_simulation(cfg)
    assert len(calls) == len(proposed) == 51
    assert set(calls) == {cfg.barrier.r}
    calls.clear()
    run_simulation(replace(cfg, controller="baseline"))
    assert calls == []


def _counting_bound(bound: ErrorBoundModel, counts: dict) -> ErrorBoundModel:
    def value(t):
        counts["value"] += 1
        return bound.value(t)

    def derivative(t):
        counts["derivative"] += 1
        return bound.derivative(t)

    return ErrorBoundModel(value=value, derivative=derivative)


@pytest.mark.parametrize("name", ["example1a", "example1c"])
def test_per_row_work_stays_removed(monkeypatch, name):
    # each row evaluates M(t) once, for the row and the trace, and dM/dt
    # once on proposed rows only; the loop builds no AdaptiveState. Each
    # chain level is evaluated at xhat at most once per row: s_0 at x
    # (h_true) and at xhat (h0, the baseline row), the top level at xhat
    # (barrier_eps, the proposed row) and the middle levels never; on the
    # r = 1 barrier s_0 is the top level and serves both at xhat. One basis
    # row is evaluated per distinct stage time on proposed runs of one block
    # (each grid time t and each midpoint t + dt/2, shared by stages 2 and 3;
    # stage 4 lands on the next grid time), and none on baseline runs
    counts = {"value": 0, "derivative": 0, "adaptive_state": 0}
    cfg = make_preset(name).cfg
    chain = cfg.barrier
    levels = [0] * chain.r

    def counting(k):
        def s(x):
            levels[k] += 1
            return chain.s[k](x)
        return s

    bound = _counting_bound(cfg.observer.bound, counts)
    cfg = replace(cfg, t_end=0.05, observer=replace(cfg.observer, bound=bound),
                  barrier=replace(chain, s=tuple(counting(k) for k in range(chain.r))))
    post_init = AdaptiveState.__post_init__

    def counting_post_init(self):
        counts["adaptive_state"] += 1
        post_init(self)

    monkeypatch.setattr(AdaptiveState, "__post_init__", counting_post_init)
    basis = _counting_basis(monkeypatch)
    for controller, proposed in (("proposed", True), ("baseline", False)):
        run_cfg = replace(cfg, controller=controller)
        counts.update(value=0, derivative=0, adaptive_state=0)
        basis["rows"] = 0
        levels[:] = [0] * chain.r
        rows = len(run_simulation(run_cfg))
        assert rows == 51
        assert counts == {"value": rows, "derivative": rows if proposed else 0, "adaptive_state": 0}
        assert basis["rows"] == (2 * rows - 1 if proposed else 0)
        assert levels == ([2 * rows] if chain.r == 1 else [2 * rows] + [0] * (chain.r - 2) + [rows])


def _counting_basis(monkeypatch) -> dict:
    """Count the basis rows evaluated: every one goes through basis_rows."""
    counts = {"rows": 0}
    basis_rows = AdaptiveState.basis_rows

    def counting_basis_rows(self, ts):
        counts["rows"] += len(ts)
        return basis_rows(self, ts)

    monkeypatch.setattr(AdaptiveState, "basis_rows", counting_basis_rows)
    return counts


@pytest.mark.parametrize("rows,short", [
    ("B-1", False), ("B", False), ("B+1", False), ("2B+1", False), ("B+1", True)])
def test_tables_cross_their_block_seams_bit_for_bit(monkeypatch, rows, short):
    # runs ending just before, on and after a block seam, and one whose last
    # step is shortened, emit the same CSV with one step per table, the
    # default block and one table for the whole run; every distinct stage
    # time is evaluated once, and each seam's grid time once more
    B = simloop._TABLE_BLOCK
    rows = {"B-1": B - 1, "B": B, "B+1": B + 1, "2B+1": 2 * B + 1}[rows]
    t_end = (rows - 1) * 0.01 - (0.0055 if short else 0.0)
    cfg = replace(make_preset("example2").cfg, t_end=t_end, dt=0.01)
    counts = _counting_basis(monkeypatch)
    csvs = set()
    for block in (1, B, rows):
        monkeypatch.setattr(simloop, "_TABLE_BLOCK", block)
        counts["rows"] = 0
        trace = run_simulation(cfg)
        assert len(trace) == rows and trace.t[-1] == t_end
        assert counts["rows"] == 2 * rows + math.ceil(rows / block) - 2, block
        csvs.add(emit_csv(trace))
    assert len(csvs) == 1


@pytest.mark.parametrize("name", ["example1a", "example1c", "example2"])
def test_loop_law_derivative_equals_the_law_byte_for_byte(monkeypatch, name):
    # every rhs call of a run over two block seams with a shortened last
    # step: its theta_hat stage derivative is AdaptiveState.rhs and
    # fat.adaptive_rhs at the time rk4_step passed, to the byte, and it
    # writes neither its stage input nor the run's initial theta_hat
    calls = []
    problem_cls = simloop.OdeProblem

    def recording_problem(dim, rhs):
        def recording(t, z, stage):
            before = z.copy()
            k = rhs(t, z, stage)
            assert z.tobytes() == before.tobytes(), (t, stage)
            calls.append((t, before, k.copy()))
            return k
        return problem_cls(dim=dim, rhs=recording)

    monkeypatch.setattr(simloop, "OdeProblem", recording_problem)
    cfg = make_preset(name).cfg
    law = replace(cfg.adaptive0, theta_hat=THETA0_OFF_DEFAULT, omega=0.7)
    B = simloop._TABLE_BLOCK
    cfg = replace(cfg, t_end=(2 * B + 0.55) * cfg.dt, adaptive0=law)
    trace = run_simulation(cfg)
    assert len(trace) == 2 * B + 2 and trace.t[-1] - trace.t[-2] < cfg.dt
    assert len(calls) == 4 * (len(trace) - 1)
    n, N = cfg.system.n, law.N
    grad = cfg.barrier.grad_s[-1]
    for t, z, k in calls:
        theta, xhat = z[2 * n:].reshape(N, n), z[n:2 * n]
        want = law.rhs(theta, grad(xhat), law.coefficient(law.basis_rows([t])[0]),
                       np.empty((N, n)), np.empty((N, n))).tobytes()
        assert k[2 * n:].tobytes() == want, t
        assert fat.adaptive_rhs(replace(law, theta_hat=theta), grad(xhat), t).tobytes() == want, t
    assert law.theta_hat.tobytes() == THETA0_OFF_DEFAULT.tobytes()


@pytest.mark.parametrize("name", ["example1a", "example1c", "example2"])
@settings(max_examples=10, deadline=None)
@given(data=hst.data())
def test_estimates_on_an_affine_chain_do_not_depend_on_the_state(name, data):
    # every preset chain is affine, so the law reads t and a constant
    # gradient alone: moving x0 and xhat0 (draws within three standard
    # deviations of N(0, 0.3^2)) and holding any constant u_d leaves
    # theta_hat, bit for bit, as in the preset's run; t_end 0.3 crosses
    # four table seams
    cfg = replace(make_preset(name).cfg, t_end=0.3)
    n, m = cfg.system.n, cfg.system.m
    moves = hnp.arrays(np.float64, n, elements=hst.floats(-0.9, 0.9))
    u_d = data.draw(hnp.arrays(np.float64, m, elements=hst.floats(-5.0, 5.0)))
    moved = replace(cfg, x0=cfg.x0 + data.draw(moves), xhat0=cfg.xhat0 + data.draw(moves),
                    u_nominal=lambda t, xhat: u_d)
    assert run_simulation(moved).theta_norms.tobytes() == run_simulation(cfg).theta_norms.tobytes()


def test_non_finite_column_is_run_error():
    # the baseline row does not read M(t), so an error bound that overflows
    # left the state finite and wrote -inf into h0 and inf into M
    cfg = make_preset("example1a").cfg
    observer = replace(cfg.observer, bound=ErrorBoundModel.exponential(2.0, -800.0))
    with pytest.raises(RunError, match=r"^column h0 became non-finite at t=0\.89$") as exc:
        run_simulation(replace(cfg, observer=observer, controller="baseline", t_end=1.0, dt=0.01))
    assert exc.value.last_sample["t"] == pytest.approx(0.89)
    assert np.all(np.isfinite(exc.value.last_sample["x"]))


def test_cubic_observer_divergence_is_run_error():
    # at dt = 0.1 RK4 diverges on example2's cubic observer; e^3 beyond the
    # float range must become inf and end the run in RunError, not raise
    # OverflowError from the observer
    cfg = replace(make_preset("example2").cfg, dt=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RunError) as exc:
            run_simulation(cfg)
    assert exc.value.last_sample["t"] == pytest.approx(7.5)


def test_run_error_survives_pickling():
    # the CLI's baseline worker pipes its RunError back pickled
    err = RunError("state became non-finite at t=0.25", {"t": 0.25, "x": np.arange(3.0)})
    back = pickle.loads(pickle.dumps(err, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(back) is RunError and str(back) == str(err)
    assert back.last_sample["t"] == 0.25 and back.last_sample["x"].tolist() == [0.0, 1.0, 2.0]


# sha256 of emit_csv for runs off the preset defaults: omega = 0.7, E = 0.3,
# a nonzero theta_hat0, "hold" and a shortened last step (t_end = 2.3004).
# Pins the basis frequencies k omega, the series and leak terms of the
# adaptive law, the stage-time handling and the final step.
ADAPTIVE_PATH_SHA256 = {
    ("example1a", "proposed"): "c282ec7ea67c3c84060533e0e7ef18897f271915d1ab442702d9b6bb6faf6a7b",
    ("example1a", "baseline"): "2a4af3d9df6826569cfc5d7e9836c1dc6350d980150c8c84b67d47a31f68df87",
    ("example2", "proposed"): "83d8ccfe60996b94c9678e17fde68f8f79b9f73e69c5da3d6f3f0ede9f473346",
    ("example2", "baseline"): "7c37a803f023c2724aea942fc100cb32d1d8ac061836b46e90a407e1d59cf2fa",
}
THETA0_OFF_DEFAULT = np.array([[0.05, -0.02, 0.01], [0.0, 0.03, -0.04], [-0.01, 0.02, 0.06]])


@pytest.mark.parametrize("name", ["example1a", "example2"])
def test_adaptive_path_off_preset_defaults_pinned(name):
    cfg = make_preset(name).cfg
    cfg = replace(
        cfg,
        adaptive0=AdaptiveState(theta_hat=THETA0_OFF_DEFAULT, theta_bar=cfg.adaptive0.theta_bar,
                                epsilon=cfg.adaptive0.epsilon, mu=cfg.adaptive0.mu,
                                omega=0.7, E=0.3),
        on_infeasible="hold", t_end=2.3004, dt=1e-3,
    )
    runs = dict(zip(("proposed", "baseline"), run_pair(cfg)))
    assert runs["proposed"].t[-1] == 2.3004 and len(runs["proposed"]) == 2302
    for controller, trace in runs.items():
        digest = hashlib.sha256(emit_csv(trace).encode()).hexdigest()
        assert digest == ADAPTIVE_PATH_SHA256[(name, controller)], controller


@pytest.mark.parametrize("controller", ["proposed", "baseline"])
def test_runs_share_no_memory_with_each_other(controller):
    # every run allocates its own state, stage and work buffers, and its
    # trace holds copies: a second run leaves the first trace as it was
    cfg = replace(make_preset("example2").cfg, t_end=0.05, controller=controller)
    first = run_simulation(cfg)
    first_csv = emit_csv(first)
    second = run_simulation(cfg)
    for field in dataclasses.fields(first):
        a, b = getattr(first, field.name), getattr(second, field.name)
        assert not np.shares_memory(a, b), field.name
    assert emit_csv(first) == first_csv == emit_csv(second)


@pytest.mark.parametrize("controller", ["proposed", "baseline"])
def test_output_map_returning_a_view_of_the_state_gives_the_same_bytes(controller):
    # y = x[:1] is a view into the stage state the loop reuses; the observer
    # reads it at once, so the run matches the preset's copying output map
    cfg = replace(make_preset("example2").cfg, t_end=0.2, controller=controller)
    view = replace(cfg, system=replace(cfg.system, output_map=lambda x: x[:1]))
    assert emit_csv(run_simulation(view)) == emit_csv(run_simulation(cfg))
