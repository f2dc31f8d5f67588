"""Closed-loop simulation of the safety-filtered system.

One augmented ODE carries the plant state x, the observer state xhat, and
the N stacked parameter estimates. The control is recomputed once per RK4
step (zero-order hold) by solving the halfspace QP on the barrier row, so
the run is a sampled-data approximation of the continuous statement; the
adaptive law integrates continuously inside the step.

A controller is one CONTROLLERS entry: a row function over the loop's
per-step values, and whether it adapts the estimates. A run that adapts
carries the estimates in its state; one that does not integrates (x, xhat)
alone and hands the row the estimates it started with.
"proposed" adapts and assembles the observer-aware constraint (deflated
barrier, series correction, margin terms). "baseline" uses the zeroing-CBF
row grad_h . g u + grad_h . f + gamma h at the estimate, as if xhat were x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .barrier import BarrierChain, ConstraintCoeffs, constraint_rdr, epsilon_bound_rdr
from .dynamics import ControlAffineSystem, check_finite, check_shape
from .fat import AdaptiveState
from .integrator import OdeProblem, rk4_step, time_grid
from .observer import EeqObserver
from .qp import solve_halfspace_qp

# Names bound only because bench/tracer.py rebinds them; the loop calls none.
eval_drift = eval_input_matrix = eval_output = adaptive_rhs = None
constraint_rd1, epsilon_bound_rd1 = constraint_rdr, epsilon_bound_rdr

Vector = np.ndarray

INFEASIBLE_MODES = ("nominal", "hold")
MAX_STEPS = 10**7  # largest t_end / dt a run may allocate traces for
# Steps per table of basis rows and law coefficients: larger tables save no
# time and hold more memory
_TABLE_BLOCK = 64


class RunError(RuntimeError):
    """Integration blow-up. Carries the last valid sample as a dict."""

    def __init__(self, message: str, last_sample: dict):
        super().__init__(message)
        self.last_sample = last_sample

    def __reduce__(self):
        # args holds only the message; pickle must carry the sample too
        return type(self), (str(self), self.last_sample)


@dataclass(frozen=True)
class SimConfig:
    """One closed-loop run. Construction is the validation boundary: it
    checks the scalars, caps t_end / dt at MAX_STEPS, keeps every basis
    argument k omega t finite on [0, t_end] and checks every callable's
    return once at the initial data, so that the loop uses them unchecked
    and unconverted. The epsilon bound there is derived once, on first use.
    A callable must not keep the arrays it is passed: the loop reuses its
    state and stage buffers every step.
    """

    system: ControlAffineSystem
    observer: EeqObserver
    barrier: BarrierChain
    adaptive0: AdaptiveState
    x0: Vector
    xhat0: Vector
    u_nominal: Callable[[float, Vector], Vector]
    t_end: float = 10.0
    dt: float = 1e-3
    controller: str = "proposed"
    baseline_gamma: float = 1.0
    on_infeasible: str = "nominal"  # or "hold": keep the last feasible u

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")
        check_finite(dt=self.dt, t_end=self.t_end, baseline_gamma=self.baseline_gamma)
        if not isinstance(self.controller, str) or self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {tuple(CONTROLLERS)}")
        if self.on_infeasible not in INFEASIBLE_MODES:
            raise ValueError("on_infeasible must be 'nominal' or 'hold'")
        if not self.baseline_gamma > 0:
            raise ValueError("baseline_gamma must be > 0")
        steps = self.t_end / self.dt
        if steps > MAX_STEPS:
            raise ValueError(f"t_end / dt asks for {steps:.6g} steps; at most {MAX_STEPS} are allowed")
        top_frequency = self.adaptive0.terms[-1][1]
        if not math.isfinite(top_frequency * max(self.t_end, 1.0)):
            if math.isfinite(top_frequency):
                raise ValueError(f"t_end {self.t_end:g} is too large for omega {self.adaptive0.omega:g}: "
                                 "the top basis frequency times t_end overflows")
            raise ValueError(
                f"omega {self.adaptive0.omega:g} is too large: the top basis frequency "
                "or its product with t_end overflows")
        x0 = np.asarray(self.x0, dtype=float)
        xhat0 = np.asarray(self.xhat0, dtype=float)
        n = self.system.n
        if x0.shape != (n,) or xhat0.shape != (n,):
            raise ValueError(f"x0 and xhat0 must have shape ({n},)")
        if not (np.isfinite(x0).all() and np.isfinite(xhat0).all()):
            raise ValueError("x0 and xhat0 must be finite")
        if self.adaptive0.theta_hat.shape[1] != n:
            raise ValueError(f"adaptive0.theta_hat must have {n} columns")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xhat0", xhat0)
        # only shapes are checked here; a value that overflows is the run's
        # to report, as one RunError
        with np.errstate(all="ignore"):
            self._check_callables()

    def _check_callables(self) -> None:
        """ValueError unless f, g, l, u_nominal, the observer rhs and every
        grad_s_k return float64 arrays of their shapes, and every s_k a scalar."""
        sys_, x0, xhat0 = self.system, self.x0, self.xhat0
        n = sys_.n
        check_shape("drift", sys_.drift(x0), (n,))
        check_shape("input map", sys_.input_map(x0), (n, sys_.m))
        y0 = check_shape("output map", sys_.output_map(x0), (sys_.k,))
        u0 = check_shape("u_nominal", self.u_nominal(0.0, xhat0), (sys_.m,))
        check_shape("observer rhs", self.observer.rhs(xhat0, y0, u0, 0.0), (n,))
        for k, (s, grad_s) in enumerate(zip(self.barrier.s, self.barrier.grad_s)):
            check_shape(f"s_{k}", np.asarray(s(xhat0), dtype=float), ())
            check_shape(f"grad_s_{k}", grad_s(xhat0), (n,))

    @cached_property
    def epsilon_bound(self) -> float:
        """Largest epsilon the initial data admit, epsilon_bound_rdr at xhat0;
        non-positive when none is admissible."""
        with np.errstate(all="ignore"):  # an overflowing level is the run's to report
            return epsilon_bound_rdr(self.barrier, self.xhat0, self.observer.bound, self.adaptive0)

    @property
    def epsilon_ok(self) -> bool:
        """Whether the configured epsilon lies in (0, epsilon_bound]."""
        return self.epsilon_bound > 0 and self.adaptive0.epsilon <= self.epsilon_bound


@dataclass(frozen=True)
class SimTrace:
    """Column-oriented record of one run; one row per accepted step.
    run_simulation's columns are views into its row blocks, not copies."""

    t: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    u: np.ndarray
    h_true: np.ndarray
    h0: np.ndarray
    barrier_eps: np.ndarray
    residual: np.ndarray
    M: np.ndarray
    theta_norms: np.ndarray
    qp_active: np.ndarray
    qp_feasible: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[0]

    def columns(self) -> dict[str, np.ndarray]:
        """Named scalar columns in trace-format order."""
        cols: dict[str, np.ndarray] = {"t": self.t}
        for j in range(self.x.shape[1]):
            cols[f"x{j + 1}"] = self.x[:, j]
        for j in range(self.xhat.shape[1]):
            cols[f"xhat{j + 1}"] = self.xhat[:, j]
        for j in range(self.u.shape[1]):
            cols[f"u{j + 1}"] = self.u[:, j]
        cols["h_true"] = self.h_true
        cols["h0"] = self.h0
        cols["barrier_eps"] = self.barrier_eps
        cols["residual"] = self.residual
        cols["M"] = self.M
        for j in range(self.theta_norms.shape[1]):
            cols[f"theta_norm_{j + 1}"] = self.theta_norms[:, j]
        cols["qp_active"] = self.qp_active
        cols["qp_feasible"] = self.qp_feasible
        return cols


@dataclass(frozen=True)
class SafetyReport:
    min_h_true: float
    min_h0: float
    first_violation_t: Optional[float]
    bound_violations: int
    infeasible_steps: int
    epsilon_bound: float
    epsilon_used: float
    epsilon_ok: bool


def compute_epsilon_bound(cfg: SimConfig) -> float:
    """cfg.epsilon_bound; kept only because bench/child.py calls it."""
    return cfg.epsilon_bound


def _proposed_row(cfg: SimConfig, xhat: Vector, h_hat: float, h_eps: float,
                  theta: np.ndarray, t: float, phis: Optional[Vector]) -> ConstraintCoeffs:
    """The observer-aware row on the top chain level: constraint_rdr."""
    dM = float(cfg.observer.bound.derivative(t))
    return constraint_rdr(cfg.barrier, cfg.system, xhat, h_eps, cfg.adaptive0, theta, dM, phis)


def _baseline_row(cfg: SimConfig, xhat: Vector, h_hat: float, h_eps: float,
                  theta: np.ndarray, t: float, phis: Optional[Vector]) -> ConstraintCoeffs:
    """The zeroing-CBF row on h at the estimate: grad_h . g u + grad_h . f + gamma h."""
    g = cfg.barrier.grad_s[0](xhat)
    return ConstraintCoeffs(g.dot(cfg.system.input_map(xhat)),
                            float(g.dot(cfg.system.drift(xhat))) + cfg.baseline_gamma * h_hat)


# name -> (row function, adapts theta_hat); phis is the basis row, None if not adapting
CONTROLLERS = {"proposed": (_proposed_row, True), "baseline": (_baseline_row, False)}


def run_simulation(cfg: SimConfig) -> SimTrace:
    """Integrate one closed-loop run and return its trace.

    Raises RunError (carrying the last valid sample) if the state, the
    constraint row or any recorded column leaves the finite range. Its
    specification is tests/reference_loop.py: the same trace or RunError, bit for bit.
    """
    sys_ = cfg.system
    drift, input_map, output_map = sys_.drift, sys_.input_map, sys_.output_map
    obs_rhs = cfg.observer.rhs
    bound_value = cfg.observer.bound.value
    law = cfg.adaptive0
    n, m, N = sys_.n, sys_.m, law.N
    n2 = 2 * n
    chain = cfg.barrier
    top = chain.r - 1
    # Level 0 is the barrier h itself (true safety, deflated h0); the top
    # level carries the input (barrier_eps, adaptation).
    base_h, base_L = chain.s[0], chain.L_k[0]
    top_s, grad_fn, L_top = chain.s[top], chain.grad_s[top], chain.L_k[top]
    row_fn, adapts = CONTROLLERS[cfg.controller]
    times = time_grid(cfg.t_end, cfg.dt)
    S = times.shape[0]
    # Three row blocks, of which the SimTrace columns are views: (x, xhat),
    # the five float columns (h_true, h0, barrier_eps, residual, M) and the
    # two flags (qp_active, qp_feasible). The loop stores a row's floats and
    # flags one at a time through flat 'd' and 'B' memoryviews of the last
    # two, which costs less than assigning a tuple to a numpy row.
    tr_xx = np.empty((S, n2)); tr_u = np.empty((S, m))
    tr_f = np.empty((S, 5)); tr_flags = np.empty((S, 2), dtype=bool)
    # theta_hat rows, squared and reduced to norms after the loop; a run
    # that does not adapt fills them with theta_hat as it started
    tr_th = np.empty((S, N, n))

    # the basis row and the step's law coefficients, one per RK4 stage
    row, coefs = None, ()
    # z = (x, xhat, theta_hat), theta_hat flat, when the run adapts, else
    # (x, xhat): the one state buffer, which each RK4 step overwrites.
    # rk4_step hands the rhs z at stage 0 and problem.stage at stages 1-3, so
    # io[j] holds, made once, the views the rhs uses at stage j: the dx,
    # dxhat and dtheta blocks of ks[j], its derivative, and the x, xhat and
    # theta_hat blocks of its state, the last the estimates as they started
    # when the run does not adapt.
    z = np.concatenate([cfg.x0, cfg.xhat0, law.theta_hat.ravel()] if adapts else [cfg.x0, cfg.xhat0])
    dim = z.shape[0]
    ks = np.empty((4, dim))
    law_rhs = law.rhs
    leak = np.empty((N, n))  # mu theta_hat, the law's scratch

    def rhs(t: float, z: Vector, stage: int) -> Vector:
        k, dx, dxhat, dtheta, x, xhat, theta = io[stage]
        np.add(drift(x), input_map(x).dot(u), dx)
        dxhat[...] = obs_rhs(xhat, output_map(x), u, t)
        if adapts:
            law_rhs(theta, grad_fn(xhat), coefs[stage], dtheta, leak)
        return k

    problem = OdeProblem(dim=dim, rhs=rhs)
    io = [(k, k[:n], k[n:n2], k[n2:].reshape(-1, n), v[:n], v[n:n2],
           v[n2:].reshape(N, n) if adapts else law.theta_hat)
          for k, v in zip(ks, (z, problem.stage, problem.stage, problem.stage))]
    xx, (x, xhat, theta) = z[:n2], io[0][4:]
    zero_z = np.zeros_like(z)

    hold = cfg.on_infeasible == "hold"
    u_nominal = cfg.u_nominal
    eps = law.epsilon
    last_feasible_u: Optional[Vector] = None

    # A value that overflows is caught below (the state after each step, the
    # row's b, every column at the end), not warned about step by step.
    with (np.errstate(all="ignore"), memoryview(tr_f.reshape(-1)) as f_rec,
          memoryview(tr_flags.reshape(-1).view(np.uint8)) as flag_rec):
        for i in range(S):
            t = times.item(i)
            tr_xx[i] = xx  # the step's RunError sample is read from its row
            u_d = u_nominal(t, xhat)
            M = float(bound_value(t))
            # one evaluation of h and h_eps = s_{r-1} - L M - eps serves the row and the trace
            h_hat = float(base_h(xhat))
            h_eps = (h_hat if top == 0 else float(top_s(xhat))) - L_top * M - eps
            if adapts:
                j = i % _TABLE_BLOCK
                if j == 0:
                    table = _basis_block(law, times[i:i + _TABLE_BLOCK + 1])
                row, coefs = table[j]
                tr_th[i] = theta
            coeffs = row_fn(cfg, xhat, h_hat, h_eps, theta, t, row)
            if not math.isfinite(coeffs.b):
                tr_u[i] = u_d  # what u_nominal returned; no filter acted on it
                raise RunError(f"constraint row became non-finite at t={t:.6g}",
                               _sample(times, tr_xx, tr_u, i, n))
            # res.u is a new array, on an infeasible row a copy of u_d; u is
            # the control the rhs holds over the step
            res = solve_halfspace_qp(u_d, coeffs)
            u = res.u
            if res.feasible:
                last_feasible_u = u
            elif hold and last_feasible_u is not None:
                u = last_feasible_u

            tr_u[i] = u
            j = 5 * i
            f_rec[j] = base_h(x); f_rec[j + 1] = h_hat - base_L * M; f_rec[j + 2] = h_eps
            f_rec[j + 3] = coeffs.residual(u); f_rec[j + 4] = M
            j = 2 * i
            flag_rec[j] = res.active; flag_rec[j + 1] = res.feasible

            if i == S - 1:
                break
            rk4_step(problem, t, z, times.item(i + 1) - t, z)
            # 0 * v is +-0 for every finite v and NaN for +-inf or NaN, so the
            # dot is finite exactly when every entry of z is
            if not math.isfinite(z.dot(zero_z)):
                raise RunError(f"state became non-finite during the step starting at t={t:.6g}",
                               _sample(times, tr_xx, tr_u, i, n))

        if not adapts:
            tr_th[...] = law.theta_hat
        # each row's 2-norm by numpy's own norm formula, without its dispatch:
        # the same bits; an overflow is reported below as a non-finite column
        np.multiply(tr_th, tr_th, out=tr_th)
        tr_th = np.sqrt(np.add.reduce(tr_th, axis=2))
    trace = SimTrace(
        t=times, x=tr_xx[:, :n], xhat=tr_xx[:, n:], u=tr_u, h_true=tr_f[:, 0],
        h0=tr_f[:, 1], barrier_eps=tr_f[:, 2], residual=tr_f[:, 3], M=tr_f[:, 4],
        theta_norms=tr_th, qp_active=tr_flags[:, 0], qp_feasible=tr_flags[:, 1],
    )
    bad_row, bad_name = S, None
    for name, col in trace.columns().items():
        finite = np.isfinite(col)
        if not finite.all() and finite.argmin() < bad_row:
            bad_row, bad_name = int(finite.argmin()), name
    if bad_name is not None:
        t = times.item(bad_row)
        raise RunError(f"column {bad_name} became non-finite at t={t:.6g}",
                       _sample(times, tr_xx, tr_u, bad_row, n))
    return trace


def _basis_block(law: AdaptiveState, ts: np.ndarray) -> list:
    """One entry per grid time in ts (a float64 slice of the time grid): its
    basis row and the law's coefficients at the four RK4 stage times of the
    step it starts, (c(t), c(mid), c(mid), c(t_next)), with the midpoint
    t + 0.5 (t_next - t) formed elementwise as rk4_step forms it; () for the
    last time. Stage 4 runs at t + (t_next - t), which is t_next exactly on
    a time_grid."""
    mids = ts[:-1] + 0.5 * (ts[1:] - ts[:-1])
    rows = law.basis_rows(np.concatenate((ts, mids)))
    c = law.coefficient(rows)
    k = len(ts)
    return list(zip(rows[:k], [(c[j], c[k + j], c[k + j], c[j + 1]) for j in range(k - 1)] + [()]))


def _sample(times: np.ndarray, tr_xx: np.ndarray, tr_u: np.ndarray, i: int, n: int) -> dict:
    """A RunError's sample: t, x, xhat and u of trace row i, copied."""
    return {"t": times.item(i), "x": tr_xx[i, :n].copy(), "xhat": tr_xx[i, n:].copy(), "u": tr_u[i].copy()}


def safety_report(trace: SimTrace, cfg: SimConfig) -> SafetyReport:
    """Aggregate minima, violations, and the epsilon feasibility verdict."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    viol = np.flatnonzero(trace.h_true < 0)
    with np.errstate(over="ignore"):  # an error norm of inf still counts as > M
        err_norm = np.linalg.norm(trace.xhat - trace.x, axis=1)
    return SafetyReport(
        min_h_true=float(trace.h_true.min()),
        min_h0=float(trace.h0.min()),
        first_violation_t=float(trace.t[viol[0]]) if viol.size else None,
        bound_violations=int(np.count_nonzero(err_norm > trace.M)),
        infeasible_steps=int(np.count_nonzero(~trace.qp_feasible)),
        epsilon_bound=float(cfg.epsilon_bound),
        epsilon_used=float(cfg.adaptive0.epsilon),
        epsilon_ok=cfg.epsilon_ok,
    )


def run_pair(cfg: SimConfig) -> tuple[SimTrace, SimTrace]:
    """Run the proposed and baseline controllers on identical data."""
    proposed = run_simulation(replace(cfg, controller="proposed"))
    baseline = run_simulation(replace(cfg, controller="baseline"))
    return proposed, baseline
