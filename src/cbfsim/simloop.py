"""Closed-loop simulation of the safety-filtered system.

One augmented ODE carries the plant state x, the observer state xhat, and
the N stacked parameter estimates. The control is recomputed once per RK4
step (zero-order hold) by solving the halfspace QP on the barrier row, so
the run is a sampled-data approximation of the continuous statement; the
adaptive law integrates continuously inside the step.

A controller is one CONTROLLERS entry: a row function over the loop's
per-step values, and whether it adapts the estimates. Every run carries
the estimates; one that does not adapt leaves them as they started.
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
from .dynamics import ControlAffineSystem, check_shape
from .fat import AdaptiveState
from .integrator import OdeProblem, rk4_step, time_grid
from .observer import EeqObserver
from .qp import solve_halfspace_qp

# Names kept only because bench/tracer.py rebinds them; the loop calls none.
from .dynamics import eval_drift, eval_input_matrix, eval_output  # noqa: F401
from .fat import adaptive_rhs  # noqa: F401
constraint_rd1, epsilon_bound_rd1 = constraint_rdr, epsilon_bound_rdr

Vector = np.ndarray

INFEASIBLE_MODES = ("nominal", "hold")
MAX_STEPS = 10**7  # largest t_end / dt a run may allocate traces for


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
    argument k omega t finite on [0, t_end] and evaluates every callable
    once at the initial data, so that the loop calls them unchecked. The
    epsilon bound at the initial data is derived once, on first use.
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
        if not math.isfinite(self.dt):
            raise ValueError("dt must be finite")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if self.controller not in CONTROLLERS:
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
        s_k and grad_s_k return the shapes the loop relies on."""
        sys_, x0, xhat0 = self.system, self.x0, self.xhat0
        n = sys_.n
        check_shape("drift", sys_.drift(x0), (n,))
        check_shape("input map", sys_.input_map(x0), (n, sys_.m))
        y0 = check_shape("output map", sys_.output_map(x0), (sys_.k,))
        u0 = check_shape("u_nominal", self.u_nominal(0.0, xhat0), (sys_.m,))
        check_shape("observer rhs", self.observer.rhs(xhat0, y0, u0, 0.0), (n,))
        for k, (s, grad_s) in enumerate(zip(self.barrier.s, self.barrier.grad_s)):
            check_shape(f"s_{k}", s(xhat0), ())
            check_shape(f"grad_s_{k}", grad_s(xhat0), (n,))

    @cached_property
    def epsilon_bound(self) -> float:
        """Largest epsilon the initial data admit, epsilon_bound_rdr at xhat0;
        non-positive when none is admissible."""
        return epsilon_bound_rdr(self.barrier, self.xhat0, self.observer.bound, self.adaptive0)

    @property
    def epsilon_ok(self) -> bool:
        """Whether the configured epsilon lies in (0, epsilon_bound]."""
        return self.epsilon_bound > 0 and self.adaptive0.epsilon <= self.epsilon_bound + 1e-12


@dataclass(frozen=True)
class SimTrace:
    """Column-oriented record of one run; one row per accepted step."""

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


def _proposed_row(cfg: SimConfig, xhat: Vector, h_hat: float, s_top: float,
                  theta: np.ndarray, M: float, t: float, phis: Optional[Vector]) -> ConstraintCoeffs:
    """The observer-aware row on the top chain level: constraint_rdr."""
    dM = float(cfg.observer.bound.derivative(t))
    return constraint_rdr(cfg.barrier, cfg.system, xhat, s_top, cfg.adaptive0, theta, M, dM, phis)


def _baseline_row(cfg: SimConfig, xhat: Vector, h_hat: float, s_top: float,
                  theta: np.ndarray, M: float, t: float, phis: Optional[Vector]) -> ConstraintCoeffs:
    """The zeroing-CBF row on h at the estimate: grad_h . g u + grad_h . f + gamma h."""
    g = cfg.barrier.grad_s[0](xhat)
    return ConstraintCoeffs(a=np.dot(g, cfg.system.input_map(xhat)),
                            b=float(np.dot(g, cfg.system.drift(xhat)) + cfg.baseline_gamma * h_hat))


# name -> (row function, adapts theta_hat); phis is the basis row, None if not adapting
CONTROLLERS = {"proposed": (_proposed_row, True), "baseline": (_baseline_row, False)}


def run_simulation(cfg: SimConfig) -> SimTrace:
    """Integrate one closed-loop run and return its trace.

    Raises RunError (carrying the last valid sample) if the state, the
    constraint row or any recorded column leaves the finite range.
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
    tr_x = np.empty((S, n)); tr_xhat = np.empty((S, n)); tr_u = np.empty((S, m))
    tr_h = np.empty(S); tr_h0 = np.empty(S); tr_eps = np.empty(S)
    tr_res = np.empty(S); tr_M = np.empty(S); tr_th = np.empty((S, N))
    tr_act = np.empty(S, dtype=bool); tr_feas = np.empty(S, dtype=bool)
    tr_th[:] = np.linalg.norm(law.theta_hat, axis=1)  # overwritten per row while adapting

    u_current = np.zeros(m)  # held control, rebound each step
    # z = (x, xhat, theta_hat). The basis row is reused while the stage time
    # repeats: the loop's row at t serves RK4 stage 1, and stages 2 and 3
    # share t + dt/2.
    law_rhs, law_row = law.rhs, law.basis_row
    row_t, row = None, None
    z = np.concatenate([cfg.x0, cfg.xhat0, law.theta_hat.ravel()])
    # rhs values start as copies of zeros (cheaper than empty_like): theta_hat's
    # rate stays 0 unless the controller adapts, and RK4 carries it exactly
    zeros = np.zeros_like(z)

    def rhs(t: float, z: Vector) -> Vector:
        nonlocal row_t, row
        x = z[:n]
        xhat = z[n:n2]
        dz = zeros.copy()
        dz[:n] = drift(x) + np.dot(input_map(x), u_current)
        dz[n:n2] = obs_rhs(xhat, output_map(x), u_current, t)
        if adapts:
            if t != row_t:
                row_t, row = t, law_row(t)
            dz[n2:] = law_rhs(z[n2:].reshape(N, n), grad_fn(xhat), row).ravel()
        return dz

    problem = OdeProblem(dim=z.shape[0], rhs=rhs)
    hold = cfg.on_infeasible == "hold"
    u_nominal = cfg.u_nominal
    eps = law.epsilon
    last_feasible_u: Optional[Vector] = None

    # A value that overflows is caught below (the state after each step, the
    # row's b, every column at the end), not warned about step by step.
    with np.errstate(all="ignore"):
        for i in range(S):
            t = times.item(i)
            x = z[:n]
            xhat = z[n:n2]
            u_d = np.asarray(u_nominal(t, xhat), dtype=float)
            M = float(bound_value(t))
            # one evaluation of h and s_{r-1} at xhat serves the row and the trace
            h_hat = float(base_h(xhat))
            s_top = h_hat if top == 0 else float(top_s(xhat))
            theta = z[n2:].reshape(N, n)
            if adapts:
                if t != row_t:
                    row_t, row = t, law_row(t)
                # np.linalg.norm(theta, axis=1) without its dispatch, same bits
                tr_th[i] = np.sqrt(np.add.reduce(theta * theta, axis=1))
            coeffs = row_fn(cfg, xhat, h_hat, s_top, theta, M, t, row)
            if not math.isfinite(coeffs.b):
                raise RunError(f"constraint row became non-finite at t={t:.6g}",
                               _sample_dict(t, x, xhat, u_current))
            res = solve_halfspace_qp(u_d, coeffs)
            if res.feasible:
                u = res.u
                last_feasible_u = u
            elif hold and last_feasible_u is not None:
                u = last_feasible_u
            else:
                u = u_d
            u_current = u

            tr_x[i] = x; tr_xhat[i] = xhat; tr_u[i] = u
            tr_h[i] = base_h(x)
            tr_h0[i] = h_hat - base_L * M
            tr_eps[i] = s_top - L_top * M - eps
            tr_res[i] = coeffs.residual(u)
            tr_M[i] = M
            tr_act[i] = res.active
            tr_feas[i] = res.feasible

            if i == S - 1:
                break
            z = rk4_step(problem, t, z, times.item(i + 1) - t)
            if not np.isfinite(z).all():
                raise RunError(f"state became non-finite during the step starting at t={t:.6g}",
                               _sample_dict(t, x, xhat, u))

    trace = SimTrace(
        t=times, x=tr_x, xhat=tr_xhat, u=tr_u, h_true=tr_h,
        h0=tr_h0, barrier_eps=tr_eps, residual=tr_res, M=tr_M,
        theta_norms=tr_th, qp_active=tr_act, qp_feasible=tr_feas,
    )
    bad_row, bad_name = S, None
    for name, col in trace.columns().items():
        finite = np.isfinite(col)
        if not finite.all() and finite.argmin() < bad_row:
            bad_row, bad_name = int(finite.argmin()), name
    if bad_name is not None:
        t = times.item(bad_row)
        raise RunError(f"column {bad_name} became non-finite at t={t:.6g}",
                       _sample_dict(t, tr_x[bad_row], tr_xhat[bad_row], tr_u[bad_row]))
    return trace


def _sample_dict(t: float, x: Vector, xhat: Vector, u: Vector) -> dict:
    return {"t": t, "x": x.copy(), "xhat": xhat.copy(), "u": u.copy()}


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
