"""The closed loop written out plainly: the specification that
cbfsim.simloop.run_simulation must equal bit for bit.

reference_run shares none of the fast loop's machinery. It allocates
freely: no law tables, no OdeProblem or rk4_step, no per-stage views of
reused buffers, no row blocks and no out= arguments. Every stage state is a
new array, and the adaptive law's coefficient is evaluated afresh at each
stage time.

Run as a script, it compares the eight full-horizon preset runs column by
column and exits 1, naming each (preset, controller, column) that differs:

    PYTHONPATH=src python3 tests/reference_loop.py
"""

import math
import sys
from dataclasses import fields, replace

import numpy as np

from cbfsim import PRESET_NAMES, RunError, SimConfig, SimTrace, make_preset, run_simulation
from cbfsim.integrator import time_grid
from cbfsim.qp import solve_halfspace_qp
from cbfsim.simloop import CONTROLLERS


def rk4_reference(f, t, state, dt):
    """The allocating expression rk4_step computes in place: a new array per
    stage state and per term of the weighted sum."""
    half = 0.5 * dt
    t_mid = t + half
    k1 = f(t, state)
    k2 = f(t_mid, state + half * k1)
    k3 = f(t_mid, state + half * k2)
    k4 = f(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)


def law_rhs(law, theta, grad, t):
    """The adaptive law's (N, n) derivative at time t, allocating:
    coefficient(phi(t)) grad - mu theta, with the basis row evaluated afresh."""
    return law.coefficient(law.basis_rows([t])[0]) * grad - law.mu * theta


def reference_run(cfg: SimConfig) -> SimTrace:
    """One closed-loop run: per grid time, the row on the estimate, the QP,
    the record, then one RK4 step of (x, xhat[, theta_hat]) with u held.
    Raises RunError with run_simulation's message and last sample."""
    sys_, obs, chain, law = cfg.system, cfg.observer, cfg.barrier, cfg.adaptive0
    n, N, top = sys_.n, law.N, chain.r - 1
    row_fn, adapts = CONTROLLERS[cfg.controller]
    times = time_grid(cfg.t_end, cfg.dt).tolist()
    z = np.concatenate([cfg.x0, cfg.xhat0] + ([law.theta_hat.ravel()] if adapts else []))
    xs, xhats, us, floats, norms, flags = [], [], [], [], [], []
    held = None  # the last feasible u, applied on an infeasible row under "hold"

    def sample(i, u):
        return {"t": times[i], "x": xs[i].copy(), "xhat": xhats[i].copy(), "u": u.copy()}

    def f(t, z):  # the closed-loop field with u held over the step
        x, xhat = z[:n], z[n:2 * n]
        dz = [sys_.drift(x) + sys_.input_map(x).dot(u), obs.rhs(xhat, sys_.output_map(x), u, t)]
        if adapts:
            dz.append(law_rhs(law, z[2 * n:].reshape(N, n), chain.grad_s[top](xhat), t).ravel())
        return np.concatenate(dz)

    with np.errstate(all="ignore"):
        for i, t in enumerate(times):
            x, xhat = z[:n].copy(), z[n:2 * n].copy()
            theta = z[2 * n:].reshape(N, n).copy() if adapts else law.theta_hat
            xs.append(x)
            xhats.append(xhat)
            u_d = cfg.u_nominal(t, xhat)
            M = float(obs.bound.value(t))
            h_hat = float(chain.s[0](xhat))
            h_eps = float(chain.s[top](xhat)) - chain.L_k[top] * M - law.epsilon
            coeffs = row_fn(cfg, xhat, h_hat, h_eps, theta, t, law.basis_rows([t])[0] if adapts else None)
            if not math.isfinite(coeffs.b):
                raise RunError(f"constraint row became non-finite at t={t:.6g}", sample(i, u_d))
            res = solve_halfspace_qp(u_d, coeffs)
            u = res.u
            if res.feasible:
                held = u
            elif cfg.on_infeasible == "hold" and held is not None:
                u = held
            us.append(u)
            floats.append((float(chain.s[0](x)), h_hat - chain.L_k[0] * M, h_eps, coeffs.residual(u), M))
            norms.append(np.linalg.norm(theta, axis=1))
            flags.append((res.active, res.feasible))
            if i == len(times) - 1:
                break
            z = rk4_reference(f, t, z, times[i + 1] - t)
            if not np.isfinite(z).all():
                raise RunError(f"state became non-finite during the step starting at t={t:.6g}",
                               sample(i, u))

    h_true, h0, barrier_eps, residual, M = (np.array(col) for col in zip(*floats))
    active, feasible = (np.array(col, dtype=bool) for col in zip(*flags))
    trace = SimTrace(t=np.array(times), x=np.array(xs), xhat=np.array(xhats), u=np.array(us),
                     h_true=h_true, h0=h0, barrier_eps=barrier_eps, residual=residual, M=M,
                     theta_norms=np.array(norms), qp_active=active, qp_feasible=feasible)
    # the earliest non-finite row of any column; on a tie, the first column
    bad = [(int(np.flatnonzero(~np.isfinite(col))[0]), name)
           for name, col in trace.columns().items() if not np.isfinite(col).all()]
    if bad:
        i, name = min(bad, key=lambda row_name: row_name[0])
        raise RunError(f"column {name} became non-finite at t={times[i]:.6g}", sample(i, us[i]))
    return trace


def differing_columns(a: SimTrace, b: SimTrace) -> list:
    """The SimTrace fields whose dtype, shape or bytes differ between a and b."""
    def key(trace, name):
        col = getattr(trace, name)
        return col.dtype, col.shape, col.tobytes()

    return [fld.name for fld in fields(SimTrace) if key(a, fld.name) != key(b, fld.name)]


def main() -> int:
    """Compare every preset's proposed and baseline full-horizon runs."""
    status = 0
    for name in PRESET_NAMES:
        for controller in CONTROLLERS:
            cfg = replace(make_preset(name).cfg, controller=controller)
            for column in differing_columns(run_simulation(cfg), reference_run(cfg)):
                print(f"{name} {controller}: column {column} differs from the reference")
                status = 1
    if status == 0:
        print(f"{len(PRESET_NAMES) * len(CONTROLLERS)} runs equal the reference bit for bit")
    return status


if __name__ == "__main__":
    sys.exit(main())
