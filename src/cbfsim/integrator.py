"""Fixed-step classical Runge-Kutta integration.

Deliberately not adaptive: reproducible traces matter more than efficiency
for the small dense systems this package targets. Controls embedded in the
rhs are expected to be sample-and-hold within a step; the caller recomputes
them between steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


class IntegrationError(RuntimeError):
    """Raised when the rhs produces a non-finite value. Carries t and state."""

    def __init__(self, message: str, t: float, state: Vector):
        super().__init__(message)
        self.t = t
        self.state = state


@dataclass(frozen=True)
class OdeProblem:
    dim: int
    rhs: Callable[[float, Vector], Vector]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")


def rk4_step(problem: OdeProblem, t: float, state: Vector, dt: float) -> Vector:
    """One classical 4-stage step from (t, state) with step size dt > 0.

    state and every rhs return value must be float arrays of length dim.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rhs = problem.rhs
    half = 0.5 * dt
    t_mid = t + half
    k1 = rhs(t, state)
    k2 = rhs(t_mid, state + half * k1)
    k3 = rhs(t_mid, state + half * k2)
    k4 = rhs(t + dt, state + dt * k3)
    # k + k equals 2.0 * k exactly and skips a multiplication
    out = state + (dt / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)
    if not np.isfinite(out).all():
        raise IntegrationError(f"non-finite rhs output near t={t!r}", t, np.asarray(state))
    return out


def time_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    """Step boundaries t0, t0+dt, ..., ending exactly at t_end.

    The final step is shortened when (t_end - t0) is not a whole multiple
    of dt; a remainder below dt*1e-9 is treated as zero so floating-point
    division noise never emits a degenerate step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end < t0:
        raise ValueError("t_end must be >= t0")
    span = t_end - t0
    n_whole = int(np.floor(span / dt + 1e-9))
    times = t0 + dt * np.arange(n_whole + 1)
    if span - n_whole * dt > dt * 1e-9:
        times = np.append(times, t_end)
    times[-1] = t_end  # force exact endpoint
    times[0] = t0
    return times


def integrate(
    problem: OdeProblem,
    t0: float,
    state0: Vector,
    t_end: float,
    dt: float,
    on_sample: Optional[Callable[[float, Vector], None]] = None,
) -> Vector:
    """Integrate from t0 to t_end, calling on_sample at every accepted step.

    on_sample fires at t0 with the initial state and after each step,
    including the shortened final step landing exactly on t_end. Returns
    the final state.
    """
    state = np.asarray(state0, dtype=float).copy()
    times = time_grid(t0, t_end, dt)
    if on_sample is not None:
        on_sample(float(times[0]), state.copy())
    for i in range(len(times) - 1):
        step = float(times[i + 1] - times[i])
        state = rk4_step(problem, float(times[i]), state, step)
        if on_sample is not None:
            on_sample(float(times[i + 1]), state.copy())
    return state
