"""Fixed-step classical Runge-Kutta integration.

Deliberately not adaptive: reproducible traces matter more than efficiency
for the small dense systems this package targets. Controls embedded in the
rhs are expected to be sample-and-hold within a step; the caller recomputes
them between steps and checks the new state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Vector = np.ndarray


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
    A non-finite rhs value gives a non-finite state, returned as is.
    """
    rhs = problem.rhs
    half = 0.5 * dt
    t_mid = t + half
    k1 = rhs(t, state)
    k2 = rhs(t_mid, state + half * k1)
    k3 = rhs(t_mid, state + half * k2)
    k4 = rhs(t + dt, state + dt * k3)
    # k + k equals 2.0 * k exactly and skips a multiplication
    return state + (dt / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Step boundaries 0, dt, 2 dt, ..., ending exactly at t_end.

    The final step is shortened when t_end is not a whole multiple of dt;
    once a whole step fits, a remainder below dt*1e-9 is treated as zero so
    floating-point division noise never emits a degenerate step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end < 0.0:
        raise ValueError("t_end must be >= 0")
    n_whole = int(np.floor(t_end / dt + 1e-9))
    times = dt * np.arange(n_whole + 1)
    if t_end - n_whole * dt > (dt * 1e-9 if n_whole else 0.0):
        times = np.append(times, t_end)
    times[-1] = t_end  # force exact endpoint
    times[0] = 0.0  # even when t_end is -0.0
    return times
