"""Fixed-step classical Runge-Kutta integration.

Deliberately not adaptive: reproducible traces matter more than efficiency
for the small dense systems this package targets. Controls embedded in the
rhs are expected to be sample-and-hold within a step; the caller recomputes
them between steps and checks the new state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


@dataclass(frozen=True)
class OdeProblem:
    """An ODE z' = rhs(t, z, stage) on float arrays of length dim.

    rk4_step calls rhs once per stage, stage = 0, 1, 2, 3: z is the step's
    state itself at stage 0 and the problem's `stage` buffer itself at
    stages 1-3, so rhs may read z through views of those two arrays made
    once. rhs returns the derivative at (t, z), typically written into an
    array it keeps for that stage; the step may read each of the four until
    it ends, so rhs needs a separate array per stage. rhs must not return z
    or a view of it, nor rely on z's values once it returns: the step
    overwrites `stage` between stages.
    """

    dim: int
    rhs: Callable[[float, Vector, int], Vector]
    # the stage state rk4_step hands rhs at stages 1-3, sized from dim
    stage: Vector = field(init=False, repr=False, compare=False)
    # rk4_step's other work buffers: the weighted sum of the stage
    # derivatives and the step's three multipliers dt/2, dt and dt/6 (a
    # ufunc takes a 0-d array faster than a float)
    _acc: Vector = field(init=False, repr=False, compare=False)
    _scales: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        object.__setattr__(self, "stage", np.empty(self.dim))
        object.__setattr__(self, "_acc", np.empty(self.dim))
        object.__setattr__(self, "_scales", (np.empty(()), np.empty(()), np.empty(())))


def rk4_step(problem: OdeProblem, t: float, state: Vector, dt: float,
             out: Optional[Vector] = None) -> Vector:
    """One classical 4-stage step from (t, state) with step size dt > 0:
    state + (dt/6) (k1 + (k2 + k2) + (k3 + k3) + k4), written into out (a
    new array when out is None) and returned.

    state, out and every rhs value are float arrays of length dim. state is
    not written unless it is out. The calls are rhs(t, state, 0),
    rhs(t + dt/2, problem.stage, 1), rhs(t + dt/2, problem.stage, 2) and
    rhs(t + dt, problem.stage, 3), in that order. The stage states and the
    weighted sum live in the problem's work buffers, so a problem takes one
    step at a time. A non-finite rhs value gives a non-finite state,
    returned as is.
    """
    rhs, stage, acc = problem.rhs, problem.stage, problem._acc
    half, whole, sixth = problem._scales
    half.fill(0.5 * dt)
    whole.fill(dt)
    sixth.fill(dt / 6.0)
    t_mid = t + 0.5 * dt
    k1 = rhs(t, state, 0)
    np.add(state, np.multiply(half, k1, stage), stage)
    k2 = rhs(t_mid, stage, 1)
    np.add(k1, np.add(k2, k2, acc), acc)  # k + k equals 2.0 * k exactly and skips a multiplication
    np.add(state, np.multiply(half, k2, stage), stage)
    k3 = rhs(t_mid, stage, 2)
    np.add(state, np.multiply(whole, k3, stage), stage)
    k4 = rhs(t + dt, stage, 3)
    np.add(acc, np.add(k3, k3, stage), acc)
    np.add(acc, k4, acc)
    return np.add(state, np.multiply(sixth, acc, acc), out)


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
