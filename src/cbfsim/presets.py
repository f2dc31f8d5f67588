"""Built-in experiment presets.

Four ready-to-run closed-loop scenarios, fully parameterized:

* example1a: linear 3-state plant, Luenberger observer, relative-degree-1
  barrier x2 >= 1. The filter must hold the true state safe while only
  seeing an estimate whose error bound grows (lam < 0).
* example1b: same plant, barrier x1 >= 1 lifted through a degree-2 chain,
  one level short of the barrier's relative degree 3 on purpose. The top
  chain level s1 has grad_s1 . B = 0 everywhere, so the assembled row
  never depends on u; the run demonstrates the infeasibility reporting
  rather than successful filtering (see the epsilon bound warning).
* example1c: example1b with the chain lifted to the barrier's relative
  degree (r = 3, grad_s2 . B = 2), the working higher-relative-degree
  case. Its initial data are example1b's, so the epsilon bound is still
  negative and the warning still fires, yet the filter holds x1 >= 1.
* example2: Rossler chaotic plant, nonlinear observer with cubic
  innovation terms, barrier x2 >= -1.

The nominal control in every preset is a constant push that drives the
barrier downward, so the filter's intervention (and the baseline's
failure) is visible in the traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import BarrierChain
from .dynamics import EXAMPLE1_A, make_example1_system, make_rossler_system
from .fat import AdaptiveState
from .observer import ErrorBoundModel, make_luenberger, make_rossler_observer
from .simloop import SimConfig

# Output-injection gain for the linear plant. Sign chosen so that
# A - gain C is Hurwitz (eigenvalues -2.146 +/- 1.057i, -0.747); the
# estimation error then decays and stays inside the exponential bound.
LUENBERGER_GAIN = np.array([[2.23029], [-0.190287], [-0.232326]])

ROSSLER_PARAMS = (0.2, 0.2, 5.0)
ROSSLER_GAINS = dict(q1=3.0, s1=-3.0, r1=3.0, q2=10.0, s2=10.0, r2=10.0, m_exp=3)


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    cfg: SimConfig


def _scenario(system, observer, barrier, mu, x0, xhat0, u_d) -> SimConfig:
    """The run every preset shares: zero initial estimates theta_hat0 (3 x 3),
    theta_bar = 0.5, epsilon = E = 0.1 and the constant nominal input u_d."""
    u_d = np.array(u_d, dtype=float)
    adaptive0 = AdaptiveState(theta_hat=np.zeros((3, 3)), theta_bar=np.full(3, 0.5),
                              epsilon=0.1, mu=mu, E=0.1)
    return SimConfig(system=system, observer=observer, barrier=barrier, adaptive0=adaptive0,
                     x0=x0, xhat0=xhat0, u_nominal=lambda t, xhat: u_d)


def _example1(barrier: BarrierChain, mu: float, x0, xhat0) -> SimConfig:
    """The linear plant, observed through its own model by the Luenberger gain."""
    system = make_example1_system()
    bound = ErrorBoundModel.exponential(D=2.0, lam=-0.05)
    observer = make_luenberger(system, LUENBERGER_GAIN, bound)
    return _scenario(system, observer, barrier, mu, x0, xhat0, u_d=[-2.0])


def _example1_lifted(r: int) -> SimConfig:
    """example1b (r = 2) and example1c (r = 3): x1 >= 1 through r chain levels."""
    barrier = BarrierChain.affine((1.0, 0.0, 0.0), -1.0, (2.0,) * (r - 1), EXAMPLE1_A)
    return _example1(barrier, mu=10.0, x0=[2.4, -3.0, -3.0], xhat0=[3.4, -2.0, -2.0])


def _example2() -> SimConfig:
    system = make_rossler_system(*ROSSLER_PARAMS)
    bound = ErrorBoundModel.exponential(D=2.0, lam=-0.15)
    observer = make_rossler_observer(**ROSSLER_GAINS, params=ROSSLER_PARAMS, bound=bound)
    barrier = BarrierChain.affine((0.0, 1.0, 0.0), 1.0)
    return _scenario(system, observer, barrier, mu=2.5, x0=[-0.5, 0.5, 3.0],
                     xhat0=[0.2, 2.0, 3.0], u_d=[-2.0, -2.0, -2.0])


# name -> builder of its SimConfig
_PRESETS = {
    "example1a": lambda: _example1(
        BarrierChain.affine((0.0, 1.0, 0.0), -1.0),
        mu=3.5, x0=[2.0, 2.2, 2.0], xhat0=[3.0, 3.5, 3.0]),
    "example1b": lambda: _example1_lifted(2),
    "example1c": lambda: _example1_lifted(3),
    "example2": _example2,
}
PRESET_NAMES = tuple(_PRESETS)


def make_preset(name: str) -> ExperimentPreset:
    """Build one of the named presets; raises ValueError on unknown names."""
    if name not in PRESET_NAMES:  # a tuple, so an unhashable name is unknown, not a TypeError
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return ExperimentPreset(name=name, cfg=_PRESETS[name]())
