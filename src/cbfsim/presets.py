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

import math
from dataclasses import dataclass

import numpy as np

from .barrier import BarrierChain
from .dynamics import (
    EXAMPLE1_A,
    EXAMPLE1_B,
    EXAMPLE1_C,
    make_example1_system,
    make_rossler_system,
)
from .fat import AdaptiveState
from .observer import EeqObserver, ErrorBoundModel, make_luenberger, make_rossler_observer
from .simloop import SimConfig

PRESET_NAMES = ("example1a", "example1b", "example1c", "example2")

# Output-injection gain for the linear plant. Sign chosen so that
# A - gain C is Hurwitz (eigenvalues -2.146 +/- 1.057i, -0.747); the
# estimation error then decays and stays inside the exponential bound.
LUENBERGER_GAIN = np.array([[2.23029], [-0.190287], [-0.232326]])


def _read_only(values) -> np.ndarray:
    """A float array that raises ValueError on writes, so that a constant
    gradient can hand out the same array on every call."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


# Gradient of the barriers x2 >= 1 (example1a) and x2 >= -1 (example2).
_GRAD_X2 = _read_only([0.0, 1.0, 0.0])

# Chain for the example-1 barrier x1 >= 1 on the linear plant, each level
# s_k = (d/dt + lambda_k) s_{k-1} along the drift A x with lambda_k = 2:
#   s0 = x1 - 1,
#   s1 = grad_s0 . A x + 2 s0 = x1 + 2 x2 - 2 x3 - 2,
#   s2 = grad_s1 . A x + 2 s1 = -x1 + 4 x2 - 2 x3 - 4.
# grad_s0 . B = grad_s1 . B = 0 and grad_s2 . B = 2: the barrier has relative
# degree 3, so only the full three-level chain puts u into the top row.
# L holds the exact gradient norms. The gradients are constant.
EXAMPLE1_CHAIN_S = (
    lambda x: x[0] - 1.0,
    lambda x: x[0] + 2.0 * x[1] - 2.0 * x[2] - 2.0,
    lambda x: -x[0] + 4.0 * x[1] - 2.0 * x[2] - 4.0,
)
_GRAD_S0 = _read_only([1.0, 0.0, 0.0])
_GRAD_S1 = _read_only([1.0, 2.0, -2.0])
_GRAD_S2 = _read_only([-1.0, 4.0, -2.0])
EXAMPLE1_CHAIN_GRAD = (
    lambda x: _GRAD_S0,
    lambda x: _GRAD_S1,
    lambda x: _GRAD_S2,
)
EXAMPLE1_CHAIN_L = (1.0, 3.0, math.sqrt(21.0))

ROSSLER_PARAMS = (0.2, 0.2, 5.0)
ROSSLER_GAINS = dict(q1=3.0, s1=-3.0, r1=3.0, q2=10.0, s2=10.0, r2=10.0, m_exp=3)


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    cfg: SimConfig


def _const_u(values):
    vec = np.asarray(values, dtype=float)
    return lambda t, xhat: vec


def _example1_observer(lam: float) -> EeqObserver:
    bound = ErrorBoundModel.exponential(D=2.0, lam=lam)
    return make_luenberger(EXAMPLE1_A, EXAMPLE1_B, EXAMPLE1_C, LUENBERGER_GAIN, bound)


def _adaptive0(mu: float) -> AdaptiveState:
    return AdaptiveState(
        theta_hat=np.zeros((3, 3)),
        theta_bar=np.full(3, 0.5),
        epsilon=0.1,
        mu=mu,
        E=0.1,
    )


def make_preset(name: str) -> ExperimentPreset:
    """Build one of the named presets; raises ValueError on unknown names."""
    if name == "example1a":
        obs = _example1_observer(lam=-0.05)
        barrier = BarrierChain(s=(lambda x: x[1] - 1.0,), grad_s=(lambda x: _GRAD_X2,), L_k=(1.0,))
        cfg = SimConfig(
            system=make_example1_system(),
            observer=obs,
            barrier=barrier,
            adaptive0=_adaptive0(mu=3.5),
            x0=np.array([2.0, 2.2, 2.0]),
            xhat0=np.array([3.0, 3.5, 3.0]),
            u_nominal=_const_u([-2.0]),
        )
        return ExperimentPreset(name=name, cfg=cfg)

    if name in ("example1b", "example1c"):
        obs = _example1_observer(lam=-0.05)
        r = 2 if name == "example1b" else 3
        barrier = BarrierChain(s=EXAMPLE1_CHAIN_S[:r], grad_s=EXAMPLE1_CHAIN_GRAD[:r],
                               L_k=EXAMPLE1_CHAIN_L[:r])
        cfg = SimConfig(
            system=make_example1_system(),
            observer=obs,
            barrier=barrier,
            adaptive0=_adaptive0(mu=10.0),
            x0=np.array([2.4, -3.0, -3.0]),
            xhat0=np.array([3.4, -2.0, -2.0]),
            u_nominal=_const_u([-2.0]),
        )
        return ExperimentPreset(name=name, cfg=cfg)

    if name == "example2":
        bound = ErrorBoundModel.exponential(D=2.0, lam=-0.15)
        obs = make_rossler_observer(**ROSSLER_GAINS, params=ROSSLER_PARAMS, bound=bound)
        barrier = BarrierChain(s=(lambda x: x[1] + 1.0,), grad_s=(lambda x: _GRAD_X2,), L_k=(1.0,))
        cfg = SimConfig(
            system=make_rossler_system(*ROSSLER_PARAMS),
            observer=obs,
            barrier=barrier,
            adaptive0=_adaptive0(mu=2.5),
            x0=np.array([-0.5, 0.5, 3.0]),
            xhat0=np.array([0.2, 2.0, 3.0]),
            u_nominal=_const_u([-2.0, -2.0, -2.0]),
        )
        return ExperimentPreset(name=name, cfg=cfg)

    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
