"""Barrier bookkeeping and assembly of the safety constraint.

A barrier h of relative degree r is lifted through the chain

    s_0 = h,   s_k = (d/dt + lambda_k) s_{k-1},   k = 1..r-1,

and r = 1 is the plain barrier (s_0 = h, no roots). The controller can
only see the estimate xhat, so each level is deflated by its own Lipschitz
constant L_k and the error bound M(t):

    s_k^M(xhat, t) = s_k(xhat) - L_k M(t),      h_eps = s_{r-1}^M - epsilon.

s_k^M >= 0 at the estimate implies s_k >= 0 at the true state whenever the
error bound holds. The final product is a single linear inequality
a . u + b >= 0 on the top level s_{r-1}, handed to the QP module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import ControlAffineSystem, check_finite
from .fat import AdaptiveState
from .observer import ErrorBoundModel

# Names kept only because bench/tracer.py rebinds them; nothing here calls them.
from .dynamics import eval_drift, eval_input_matrix  # noqa: F401
from .fat import fat_eval  # noqa: F401

Vector = np.ndarray


@dataclass(frozen=True)
class BarrierChain:
    """Lifted chain s_0..s_{r-1} for a barrier of relative degree r = len(s).

    L_k holds one Lipschitz constant per level; each must dominate
    ||grad_s_k|| on the operating region (the presets use exact values for
    their linear levels). Chains are supplied explicitly, hand-derived with
    the roots lambda_k folded in; nothing symbolic. r = 1 is the plain
    barrier, BarrierChain(s=(h,), grad_s=(grad_h,), L_k=(L,)).
    """

    s: Sequence[Callable[[Vector], float]]
    grad_s: Sequence[Callable[[Vector], Vector]]
    L_k: Sequence[float]

    def __post_init__(self) -> None:
        if not self.s:
            raise ValueError("s must have at least one level")
        if len(self.grad_s) != self.r:
            raise ValueError("grad_s must have one entry per level of s")
        if len(self.L_k) != self.r:
            raise ValueError("L_k must have r entries")
        if any(not l > 0 for l in self.L_k):
            raise ValueError("all L_k must be > 0")
        check_finite(L_k=self.L_k)

    @property
    def r(self) -> int:
        """Relative degree of the chain: its number of levels."""
        return len(self.s)


@dataclass(slots=True)
class ConstraintCoeffs:
    """Linear inequality on the control: feasible u satisfies a . u + b >= 0.

    Built once per step and never written after construction. It is not
    frozen: a frozen dataclass's __init__ sets each field through
    object.__setattr__ and costs about twice as much.
    """

    a: Vector
    b: float

    def residual(self, u: Vector) -> float:
        return float(self.a.dot(u)) + self.b


def _epsilon_denominator(state0: AdaptiveState) -> float:
    norms = np.linalg.norm(state0.theta_hat, axis=1)
    return float(state0.N + np.sum(2.0 * norms / state0.theta_bar + norms ** 2 / state0.theta_bar ** 2))


def epsilon_bound_rdr(
    chain: BarrierChain, xhat0: Vector, bound: ErrorBoundModel, state0: AdaptiveState,
) -> float:
    """Largest epsilon admitted by the initial data: min_k s_k^M(xhat0, 0) / denom.

    Any epsilon in (0, bound] is admissible. A non-positive or NaN return
    means no feasible epsilon exists for this initial state (NaN when a
    deflated level is not a number); callers flag it rather than this
    function raising.
    """
    M0 = float(bound.value(0.0))
    levels = [float(s(xhat0)) - L * M0 for s, L in zip(chain.s, chain.L_k)]
    # min drops a NaN unless it comes first; a NaN level must not pass
    worst = math.nan if any(map(math.isnan, levels)) else min(levels)
    return worst / _epsilon_denominator(state0)


def constraint_rdr(
    chain: BarrierChain, sys: ControlAffineSystem, xhat: Vector, h_eps: float,
    law: AdaptiveState, theta_hat: np.ndarray, dM: float, phis: Vector,
) -> ConstraintCoeffs:
    """Constraint row on the top chain level s = s_{r-1} with constant L = L_{r-1}.

    a = grad_s . g.  b collects the drift and series terms along grad_s,
    the bound's drift -L dM/dt, the residual margin -||grad_s|| E, and the
    zeroing terms mu h_eps - mu N epsilon. The inputs are precomputed by the
    caller: the deflated top level h_eps = s_{r-1}(xhat) - L M(t) - epsilon,
    the run's adaptive law (mu, epsilon, N and the tail bound E), the
    current (N, n) estimates theta_hat, the bound's derivative dM(t) and the
    basis row phis = [phi_1(t), ..., phi_N(t)]. The plant and barrier
    callables are called directly; SimConfig checks their float arrays once.
    """
    top = chain.r - 1
    L = chain.L_k[top]
    eps, mu = law.epsilon, law.mu
    grad = chain.grad_s[top](xhat)
    # the scalars are Python floats: the same doubles as numpy's, made faster
    b = (
        float(grad.dot(sys.drift(xhat) + phis.dot(theta_hat)))
        - L * dM
        - math.sqrt(float(grad.dot(grad))) * law.E
        + mu * h_eps
        - mu * law.N * eps
    )
    return ConstraintCoeffs(grad.dot(sys.input_map(xhat)), b)
