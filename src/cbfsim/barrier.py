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
    ||grad_s_k|| on the operating region. A level is any callable with the
    roots lambda_k folded in, or derived by BarrierChain.affine. r = 1 is
    the plain barrier, BarrierChain(s=(h,), grad_s=(grad_h,), L_k=(L,)).
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

    @classmethod
    def affine(cls, c0, d0: float, lambdas: Sequence[float] = (), A=None) -> BarrierChain:
        """h(x) = c0 . x + d0 lifted along the drift A x, given exactly when
        lambdas is: level k is c_k . x + d_k, c_k = A^T c_{k-1} + lambda_k c_{k-1},
        d_k = lambda_k d_{k-1}. grad_s_k is the read-only c_k, L_k = ||c_k||."""
        c, d, lambdas = np.array(c0, dtype=float), float(d0), tuple(map(float, lambdas))
        if (A is None) != (not lambdas):
            raise ValueError("A must be given exactly when lambdas is non-empty")
        n = c.size
        A = np.array(A, dtype=float) if lambdas else np.zeros((n, n))
        if c.shape != (n,) or A.shape != (n, n) or not n:
            raise ValueError(f"c0 must have shape (n,), n >= 1, and A (n, n); got {c.shape} and {A.shape}")
        check_finite(c0=c, d0=d, A=A, lambdas=lambdas)
        if any(not lam > 0 for lam in lambdas):
            raise ValueError("every lambda must be > 0")
        cs, ds = [c], [d]
        for lam in lambdas:
            cs.append(A.T.dot(cs[-1]) + lam * cs[-1])
            ds.append(lam * ds[-1])
        check_finite(d_k=ds)  # a large d0 can overflow where c_k and L_k do not
        for c in cs:  # grad_s_k hands out c_k itself, so writes to it must raise
            c.flags.writeable = False
        return cls(s=tuple(map(_affine_level, cs, ds)), grad_s=tuple((lambda x, c=c: c) for c in cs),
                   L_k=tuple(math.sqrt(float(c.dot(c))) for c in cs))


def _affine_level(c: Vector, d: float) -> Callable[[Vector], float]:
    """x -> c . x + d on Python floats, c's nonzero terms in index order, then
    d: the written-out formula's bits, never reading a coordinate whose
    coefficient is 0. (c = 0 gets one zero term; its L = 0 is rejected.)"""
    (j0, c0), *rest = [(j, cj) for j, cj in enumerate(c.tolist()) if cj != 0.0] or [(0, 0.0)]
    if not rest:  # a coordinate level, the commonest, without the loop
        return lambda x: x.item(j0) * c0 + d

    def level(x: Vector) -> float:
        v = x.tolist()
        acc = v[j0] * c0
        for j, cj in rest:
            acc += v[j] * cj
        return acc + d
    return level


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
    norms, tb = np.linalg.norm(state0.theta_hat, axis=1), state0.theta_bar
    return worst / float(state0.N + np.sum(2.0 * norms / tb + norms ** 2 / tb ** 2))


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
