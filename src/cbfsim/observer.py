"""State observers paired with quantified estimation-error bounds.

An observer here is a vector field v so that dxhat/dt = v(xhat, y, u),
together with an ErrorBoundModel M(t) promising ||xhat(t) - x(t)|| <= M(t).
The bound is configuration data supplied with the observer, not something
derived from it; the simulation harness checks it post hoc and reports
violations instead of halting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


@dataclass(frozen=True)
class ErrorBoundModel:
    """Known bound M(t) on the estimation error norm, with its derivative.

    value and derivative must be consistent; the constructors below
    guarantee that.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]

    @staticmethod
    def exponential(D: float, lam: float) -> "ErrorBoundModel":
        """M(t) = D exp(-lam t), taken literally for either sign of lam.

        A negative lam therefore makes the bound grow with time; both
        built-in example presets do exactly that (lam = -0.05, -0.15),
        trading conservatism for a bound that stays valid on the whole
        horizon.
        """
        if D < 0:
            raise ValueError("D must be >= 0")
        return ErrorBoundModel(
            value=lambda t: D * np.exp(-lam * t),
            derivative=lambda t: -lam * D * np.exp(-lam * t),
        )

    @staticmethod
    def constant(beta: float) -> "ErrorBoundModel":
        """M(t) = beta. Covers bounds with no useful time structure."""
        if beta < 0:
            raise ValueError("beta must be >= 0")
        return ErrorBoundModel(value=lambda t: beta, derivative=lambda t: 0.0)


@dataclass(frozen=True)
class EeqObserver:
    """Observer field v with a quantified error bound.

    rhs(xhat, y, u, t) -> dxhat/dt, a vector of the plant's state dimension
    (SimConfig checks its shape once).
    """

    rhs: Callable[[Vector, Vector, Vector, float], Vector]
    bound: ErrorBoundModel


def make_luenberger(A: Matrix, B: Matrix, C: Matrix, gain: Matrix, bound: ErrorBoundModel) -> EeqObserver:
    """dxhat/dt = A xhat + B u + gain (y - C xhat)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    gain = np.asarray(gain, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if B.ndim != 2 or B.shape[0] != n:
        raise ValueError("B must be n x m")
    k = C.shape[0]
    if C.ndim != 2 or C.shape != (k, n):
        raise ValueError("C must be k x n")
    if gain.shape != (n, k):
        raise ValueError("gain must be n x k")

    def rhs(xhat: Vector, y: Vector, u: Vector, t: float) -> Vector:
        return A.dot(xhat) + B.dot(u) + gain.dot(y - C.dot(xhat))

    return EeqObserver(rhs=rhs, bound=bound)


def make_rossler_observer(
    q1: float, s1: float, r1: float,
    q2: float, s2: float, r2: float,
    m_exp: int,
    params: tuple[float, float, float],
    bound: ErrorBoundModel,
) -> EeqObserver:
    """Copy of the Rossler drift at xhat, corrected by powers of (y - xhat1).

    Each state equation gets a linear and an m_exp-th power innovation term
    with its own gain, plus the control applied componentwise:

        dxhat1/dt = -xhat2 - xhat3        + q1 e + q2 e^m + u1
        dxhat2/dt =  xhat1 + a xhat2      + s1 e + s2 e^m + u2
        dxhat3/dt =  b + xhat3 (xhat1 - c) + r1 e + r2 e^m + u3

    with e = y - xhat1. m_exp must be a positive odd integer so the
    correction is sign-preserving. xhat, y and u are float arrays; the
    arithmetic runs on Python floats.
    """
    if m_exp < 1 or m_exp % 2 == 0:
        raise ValueError("m_exp must be a positive odd integer")
    a, b, c = (float(v) for v in params)

    def rhs(xhat: Vector, y: Vector, u: Vector, t: float) -> Vector:
        x1, x2, x3 = xhat.tolist()
        u1, u2, u3 = u.tolist()
        e = y.item(0) - x1
        try:
            em = e ** m_exp
        except OverflowError:  # a float power raises where numpy's gives inf
            em = math.copysign(math.inf, e)
        return np.array([
            -x2 - x3 + q1 * e + q2 * em + u1,
            x1 + a * x2 + s1 * e + s2 * em + u2,
            b + x3 * (x1 - c) + r1 * e + r2 * em + u3,
        ])

    return EeqObserver(rhs=rhs, bound=bound)
