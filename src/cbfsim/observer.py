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

from .dynamics import ControlAffineSystem, check_finite, rossler_field

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
        check_finite(D=D, lam=lam)
        return ErrorBoundModel(
            value=lambda t: D * np.exp(-lam * t),
            derivative=lambda t: -lam * D * np.exp(-lam * t),
        )

    @staticmethod
    def constant(beta: float) -> "ErrorBoundModel":
        """M(t) = beta. Covers bounds with no useful time structure."""
        if beta < 0:
            raise ValueError("beta must be >= 0")
        check_finite(beta=beta)
        return ErrorBoundModel(value=lambda t: beta, derivative=lambda t: 0.0)


@dataclass(frozen=True)
class EeqObserver:
    """Observer field v with a quantified error bound.

    rhs(xhat, y, u, t) -> dxhat/dt, a vector of the plant's state dimension
    (SimConfig checks its shape once).
    """

    rhs: Callable[[Vector, Vector, Vector, float], Vector]
    bound: ErrorBoundModel


def make_luenberger(system: ControlAffineSystem, gain: Matrix, bound: ErrorBoundModel) -> EeqObserver:
    """dxhat/dt = f(xhat) + g(xhat) u + gain (y - l(xhat)) on the plant's own
    f, g and l, so the observer's model is the plant's by construction."""
    gain = np.asarray(gain, dtype=float)
    if gain.shape != (system.n, system.k):
        raise ValueError("gain must be n x k")
    check_finite(gain=gain)
    drift, input_map, output_map = system.drift, system.input_map, system.output_map

    def rhs(xhat: Vector, y: Vector, u: Vector, t: float) -> Vector:
        return drift(xhat) + input_map(xhat).dot(u) + gain.dot(y - output_map(xhat))

    return EeqObserver(rhs=rhs, bound=bound)


def make_rossler_observer(
    q1: float, s1: float, r1: float,
    q2: float, s2: float, r2: float,
    m_exp: int,
    params: tuple[float, float, float],
    bound: ErrorBoundModel,
) -> EeqObserver:
    """The Rossler drift f = rossler_field(*params) at xhat, corrected by
    powers of e = y - xhat1, plus the control applied componentwise:

        dxhat1/dt = f1(xhat) + q1 e + q2 e^m + u1
        dxhat2/dt = f2(xhat) + s1 e + s2 e^m + u2
        dxhat3/dt = f3(xhat) + r1 e + r2 e^m + u3

    m_exp must be a positive odd integer so the correction is
    sign-preserving; the arithmetic runs on Python floats.
    """
    if m_exp < 1 or m_exp % 2 == 0:
        raise ValueError("m_exp must be a positive odd integer")
    check_finite(q1=q1, s1=s1, r1=r1, q2=q2, s2=s2, r2=r2)
    field = rossler_field(*params)

    def rhs(xhat: Vector, y: Vector, u: Vector, t: float) -> Vector:
        x1, x2, x3 = xhat.tolist()
        f1, f2, f3 = field(x1, x2, x3)
        u1, u2, u3 = u.tolist()
        e = y.item(0) - x1
        try:
            em = e ** m_exp
        except OverflowError:  # a float power raises where numpy's gives inf
            em = math.copysign(math.inf, e)
        return np.array([
            f1 + q1 * e + q2 * em + u1,
            f2 + s1 * e + s2 * em + u2,
            f3 + r1 * e + r2 * em + u3,
        ])

    return EeqObserver(rhs=rhs, bound=bound)
