"""Trigonometric basis, truncated series evaluation, and the adaptive law.

The estimation-induced disturbance is modeled as an unknown function of
time expanded over a fixed Fourier-style basis; only the first N vector
coefficients are estimated online. The adaptive law below drives those
estimates from the gradient of the barrier chain's top level (the barrier
itself when its relative degree is 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Vector = np.ndarray


def _series_terms(N: int, omega: float) -> tuple:
    """(cos or sin, k omega) for phi_1..phi_N: phi_{2k-1}(t) = cos(k omega t)
    and phi_{2k}(t) = sin(k omega t)."""
    return tuple(
        (math.cos if i % 2 == 1 else math.sin, ((i + 1) // 2) * omega)
        for i in range(1, N + 1)
    )


def _row(terms: tuple, t: float) -> Vector:
    return np.array([fn(w * t) for fn, w in terms])


@dataclass(frozen=True)
class AdaptiveState:
    """The adaptive law and its estimates.

    theta_hat (N x n) holds the estimated coefficients of the first N >= 1
    series terms; theta_bar[i] bounds ||theta_i||. epsilon is the
    safety-margin split and mu the leak rate, both shared with the barrier
    constraint. omega is the series' fundamental frequency (any positive
    value is theoretically valid; no preset changes the default) and E
    bounds the norm of the truncated tail.

    The gains -theta_bar_i^2 / (2 epsilon) and the basis terms are derived
    once per construction, so `dataclasses.replace` recomputes them. `rhs`
    does only the math and checks nothing; `adaptive_rhs` is the validating
    entry point for direct callers.
    """

    theta_hat: np.ndarray
    theta_bar: np.ndarray
    epsilon: float
    mu: float
    omega: float = 1.0
    E: float = 0.0
    gain: Vector = field(init=False, repr=False, compare=False)
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        th = np.asarray(self.theta_hat, dtype=float)
        tb = np.asarray(self.theta_bar, dtype=float)
        if th.ndim != 2 or th.shape[0] < 1:
            raise ValueError("theta_hat must be an (N, n) array with N >= 1")
        if tb.shape != (th.shape[0],):
            raise ValueError("theta_bar must have one entry per parameter vector")
        if not (tb > 0).all():
            raise ValueError("all theta_bar entries must be > 0")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not self.mu > 0:
            raise ValueError("mu must be > 0")
        if not self.omega > 0:
            raise ValueError("omega must be > 0")
        if self.E < 0:
            raise ValueError("E must be >= 0")
        with np.errstate(over="ignore"):
            gain = -(tb ** 2) / (2.0 * self.epsilon)
        if not np.isfinite(gain).all():
            raise ValueError(f"the gain theta_bar^2 / (2 epsilon) overflows at epsilon {self.epsilon:g}")
        object.__setattr__(self, "theta_hat", th)
        object.__setattr__(self, "theta_bar", tb)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "terms", _series_terms(th.shape[0], self.omega))

    @property
    def N(self) -> int:
        """Number of estimated series terms: the rows of theta_hat."""
        return self.theta_hat.shape[0]

    def basis_row(self, t: float) -> Vector:
        """[phi_1(t), ..., phi_N(t)]."""
        return _row(self.terms, t)

    def rhs(self, theta_hat: np.ndarray, grad: Vector, phis: Vector) -> np.ndarray:
        """(N, n) derivative of theta_hat, given grad and the basis row at t."""
        return (self.gain * phis)[:, None] * grad - self.mu * theta_hat


def basis_row(N: int, omega: float, t: float) -> Vector:
    """[phi_1(t), ..., phi_N(t)] as a dense row."""
    return _row(_series_terms(N, omega), t)


def fat_eval(state: AdaptiveState, t: float) -> Vector:
    """Sum of theta_hat_i phi_i(t) over i = 1..N (the i=0 constant term is
    not part of the estimated series)."""
    return basis_row(state.N, state.omega, t).dot(state.theta_hat)


def adaptive_rhs(state: AdaptiveState, grad: Vector, t: float) -> np.ndarray:
    """d theta_hat_i / dt = -(theta_bar_i^2 / (2 epsilon)) grad phi_i(t) - mu theta_hat_i.

    grad is the gradient of the deflated barrier with respect to xhat,
    supplied by the barrier module. Returns an (N, n) array of stacked
    derivatives.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.shape != (state.theta_hat.shape[1],):
        raise ValueError("grad length must match the parameter vector length")
    return state.rhs(state.theta_hat, grad, basis_row(state.N, state.omega, t))
