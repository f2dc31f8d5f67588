"""Trigonometric basis, truncated series evaluation, and the adaptive law.

The estimation-induced disturbance is modeled as an unknown function of
time expanded over a fixed Fourier-style basis; only the first N vector
coefficients are estimated online. The adaptive law below drives those
estimates from the gradient of the barrier chain's top level (the barrier
itself when its relative degree is 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Vector = np.ndarray


@dataclass(frozen=True)
class FatConfig:
    """Fundamental frequency omega and residual bound E of the series.

    omega defaults to 1 rad/s; any positive value is theoretically valid
    and no preset overrides it. E bounds the norm of the truncated tail.
    The truncation N is the row count of the estimates (AdaptiveState.N).
    """

    omega: float = 1.0
    E: float = 0.0

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValueError("omega must be > 0")
        if self.E < 0:
            raise ValueError("E must be >= 0")


@dataclass(frozen=True)
class AdaptiveState:
    """Coefficient estimates theta_hat (N x n) with their bounds and gains.

    N >= 1 is the number of estimated series terms. theta_bar[i] bounds
    ||theta_i||; epsilon is the safety-margin split and mu the leak rate,
    both shared with the barrier constraint.
    """

    theta_hat: np.ndarray
    theta_bar: np.ndarray
    epsilon: float
    mu: float

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
        object.__setattr__(self, "theta_hat", th)
        object.__setattr__(self, "theta_bar", tb)

    @property
    def N(self) -> int:
        """Number of estimated series terms: the rows of theta_hat."""
        return self.theta_hat.shape[0]


def _series_terms(N: int, omega: float) -> tuple:
    """(cos or sin, k omega) for phi_1..phi_N: phi_{2k-1}(t) = cos(k omega t)
    and phi_{2k}(t) = sin(k omega t)."""
    return tuple(
        (math.cos if i % 2 == 1 else math.sin, ((i + 1) // 2) * omega)
        for i in range(1, N + 1)
    )


def _row(terms: tuple, t: float) -> Vector:
    return np.array([fn(w * t) for fn, w in terms])


def basis_row(N: int, omega: float, t: float) -> Vector:
    """[phi_1(t), ..., phi_N(t)] as a dense row."""
    return _row(_series_terms(N, omega), t)


def fat_eval(state: AdaptiveState, cfg: FatConfig, t: float) -> Vector:
    """Sum of theta_hat_i phi_i(t) over i = 1..N (the i=0 constant term is
    not part of the estimated series)."""
    return basis_row(state.N, cfg.omega, t).dot(state.theta_hat)


@dataclass(frozen=True)
class AdaptiveLaw:
    """The adaptive law with its run constants computed once: the gains
    -theta_bar_i^2 / (2 epsilon), the leak rate mu, the margin split
    epsilon and the basis terms (one per row of the estimates). The
    constraint row reads mu, epsilon and N from here too.

    `rhs` does only the math and checks nothing; `adaptive_rhs` is the
    validating entry point for direct callers.
    """

    gain: Vector
    mu: float
    epsilon: float
    terms: tuple

    @classmethod
    def of(cls, state: AdaptiveState, cfg: FatConfig) -> "AdaptiveLaw":
        gain = -(state.theta_bar ** 2) / (2.0 * state.epsilon)
        return cls(gain=gain, mu=state.mu, epsilon=state.epsilon,
                   terms=_series_terms(state.N, cfg.omega))

    @property
    def N(self) -> int:
        """Number of estimated series terms."""
        return len(self.terms)

    def basis_row(self, t: float) -> Vector:
        """[phi_1(t), ..., phi_N(t)]."""
        return _row(self.terms, t)

    def rhs(self, theta_hat: np.ndarray, grad: Vector, phis: Vector) -> np.ndarray:
        """(N, n) derivative of theta_hat, given grad and the basis row at t."""
        return (self.gain * phis)[:, None] * grad - self.mu * theta_hat


def adaptive_rhs(state: AdaptiveState, grad: Vector, cfg: FatConfig, t: float) -> np.ndarray:
    """d theta_hat_i / dt = -(theta_bar_i^2 / (2 epsilon)) grad phi_i(t) - mu theta_hat_i.

    grad is the gradient of the deflated barrier with respect to xhat,
    supplied by the barrier module. Returns an (N, n) array of stacked
    derivatives.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.shape != (state.theta_hat.shape[1],):
        raise ValueError("grad length must match the parameter vector length")
    law = AdaptiveLaw.of(state, cfg)
    return law.rhs(state.theta_hat, grad, basis_row(state.N, cfg.omega, t))
