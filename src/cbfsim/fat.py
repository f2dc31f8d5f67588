"""Trigonometric basis, truncated series evaluation, and the adaptive law.

The estimation-induced disturbance is modeled as an unknown function of
time expanded over a fixed Fourier-style basis; only the first N vector
coefficients are estimated online. The adaptive law below drives those
estimates from the gradient of the barrier chain's top level (the barrier
itself when its relative degree is 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import check_finite

Vector = np.ndarray


def _series_terms(N: int, omega: float) -> tuple:
    """(np.cos or np.sin, k omega) for phi_1..phi_N: phi_{2k-1}(t) = cos(k omega t)
    and phi_{2k}(t) = sin(k omega t)."""
    return tuple(
        (np.cos if i % 2 == 1 else np.sin, ((i + 1) // 2) * omega)
        for i in range(1, N + 1)
    )


def _basis(terms: tuple, ts) -> np.ndarray:
    """(len(ts), N) array whose row j is [phi_1(ts[j]), ..., phi_N(ts[j])],
    for a float64 array or a sequence of floats ts: the one basis formula,
    one multiply and one trig ufunc call per term over all the times.
    numpy's float64 cos and sin give libm's doubles, which
    tests/test_fat.py checks."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty((len(terms), ts.shape[0]))
    for row, (fn, w) in zip(out, terms):
        fn(np.multiply(w, ts, row), row)
    return out.T.copy()


@dataclass(frozen=True)
class AdaptiveState:
    """The adaptive law and its estimates.

    theta_hat (N x n) holds the estimated coefficients of the first N >= 1
    series terms; theta_bar[i] bounds ||theta_i||. epsilon is the
    safety-margin split and mu the leak rate, both shared with the barrier
    constraint. omega is the series' fundamental frequency (any positive
    value is theoretically valid; no preset changes the default) and E
    bounds the norm of the truncated tail.

    The gains -theta_bar_i^2 / (2 epsilon), mu as a 0-d array and the basis
    terms are derived once per construction, so `dataclasses.replace`
    recomputes them. `coefficient` and `rhs` do only the math and check
    nothing.
    """

    theta_hat: np.ndarray
    theta_bar: np.ndarray
    epsilon: float
    mu: float
    omega: float = 1.0
    E: float = 0.0
    gain: Vector = field(init=False, repr=False, compare=False)
    _mu: Vector = field(init=False, repr=False, compare=False)  # 0-d: a ufunc takes it faster
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
        check_finite(theta_hat=th, theta_bar=tb, epsilon=self.epsilon, mu=self.mu, omega=self.omega, E=self.E)
        with np.errstate(over="ignore"):
            gain = -(tb ** 2) / (2.0 * self.epsilon)
        if not np.isfinite(gain).all():
            raise ValueError(f"the gain theta_bar^2 / (2 epsilon) overflows at epsilon {self.epsilon:g}")
        object.__setattr__(self, "theta_hat", th)
        object.__setattr__(self, "theta_bar", tb)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "_mu", np.array(float(self.mu)))
        object.__setattr__(self, "terms", _series_terms(th.shape[0], self.omega))

    @property
    def N(self) -> int:
        """Number of estimated series terms: the rows of theta_hat."""
        return self.theta_hat.shape[0]

    def basis_rows(self, ts) -> np.ndarray:
        """(len(ts), N) array whose row j is [phi_1(ts[j]), ..., phi_N(ts[j])];
        ts is a float64 array or a sequence of floats. Each row is the same
        double whether ts holds one time or many."""
        return _basis(self.terms, ts)

    def coefficient(self, phis: np.ndarray) -> np.ndarray:
        """Column of the law's coefficients -theta_bar_i^2 / (2 epsilon)
        phi_i(t), given the basis row phis at t: (N, 1) for one row, (K, N, 1)
        for K rows, each entry the same double either way."""
        return (self.gain * phis)[..., None]

    def rhs(self, theta_hat: np.ndarray, grad: Vector, coef: np.ndarray,
            out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Derivative of the (N, n) theta_hat, (coef grad) - mu theta_hat,
        written into the (N, n) array out and returned, given grad and
        coef = coefficient(phis) at t. scratch, an (N, n) array the caller
        owns, receives mu theta_hat. Neither out nor scratch may share
        memory with theta_hat or with each other."""
        np.multiply(coef, grad, out)
        return np.subtract(out, np.multiply(self._mu, theta_hat, scratch), out)


# Bound only because bench/tracer.py looks the name up; nothing calls it.
basis_row = None
