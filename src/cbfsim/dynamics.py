"""Control-affine plants with output maps, plus the two built-in example systems.

A plant is dx/dt = f(x) + g(x) u with measurement y = l(x). Systems are
represented by plain callables evaluated pointwise; nothing symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray

# 3-state linear demo plant (example1 presets)
EXAMPLE1_A = np.array([[-1.0, 2.0, -2.0],
                       [0.0, -1.0, 1.0],
                       [1.0, 0.0, -1.0]])
EXAMPLE1_B = np.array([[0.0], [1.0], [1.0]])
EXAMPLE1_C = np.array([[1.0, 1.0, 0.0]])


@dataclass(frozen=True)
class ControlAffineSystem:
    """Plant dx/dt = f(x) + g(x) u, y = l(x).

    n, m, k are the state, input, and output dimensions. drift, input_map
    and output_map must be pure and accept any finite state of length n.
    """

    n: int
    m: int
    k: int
    drift: Callable[[Vector], Vector]
    input_map: Callable[[Vector], Matrix]
    output_map: Callable[[Vector], Vector]

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1 or self.k < 1:
            raise ValueError("dimensions n, m, k must be positive")


def check_shape(name: str, value, shape: tuple) -> np.ndarray:
    """value as a float array; ValueError naming `name` unless it has `shape`."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} returned shape {value.shape}, expected {shape}")
    return value


# The checked evaluators below are kept only because bench/tracer.py rebinds
# them (as simloop and barrier names); no run calls them.
def _check_state(sys: ControlAffineSystem, x: Vector) -> Vector:
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError(f"state has shape {x.shape}, expected ({sys.n},)")
    return x


def eval_drift(sys: ControlAffineSystem, x: Vector) -> Vector:
    """f(x), shaped (n,)."""
    return check_shape("drift", sys.drift(_check_state(sys, x)), (sys.n,))


def eval_input_matrix(sys: ControlAffineSystem, x: Vector) -> Matrix:
    """g(x), shaped (n, m)."""
    return check_shape("input map", sys.input_map(_check_state(sys, x)), (sys.n, sys.m))


def eval_output(sys: ControlAffineSystem, x: Vector) -> Vector:
    """l(x), shaped (k,)."""
    return check_shape("output map", sys.output_map(_check_state(sys, x)), (sys.k,))


def make_example1_system() -> ControlAffineSystem:
    """Linear 3-state plant: dx/dt = A x + B u, y = C x."""
    return ControlAffineSystem(
        n=3, m=1, k=1,
        drift=lambda x: EXAMPLE1_A.dot(x),
        input_map=lambda x: EXAMPLE1_B,
        output_map=lambda x: EXAMPLE1_C.dot(x),
    )


def make_rossler_system(a: float, b: float, c: float) -> ControlAffineSystem:
    """Rossler plant with identity input map and output x1.

    Drift is [-x2 - x3, x1 + a x2, b + x3 (x1 - c)]; it takes x as a float
    array and does the arithmetic on Python floats.
    """
    eye = np.eye(3)

    def drift(x: Vector) -> Vector:
        x1, x2, x3 = x.tolist()
        return np.array([-x2 - x3, x1 + a * x2, b + x3 * (x1 - c)])

    return ControlAffineSystem(
        n=3, m=3, k=1,
        drift=drift,
        input_map=lambda x: eye,
        output_map=lambda x: x[:1].copy(),
    )
