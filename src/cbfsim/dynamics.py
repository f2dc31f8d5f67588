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
    and output_map must be pure, accept any finite state of length n and
    return float64 arrays of shapes (n,), (n, m) and (k,): SimConfig checks
    that once, and the loop uses them unconverted and never writes to them.
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
    """value; ValueError naming `name` unless it is a float64 array of `shape`."""
    if not isinstance(value, np.ndarray) or value.dtype != np.float64:
        kind = getattr(value, "dtype", type(value).__name__)
        raise ValueError(f"{name} returned {kind}, expected a float64 array of shape {shape}")
    if value.shape != shape:
        raise ValueError(f"{name} returned shape {value.shape}, expected {shape}")
    return value


def check_finite(**values) -> None:
    """ValueError naming the first value (scalar or array) that is not finite."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")


def make_example1_system() -> ControlAffineSystem:
    """Linear 3-state plant: dx/dt = A x + B u, y = C x."""
    return ControlAffineSystem(
        n=3, m=1, k=1,
        drift=lambda x: EXAMPLE1_A.dot(x),
        input_map=lambda x: EXAMPLE1_B,
        output_map=lambda x: EXAMPLE1_C.dot(x),
    )


def rossler_field(a: float, b: float, c: float) -> Callable[[float, float, float], tuple]:
    """The Rossler drift (-x2 - x3, x1 + a x2, b + x3 (x1 - c)) as a function
    of three Python floats; the plant and its observer both evaluate it."""
    a, b, c = float(a), float(b), float(c)
    check_finite(a=a, b=b, c=c)

    def field(x1: float, x2: float, x3: float) -> tuple:
        return -x2 - x3, x1 + a * x2, b + x3 * (x1 - c)

    return field


def make_rossler_system(a: float, b: float, c: float) -> ControlAffineSystem:
    """Rossler plant with drift rossler_field, identity input map and output x1."""
    field = rossler_field(a, b, c)
    eye = np.eye(3)
    return ControlAffineSystem(
        n=3, m=3, k=1,
        drift=lambda x: np.array(field(*x.tolist())),
        input_map=lambda x: eye,
        output_map=lambda x: x[:1].copy(),
    )
