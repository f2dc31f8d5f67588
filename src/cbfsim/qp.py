"""Analytic solution of the safety-filter QP.

The filter solves min ||u - u_d||^2 subject to a . u + b >= 0. With a
single linear inequality the answer is closed form (Euclidean projection
onto a halfspace); no iterative solver, so no solver tolerances in the
reproducibility story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import ConstraintCoeffs

Vector = np.ndarray


@dataclass(slots=True)
class QpResult:
    """The projection's result; built once per step and never written after
    construction (not frozen: a frozen dataclass's __init__ costs more)."""

    u: Vector
    active: bool    # constraint tight at the solution
    feasible: bool  # False only when the constraint set is empty


def solve_halfspace_qp(u_d: Vector, c: ConstraintCoeffs) -> QpResult:
    """Minimize ||u - u_d||^2 subject to a . u + b >= 0 over float arrays
    u_d and a = c.a, neither of which is written; u is always a new array.

    If u_d already satisfies the constraint it is returned unchanged.
    Otherwise the solution is the projection u_d - a (a.u_d + b)/||a||^2.
    With a = 0 and b < 0 the halfspace is empty; the result carries
    feasible=False and u = u_d (the caller decides what to apply). So does
    an a too small for the step (a.u_d + b)/||a||^2 to be a finite float.
    """
    a = c.a
    resid = float(a.dot(u_d)) + c.b  # Python floats: numpy's doubles, made faster
    if resid >= 0.0:
        return QpResult(u_d.copy(), False, True)
    nrm2 = float(a.dot(a))
    if nrm2 > 0.0:
        step = -resid / nrm2
        if step != math.inf:  # an a this small gives no usable direction
            return QpResult(u_d + a * step, True, True)
    return QpResult(u_d.copy(), False, False)

