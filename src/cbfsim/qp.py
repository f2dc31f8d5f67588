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


@dataclass(frozen=True)
class QpResult:
    u: Vector
    active: bool    # constraint tight at the solution
    feasible: bool  # False only when the constraint set is empty


def solve_halfspace_qp(u_d: Vector, c: ConstraintCoeffs) -> QpResult:
    """Minimize ||u - u_d||^2 subject to a . u + b >= 0.

    If u_d already satisfies the constraint it is returned unchanged.
    Otherwise the solution is the projection u_d - a (a.u_d + b)/||a||^2.
    With a = 0 and b < 0 the halfspace is empty; the result carries
    feasible=False and u = u_d (the caller decides what to apply). So does
    an a too small for the step (a.u_d + b)/||a||^2 to be a finite float.
    """
    u_d = np.asarray(u_d, dtype=float)
    a = np.asarray(c.a, dtype=float)
    resid = float(a.dot(u_d) + c.b)
    if resid >= 0.0:
        return QpResult(u=u_d.copy(), active=False, feasible=True)
    nrm2 = float(a.dot(a))
    if nrm2 > 0.0:
        step = -resid / nrm2
        if step != math.inf:  # an a this small gives no usable direction
            return QpResult(u=u_d + a * step, active=True, feasible=True)
    return QpResult(u=u_d.copy(), active=False, feasible=False)

