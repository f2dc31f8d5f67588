"""Brute-force grid minimizers used as QP oracles.

Independent of the analytic projection formulas under test: candidates are
dense axis-aligned grids, refined in stages around the incumbent, augmented
with the points where grid lines cross the constraint boundary (a plain
axis grid systematically misses the boundary, and the argmin over feasible
grid points can then sit far from the true minimizer tangentially).
Selection is by explicit objective comparison only.
"""

import numpy as np


def _candidates(center, pitch, half, a, b):
    """Axis grid around center plus constraint-boundary crossings."""
    m = center.size
    offsets = pitch * np.arange(-half, half + 1)
    axes = [center[i] + offsets for i in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    extra = []
    for i in range(m):
        if abs(a[i]) < 1e-12:
            continue
        others = [j for j in range(m) if j != i]
        if others:
            sub = np.meshgrid(*[axes[j] for j in others], indexing="ij")
            lattice = np.stack([g.ravel() for g in sub], axis=1)
        else:
            lattice = np.zeros((1, 0))
        cross = np.empty((lattice.shape[0], m))
        for col, j in enumerate(others):
            cross[:, j] = lattice[:, col]
        cross[:, i] = -(b + lattice @ a[others]) / a[i]
        keep = np.abs(cross[:, i] - center[i]) <= (half + 1) * pitch
        extra.append(cross[keep])
    if extra:
        pts = np.concatenate([pts] + extra, axis=0)
    return pts


def grid_halfspace_min(u_d, a, b, final_pitch=2.5e-5, half=12):
    """argmin ||u - u_d||^2 over {a.u + b >= 0} by staged dense grids."""
    u_d = np.asarray(u_d, dtype=float)
    a = np.asarray(a, dtype=float)
    resid0 = float(a @ u_d + b)
    if resid0 >= 0.0:
        return u_d.copy()
    feas_tol = -1e-9 * (1.0 + abs(b))
    center = u_d.copy()
    pitch = (-resid0 / float(np.linalg.norm(a)) + 1.0) / 10.0
    while True:
        pts = _candidates(center, pitch, half, a, b)
        pts = pts[pts @ a + b >= feas_tol]
        obj = np.einsum("ij,ij->i", pts - u_d, pts - u_d)
        center = pts[int(np.argmin(obj))]
        if pitch <= final_pitch:
            return center
        pitch /= 4.0


def random_halfspace_instances(count_per_m=(400, 300, 300), seed=1234):
    """(u_d, a, b) triples, m in {1,2,3}; well-scaled and away from the
    classification knife edge |a.u_d + b| = 0."""
    rng = np.random.default_rng(seed)
    out = []
    for m, count in zip((1, 2, 3), count_per_m):
        made = 0
        while made < count:
            a = rng.normal(size=m)
            if np.linalg.norm(a) < 0.3:
                continue
            u_d = rng.normal(scale=2.0, size=m)
            b = float(rng.normal(scale=2.0))
            if abs(a @ u_d + b) < 1e-3:
                continue
            out.append((u_d, a, b))
            made += 1
    return out
