"""Shared fixtures: the three preset pair-runs and the 1000-instance QP
battery are expensive (seconds each), so run them once per session and let
every module read the cached results."""

import time

import numpy as np
import pytest

from cbfsim import PRESET_NAMES, make_preset, run_pair, safety_report
from cbfsim.barrier import ConstraintCoeffs
from cbfsim.qp import solve_halfspace_qp
from grid_oracle import grid_halfspace_min, random_halfspace_instances

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Record one acceptance-criterion verdict and assert it.

    The collected lines are replayed in the terminal summary so every
    criterion shows a visible pass/fail line even when its test passes."""
    def check(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line
    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def preset_runs():
    """{name: {cfg, proposed, baseline, report_p, report_b, wall}} for all presets."""
    out = {}
    for name in PRESET_NAMES:
        cfg = make_preset(name).cfg
        t0 = time.perf_counter()
        proposed, baseline = run_pair(cfg)
        wall = time.perf_counter() - t0
        out[name] = {
            "cfg": cfg,
            "proposed": proposed,
            "baseline": baseline,
            "report_p": safety_report(proposed, cfg),
            "report_b": safety_report(baseline, cfg),
            "wall": wall,
        }
    return out


@pytest.fixture(scope="session")
def qp_battery():
    """Analytic halfspace solutions vs the staged-grid oracle on 1000
    random instances; returns the worst deviations for assertion."""
    instances = random_halfspace_instances()
    max_u_err = 0.0
    max_obj_err = 0.0
    class_mismatches = 0
    for u_d, a, b in instances:
        res = solve_halfspace_qp(u_d, ConstraintCoeffs(a=a, b=float(b)))
        ref = grid_halfspace_min(u_d, a, b)
        max_u_err = max(max_u_err, float(np.linalg.norm(res.u - ref)))
        obj_impl = float(np.sum((res.u - u_d) ** 2))
        obj_ref = float(np.sum((ref - u_d) ** 2))
        max_obj_err = max(max_obj_err, abs(obj_impl - obj_ref))
        if res.active != (float(a @ u_d + b) < 0.0):
            class_mismatches += 1
    return {
        "count": len(instances),
        "max_u_err": max_u_err,
        "max_obj_err": max_obj_err,
        "class_mismatches": class_mismatches,
    }
