"""The paper's guarantee as a property: an admissible epsilon and an error
bound that holds imply that the true state stays safe.

Short proposed runs of example1a and example2 start from estimation errors
drawn in the ball ||e|| <= M(0) and on its sphere, with epsilon between
1e-3 and 1 times its bound, mu scaled by 0.5, 1 or 2 and both infeasibility
modes. A
regression in the constraint row shows up as min h_true < 0 on a run whose
premises held.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfsim import make_preset, run_simulation, safety_report
from cbfsim.cli import apply_overrides

GUARANTEE_TOL = -1e-6
T_END = 0.5


def _unit(polar: float, azimuth: float) -> np.ndarray:
    return np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)])


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(["example1a", "example2"]),
    polar=st.floats(0.0, np.pi),
    azimuth=st.floats(0.0, 2.0 * np.pi),
    radius=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),  # on the sphere, or inside the ball
    # below 1e-3 of the bound the adaptive gain theta_bar^2 / (2 epsilon)
    # outruns the fixed RK4 step: example2 diverges at 1e-6 of the bound
    eps_factor=st.floats(1e-3, 1.0),
    mu_factor=st.sampled_from([0.5, 1.0, 2.0]),
    on_infeasible=st.sampled_from(["nominal", "hold"]),
)
def test_admissible_runs_keep_the_true_state_safe(preset, polar, azimuth, radius, eps_factor, mu_factor,
                                                   on_infeasible):
    cfg = make_preset(preset).cfg
    m0 = float(cfg.observer.bound.value(0.0))
    e = m0 * radius * _unit(polar, azimuth)
    cfg = apply_overrides(cfg, {
        "x0": list(cfg.xhat0 - e),
        "epsilon": eps_factor * cfg.epsilon_bound,
        "mu": mu_factor * cfg.adaptive0.mu,
        "on_infeasible": on_infeasible,
        "t_end": T_END,
    })
    report = safety_report(run_simulation(cfg), cfg)
    if report.epsilon_ok and report.bound_violations == 0:
        assert report.min_h_true >= GUARANTEE_TOL, report
