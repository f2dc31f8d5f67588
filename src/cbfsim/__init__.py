"""Observer-aware control barrier function safety filters.

Closed-loop simulation of control-affine plants under state observers with
known estimation-error envelopes, function-approximation compensation of
unmodeled drift, and analytically solved safety-filter QPs.
"""

from .barrier import (
    BarrierChain,
    ConstraintCoeffs,
    constraint_rdr,
    epsilon_bound_rdr,
)
from .cli import apply_overrides, emit_csv, emit_plot, main, parse_config, run_preset
from .dynamics import (
    ControlAffineSystem,
    eval_drift,
    eval_input_matrix,
    eval_output,
    make_example1_system,
    make_rossler_system,
)
from .fat import AdaptiveLaw, AdaptiveState, FatConfig, adaptive_rhs, basis_row, fat_eval
from .integrator import IntegrationError, OdeProblem, integrate, rk4_step, time_grid
from .observer import (
    EeqObserver,
    ErrorBoundModel,
    make_luenberger,
    make_rossler_observer,
)
from .presets import PRESET_NAMES, ExperimentPreset, make_preset
from .qp import QpResult, solve_halfspace_qp
from .simloop import (
    RunError,
    SafetyReport,
    SimConfig,
    SimTrace,
    compute_epsilon_bound,
    run_pair,
    run_simulation,
    safety_report,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveLaw",
    "AdaptiveState",
    "BarrierChain",
    "ConstraintCoeffs",
    "ControlAffineSystem",
    "EeqObserver",
    "ErrorBoundModel",
    "ExperimentPreset",
    "FatConfig",
    "IntegrationError",
    "OdeProblem",
    "PRESET_NAMES",
    "QpResult",
    "RunError",
    "SafetyReport",
    "SimConfig",
    "SimTrace",
    "adaptive_rhs",
    "apply_overrides",
    "basis_row",
    "compute_epsilon_bound",
    "constraint_rdr",
    "emit_csv",
    "emit_plot",
    "epsilon_bound_rdr",
    "eval_drift",
    "eval_input_matrix",
    "eval_output",
    "fat_eval",
    "integrate",
    "main",
    "make_example1_system",
    "make_luenberger",
    "make_preset",
    "make_rossler_observer",
    "make_rossler_system",
    "parse_config",
    "rk4_step",
    "run_pair",
    "run_preset",
    "run_simulation",
    "safety_report",
    "solve_halfspace_qp",
    "time_grid",
]
