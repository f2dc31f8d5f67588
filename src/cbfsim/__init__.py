"""Observer-aware control barrier function safety filters.

Closed-loop simulation of control-affine plants under state observers with
known estimation-error envelopes, function-approximation compensation of
unmodeled drift, and analytically solved safety-filter QPs.

The package exports what a run needs; every other name is imported from
the module that defines it (e.g. `cbfsim.cli.emit_csv`).
"""

from .barrier import BarrierChain
from .cli import main
from .dynamics import ControlAffineSystem
from .fat import AdaptiveState
from .observer import EeqObserver, ErrorBoundModel
from .presets import PRESET_NAMES, make_preset
from .simloop import (
    RunError, SafetyReport, SimConfig, SimTrace, run_pair, run_simulation, safety_report,
)

__version__ = "0.1.0"

__all__ = [
    # run a preset
    "make_preset", "PRESET_NAMES", "run_simulation", "run_pair", "safety_report", "main",
    # the records
    "SimConfig", "SimTrace", "SafetyReport", "RunError",
    # the blocks of a custom scenario
    "ControlAffineSystem", "EeqObserver", "ErrorBoundModel", "BarrierChain", "AdaptiveState",
]
