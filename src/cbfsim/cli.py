"""Command-line front end: presets, config files, CSV traces, SVG plots.

Config files are JSON: a required top-level "preset" plus flat override
keys. Traces are written as CSV with 12-significant-digit decimals and LF
line endings. Plots are self-contained hand-built SVG (no plotting
dependency), byte-deterministic for identical traces.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import replace
from typing import NoReturn, Optional

import numpy as np

from . import simloop
from .presets import PRESET_NAMES, make_preset
from .simloop import RunError, SimConfig, SimTrace, run_pair, safety_report

Vector = np.ndarray

# Override keys of apply_overrides. Numbers: key -> the SimConfig field it
# lands in (None for SimConfig itself). Values are only converted here;
# SimConfig and AdaptiveState check their ranges and enums when they are
# rebuilt.
_NUMBER_OVERRIDES = {
    "dt": None,
    "t_end": None,
    "baseline_gamma": None,
    "epsilon": "adaptive0",
    "mu": "adaptive0",
    "omega": "adaptive0",
    "E": "adaptive0",
}
CONFIG_KEYS = ("preset",) + tuple(_NUMBER_OVERRIDES) + (
    "x0", "xhat0", "u_d", "on_infeasible")


def _require_number(key: str, value) -> float:
    """value as a finite float; booleans, non-numbers, NaN and infinities fail."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not math.isfinite(number):
        raise ValueError(f"invalid value for '{key}': expected a number")
    return number


def _require_vector(key: str, value, length: int) -> Vector:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ValueError(f"invalid value for '{key}': expected a list of {length} numbers")
    return np.array([_require_number(key, v) for v in value])


def apply_overrides(cfg: SimConfig, overrides: dict) -> SimConfig:
    """Apply flat override keys to a preset configuration."""
    for key in overrides:
        if key not in CONFIG_KEYS or key == "preset":
            raise ValueError(f"unknown config key '{key}'")
    changes: dict = {}
    law: dict = {}
    for key, target in _NUMBER_OVERRIDES.items():
        if key in overrides:
            (changes if target is None else law)[key] = _require_number(key, overrides[key])
    for key in ("x0", "xhat0"):
        if key in overrides:
            changes[key] = _require_vector(key, overrides[key], cfg.system.n)
    if "u_d" in overrides:
        vec = _require_vector("u_d", overrides["u_d"], cfg.system.m)
        changes["u_nominal"] = lambda t, xhat: vec
    if "on_infeasible" in overrides:
        changes["on_infeasible"] = overrides["on_infeasible"]
    if law:
        changes["adaptive0"] = replace(cfg.adaptive0, **law)
    return replace(cfg, **changes) if changes else cfg


def _parse_config_doc(text: str) -> tuple[str, dict, bool]:
    """JSON text -> (preset name, override map, strict flag); run_preset
    checks the name and the overrides."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}") from err
    except RecursionError as err:
        raise ValueError("config parse error: the document nests too deeply") from err
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    if "preset" not in doc:
        raise ValueError("config must contain a 'preset' key")
    overrides = {k: v for k, v in doc.items() if k != "preset"}
    strict = overrides.pop("strict_feasibility", False)
    if not isinstance(strict, bool):
        raise ValueError("invalid value for 'strict_feasibility': expected a boolean")
    return doc["preset"], overrides, strict


# Rows are formatted and joined per block of this many, so that only one
# block of cells is held as Python objects at a time.
_CSV_BLOCK = 64


def emit_csv(trace: SimTrace) -> str:
    """Render a trace as CSV: 12 significant digits, booleans 0/1, LF rows."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    cols = list(trace.columns().items())
    row_fmt = ",".join(["{:.12g}"] * len(cols))  # formats True/False as 1/0
    chunks = [",".join(name for name, _ in cols)]
    for start in range(0, len(trace), _CSV_BLOCK):
        block = [col[start:start + _CSV_BLOCK].tolist() for _, col in cols]
        chunks.append("\n".join([row_fmt.format(*row) for row in zip(*block)]))
    chunks.append("")
    return "\n".join(chunks)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_SVG_W, _SVG_H, _SVG_MARGIN = 800, 500, 60


def emit_plot(traces: list[tuple[str, SimTrace]], quantity: str) -> str:
    """Render quantity-vs-time polylines for the given traces as SVG.

    Fixed 800x500 canvas, 60 px margins, axes autoscaled to the data with
    5% padding, a horizontal zero gridline, and a legend. Deterministic:
    identical traces yield identical bytes.
    """
    if not traces:
        raise ValueError("at least one trace is required")
    series = []
    for label, trace in traces:
        cols = trace.columns()
        if quantity not in cols:
            raise ValueError(f"unknown quantity {quantity!r}; valid: {', '.join(cols)}")
        series.append((str(label), trace.t, np.asarray(cols[quantity], dtype=float)))

    x_lo = min(float(t.min()) for _, t, _ in series)
    x_hi = max(float(t.max()) for _, t, _ in series)
    y_lo = min(float(q.min()) for _, _, q in series)
    y_hi = max(float(q.max()) for _, _, q in series)
    y_lo, y_hi = min(y_lo, 0.0), max(y_hi, 0.0)  # keep the zero line in view
    x_pad = 0.05 * (x_hi - x_lo) or 0.5
    y_pad = 0.05 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    left, top = _SVG_MARGIN, _SVG_MARGIN
    right, bottom = _SVG_W - _SVG_MARGIN, _SVG_H - _SVG_MARGIN

    def px(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def py(v: float) -> float:
        return bottom - (v - y_lo) / (y_hi - y_lo) * (bottom - top)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for tick in np.linspace(x_lo, x_hi, 6):
        x = px(float(tick))
        out.append(
            f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" y2="{bottom + 5}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{bottom + 20}" font-size="11" text-anchor="middle" '
            f'fill="#333333">{tick:.4g}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 6):
        y = py(float(tick))
        out.append(
            f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end" '
            f'fill="#333333">{tick:.4g}</text>'
        )
    zero_y = py(0.0)
    out.append(
        f'<line id="zero-line" x1="{left}" y1="{zero_y:.2f}" x2="{right}" y2="{zero_y:.2f}" '
        'stroke="#999999" stroke-dasharray="4 3" stroke-width="1"/>'
    )
    for idx, (label, t, q) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(t, q))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
    for idx, (label, _, _) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = top + 16 + 18 * idx
        out.append(
            f'<line x1="{right - 150}" y1="{ly}" x2="{right - 120}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{right - 112}" y="{ly + 4}" font-size="12" fill="#333333">{label}</text>'
        )
    out.append(
        f'<text x="{(left + right) / 2:.2f}" y="{_SVG_H - 15}" font-size="12" '
        'text-anchor="middle" fill="#333333">t [s]</text>'
    )
    out.append(
        f'<text x="18" y="{(top + bottom) / 2:.2f}" font-size="12" text-anchor="middle" '
        f'fill="#333333" transform="rotate(-90 18 {(top + bottom) / 2:.2f})">{quantity}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _print_feasibility(cfg: SimConfig, out) -> bool:
    """Print cfg's epsilon verdict, cfg.epsilon_ok; return it."""
    ok, bound, used = cfg.epsilon_ok, cfg.epsilon_bound, cfg.adaptive0.epsilon
    if ok:
        print(f"epsilon feasibility: bound {bound:.6g}, using {used:g} (ok)", file=out)
    elif not bound > 0:
        print(
            f"warning: epsilon bound {bound:.6g} is non-positive; no feasible epsilon "
            f"exists for this initial data (configured epsilon={used:g})",
            file=out,
        )
    else:
        print(f"warning: epsilon {used:g} exceeds the feasibility bound {bound:.6g}", file=out)
    return ok


def _print_report(label: str, report, out) -> None:
    first = "none" if report.first_violation_t is None else f"t={report.first_violation_t:.6g}"
    print(
        f"{label}: min h_true {report.min_h_true:.6g}, min h0 {report.min_h0:.6g}, "
        f"first violation {first}, bound violations {report.bound_violations}, "
        f"infeasible steps {report.infeasible_steps}",
        file=out,
    )


def _run_pair(cfg: SimConfig) -> tuple[SimTrace, SimTrace]:
    """run_pair, with the baseline run in a forked worker while this process
    runs the proposed one; the two runs share nothing.

    Without a step to take, without os.fork or when the fork fails, this is
    run_pair itself. The library's run_pair stays sequential: a library call
    must not fork behind its caller's threads. Raises the proposed run's
    RunError first, as run_pair does, then the baseline's.
    """
    if cfg.t_end == 0 or not hasattr(os, "fork"):
        return run_pair(cfg)
    sys.stdout.flush()  # the worker inherits the buffers and must not repeat them
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: run the pair here
        os.close(read_fd)
        os.close(write_fd)
        return run_pair(cfg)
    if pid == 0:
        os.close(read_fd)
        _baseline_worker(replace(cfg, controller="baseline"), write_fd)
    try:
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            proposed = simloop.run_simulation(replace(cfg, controller="proposed"))
            try:
                baseline = pickle.load(pipe)  # written by _baseline_worker alone
            except (EOFError, pickle.UnpicklingError):
                baseline = None
        status = os.waitpid(pid, 0)[1]
    except BaseException:  # an error or Ctrl-C here: leave no worker behind
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if baseline is None:
        raise RunError("the baseline run ended without a result "
                       f"(worker exit status {os.waitstatus_to_exitcode(status)})", {})
    if isinstance(baseline, RunError):
        raise baseline
    return proposed, baseline


def _baseline_worker(cfg: SimConfig, write_fd: int) -> NoReturn:
    """Run cfg and pipe back its trace or its RunError. Never writes to
    stdout or stderr; leaves only through os._exit, so no buffer is flushed
    and no exit handler runs twice."""
    code = 1
    try:
        try:
            result = simloop.run_simulation(cfg)
        except RunError as err:
            result = err
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def run_preset(name: str, overrides: Optional[dict] = None, out_dir: str = "out",
               strict: bool = False) -> int:
    """Run a preset's proposed/baseline pair and write traces and a plot.

    Returns the process exit status: 0 on success, 2 when strict is set and
    the feasibility check rejects epsilon. Raises ValueError on a bad name,
    key or value or an unwritable out_dir, and RunError on a failed run.
    """
    out = sys.stdout
    cfg = apply_overrides(make_preset(name).cfg, overrides or {})
    ok = _print_feasibility(cfg, out)
    if strict and not ok:
        print("strict feasibility check failed; not running", file=out)
        return 2
    traces = list(zip(("proposed", "baseline"), _run_pair(cfg)))

    paths = [os.path.join(out_dir, f"{name}_{label}.csv") for label, _ in traces]
    plot_path = os.path.join(out_dir, f"{name}_h.svg")
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path, (_, trace) in zip(paths, traces):  # one CSV string held at a time
            with open(path, "w", newline="") as f:
                f.write(emit_csv(trace))
        with open(plot_path, "w", newline="") as f:
            f.write(emit_plot(traces, "h_true"))
    except OSError as err:
        raise ValueError(f"cannot write output: {err}") from err

    for label, trace in traces:
        _print_report(label, safety_report(trace, cfg), out)
    print(f"wrote {', '.join(paths + [plot_path])}", file=out)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise, so that main reports them
    as it reports every other failure; add_parser makes subparsers of the
    same class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def main(argv: Optional[list[str]] = None) -> int:
    """The cbfsim entry point, and the one place where a failure becomes
    exit status 1 (130 for Ctrl-C) and one "error: ..." line on stderr."""
    try:
        code = _run_command(argv)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError as err:
        # the reader closed stdout; the interpreter's final flush of the
        # lines still buffered goes to os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        message = f"cannot write to stdout: {err}"
    except (ValueError, RunError) as err:
        message = str(err)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # what a shell reports for a process ended by SIGINT
    print(f"error: {message}", file=sys.stderr)
    return 1


def _run_command(argv: Optional[list[str]]) -> int:
    """Parse argv and run its command: run_preset's status, or a raise."""
    parser = _ArgumentParser(
        prog="cbfsim",
        description="Observer-aware safety-filter simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a preset pair and write CSV traces and an SVG plot")
    run_p.add_argument("--preset", help=f"one of {', '.join(PRESET_NAMES)}")
    run_p.add_argument("--config", help="JSON config file (overrides a preset)")
    run_p.add_argument("--out", default="out", help="output directory (default ./out)")
    run_p.add_argument("--dt", type=float, help="override the step size")
    run_p.add_argument("--t-end", dest="t_end", type=float, help="override the horizon")
    run_p.add_argument("--strict", action="store_true", help="abort when the epsilon check fails")
    args = parser.parse_args(argv)

    if args.preset and args.config:
        raise ValueError("pass either --preset or --config, not both")
    overrides: dict = {}
    strict = False
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as err:
            raise ValueError(f"cannot read config: {err}") from err
        name, overrides, strict = _parse_config_doc(text)
    elif args.preset:
        name = args.preset
    else:
        raise ValueError("one of --preset or --config is required")
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.t_end is not None:
        overrides["t_end"] = args.t_end
    return run_preset(name, overrides, out_dir=args.out, strict=strict or args.strict)
