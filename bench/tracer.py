"""Span tracer that times cbfsim's layers from outside the package.

Nothing in cbfsim is edited. `instrument` rebinds each public function under
the module-global name its caller looks it up by (for example
`cbfsim.simloop.solve_halfspace_qp`), and `wrap_config` rebuilds a SimConfig
whose plant, observer and barrier callables are wrapped. Every wrapped call
is a span with a name, start, end and parent; spans started while
`Tracer.scenario` holds an id belong to that scenario.

A workload makes about 10^6 spans, so the tracer aggregates
(name, parent) -> [calls, self seconds] on the fly with a stack and keeps
full spans only for the first `SPAN_PREFIX` spans of each scenario. Self
time is a span's duration minus the durations of its traced children, so
the self times of all spans, the root's included, add up to the root's
wall time.
"""

from __future__ import annotations

import builtins
import dataclasses
import time
from contextlib import contextmanager

# Span names grouped into the per-layer metrics `<module>.<function>`.
LAYERS = (
    "simloop.rhs",
    "simloop.run_simulation",
    "integrator.rk4_step",
    "dynamics.callables",
    "dynamics.eval",
    "observer.rhs",
    "observer.bound",
    "fat.adaptive_rhs",
    "fat.fat_eval",
    "fat.basis_row",
    "barrier.assemble",
    "barrier.callables",
    "barrier.epsilon_bound",
    "qp.solve",
    "presets.make_preset",
    "cli.apply_overrides",
    "cli.emit_csv",
    "cli.emit_plot",
    "cli.write",
)

# Full spans kept per scenario; the rest are only aggregated.
SPAN_PREFIX = 2000


class Tracer:
    """Stack-based span recorder; one per process."""

    def __init__(self):
        self.scenario = None
        self.agg: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, int] = {}
        self.spans: list = []
        self.runs: list[dict] = []
        self._kept: dict = {}
        self._stack: list = []

    def _enter(self, name: str) -> list:
        idx = -1
        kept = self._kept.get(self.scenario, 0)
        if kept < SPAN_PREFIX:
            self._kept[self.scenario] = kept + 1
            idx = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, 0.0, idx, self.scenario]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        key = (frame[0], parent[0] if parent is not None else None)
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration - frame[2]
        if frame[3] >= 0:
            parent_idx = parent[3] if parent is not None else -1
            self.spans[frame[3]] = (frame[4], frame[0], parent_idx, frame[1], end)

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call is one span called `name`."""
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return sum(calls for (span, _), (calls, _) in self.agg.items() if span == name)

    def report(self) -> dict:
        """Aggregates, counters, per-run counts and the kept spans, as JSON data."""
        return {
            "agg": agg_rows(self.agg),
            "counters": dict(self.counters),
            "runs": self.runs,
            "spans": [list(s) for s in self.spans if s is not None],
        }


def agg_rows(agg: dict) -> list[list]:
    """(name, parent) -> [calls, self_s] as sorted [name, parent, calls, self_s] rows."""
    return [[name, parent, calls, s] for (name, parent), (calls, s) in sorted(
        agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]


def _wrap_callables(tracer: Tracer, name: str, obj):
    """Rebuild a frozen dataclass with every callable field (or tuple of
    callables) wrapped as spans called `name`."""
    changes = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if callable(value):
            changes[field.name] = tracer.wrap(name, value)
        elif isinstance(value, (tuple, list)) and value and all(callable(v) for v in value):
            changes[field.name] = tuple(tracer.wrap(name, v) for v in value)
    return dataclasses.replace(obj, **changes)


def wrap_config(tracer: Tracer, cfg):
    """SimConfig whose plant, observer, error-bound and barrier callables are spans."""
    observer = cfg.observer
    bound = _wrap_callables(tracer, "observer.bound", observer.bound)
    observer = dataclasses.replace(
        observer, rhs=tracer.wrap("observer.rhs", observer.rhs), bound=bound)
    return dataclasses.replace(
        cfg,
        system=_wrap_callables(tracer, "dynamics.callables", cfg.system),
        observer=observer,
        barrier=_wrap_callables(tracer, "barrier.callables", cfg.barrier),
    )


class _TracedFile:
    """File proxy whose write and close are `cli.write` spans."""

    def __init__(self, tracer: Tracer, f):
        self.write = tracer.wrap("cli.write", f.write)
        self._close = tracer.wrap("cli.write", f.close)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._close()


class Patches:
    """Module attributes rebound by `instrument`, restorable in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, module.__dict__.get(attr, _MISSING)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(module, attr)
            else:
                setattr(module, attr, old)


_MISSING = object()


def instrument(tracer: Tracer) -> Patches:
    """Rebind cbfsim's public functions, under the names their callers look
    up, to traced versions. Configs made by the rebound `make_preset` come
    back with wrapped callables. Returns the patches for `restore()`."""
    from cbfsim import barrier, cli, fat, presets, simloop

    patches = Patches()

    def plain(module, attr, name):
        patches.set(module, attr, tracer.wrap(name, getattr(module, attr)))

    run_simulation = tracer.wrap("simloop.run_simulation", simloop.run_simulation)

    def counted_run_simulation(cfg):
        before = tracer.calls("simloop.rhs"), tracer.calls("qp.solve")
        trace = run_simulation(cfg)
        tracer.runs.append({
            "scenario": tracer.scenario,
            "rows": len(trace),
            "rhs_calls": tracer.calls("simloop.rhs") - before[0],
            "qp_calls": tracer.calls("qp.solve") - before[1],
        })
        return trace

    patches.set(simloop, "run_simulation", counted_run_simulation)

    problem_cls = simloop.OdeProblem

    def traced_problem(dim, rhs):
        return problem_cls(dim=dim, rhs=tracer.wrap("simloop.rhs", rhs))

    patches.set(simloop, "OdeProblem", traced_problem)
    plain(simloop, "rk4_step", "integrator.rk4_step")
    for attr in ("eval_drift", "eval_input_matrix", "eval_output"):
        plain(simloop, attr, "dynamics.eval")
    for attr in ("eval_drift", "eval_input_matrix"):
        plain(barrier, attr, "dynamics.eval")
    plain(simloop, "adaptive_rhs", "fat.adaptive_rhs")
    plain(barrier, "fat_eval", "fat.fat_eval")
    plain(fat, "basis_row", "fat.basis_row")
    for attr in ("constraint_rd1", "constraint_rdr"):
        plain(simloop, attr, "barrier.assemble")
    for attr in ("epsilon_bound_rd1", "epsilon_bound_rdr"):
        plain(simloop, attr, "barrier.epsilon_bound")

    solve = tracer.wrap("qp.solve", simloop.solve_halfspace_qp)

    def counted_solve(u_d, c):
        res = solve(u_d, c)
        tracer.count("qp.active", int(res.active))
        tracer.count("qp.infeasible", int(not res.feasible))
        return res

    patches.set(simloop, "solve_halfspace_qp", counted_solve)

    make_preset = tracer.wrap("presets.make_preset", presets.make_preset)

    def traced_make_preset(name):
        preset = make_preset(name)
        return dataclasses.replace(preset, cfg=wrap_config(tracer, preset.cfg))

    patches.set(presets, "make_preset", traced_make_preset)
    patches.set(cli, "make_preset", traced_make_preset)
    plain(cli, "apply_overrides", "cli.apply_overrides")

    for attr in ("emit_csv", "emit_plot"):
        emit = tracer.wrap(f"cli.{attr}", getattr(cli, attr))

        def counted_emit(*args, _emit=emit, _name=f"cli.{attr}", **kwargs):
            text = _emit(*args, **kwargs)
            tracer.count(f"{_name}.bytes", len(text.encode()))
            return text

        patches.set(cli, attr, counted_emit)

    traced_open = tracer.wrap("cli.write", builtins.open)
    patches.set(cli, "open", lambda *args, **kwargs: _TracedFile(tracer, traced_open(*args, **kwargs)))
    return patches


def merge_reports(reports: list[dict]) -> dict:
    """Sum the aggregates and counters of several traced processes."""
    agg: dict = {}
    counters: dict = {}
    for rep in reports:
        for name, parent, calls, s in rep["agg"]:
            entry = agg.setdefault((name, parent), [0, 0.0])
            entry[0] += calls
            entry[1] += s
        for key, value in rep["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"agg": agg, "counters": counters}


def layer_metrics(merged: dict) -> dict[str, float]:
    """Per-layer metrics `<module>.<function>.<stat>` from merged reports."""
    agg, counters = merged["agg"], merged["counters"]

    def calls(name):
        return sum(c for (span, _), (c, _) in agg.items() if span == name)

    def self_s(name):
        return sum(s for (span, _), (_, s) in agg.items() if span == name)

    out: dict[str, float] = {}
    for name in LAYERS:
        if name == "simloop.run_simulation":
            out["simloop.run_simulation.calls"] = calls(name)
            out["simloop.loop.self_s"] = self_s(name)
            continue
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    qp_calls = calls("qp.solve")
    out["qp.active_ratio"] = counters.get("qp.active", 0) / qp_calls if qp_calls else 0.0
    out["qp.infeasible_ratio"] = counters.get("qp.infeasible", 0) / qp_calls if qp_calls else 0.0
    for name in ("cli.emit_csv", "cli.emit_plot"):
        out[f"{name}.bytes"] = counters.get(f"{name}.bytes", 0)
    out["trace.root.self_s"] = sum(s for (_, parent), (_, s) in agg.items() if parent is None)
    out["trace.self_total_s"] = sum(s for _, s in agg.values())
    return out
