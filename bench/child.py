"""One benchmark child: a fresh interpreter that runs one piece of a workload.

    python3 bench/child.py WORKLOAD PHASE SPEC_JSON RESULT_JSON [--trace]

PHASE is `setup` (import cbfsim and build and validate every config the
workload runs, then exit; the parent times the whole process) or `unit` (set
up, then run the workload's unit of work, check every output and write the
result). For presets-cli the untraced child is `python3 -m cbfsim run`
itself; this script only runs it in PHASE `cli`, traced, with SPEC_JSON
holding the CLI arguments. With `--trace` every cbfsim layer is timed by
`tracer.instrument` and the aggregates go into the result.

Only the calls into cbfsim are timed for `timed_s`; the correctness checks
run outside that window.
"""

from __future__ import annotations

import json
import sys
import time

import tracer as tracing

# A child imports only what the measured work needs, so that its peak RSS is
# cbfsim's; run.py imports these from here.
RESIDUAL_TOL = -1e-9
GUARANTEE_TOL = -1e-6


def check_run(trace, report, controller: str) -> list[str]:
    """Reference-free checks of one run; returns the reasons it failed."""
    import numpy as np

    reasons = []
    for name, col in trace.columns().items():
        if not np.all(np.isfinite(np.asarray(col, dtype=float))):
            reasons.append(f"{controller}: non-finite value in column {name}")
    bad = int(np.count_nonzero(trace.residual[trace.qp_feasible] < RESIDUAL_TOL))
    if bad:
        reasons.append(f"{controller}: applied u violates its own row on {bad} feasible steps")
    if (controller == "proposed" and report.epsilon_ok and report.bound_violations == 0
            and report.min_h_true < GUARANTEE_TOL):
        reasons.append(
            f"proposed: epsilon ok and no bound violations, yet min h_true {report.min_h_true!r}")
    return reasons


def run_summary(report) -> dict:
    return {
        "min_h_true": report.min_h_true,
        "first_violation_t": report.first_violation_t,
        "bound_violations": report.bound_violations,
        "infeasible_steps": report.infeasible_steps,
    }


def build_mc(cbfsim, draws: list[dict], t_end: float):
    """Configs for the mc-sweep draws, plus the resolved scenario list.

    x̂0 stays at the preset value and the true x0 = x̂0 - e with
    e = M(0) * e_unit, so ||e|| <= M(0); epsilon is a fraction of the
    preset's feasibility bound and mu a multiple of the preset's mu."""
    configs, resolved = [], []
    for i, d in enumerate(draws):
        cfg = cbfsim.presets.make_preset(d["preset"]).cfg
        m0 = float(cfg.observer.bound.value(0.0))
        e = [m0 * v for v in d["e_unit"]]
        eps = d["eps_factor"] * cbfsim.simloop.compute_epsilon_bound(cfg)
        mu = d["mu_factor"] * cfg.adaptive0.mu
        cfg = cbfsim.cli.apply_overrides(cfg, {
            "x0": [float(xh) - ei for xh, ei in zip(cfg.xhat0, e)],
            "epsilon": eps,
            "mu": mu,
            "on_infeasible": d["on_infeasible"],
            "t_end": t_end,
        })
        cbfsim.simloop.compute_epsilon_bound(cfg)
        configs.append(cfg)
        resolved.append({"id": i, "preset": d["preset"], "e": e, "epsilon": eps, "mu": mu,
                         "on_infeasible": d["on_infeasible"], "t_end": t_end})
    return configs, resolved


def build_long(cbfsim, spec: dict):
    cfg = cbfsim.presets.make_preset(spec["preset"]).cfg
    cfg = cbfsim.cli.apply_overrides(cfg, {k: spec[k] for k in ("dt", "t_end") if k in spec})
    cbfsim.simloop.compute_epsilon_bound(cfg)
    return cfg


def unit_mc(cbfsim, tr, configs, resolved) -> dict:
    ops, steps, timed = [], 0, 0.0
    for cfg, scen in zip(configs, resolved):
        tr.scenario = f"s{scen['id']}"
        op = {"id": tr.scenario, "reasons": []}
        ops.append(op)
        try:
            with tr.span("bench.scenario"):
                t0 = time.perf_counter()
                proposed, baseline = cbfsim.simloop.run_pair(cfg)
                rep_p = cbfsim.simloop.safety_report(proposed, cfg)
                rep_b = cbfsim.simloop.safety_report(baseline, cfg)
                timed += time.perf_counter() - t0
        except Exception as err:  # an op that raises is a failed op, not a crash
            op["reasons"].append(f"raised {type(err).__name__}: {err}")
            continue
        steps += len(proposed) + len(baseline)
        op["reasons"] += check_run(proposed, rep_p, "proposed") + check_run(baseline, rep_b, "baseline")
        op["summary"] = {"proposed": run_summary(rep_p), "baseline": run_summary(rep_b),
                         "epsilon_ok": rep_p.epsilon_ok}
    return {"ops": ops, "steps": steps, "timed_s": timed}


def unit_long(cbfsim, tr, cfg) -> dict:
    tr.scenario = "long"
    op = {"id": "long", "reasons": []}
    try:
        with tr.span("bench.scenario"):
            t0 = time.perf_counter()
            trace = cbfsim.simloop.run_simulation(cfg)
            csv_text = cbfsim.cli.emit_csv(trace)
            svg_text = cbfsim.cli.emit_plot([("proposed", trace)], "h_true")
            report = cbfsim.simloop.safety_report(trace, cfg)
            timed = time.perf_counter() - t0
    except Exception as err:  # an op that raises is a failed op, not a crash
        op["reasons"].append(f"raised {type(err).__name__}: {err}")
        return {"ops": [op], "steps": 0, "timed_s": 0.0}
    op["reasons"] += check_run(trace, report, "proposed")
    op["summary"] = {
        "min_h_true": report.min_h_true,
        "min_h0": report.min_h0,
        "infeasible_steps": report.infeasible_steps,
        "final_x": [float(v) for v in trace.x[-1]],
        "final_xhat": [float(v) for v in trace.xhat[-1]],
        "epsilon_ok": report.epsilon_ok,
        "csv_bytes": len(csv_text.encode()),
        "svg_bytes": len(svg_text.encode()),
    }
    return {"ops": [op], "steps": len(trace), "timed_s": timed}


def run_cli(cbfsim, tr, argv: list[str]) -> dict:
    tr.scenario = argv[argv.index("--preset") + 1]
    with tr.span("cli.main"):
        code = cbfsim.cli.main(argv)
    return {"exit_code": code}


def main(argv: list[str]) -> int:
    workload, phase, spec_path, result_path = argv[:4]
    traced = "--trace" in argv[4:]
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)

    t0 = time.perf_counter()
    import cbfsim
    import_s = time.perf_counter() - t0

    tr = tracing.Tracer()
    if traced:
        tracing.instrument(tr)
    wall0 = time.perf_counter()
    result: dict = {"import_s": import_s}
    if phase == "cli":
        result.update(run_cli(cbfsim, tr, spec["argv"]))
    else:
        with tr.span("bench.setup"):
            if workload == "mc-sweep":
                configs, resolved = build_mc(cbfsim, spec["draws"], spec["t_end"])
                result["scenarios"] = resolved
            else:
                cfg = build_long(cbfsim, spec)
        if phase == "setup":
            return 0
        if workload == "mc-sweep":
            result.update(unit_mc(cbfsim, tr, configs, resolved))
        else:
            result.update(unit_long(cbfsim, tr, cfg))
    result["traced_wall_s"] = time.perf_counter() - wall0
    if traced:
        result["trace"] = tr.report()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f, allow_nan=True)
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
