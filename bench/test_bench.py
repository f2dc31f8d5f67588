"""Self-tests of the benchmark (stdlib and pytest only).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

They check the tracer's counts against the traces it observed, the
generator's determinism, the metric names and units against
BENCHMARK.json, and run every workload end to end on a short horizon.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracer as tracing

REPO = os.path.dirname(bench.BENCH)
sys.path.insert(0, os.path.join(REPO, "src"))


@pytest.fixture
def traced():
    """A Tracer with cbfsim instrumented for the duration of one test."""
    tr = tracing.Tracer()
    patches = tracing.instrument(tr)
    try:
        yield tr
    finally:
        patches.restore()


@pytest.mark.parametrize("preset", bench.PRESETS)
def test_counts_per_run_match_trace_rows(traced, preset):
    import cbfsim

    cfg = cbfsim.cli.apply_overrides(cbfsim.presets.make_preset(preset).cfg, {"t_end": 0.0505})
    with traced.span("root"):
        proposed, baseline = cbfsim.simloop.run_pair(cfg)
    assert [r["rows"] for r in traced.runs] == [len(proposed), len(baseline)] == [52, 52]
    for r in traced.runs:
        assert r["rhs_calls"] == 4 * (r["rows"] - 1)
        assert r["qp_calls"] == r["rows"]


def test_self_times_account_for_root_wall(traced):
    import cbfsim

    with traced.span("root"):
        cfg = cbfsim.cli.apply_overrides(cbfsim.presets.make_preset("example2").cfg, {"t_end": 0.05})
        cbfsim.simloop.run_pair(cfg)
    merged = tracing.merge_reports([traced.report()])
    (root_s,) = [s for (name, _), (_, s) in merged["agg"].items() if name == "root"]
    root = [s for s in traced.report()["spans"] if s[1] == "root"][0]
    metrics = tracing.layer_metrics(merged)
    total = metrics["trace.self_total_s"]
    assert total == pytest.approx(root[4] - root[3], rel=1e-9)
    assert 0 < root_s < total
    layers = sum(metrics[f"{name}.self_s"] for name in tracing.LAYERS if name != "simloop.run_simulation")
    assert layers + metrics["simloop.loop.self_s"] + metrics["trace.root.self_s"] == pytest.approx(total)


def test_instrument_restores_every_name():
    import cbfsim

    before = {m: dict(vars(getattr(cbfsim, m))) for m in ("simloop", "barrier", "fat", "cli", "presets")}
    tracing.instrument(tracing.Tracer()).restore()
    after = {m: dict(vars(getattr(cbfsim, m))) for m in before}
    assert after == before


def test_emit_bytes_equal_written_files(traced, tmp_path, capsys):
    import cbfsim

    with traced.span("cli.main"):
        code = cbfsim.cli.main(["run", "--preset", "example1b", "--t-end", "0.05", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    size = {p: os.path.getsize(tmp_path / p) for p in os.listdir(tmp_path)}
    assert traced.counters["cli.emit_csv.bytes"] == size["example1b_proposed.csv"] + size["example1b_baseline.csv"]
    assert traced.counters["cli.emit_plot.bytes"] == size["example1b_h.svg"]
    metrics = tracing.layer_metrics(tracing.merge_reports([traced.report()]))
    assert metrics["cli.emit_csv.calls"] == 2 and metrics["cli.emit_plot.calls"] == 1
    assert metrics["cli.write.calls"] == 9  # open, write and close of each file
    assert metrics["qp.infeasible_ratio"] == 1.0


def test_generator_is_deterministic():
    draws = bench.generate_draws(7, 12)
    assert draws == bench.generate_draws(7, 12)
    assert draws != bench.generate_draws(8, 12)
    assert [d["preset"] for d in draws[:4]] == ["example1a", "example2"] * 2
    for d in draws:
        assert sum(v * v for v in d["e_unit"]) <= 1.0
        assert d["eps_factor"] in (0.25, 0.5, 1.0) and d["mu_factor"] in (0.5, 1.0, 2.0)
        assert d["on_infeasible"] in ("nominal", "hold")
    assert bench.preset_order(3) == bench.preset_order(3)
    assert sorted(bench.preset_order(3)) == sorted(bench.PRESETS)


@pytest.fixture
def short(monkeypatch, tmp_path):
    """Shrink every workload to a short horizon and drop the references,
    which hold only for the full-length workloads."""
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(bench, "OUT", str(tmp_path / "out"))
    monkeypatch.setattr(bench, "REFERENCES", str(tmp_path / "none.json"))
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(bench, "MIN_UNITS", 1)
    monkeypatch.setattr(bench, "MC_SCENARIOS", 2)
    monkeypatch.setattr(bench, "MC_T_END", 0.1)
    monkeypatch.setattr(bench, "LONG_SPEC", {"preset": "example2", "dt": 5e-4, "t_end": 0.1})
    monkeypatch.setattr(bench, "PRESET_T_END", 1.0)
    return tmp_path / "out"


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_short_run_prints_every_metric(short, capsys, workload):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert workload in [w["name"] for w in spec["workloads"]]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert bench.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                           "--trace", str(trace)]) == 0
        result = _last_json(capsys)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(m["value"] > 0 for name, m in result["metrics"].items()
                   if name in ("setup_s", "steps_per_s", "peak_rss_mib", "simloop.rhs.calls"))
    if workload == "mc-sweep":
        with open(short / "mc-sweep-seed5-trace0" / "scenarios.json", encoding="utf-8") as f:
            scenarios = json.load(f)["scenarios"]
        assert [s["preset"] for s in scenarios] == ["example1a", "example2"]
        assert scenarios[0]["t_end"] == 0.1


def test_presets_cli_reference_hashes_are_checked(short, capsys, monkeypatch):
    monkeypatch.setattr(bench, "REFERENCES", os.path.join(bench.BENCH, "references.json"))
    bench.main(["--workload", "presets-cli", "--seed", "0", "--seconds", "0", "--trace", "0"])
    result = _last_json(capsys)
    # The recorded hashes are of the full horizon, so a 1 s run must fail them.
    assert not result["correct"] and result["failed"] == result["attempted"]


@pytest.mark.parametrize("workload, ids", [("mc-sweep", ["s0", "s1", "s2"]), ("long-trace", ["long"])])
def test_crashed_child_fails_every_op(tmp_path, monkeypatch, workload, ids):
    monkeypatch.setattr(bench, "MC_SCENARIOS", 3)
    monkeypatch.setattr(bench, "spawn", lambda *a: bench.Child(-9, 1.0, 30.0, b"", "killed"))
    run = bench.Run(REPO, workload, 0, str(tmp_path), {})
    run.unit(traced=False)
    assert [op["id"] for op in run.ops] == ids
    assert all(op["reasons"] == ["child exited with -9: killed"] for op in run.ops)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "long-trace", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
