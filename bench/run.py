"""cbfsim benchmark: the parent process of every measurement.

    python3 bench/run.py --workload presets-cli|mc-sweep|long-trace \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; cbfsim is imported from `src/`. Each
piece of work runs in a fresh child interpreter, one child at a time, with
BLAS/OpenMP pools pinned to one thread. With `--trace 0` the run prints the
end-to-end metrics (median over the set-ups and units it ran); with
`--trace 1` it runs one untraced and one traced unit and prints the
per-layer metrics. Every output is checked; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Results,
the generated scenarios and the spans go to `bench/out/`.

See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer as tracing
from child import GUARANTEE_TOL, RESIDUAL_TOL

BENCH = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH, "child.py")
REFERENCES = os.path.join(BENCH, "references.json")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("presets-cli", "mc-sweep", "long-trace")
PRESETS = ("example1a", "example1b", "example2")
MC_PRESETS = ("example1a", "example2")
MC_SCENARIOS = 12
MC_T_END = 1.5
LONG_SPEC = {"preset": "example2", "dt": 5e-4}
PRESET_T_END = None    # None runs each preset's own horizon

SETUP_SAMPLES = 10     # least number of timed set-ups per run
SETUPS_PER_ROUND = 3   # set-ups (of each preset, for presets-cli) beside each unit
MIN_UNITS = 3          # units measured per run even past --seconds
CHILD_TIMEOUT_S = 150.0
REL_TOL, ABS_TOL = 1e-9, 1e-12


# ---------------------------------------------------------------- inputs

def generate_draws(seed: int, count: int) -> list[dict]:
    """The mc-sweep scenario draws; the same seed gives the same list.

    e_unit is uniform in the unit ball (scaled by M(0) in the child);
    presets alternate example1a, example2."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        radius = rng.random() ** (1.0 / 3.0)
        draws.append({
            "preset": MC_PRESETS[i % len(MC_PRESETS)],
            "e_unit": [radius * c / norm for c in v],
            "eps_factor": rng.choice((0.25, 0.5, 1.0)),
            "mu_factor": rng.choice((0.5, 1.0, 2.0)),
            "on_infeasible": rng.choice(("nominal", "hold")),
        })
    return draws


def preset_order(seed: int) -> list[str]:
    """presets-cli runs the three presets in a seeded order."""
    order = list(PRESETS)
    random.Random(seed).shuffle(order)
    return order


# ---------------------------------------------------------------- children

def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """Outcome of one child process: exit code, wall time, peak RSS, output."""

    def __init__(self, code: int, wall_s: float, rss_mib: float, stdout: bytes, stderr: str):
        self.code, self.wall_s, self.rss_mib = code, wall_s, rss_mib
        self.stdout, self.stderr = stdout, stderr


def spawn(argv: list[str], cwd: str, env: dict) -> Child:
    """Run one child to completion; wall time is from spawn to reaping.

    Peak RSS comes from the child's own rusage (os.wait4), the per-child
    form of getrusage(RUSAGE_CHILDREN)."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out.read(), err.read().decode(errors="replace"))


# ---------------------------------------------------------------- checks

def close(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            close(g, w) for g, w in zip(got, want))
    if want is None or got is None or isinstance(want, (bool, str)):
        return got == want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def diff_summary(got: dict, want: dict, prefix: str = "") -> list[str]:
    """Keys of a recorded summary that the new summary does not reproduce."""
    reasons = []
    for key, ref in want.items():
        if isinstance(ref, dict):
            reasons += diff_summary(got.get(key, {}), ref, f"{prefix}{key}.")
        elif not close(got.get(key), ref):
            reasons.append(f"{prefix}{key} is {got.get(key)!r}, recorded {ref!r}")
    return reasons


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_REPORT_LINE = re.compile(r"^proposed: min h_true (\S+), .* bound violations (\d+),", re.M)


def check_cli_run(preset: str, child: Child, out_dir: str, refs: dict | None) -> tuple[list[str], int, dict]:
    """Checks of one `cbfsim run` invocation; returns reasons, rows, hashes."""
    if child.code != 0:
        return [f"exit code {child.code}: {child.stderr.strip()[-300:]}"], 0, {}
    files = {
        "proposed_csv": f"{preset}_proposed.csv",
        "baseline_csv": f"{preset}_baseline.csv",
        "svg": f"{preset}_h.svg",
    }
    data = {}
    for key, name in files.items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            return [f"{name} was not written"], 0, {}
        with open(path, "rb") as f:
            data[key] = f.read()
    hashes = {key: sha256(blob) for key, blob in data.items()}
    hashes["stdout"] = sha256(child.stdout)
    reasons = []
    if refs is not None:
        reasons += [f"{key} sha256 differs from the recorded one"
                    for key, ref in refs.items() if hashes.get(key) != ref]
    rows = 0
    min_h = {}
    for controller in ("proposed", "baseline"):
        lines = data[f"{controller}_csv"].decode().splitlines()
        header = lines[0].split(",")
        i_res, i_feas, i_h = (header.index(c) for c in ("residual", "qp_feasible", "h_true"))
        nonfinite = violated = 0
        low = math.inf
        for line in lines[1:]:
            fields = [float(v) for v in line.split(",")]
            nonfinite += not all(math.isfinite(v) for v in fields)
            violated += fields[i_feas] == 1.0 and fields[i_res] < RESIDUAL_TOL
            low = min(low, fields[i_h])
        rows += len(lines) - 1
        min_h[controller] = low
        if nonfinite:
            reasons.append(f"{controller}: {nonfinite} rows hold non-finite values")
        if violated:
            reasons.append(f"{controller}: applied u violates its own row on {violated} feasible steps")
    text = child.stdout.decode(errors="replace")
    eps_ok = "epsilon feasibility:" in text and "(ok)" in text
    m = _REPORT_LINE.search(text)
    if m is None:
        reasons.append("stdout lacks the proposed report line")
    elif eps_ok and int(m.group(2)) == 0 and min_h["proposed"] < GUARANTEE_TOL:
        reasons.append(f"proposed: epsilon ok and no bound violations, yet min h_true {min_h['proposed']!r}")
    return reasons, rows, hashes


# ---------------------------------------------------------------- workloads

class Run:
    """State of one benchmark invocation."""

    def __init__(self, root: str, workload: str, seed: int, run_dir: str, refs: dict):
        self.root, self.workload, self.seed, self.run_dir = root, workload, seed, run_dir
        self.refs = refs
        self.env = child_env(root)
        self.ops: list[dict] = []
        self.spec_path = os.path.join(run_dir, "spec.json")
        self.spec: dict = {}
        if workload == "mc-sweep":
            self.spec = {"draws": generate_draws(seed, MC_SCENARIOS), "t_end": MC_T_END}
        elif workload == "long-trace":
            self.spec = dict(LONG_SPEC)
        with open(self.spec_path, "w", encoding="utf-8") as f:
            json.dump(self.spec, f, indent=1)
        self.setup_by_preset: dict[str, list[float]] = {p: [] for p in PRESETS}
        self.scenarios = None

    def _scratch(self) -> str:
        return tempfile.mkdtemp(prefix="cli-", dir=self.run_dir)

    # -- set-up: a fresh interpreter up to the first closed-loop step

    def setup_sample(self, record: bool = True) -> list[float]:
        """Wall times of one set-up (one per preset, for presets-cli).
        With `record` false they feed no metric."""
        if self.workload == "presets-cli":
            walls = []
            for preset in preset_order(self.seed):
                cwd = self._scratch()
                child = spawn([sys.executable, "-m", "cbfsim", "run", "--preset", preset,
                               "--t-end", "0", "--out", "out"], cwd, self.env)
                shutil.rmtree(cwd)
                self._require_ok(child, f"set-up of {preset}")
                if record:
                    self.setup_by_preset[preset].append(child.wall_s)
                walls.append(child.wall_s)
            return walls
        child = spawn([sys.executable, CHILD, self.workload, "setup", self.spec_path,
                       os.path.join(self.run_dir, "setup.json")], self.run_dir, self.env)
        self._require_ok(child, "set-up")
        return [child.wall_s]

    def _require_ok(self, child: Child, what: str) -> None:
        if child.code != 0:
            raise SystemExit(f"bench: {what} exited with {child.code}:\n{child.stderr}")

    # -- one unit of measured work

    def unit(self, traced: bool) -> dict:
        if self.workload == "presets-cli":
            return self._unit_cli(traced)
        result_path = os.path.join(self.run_dir, "unit.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        argv = [sys.executable, CHILD, self.workload, "unit", self.spec_path, result_path]
        child = spawn(argv + (["--trace"] if traced else []), self.run_dir, self.env)
        if child.code != 0 or not os.path.isfile(result_path):
            reason = f"child exited with {child.code}: {child.stderr.strip()[-500:]}"
            self.ops += [{"id": op_id, "reasons": [reason]} for op_id in self.op_ids()]
            return {"steps": 0, "seconds": 0.0, "rss_mib": child.rss_mib, "reports": [], "import_s": []}
        with open(result_path, encoding="utf-8") as f:
            res = json.load(f)
        ops = res["ops"]
        self._check_references(ops)
        self.ops += ops
        if "scenarios" in res:
            self.scenarios = res["scenarios"]
        return {
            "steps": res["steps"], "seconds": res["timed_s"], "rss_mib": child.rss_mib,
            "reports": [res["trace"]] if traced else [],
            "import_s": [res["import_s"]], "traced_wall_s": res["traced_wall_s"],
        }

    def op_ids(self) -> list[str]:
        """Ids of the ops in one mc-sweep or long-trace unit."""
        if self.workload == "mc-sweep":
            return [f"s{i}" for i in range(len(self.spec["draws"]))]
        return ["long"]

    def _check_references(self, ops: list[dict]) -> None:
        if self.workload == "long-trace":
            want = self.refs.get("long-trace")
            for op in ops:
                if want is not None and "summary" in op:
                    op["reasons"] += diff_summary(op["summary"], want)
        elif self.workload == "mc-sweep":
            ref = self.refs.get("mc-sweep", {})
            if ref.get("seed") != self.seed:
                return
            for op in ops:
                want = ref["scenarios"].get(op["id"])
                if want is not None and "summary" in op:
                    op["reasons"] += diff_summary(op["summary"], want)

    def _unit_cli(self, traced: bool) -> dict:
        steps, rss, calls, reports, import_s, traced_wall = 0, 0.0, [], [], [], 0.0
        for preset in preset_order(self.seed):
            cwd = self._scratch()
            cli_args = ["run", "--preset", preset, "--out", "out"]
            if PRESET_T_END is not None:
                cli_args += ["--t-end", str(PRESET_T_END)]
            if traced:
                spec = os.path.join(cwd, "spec.json")
                result = os.path.join(cwd, "result.json")
                with open(spec, "w", encoding="utf-8") as f:
                    json.dump({"argv": cli_args}, f)
                child = spawn([sys.executable, CHILD, "presets-cli", "cli", spec, result, "--trace"],
                              cwd, self.env)
            else:
                child = spawn([sys.executable, "-m", "cbfsim"] + cli_args, cwd, self.env)
            reasons, rows, _ = check_cli_run(preset, child, os.path.join(cwd, "out"),
                                             self.refs.get("presets", {}).get(preset))
            if traced and child.code == 0:
                with open(result, encoding="utf-8") as f:
                    res = json.load(f)
                reports.append(res["trace"])
                import_s.append(res["import_s"])
                traced_wall += res["traced_wall_s"]
            shutil.rmtree(cwd)
            self.ops.append({"id": preset, "reasons": reasons})
            steps += rows
            calls.append((preset, child.wall_s))
            rss = max(rss, child.rss_mib)
        return {"steps": steps, "calls": calls, "rss_mib": rss, "reports": reports,
                "import_s": import_s, "traced_wall_s": traced_wall}

    def steps_per_s(self, unit: dict) -> float:
        """Steps per second after set-up. A CLI invocation's set-up is the
        median wall time of `--t-end 0` runs of the same preset."""
        if "calls" in unit:
            seconds = sum(wall - statistics.median(self.setup_by_preset[p]) for p, wall in unit["calls"])
        else:
            seconds = unit["seconds"]
        return unit["steps"] / seconds if seconds > 0 else 0.0


# ---------------------------------------------------------------- runs

def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off.

    Rounds of several set-ups and one unit alternate, so that both sample
    the whole run."""
    start = time.perf_counter()
    run.setup_sample(record=False)  # warm-up: page cache and bytecode
    setups, units = [], []
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            setups += run.setup_sample()
        units.append(run.unit(traced=False))
        took = time.perf_counter() - t0
        if len(units) >= MIN_UNITS and time.perf_counter() + took > start + seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups += run.setup_sample()
    rates = [run.steps_per_s(u) for u in units]
    metrics = {
        "setup_s": statistics.median(setups),
        "steps_per_s": statistics.median(rates),
        "peak_rss_mib": statistics.median(u["rss_mib"] for u in units),
    }
    detail = {"setup_samples_s": setups, "units": [
        {"steps": u["steps"], "steps_per_s": r, "rss_mib": u["rss_mib"]} for u, r in zip(units, rates)]}
    return metrics, detail


def traced(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from one traced unit, beside one untraced unit."""
    if run.workload == "presets-cli":
        for _ in range(3):
            run.setup_sample()
    plain = run.unit(traced=False)
    unit = run.unit(traced=True)
    merged = tracing.merge_reports(unit["reports"])
    metrics = tracing.layer_metrics(merged)
    plain_sps, traced_sps = run.steps_per_s(plain), run.steps_per_s(unit)
    metrics["setup.import_s"] = statistics.median(unit["import_s"]) if unit["import_s"] else 0.0
    metrics["trace.overhead_ratio"] = traced_sps / plain_sps - 1.0 if plain_sps else 0.0
    wall = unit.get("traced_wall_s", 0.0)
    metrics["trace.accounted_ratio"] = metrics.pop("trace.self_total_s") / wall if wall else 0.0
    detail = {
        "untraced_steps_per_s": plain_sps, "traced_steps_per_s": traced_sps,
        "agg": tracing.agg_rows(merged["agg"]),
        "counters": merged["counters"],
        "runs": [r for rep in unit["reports"] for r in rep["runs"]],
    }
    spans = [s for rep in unit["reports"] for s in rep["spans"]]
    with open(os.path.join(run.run_dir, "spans.json"), "w", encoding="utf-8") as f:
        json.dump({"fields": ["scenario", "name", "parent", "start", "end"], "spans": spans,
                   "agg": detail["agg"]}, f)
    return metrics, detail


def environment(root: str, env: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           env=env, capture_output=True, text=True).stdout.strip() or None
    record = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
              "numpy": numpy, "commit": None, "dirty": None}
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            record["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                              text=True, check=True).stdout.strip()
            record["dirty"] = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return record


UNITS = {
    "setup_s": "s", "steps_per_s": "steps/s", "peak_rss_mib": "MiB",
    "setup.import_s": "s", "trace.overhead_ratio": "ratio", "trace.accounted_ratio": "ratio",
    "qp.active_ratio": "ratio", "qp.infeasible_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return {"calls": "count", "self_s": "s", "bytes": "bytes"}[name.rsplit(".", 1)[1]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cbfsim", "__init__.py")):
        print(f"bench: no cbfsim sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        with open(REFERENCES, encoding="utf-8") as f:
            refs = json.load(f)
    except FileNotFoundError:
        refs = {}
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    run = Run(root, args.workload, args.seed, run_dir, refs)
    if args.trace:
        metrics, detail = traced(run)
    else:
        metrics, detail = measure(run, args.seconds)
    failed = [op for op in run.ops if op["reasons"]]
    attempted = len(run.ops)
    ratio = len(failed) / attempted if attempted else 1.0

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root, run.env),
        "ops_failed_ratio": ratio, "attempted": attempted,
        "failed_ops": [{"id": op["id"], "reasons": op["reasons"]} for op in failed],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "detail": detail,
        "ops": run.ops,
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    if run.scenarios is not None:
        with open(os.path.join(run_dir, "scenarios.json"), "w", encoding="utf-8") as f:
            json.dump({"seed": args.seed, "scenarios": run.scenarios}, f, indent=1)

    op_kind = {"presets-cli": "CLI invocations", "mc-sweep": "scenarios", "long-trace": "runs"}
    print(f"{args.workload} seed {args.seed} trace {args.trace}  (results in {os.path.relpath(run_dir, root)})")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops_failed_ratio':32s} {ratio:.6g} failed/attempted "
          f"({len(failed)}/{attempted} {op_kind[args.workload]})")
    for op in failed:
        print(f"  FAILED {op['id']}: {'; '.join(op['reasons'])}")
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
