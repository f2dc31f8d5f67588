"""Record the correctness references that bench/run.py checks on every run.

    python3 bench/record.py

Run it from the repository root, at the commit whose outputs are the
reference. It writes bench/references.json with the sha256 of each preset's
two CSVs, SVG and stdout from `cbfsim run`, the long-trace summary, and the
mc-sweep per-scenario summaries for seed MC_SEED. Re-record only in a change
that explains why the program's outputs changed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run as bench

MC_SEED = 0
LONG_KEYS = ("min_h_true", "min_h0", "infeasible_steps", "final_x", "final_xhat")


def main() -> int:
    root = os.getcwd()
    env = bench.child_env(root)
    os.makedirs(bench.OUT, exist_ok=True)
    refs: dict = {"commit": bench.environment(root, env)["commit"], "presets": {}}
    for preset in bench.PRESETS:
        cwd = tempfile.mkdtemp(prefix="record-", dir=bench.OUT)
        try:
            child = bench.spawn([sys.executable, "-m", "cbfsim", "run", "--preset", preset,
                                 "--out", "out"], cwd, env)
            reasons, _, hashes = bench.check_cli_run(preset, child, os.path.join(cwd, "out"), None)
        finally:
            shutil.rmtree(cwd)
        if reasons:
            raise SystemExit(f"{preset}: {reasons}")
        refs["presets"][preset] = hashes

    for workload, seed in (("long-trace", 0), ("mc-sweep", MC_SEED)):
        run_dir = tempfile.mkdtemp(prefix="record-", dir=bench.OUT)
        try:
            run = bench.Run(root, workload, seed, run_dir, {})
            run.unit(traced=False)
        finally:
            shutil.rmtree(run_dir)
        bad = [op for op in run.ops if op["reasons"]]
        if bad:
            raise SystemExit(f"{workload}: {bad}")
        if workload == "long-trace":
            summary = run.ops[0]["summary"]
            refs["long-trace"] = {k: summary[k] for k in LONG_KEYS}
        else:
            refs["mc-sweep"] = {"seed": seed, "scenarios": {
                op["id"]: {c: op["summary"][c] for c in ("proposed", "baseline")} for op in run.ops}}

    with open(bench.REFERENCES, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(bench.REFERENCES, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
