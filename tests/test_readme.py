"""The README's examples run and print what it says, and the package
exports the names its "Library use" section lists."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cbfsim
from cbfsim import main

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "make_preset", "PRESET_NAMES", "run_simulation", "run_pair", "safety_report", "main",
    "SimConfig", "SimTrace", "SafetyReport", "RunError",
    "ControlAffineSystem", "EeqObserver", "ErrorBoundModel", "BarrierChain", "AdaptiveState",
]


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_use_block() -> str:
    return re.search(r"```python\n(.*?)```", _section("Library use"), re.S).group(1)


def test_readme_library_use_prints_its_comments():
    code = _library_use_block()
    # each print line ends in "# <value>"; "..." marks a truncated value
    want = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    got = out.getvalue().splitlines()
    assert len(got) == len(want)
    for printed, comment in zip(got, want):
        if comment.endswith("..."):
            assert printed.startswith(comment[:-3]), (printed, comment)
        else:
            assert float(printed) == pytest.approx(float(comment), rel=0, abs=1e-12), (printed, comment)


def test_readme_command_line_prints_its_block(tmp_path, capsys):
    section = _section("Command line")
    command, printed = re.findall(r"```\w*\n(.*?)```", section, re.S)[:2]
    argv = shlex.split(command.strip())
    assert argv[0] == "cbfsim" and argv[-2:] == ["--out", "out"]
    out_dir = tmp_path / "out"
    assert main(argv[1:-1] + [str(out_dir)]) == 0
    captured = capsys.readouterr()
    want = printed.replace("out/", f"{out_dir}{os.sep}").splitlines()
    assert len(want) == 4
    assert captured.out.splitlines() == want
    assert captured.err == ""


def test_public_surface_is_the_documented_one():
    assert sorted(cbfsim.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(cbfsim, name) is not None, name
    documented = set(re.findall(r"`(\w+)`", _section("Library use").split("Every other name", 1)[0]))
    assert set(PUBLIC) <= documented
    # a fresh interpreter: `import cbfsim` alone loads the modules the CLI
    # and the benchmark reach through the package
    env = dict(os.environ, PYTHONPATH=str(Path(cbfsim.__file__).parents[1]))
    code = "import cbfsim; cbfsim.cli.main; cbfsim.presets.make_preset; cbfsim.simloop.run_pair"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
