"""The README's "Library use" example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
