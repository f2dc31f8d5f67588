import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

import cbfsim
from cbfsim import PRESET_NAMES, RunError, SimTrace, main, run_pair, run_simulation, safety_report, simloop
from cbfsim.cli import (
    _parse_config_doc, _print_feasibility, _print_report, _run_pair, apply_overrides, emit_csv,
    emit_plot, run_preset,
)
from cbfsim.presets import ROSSLER_GAINS, ROSSLER_PARAMS, make_preset


# ---------------------------------------------------------------- config


def test_parse_config_passthrough():
    name, overrides = _parse_config_doc('{"preset": "example1a"}')
    assert name == "example1a" and overrides == {}
    cfg = apply_overrides(make_preset(name).cfg, overrides)
    ref = make_preset("example1a").cfg
    assert cfg.dt == ref.dt == 1e-3
    assert cfg.t_end == ref.t_end == 10.0
    assert cfg.adaptive0.mu == 3.5
    np.testing.assert_array_equal(cfg.x0, ref.x0)


def test_overrides_land_where_they_belong():
    cfg = apply_overrides(make_preset("example1a").cfg, {
        "dt": 0.01, "t_end": 2.0, "epsilon": 0.05, "mu": 4.0, "omega": 2.0, "E": 0.2,
        "x0": [1, 2, 3], "u_d": [0.5], "on_infeasible": "hold"})
    assert cfg.dt == 0.01 and cfg.t_end == 2.0
    assert cfg.adaptive0.epsilon == 0.05 and cfg.adaptive0.mu == 4.0
    assert cfg.adaptive0.omega == 2.0 and cfg.adaptive0.E == 0.2
    np.testing.assert_array_equal(cfg.x0, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(cfg.u_nominal(0.0, cfg.xhat0), [0.5])
    assert cfg.on_infeasible == "hold"
    # the strict gate is run_preset's alone; no SimConfig field carries it
    with pytest.raises(ValueError, match="unknown config key 'strict_feasibility'"):
        apply_overrides(cfg, {"strict_feasibility": True})


def test_epsilon_override_flips_feasibility_verdict():
    cfg = apply_overrides(make_preset("example1a").cfg, {"epsilon": 0.2, "t_end": 0})
    trace = run_simulation(cfg)
    report = safety_report(trace, cfg)
    assert report.epsilon_bound == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert not report.epsilon_ok  # 0.2 > 1/6


@pytest.mark.parametrize("doc,needle", [
    ('{"preset": "example1a", "dt": -1}', "dt must be > 0"),
    ('{"preset": "example1a", "dt": "fast"}', "expected a number"),
    ('{"preset": "example1a", "epsilon": true}', "expected a number"),
    ('{"preset": "example1a", "t_end": Infinity}', "expected a number"),
    ('{"preset": "example1a", "dt": Infinity}', "expected a number"),
    ('{"preset": "example1a", "x0": [NaN, 1, 1]}', "expected a number"),
    ('{"preset": "example1a", "epsilon": Infinity}', "expected a number"),
    pytest.param('{"preset": "example1a", "mu": 1' + "0" * 400 + '}', "expected a number",
                 id="integer-beyond-float-range"),
    ('{"preset": "example1a", "bogus": 1}', "unknown config key 'bogus'"),
    ('{"preset": "example1a", "x0": [1, 2]}', "x0"),
    ('{"preset": "example1a", "u_d": 3}', "u_d"),
    ('{"preset": "example1a", "strict_feasibility": true}', "unknown config key 'strict_feasibility'"),
    ('{"preset": "example1a", "on_infeasible": "drop"}', "'nominal' or 'hold'"),
    ('{"preset": "nope"}', "unknown preset"),
    ('{"preset": ["example1a"]}', "unknown preset"),  # unhashable: not a table key
    ('[1, 2]', "JSON object"),
    ('{"dt": 0.1}', "'preset' key"),
])
def test_config_rejections(tmp_path, capsys, doc, needle):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(doc)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and needle in line
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_config_syntax_error_reports_position():
    with pytest.raises(ValueError, match=r"config parse error at line 2, column 9: Expecting value"):
        _parse_config_doc('{"preset": "example1a",\n  "dt": }')


def test_apply_overrides_no_changes_returns_same_config():
    cfg = make_preset("example1a").cfg
    assert apply_overrides(cfg, {}) is cfg


# ---------------------------------------------------------------- CSV


HEADER_1A = (
    "t,x1,x2,x3,xhat1,xhat2,xhat3,u1,h_true,h0,barrier_eps,residual,M,"
    "theta_norm_1,theta_norm_2,theta_norm_3,qp_active,qp_feasible"
)


def test_csv_single_sample_hand_row():
    cfg = replace(make_preset("example1a").cfg, t_end=0.0)
    text = emit_csv(run_simulation(cfg))
    lines = text.split("\n")
    assert lines[0] == HEADER_1A
    assert len(lines) == 3 and lines[2] == ""  # one data row, LF-terminated
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert fields[1:4] == ["2", "2.2", "2"]
    assert fields[4:7] == ["3", "3.5", "3"]
    assert fields[7] == "0.35"  # active constraint at t = 0
    assert fields[8] == "1.2" and fields[9] == "0.5" and fields[10] == "0.4"
    assert abs(float(fields[11])) < 1e-12  # residual: tight at the boundary
    assert fields[12] == "2"
    assert fields[13:16] == ["0", "0", "0"]
    assert fields[16] == "1" and fields[17] == "1"
    assert "\r" not in text


def test_csv_round_trip():
    cfg = replace(make_preset("example1a").cfg, t_end=0.2)
    trace = run_simulation(cfg)
    data = np.genfromtxt(io.StringIO(emit_csv(trace)), delimiter=",", names=True)
    assert data.shape == (201,)
    cols = trace.columns()
    for name, col in cols.items():
        np.testing.assert_allclose(
            data[name], col.astype(float), rtol=5e-12, atol=1e-300, err_msg=name)


# sha256 of each preset's emitted CSV; any change to a trace byte shows here.
PRESET_CSV_SHA256 = {
    ("example1a", "proposed"): "0e80099998157ba728b6bd6d784971c4e5476b1d3ef8f5213a29f2a2c88a3313",
    ("example1a", "baseline"): "2fe2dfee74402dcc8198db7c06a931d132a7c0498985db1c6d0d0aba8c30d00b",
    ("example1b", "proposed"): "adbc886c32bf65aac4a99d0c4dde758f3037d23cadcd396aab489f35cd3a9c3a",
    ("example1b", "baseline"): "31f6642a2908c848a27286ab53d6129f9e3803604c89be9428a8d61db3c3602b",
    ("example1c", "proposed"): "4db5c762e9c51d1b6b867fd776e7d3dffc02af1fc2c176856319507cae73d012",
    ("example1c", "baseline"): "8d2eaa744a6fa077e180a022e7977edcccc3f790c5089fab8a279dc79cc14ae9",
    ("example2", "proposed"): "076ff9caa1dc5b0726d558ecedeb2f91a82641fee7b0bb31652c04eed206134d",
    ("example2", "baseline"): "ba8f0c8ecb093d3a588cc32551f59f888d117f5206aae3527b08c183d45fdd8d",
}


def test_preset_csv_bytes_pinned(preset_runs):
    got = {
        (name, controller): hashlib.sha256(emit_csv(run[controller]).encode()).hexdigest()
        for name, run in preset_runs.items()
        for controller in ("proposed", "baseline")
    }
    assert got == PRESET_CSV_SHA256


def test_csv_empty_trace_rejected():
    empty = SimTrace(
        t=np.empty(0), x=np.empty((0, 1)), xhat=np.empty((0, 1)),
        u=np.empty((0, 1)), h_true=np.empty(0), h0=np.empty(0),
        barrier_eps=np.empty(0), residual=np.empty(0), M=np.empty(0),
        theta_norms=np.empty((0, 1)), qp_active=np.empty(0, dtype=bool),
        qp_feasible=np.empty(0, dtype=bool),
    )
    with pytest.raises(ValueError):
        emit_csv(empty)


# ---------------------------------------------------------------- SVG


def _polylines(svg: str) -> list[tuple[str, np.ndarray]]:
    out = []
    for m in re.finditer(r'<polyline fill="none" stroke="(#\w+)" stroke-width="1.5" points="([^"]*)"', svg):
        pts = np.array([[float(v) for v in p.split(",")] for p in m.group(2).split()])
        out.append((m.group(1), pts))
    return out


def _zero_line_y(svg: str) -> float:
    m = re.search(r'<line id="zero-line" x1="\d+" y1="([0-9.]+)"', svg)
    assert m, "zero line missing"
    return float(m.group(1))


def test_svg_structure_and_safety_geometry(preset_runs):
    run = preset_runs["example1a"]
    svg = emit_plot([("proposed", run["proposed"]), ("baseline", run["baseline"])], "h_true")
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert 'width="800" height="500"' in svg
    assert ">proposed</text>" in svg and ">baseline</text>" in svg
    assert ">t [s]</text>" in svg and ">h_true</text>" in svg

    lines = _polylines(svg)
    assert len(lines) == 2
    assert lines[0][0] == "#1f77b4" and lines[1][0] == "#d62728"
    zero_y = _zero_line_y(svg)
    # svg y grows downward: h > 0 plots strictly above the zero line
    assert lines[0][1][:, 1].max() < zero_y
    assert lines[1][1][:, 1].max() > zero_y  # baseline dips below safety


def test_svg_constant_series_is_flat():
    S = 5
    trace = SimTrace(
        t=np.linspace(0.0, 1.0, S), x=np.ones((S, 1)), xhat=np.ones((S, 1)),
        u=np.zeros((S, 1)), h_true=np.full(S, 2.0), h0=np.full(S, 2.0),
        barrier_eps=np.zeros(S), residual=np.zeros(S), M=np.zeros(S),
        theta_norms=np.zeros((S, 1)), qp_active=np.zeros(S, dtype=bool),
        qp_feasible=np.ones(S, dtype=bool),
    )
    svg = emit_plot([("flat", trace)], "h_true")
    (_, pts), = _polylines(svg)
    assert len(set(pts[:, 1])) == 1


_FLOAT_MAX = sys.float_info.max


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.75e308, 0.0), (0.0, _FLOAT_MAX),
                                    (-_FLOAT_MAX, _FLOAT_MAX)])
def test_svg_of_a_span_beyond_the_float_range_is_finite(lo, hi):
    # hi - lo, or the padded bounds, overflow: the plot still draws finite
    # ticks and points (and warns nothing, which pytest makes an error)
    trace = SimTrace(
        t=np.array([0.0, 1.0]), x=np.ones((2, 1)), xhat=np.ones((2, 1)), u=np.zeros((2, 1)),
        h_true=np.array([lo, hi]), h0=np.zeros(2), barrier_eps=np.zeros(2), residual=np.zeros(2),
        M=np.zeros(2), theta_norms=np.zeros((2, 1)), qp_active=np.zeros(2, dtype=bool),
        qp_feasible=np.ones(2, dtype=bool),
    )
    svg = emit_plot([("wide", trace)], "h_true")
    assert "nan" not in svg and "inf" not in svg
    y_labels = [float(v) for v in re.findall(r'text-anchor="end" fill="#333333">([^<]*)</text>', svg)]
    assert len(y_labels) == 6 and y_labels == sorted(y_labels)
    assert y_labels[0] <= lo and y_labels[-1] >= hi
    (_, pts), = _polylines(svg)
    # the first point is the lower one, and both lie inside the plot's frame
    assert 60 <= pts[1, 1] < pts[0, 1] <= 440
    assert pts[1, 1] <= _zero_line_y(svg) <= pts[0, 1]


@pytest.mark.parametrize("labels", [("a<b & c", "x > y"), ("&amp;", "<text>"), ("proposed", "1 < 2 > 0 && ok")])
def test_svg_labels_are_escaped_and_round_trip(labels):
    # a label holding <, > or & is escaped, so the SVG parses and each
    # legend entry's text reads back as the label it was given
    from xml.dom import minidom

    S = 3
    trace = SimTrace(
        t=np.linspace(0.0, 1.0, S), x=np.ones((S, 1)), xhat=np.ones((S, 1)),
        u=np.zeros((S, 1)), h_true=np.array([1.0, -1.0, 2.0]), h0=np.zeros(S),
        barrier_eps=np.zeros(S), residual=np.zeros(S), M=np.zeros(S),
        theta_norms=np.zeros((S, 1)), qp_active=np.zeros(S, dtype=bool),
        qp_feasible=np.ones(S, dtype=bool),
    )
    svg = emit_plot([(label, trace) for label in labels], "h_true")
    doc = minidom.parseString(svg.encode())
    legend = [node for node in doc.getElementsByTagName("text")
              if node.getAttribute("font-size") == "12" and not node.hasAttribute("text-anchor")]
    assert [node.firstChild.data for node in legend] == list(labels)


def test_svg_determinism(preset_runs):
    run = preset_runs["example1a"]
    pair = [("proposed", run["proposed"]), ("baseline", run["baseline"])]
    assert emit_plot(pair, "h_true") == emit_plot(pair, "h_true")


# ---------------------------------------------------------------- emitters against their reference


def _csv_reference(trace: SimTrace) -> str:
    """emit_csv as a "{:.12g}" row template, one str.format per row."""
    cols = list(trace.columns().items())
    row_fmt = ",".join(["{:.12g}"] * len(cols))
    rows = [",".join(name for name, _ in cols)]
    rows += [row_fmt.format(*row) for row in zip(*[col.tolist() for _, col in cols])]
    return "\n".join(rows) + "\n"


def _polyline_reference(traces: list[tuple[str, SimTrace]], quantity: str) -> list[str]:
    """emit_plot's polyline points, mapped and formatted one point at a time."""
    series = [(tr.t, np.asarray(tr.columns()[quantity], dtype=float)) for _, tr in traces]
    x_lo = min(float(t.min()) for t, _ in series)
    x_hi = max(float(t.max()) for t, _ in series)
    y_lo = min(min(float(q.min()) for _, q in series), 0.0)
    y_hi = max(max(float(q.max()) for _, q in series), 0.0)
    x_pad = 0.05 * (x_hi - x_lo) or 0.5
    y_pad = 0.05 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    if x_lo == x_hi:
        x_lo, x_hi = math.nextafter(x_lo, -math.inf), math.nextafter(x_hi, math.inf)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(v: float) -> float:
        return 60 + (v - x_lo) / (x_hi - x_lo) * (740 - 60)

    def py(v: float) -> float:
        return 440 - (v - y_lo) / (y_hi - y_lo) * (440 - 60)

    return [" ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(t, q)) for t, q in series]


# signed zeros, subnormals, the ends of the range the plot can scale, and
# values whose 13th significant digit is a rounding tie
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                1.0000000000005, 2.0000000000005, 0.1234567890125, 123456789012.5, 9.999999999995e-5]
_FLOATS = hst.one_of(hst.sampled_from(_EDGE_FLOATS), hst.floats(min_value=-1e300, max_value=1e300))


@hst.composite
def _traces(draw) -> SimTrace:
    rows = draw(hst.integers(1, 150))  # 150 rows span three of emit_csv's 64-row blocks
    f = draw(hnp.arrays(np.float64, (rows, 12), elements=_FLOATS))
    b = draw(hnp.arrays(np.bool_, (rows, 2)))
    return SimTrace(t=f[:, 0], x=f[:, 1:2], xhat=f[:, 2:3], u=f[:, 3:4], h_true=f[:, 4], h0=f[:, 5],
                    barrier_eps=f[:, 6], residual=f[:, 7], M=f[:, 8], theta_norms=f[:, 9:12],
                    qp_active=b[:, 0], qp_feasible=b[:, 1])


@settings(max_examples=200, deadline=None)
@given(proposed=_traces(), baseline=_traces(),
       quantity=hst.sampled_from(["h_true", "x1", "theta_norm_2", "qp_active"]))
def test_emitters_match_their_per_row_reference(proposed, baseline, quantity):
    assert emit_csv(proposed) == _csv_reference(proposed)
    traces = [("proposed", proposed), ("baseline", baseline)]
    svg = emit_plot(traces, quantity)
    points = re.findall(r'<polyline fill="none" stroke="#\w+" stroke-width="1.5" points="([^"]*)"', svg)
    assert points == _polyline_reference(traces, quantity)


def test_svg_rejections(preset_runs):
    trace = preset_runs["example1a"]["proposed"]
    with pytest.raises(ValueError):
        emit_plot([], "h_true")
    with pytest.raises(ValueError, match="unknown quantity"):
        emit_plot([("p", trace)], "velocity")


# ---------------------------------------------------------------- presets


def test_preset_fidelity_example1a():
    cfg = make_preset("example1a").cfg
    np.testing.assert_array_equal(cfg.x0, [2.0, 2.2, 2.0])
    np.testing.assert_array_equal(cfg.xhat0, [3.0, 3.5, 3.0])
    assert cfg.adaptive0.N == 3 and cfg.adaptive0.E == 0.1 and cfg.adaptive0.omega == 1.0
    np.testing.assert_array_equal(cfg.adaptive0.theta_bar, np.full(3, 0.5))
    np.testing.assert_array_equal(cfg.adaptive0.theta_hat, np.zeros((3, 3)))
    assert cfg.adaptive0.epsilon == 0.1 and cfg.adaptive0.mu == 3.5
    assert cfg.observer.bound.value(0.0) == pytest.approx(2.0)
    assert cfg.observer.bound.derivative(0.0) == pytest.approx(0.1)  # grows
    assert cfg.barrier.r == 1 and cfg.barrier.L_k == (1.0,)
    assert cfg.barrier.s[0](np.array([0.0, 2.0, 0.0])) == pytest.approx(1.0)
    np.testing.assert_array_equal(cfg.barrier.grad_s[0](cfg.x0), [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(cfg.u_nominal(0.0, cfg.xhat0), [-2.0])
    assert cfg.dt == 1e-3 and cfg.t_end == 10.0


def test_preset_fidelity_example1b():
    cfg = make_preset("example1b").cfg
    np.testing.assert_array_equal(cfg.x0, [2.4, -3.0, -3.0])
    np.testing.assert_array_equal(cfg.xhat0, [3.4, -2.0, -2.0])
    assert cfg.adaptive0.mu == 10.0 and cfg.adaptive0.epsilon == 0.1
    assert cfg.adaptive0.E == 0.1 and cfg.adaptive0.omega == 1.0
    bar = cfg.barrier
    assert bar.r == 2 and bar.L_k == (1.0, 3.0)
    assert bar.s[0](cfg.xhat0) == pytest.approx(2.4)
    assert bar.s[1](cfg.xhat0) == pytest.approx(1.4)
    np.testing.assert_array_equal(bar.grad_s[1](cfg.xhat0), [1.0, 2.0, -2.0])
    np.testing.assert_array_equal(cfg.u_nominal(0.0, cfg.xhat0), [-2.0])


def test_preset_fidelity_example1c():
    cfg = make_preset("example1c").cfg
    np.testing.assert_array_equal(cfg.x0, [2.4, -3.0, -3.0])
    np.testing.assert_array_equal(cfg.xhat0, [3.4, -2.0, -2.0])
    assert cfg.adaptive0.mu == 10.0 and cfg.adaptive0.epsilon == 0.1
    assert cfg.adaptive0.E == 0.1 and cfg.adaptive0.omega == 1.0
    bar = cfg.barrier
    assert bar.r == 3
    assert bar.L_k == (1.0, 3.0, pytest.approx(np.sqrt(21.0), abs=1e-15))
    assert [bar.s[k](cfg.xhat0) for k in range(3)] == [
        pytest.approx(2.4), pytest.approx(1.4), pytest.approx(-11.4)]
    np.testing.assert_array_equal(bar.grad_s[2](cfg.xhat0), [-1.0, 4.0, -2.0])
    np.testing.assert_array_equal(bar.grad_s[2](cfg.xhat0) @ cfg.system.input_map(cfg.xhat0), [2.0])
    # the deflated top level s2 - sqrt(21) M(0) sets the (negative) epsilon bound
    assert cfg.epsilon_bound == pytest.approx((-11.4 - 2.0 * np.sqrt(21.0)) / 3.0, abs=1e-12)
    np.testing.assert_array_equal(cfg.u_nominal(0.0, cfg.xhat0), [-2.0])


def test_preset_fidelity_example2():
    cfg = make_preset("example2").cfg
    np.testing.assert_array_equal(cfg.x0, [-0.5, 0.5, 3.0])
    np.testing.assert_array_equal(cfg.xhat0, [0.2, 2.0, 3.0])
    assert cfg.adaptive0.mu == 2.5
    assert cfg.adaptive0.E == 0.1 and cfg.adaptive0.omega == 1.0
    assert cfg.observer.bound.value(1.0) == pytest.approx(2.0 * np.exp(0.15))
    assert cfg.barrier.s[0](np.array([0.0, -1.0, 0.0])) == pytest.approx(0.0)
    assert ROSSLER_PARAMS == (0.2, 0.2, 5.0)
    assert ROSSLER_GAINS == dict(q1=3.0, s1=-3.0, r1=3.0, q2=10.0, s2=10.0, r2=10.0, m_exp=3)
    np.testing.assert_array_equal(cfg.u_nominal(0.0, cfg.xhat0), [-2.0, -2.0, -2.0])


# ---------------------------------------------------------------- run_preset / main


def test_run_preset_writes_outputs(tmp_path, capsys):
    code = run_preset("example1a", {"t_end": 0.5, "dt": 0.01}, out_dir=str(tmp_path))
    assert code == 0
    for suffix in ("proposed.csv", "baseline.csv", "h.svg"):
        assert (tmp_path / f"example1a_{suffix}").exists()
    out = capsys.readouterr().out
    assert "epsilon feasibility: bound 0.166667, using 0.1 (ok)" in out
    assert "proposed: min h_true" in out and "baseline: min h_true" in out
    assert "wrote" in out


@pytest.mark.parametrize("doc,args,code", [
    # --strict is the one switch: a config file cannot ask for the gate
    pytest.param('{"preset": "example1b", "strict_feasibility": true}', [], 1, id="config-true"),
    pytest.param('{"preset": "example1b", "strict_feasibility": false}', ["--t-end", "0.01"], 1,
                 id="config-false"),
    pytest.param(None, ["--preset", "example1b", "--strict"], 2, id="flag"),
    pytest.param('{"preset": "example1b"}', ["--strict"], 2, id="config-and-flag"),
    pytest.param('{"preset": "example1b"}', ["--t-end", "0.01"], 0, id="config-without-flag"),
    # example1c's levels at this estimate are (4, nan, nan): no epsilon is admissible
    pytest.param('{"preset": "example1c", "xhat0": [5, 1e308, 1e308]}', ["--strict", "--t-end", "0"], 2,
                 id="nan-level"),
])
def test_strict_gate_at_the_cli(tmp_path, capsys, doc, args, code):
    if doc is not None:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(doc)
        args = ["--config", str(cfg_path)] + args
    out_dir = tmp_path / "out"
    assert main(["run", *args, "--out", str(out_dir)]) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    if code == 1:
        assert lines == []
        assert captured.err == "error: unknown config key 'strict_feasibility'\n"
        assert not out_dir.exists()
        return
    nan = doc is not None and "1e308" in doc
    bound, verdict = ("nan", "is not a number") if nan else ("-1.53333", "is non-positive")
    assert lines[0].startswith(f"warning: epsilon bound {bound} {verdict};")
    if code == 2:
        assert lines[1:] == ["strict feasibility check failed; not running"]
        assert not out_dir.exists()
    else:
        assert (out_dir / "example1b_h.svg").exists()


@pytest.mark.parametrize("xhat0,line", [
    ([5, 1e308, 1e308], "warning: epsilon bound nan is not a number; no feasible epsilon exists "
                        "for this initial data (configured epsilon=0.1)"),
    (None, "warning: epsilon bound -6.85505 is non-positive; no feasible epsilon exists "
           "for this initial data (configured epsilon=0.1)"),
], ids=["nan", "non-positive"])
def test_epsilon_verdict_names_a_nan_bound(xhat0, line):
    # NaN is not non-positive: its verdict says the bound is not a number
    cfg = make_preset("example1c").cfg
    if xhat0 is not None:
        cfg = apply_overrides(cfg, {"xhat0": xhat0})
    out = io.StringIO()
    assert _print_feasibility(cfg, out) is False
    assert out.getvalue() == line + "\n"


def test_run_preset_nonstrict_warns_but_runs(tmp_path, capsys):
    code = run_preset("example1b", {"t_end": 0.1}, out_dir=str(tmp_path))
    assert code == 0
    assert "warning: epsilon bound" in capsys.readouterr().out
    assert (tmp_path / "example1b_h.svg").exists()


def test_run_preset_unknown_name(tmp_path):
    with pytest.raises(ValueError, match="unknown preset"):
        run_preset("nope", out_dir=str(tmp_path))


def test_run_preset_bad_override(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        run_preset("example1a", {"bogus": 1}, out_dir=str(tmp_path))


def test_main_flag_conflicts(tmp_path, capsys):
    assert main(["run", "--preset", "example1a", "--config", "x.json"]) == 1
    assert "not both" in capsys.readouterr().err
    assert main(["run"]) == 1
    assert "required" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_main_rejects_bad_dt_flag(tmp_path, capsys):
    assert main(["run", "--preset", "example1a", "--dt", "-1", "--out", str(tmp_path)]) == 1
    assert "dt must be > 0" in capsys.readouterr().err


def test_main_config_file_with_flag_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"preset": "example1a", "t_end": 5.0, "dt": 0.001}')
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--t-end", "0.1", "--out", str(out_dir)])
    assert code == 0
    csv_lines = (out_dir / "example1a_proposed.csv").read_text().split("\n")
    assert len(csv_lines) == 103  # header + 101 samples + trailing LF
    capsys.readouterr()


def test_main_reports_config_syntax_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"preset": "example1a",\n  "dt": }')
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: config parse error at line 2, column 9: Expecting value"]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_non_finite_config_value_is_one_error_line(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"preset": "example1a", "t_end": Infinity}')
    env = dict(os.environ, PYTHONPATH=str(Path(cbfsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cbfsim", "run", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: invalid value for 't_end': expected a number"]
    assert "Traceback" not in proc.stdout + proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override,message", [
    ({"dt": -1}, "dt must be > 0"),  # SimConfig
    ({"t_end": -1}, "t_end must be >= 0"),
    ({"baseline_gamma": 0}, "baseline_gamma must be > 0"),
    ({"on_infeasible": "drop"}, "on_infeasible must be 'nominal' or 'hold'"),
    ({"epsilon": 0}, "epsilon must be > 0"),  # AdaptiveState
    ({"mu": -2}, "mu must be > 0"),
    ({"omega": 0}, "omega must be > 0"),  # AdaptiveState, the series' frequency
    ({"E": -0.5}, "E must be >= 0"),
])
def test_range_and_enum_errors_come_from_the_constructors(tmp_path, capsys, override, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(dict(override, preset="example1a")))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t_end", ["0.01", "0"])
def test_omega_that_overflows_the_basis_is_one_error_line(tmp_path, capsys, t_end):
    # the top basis frequency 2 omega overflows to inf: cos(inf * t) raised
    # mid-run for t_end > 0 and inf * 0 wrote NaN into the t_end = 0 row
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"preset": "example1a", "omega": 1e308}')
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--t-end", t_end, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: omega 1e+308 is too large: the top basis frequency or its product with t_end overflows"]
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("doc,message", [
    # deeper than the interpreter's recursion limit
    pytest.param("[" * 200_000 + "]" * 200_000, "config parse error: the document nests too deeply",
                 id="deep-nesting"),
    # the baseline row's gamma * h_hat overflows to inf at t = 0
    pytest.param('{"preset": "example1a", "baseline_gamma": 1e308}',
                 "constraint row became non-finite at t=0", id="row-overflow"),
    # the gain -theta_bar^2 / (2 epsilon) overflows to -inf
    pytest.param('{"preset": "example1a", "epsilon": 1e-320}',
                 "the gain theta_bar^2 / (2 epsilon) overflows at epsilon 9.99989e-321", id="gain-overflow"),
    # numpy's overflow warnings from SimConfig's callable check, the preset
    # callables and rk4_step used to print before the error line
    pytest.param('{"preset": "example1a", "E": 1e308}',
                 "state became non-finite during the step starting at t=0", id="state-overflow-E"),
    pytest.param('{"preset": "example1a", "x0": [1e308, 1.5, 1e308]}',
                 "state became non-finite during the step starting at t=0", id="state-overflow-x0"),
    pytest.param('{"preset": "example2", "u_d": [1e308, 0, 0]}',
                 "state became non-finite during the step starting at t=0", id="state-overflow-u_d"),
    # the chain levels overflow at xhat0, where SimConfig.epsilon_bound
    # evaluates them before the run
    pytest.param('{"preset": "example1c", "xhat0": [-1e308, 1e308, -1e308]}',
                 "constraint row became non-finite at t=0", id="epsilon-bound-overflow-xhat0"),
    # theta_hat grows past the square root of the float range, so squaring
    # it for the norm column after the loop overflows
    *[pytest.param(f'{{"preset": "{name}", "epsilon": 1e-300}}',
                   "column theta_norm_1 became non-finite at t=0.001", id=f"theta-norm-overflow-{name}")
      for name in ("example1a", "example1b", "example1c")],
])
def test_overflowing_input_is_one_error_line(tmp_path, capsys, doc, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(doc)
    out_dir = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg_path), "--t-end", "0.05", "--out", str(out_dir)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out_dir.exists()


def test_import_loads_no_cli_only_module():
    # argparse, json and signal are imported where the CLI uses them, so a
    # process that only imports the package (a library caller, a bench
    # child) does not load them; numpy is imported first, so that only what
    # cbfsim itself loads is counted
    env = dict(os.environ, PYTHONPATH=str(Path(cbfsim.__file__).parents[1]))
    code = ("import sys, numpy; before = set(sys.modules); import cbfsim; "
            "print(sorted({'argparse', 'json', 'signal'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_run_loads_numpy_alone_outside_the_standard_library(tmp_path):
    # numpy is the one runtime dependency: a whole CLI run (both controllers,
    # CSV and SVG) loads no scipy and no other package beyond the standard
    # library, whatever was loaded before it started
    env = dict(os.environ, PYTHONPATH=str(Path(cbfsim.__file__).parents[1]))
    code = ("import sys; before = set(sys.modules); import cbfsim.cli; "
            f"code = cbfsim.cli.main(['run', '--preset', 'example1c', '--t-end', '0.01', '--out', {str(tmp_path)!r}]); "
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}; "
            "print(code, sorted(new - set(sys.stdlib_module_names)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 ['cbfsim', 'numpy']"


def test_cli_step_cap_is_one_error_line(tmp_path):
    # t_end / dt = 1e15 steps: rejected by SimConfig's step cap from the
    # arithmetic alone, before any time grid or trace is allocated
    env = dict(os.environ, PYTHONPATH=str(Path(cbfsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cbfsim", "run", "--preset", "example1a", "--t-end", "1e12",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: t_end / dt asks for 1e+15 steps; at most 10000000 are allowed"]
    assert "Traceback" not in proc.stdout + proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides,line,ok", [
    pytest.param({}, "epsilon feasibility: bound 0.166667, using 0.1 (ok)", True, id="ok"),
    pytest.param({"epsilon": 0.2}, "warning: epsilon 0.2 exceeds the feasibility bound 0.166667",
                 False, id="exceeds"),
    pytest.param({"x0": [2, 1.4, 2], "xhat0": [2, 1.4, 2]},
                 "warning: epsilon bound -0.533333 is non-positive; no feasible epsilon exists "
                 "for this initial data (configured epsilon=0.1)", False, id="non-positive"),
    # epsilon 100 times the bound must fail the verdict: no absolute slack
    pytest.param({"xhat0": [3, 3.00000000000003, 3], "epsilon": 1e-12},
                 "warning: epsilon 1e-12 exceeds the feasibility bound 1.0066e-14", False,
                 id="tiny-bound"),
])
def test_feasibility_line_follows_the_epsilon_verdict(tmp_path, capsys, overrides, line, ok):
    # the CLI's first stdout line is chosen by the same verdict that
    # safety_report records as epsilon_ok
    cfg = apply_overrides(make_preset("example1a").cfg, dict(overrides, t_end=0))
    assert safety_report(run_simulation(cfg), cfg).epsilon_ok is ok
    code = run_preset("example1a", dict(overrides, t_end=0), out_dir=str(tmp_path / "out"), strict=True)
    assert code == (0 if ok else 2)
    assert capsys.readouterr().out.splitlines()[0] == line


@pytest.mark.parametrize("kind", ["existing-file", "under-a-file"])
def test_cli_unwritable_out_is_one_error_line(tmp_path, kind):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker if kind == "existing-file" else blocker / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cbfsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cbfsim", "run", "--preset", "example1a", "--t-end", "0.01",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: cannot write output: ")
    assert "Traceback" not in proc.stdout + proc.stderr
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("args,unbuffered,lines_read,code", [
    pytest.param(["run", "--dt", "abc"], True, None, 1, id="bad-flag-value"),
    pytest.param(["run", "--bogus"], True, None, 1, id="unknown-flag"),
    pytest.param([], True, None, 1, id="no-subcommand"),
    pytest.param(["run", "--config", "missing.json"], True, None, 1, id="missing-config"),
    # strict_feasibility is no config key: --strict is the only switch
    pytest.param(["run", "--config", "strict.json"], True, None, 1, id="non-boolean-strict"),
    pytest.param(["run", "-h"], True, None, 0, id="help"),
    # the reader closes stdout at once: the first print fails, before any fork
    pytest.param(["run", "--preset", "example1a", "--t-end", "0"], True, 0, 1, id="closed-stdout"),
    # block-buffered, the write fails at main's final flush
    pytest.param(["run", "--preset", "example1a", "--t-end", "0"], False, 0, 1,
                 id="closed-stdout-buffered"),
    # block-buffered, the write fails at the flush before the fork
    pytest.param(["run", "--preset", "example1a", "--t-end", "0.5"], False, 0, 1,
                 id="closed-stdout-buffered-fork"),
    # the reader takes the first line and closes: a later write fails after
    # the worker is reaped
    pytest.param(["run", "--preset", "example2", "--t-end", "0.5"], True, 1, 1,
                 id="stdout-closed-after-a-line"),
    pytest.param(["run", "--preset", "example2", "--t-end", "0.5"], False, 1, 1,
                 id="stdout-closed-after-a-line-buffered"),
])
def test_cli_exit_status_and_error_line(tmp_path, args, unbuffered, lines_read, code):
    # lines_read: how many stdout lines the reader takes before it closes
    # the pipe; None reads to the end
    (tmp_path / "strict.json").write_text('{"preset": "example1a", "strict_feasibility": 1}')
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cbfsim.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "cbfsim", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path)
    if lines_read is not None:
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == code
    if code == 0:
        assert out.startswith("usage: cbfsim run") and err == ""
    else:
        [line] = err.splitlines()
        assert line.startswith("error: ")
        assert "Traceback" not in (out or "") + err


# ---------------------------------------------------------------- the baseline worker


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made while a test runs, one entry each."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _replace_run(monkeypatch, controller, action):
    """Make simloop.run_simulation call action(cfg) for one controller; a
    forked worker inherits the patch."""
    real = simloop.run_simulation
    monkeypatch.setattr(simloop, "run_simulation",
                        lambda cfg: action(cfg) if cfg.controller == controller else real(cfg))


def _raise(message):
    def action(cfg):
        raise RunError(message, {"t": 0.25, "x": np.arange(3.0), "xhat": np.ones(3), "u": np.zeros(1)})
    return action


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_worker_output_equals_the_in_process_pair(tmp_path, capsys, forks, name):
    assert main(["run", "--preset", name, "--t-end", "0.3", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    assert forks == [1]
    cfg = apply_overrides(make_preset(name).cfg, {"t_end": 0.3})
    proposed, baseline = run_pair(cfg)
    assert (tmp_path / f"{name}_proposed.csv").read_bytes() == emit_csv(proposed).encode()
    assert (tmp_path / f"{name}_baseline.csv").read_bytes() == emit_csv(baseline).encode()
    svg = emit_plot([("proposed", proposed), ("baseline", baseline)], "h_true")
    assert (tmp_path / f"{name}_h.svg").read_bytes() == svg.encode()
    want = io.StringIO()
    _print_feasibility(cfg, want)
    _print_report("proposed", safety_report(proposed, cfg), want)
    _print_report("baseline", safety_report(baseline, cfg), want)
    files = ", ".join(str(tmp_path / f"{name}_{kind}") for kind in ("proposed.csv", "baseline.csv", "h.svg"))
    assert stdout == want.getvalue() + f"wrote {files}\n"


def test_worker_sends_back_the_baseline_run_error(tmp_path, capsys, monkeypatch, forks):
    _replace_run(monkeypatch, "baseline", _raise("baseline diverged at t=0.25"))
    out_dir = tmp_path / "out"
    assert main(["run", "--preset", "example1a", "--t-end", "0.3", "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: baseline diverged at t=0.25"]
    assert captured.out.splitlines() == ["epsilon feasibility: bound 0.166667, using 0.1 (ok)"]
    assert not out_dir.exists()
    with pytest.raises(RunError, match="baseline diverged") as exc:
        _run_pair(apply_overrides(make_preset("example1a").cfg, {"t_end": 0.3}))
    sample = exc.value.last_sample
    assert sample["t"] == 0.25 and sample["x"].tolist() == [0.0, 1.0, 2.0]
    assert forks == [1, 1]


def _interrupt(cfg):
    raise KeyboardInterrupt


@pytest.mark.parametrize("proposed", [_raise("proposed diverged at t=0.25"), _interrupt],
                         ids=["run-error", "ctrl-c"])
def test_proposed_run_failure_kills_the_worker(tmp_path, capsys, monkeypatch, forks, proposed):
    _replace_run(monkeypatch, "proposed", proposed)
    _replace_run(monkeypatch, "baseline", lambda cfg: time.sleep(60))
    argv = ["run", "--preset", "example1a", "--t-end", "0.3", "--out", str(tmp_path / "out")]
    t0 = time.perf_counter()
    if proposed is _interrupt:
        assert main(argv) == 130
        assert capsys.readouterr().err.splitlines() == ["error: interrupted"]
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: proposed diverged at t=0.25"]
    assert time.perf_counter() - t0 < 30  # the sleeping worker was killed, not awaited
    assert forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # reaped: no child is left
    assert not (tmp_path / "out").exists()


def _processes_naming(marker: str) -> list[str]:
    """Pids of the running processes whose command line contains marker."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if marker.encode() in f.read():
                    found.append(pid)
        except OSError:  # the process ended while we looked
            pass
    return found


def test_sigint_is_one_error_line_and_exit_130(tmp_path):
    out_dir = tmp_path / "sigint-out"  # also marks this run's processes
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=str(Path(cbfsim.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cbfsim", "run", "--preset", "example2", "--t-end", "60", "--out", str(out_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path)
    try:
        assert proc.stdout.readline().startswith("epsilon feasibility: ")
        time.sleep(0.2)  # the baseline worker is running by now
        proc.send_signal(signal.SIGINT)  # this process only, not its worker
        proc.wait(timeout=30)
        # the worker shares the command line; look before a leaked one ends
        left = _processes_naming(str(out_dir)) if os.path.isdir("/proc") else []
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert left == []
    assert proc.returncode == 130
    assert err.splitlines() == ["error: interrupted"]
    assert "Traceback" not in out + err
    assert not out_dir.exists()


def test_worker_that_dies_is_one_error_line(tmp_path, capsys, monkeypatch, forks):
    _replace_run(monkeypatch, "baseline", lambda cfg: os._exit(3))
    assert main(["run", "--preset", "example2", "--t-end", "0.3", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: the baseline run ended without a result (worker exit status 3)"]
    assert forks == [1]
    assert not (tmp_path / "out").exists()


def test_cli_block_buffered_stdout_prints_each_line_once(tmp_path):
    # stdout to a pipe is block-buffered: a line printed before the fork sits
    # in the buffer the worker inherits, and must not be written twice
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cbfsim.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cbfsim", "run", "--preset", "example2", "--t-end", "0.5", "--out", "out"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "epsilon feasibility: bound 0.333333, using 0.1 (ok)",
        "proposed: min h_true 1.15199, min h0 0.660989, first violation none, bound violations 0, "
        "infeasible steps 0",
        "baseline: min h_true 0.192607, min h0 -0.308166, first violation none, bound violations 0, "
        "infeasible steps 0",
        "wrote out/example2_proposed.csv, out/example2_baseline.csv, out/example2_h.svg",
    ]


def test_a_run_without_a_step_forks_nothing(tmp_path, capsys, forks):
    assert main(["run", "--preset", "example1a", "--t-end", "0", "--out", str(tmp_path)]) == 0
    assert forks == []
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_a_failed_fork_runs_the_pair_in_process(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = apply_overrides(make_preset("example2").cfg, {"t_end": 0.05})
    got = _run_pair(cfg)
    want = run_pair(cfg)
    assert [emit_csv(trace) for trace in got] == [emit_csv(trace) for trace in want]
