"""Command-line surface: exit codes, formats, determinism."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symdyn
from symdyn import cli
from symdyn import counterexample as cx
from symdyn import netgraph as ng
from symdyn import symsys as ss


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.run(argv + ["--out", str(out)])
    return code, out.read_text()


def test_graph_ball_csv(tmp_path):
    code, text = run_to_file(
        tmp_path, "ball.csv",
        ["graph-ball", "--family", "cayley_zd", "--D", "2",
         "--center", "0,0", "--radius", "2"],
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[2] == "r,size"
    assert lines[-1] == "2,13"


def test_graph_dim_json(tmp_path):
    code, text = run_to_file(
        tmp_path, "dim.json",
        ["graph-dim", "--family", "cayley_zd", "--D", "2", "--vertex", "0,0",
         "--rmin", "16", "--rmax", "32", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(text)
    assert 1.8 <= payload["summary"]["fit_slope"] <= 2.1
    assert payload["config"]["rmin"] == 16


def test_graph_speed(tmp_path):
    code, text = run_to_file(
        tmp_path, "speed.json",
        ["graph-speed", "--family", "cayley_zd", "--D", "2", "--vertex", "0,0",
         "--shift", "1,0", "--nmax", "8", "--format", "json"],
    )
    assert code == 0
    assert json.loads(text)["summary"]["inf_proxy"] == 1.0


def test_sys_propagation(tmp_path):
    code, text = run_to_file(
        tmp_path, "rho.csv",
        ["sys-propagation", "--system", "counterexample", "--vertex", "0",
         "--T", "6"],
    )
    assert code == 0
    assert text.strip().splitlines()[-1] == "6,21"


def test_sys_panorama_odometer(tmp_path):
    code, text = run_to_file(
        tmp_path, "pan.json",
        ["sys-panorama", "--system", "odometer", "--m", "2", "--window", "0",
         "--T", "10", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(text)
    assert all(row["layer"] == [0] for row in payload["rows"])


def test_sys_equicontinuity(tmp_path):
    code, text = run_to_file(
        tmp_path, "env.json",
        ["sys-equicontinuity", "--system", "odometer", "--m", "2",
         "--window", "0;1", "--tprobe", "12", "--rcap", "6",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(text)["summary"]["certified"] is True


def test_sys_odometer_chain(tmp_path):
    code, text = run_to_file(
        tmp_path, "chain.json",
        ["sys-odometer-chain", "--system", "odometer", "--m", "2",
         "--windows", "0|0;1", "--horizon", "8", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(text)
    assert [r["trajectories"] for r in payload["rows"]] == [2, 4]


def test_entropy_ball(tmp_path):
    code, text = run_to_file(
        tmp_path, "ent.json",
        ["entropy-ball", "--system", "counterexample", "--vertex", "0",
         "--rmin", "2", "--rmax", "10", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(text)
    assert all(1.0 < row["ratio"] <= 1.6 for row in payload["rows"])


def test_entropy_tau(tmp_path):
    code, text = run_to_file(
        tmp_path, "tau.json",
        ["entropy-tau", "--system", "full_shift", "--alphabet", "2",
         "--base", "0", "--shift", "1", "--nmax", "10", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["summary"]["final_value"] == pytest.approx(1.1)


def test_cex_roundtrip_passes(tmp_path):
    code, text = run_to_file(
        tmp_path, "rt.json",
        ["cex-roundtrip", "--J", "3", "--trials", "20", "--seed", "1",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(text)["summary"]["passed"] is True


def test_cex_propagation(tmp_path):
    code, text = run_to_file(
        tmp_path, "prop.csv", ["cex-propagation", "--T", "12"]
    )
    assert code == 0
    assert "lower_bound_ok\": true" in text


def test_cex_roundtrip_trace_dump(tmp_path):
    trace_file = tmp_path / "trace.csv"
    code, _ = run_to_file(
        tmp_path, "rt2.json",
        ["cex-roundtrip", "--J", "2", "--trials", "1", "--seed", "4",
         "--dump-trace", str(trace_file), "--format", "json"],
    )
    assert code == 0
    lines = trace_file.read_text().strip().splitlines()
    assert lines[1] == "t,a,b"
    assert len(lines) == 2 + 7  # horizon m_2 = 6 gives observations 0..6
    assert all(len(line.split(",")) == 3 for line in lines[2:])
    # the dumped trace is trial 0's, drawn from the round trip's own seed
    x0 = cx.random_initial(2, random.Random(cx.trial_seed(4, 0)))
    trace = cx.simulate_trace(x0, 2)
    assert [line.split(",") for line in lines[2:]] == [
        [str(t), str(a), str(b)] for t, (a, b) in enumerate(trace.observations)
    ]
    assert json.loads(lines[0][len("# config: "):])["trial_seed"] == cx.trial_seed(4, 0)


def test_metric_dim(tmp_path):
    code, text = run_to_file(
        tmp_path, "mdim.json",
        ["metric-dim", "--system", "full_shift", "--alphabet", "2",
         "--estuary", "0", "--lam", "2", "--eps-min-pow", "8",
         "--eps-max-pow", "32", "--eps-step", "2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(text)
    assert 0.9 <= payload["summary"]["lower_slope"] <= 1.1


@pytest.mark.parametrize("argv,message", [
    (["--eps-min-pow", "8", "--eps-max-pow", "4"], "eps grid must be nonempty"),
    (["--eps-step", "-1"], "--eps-step must be at least 1"),
    (["--eps-step", "0"], "--eps-step must be at least 1"),
    (["--eps-min-pow", "-2"], "--eps-min-pow must be at least 0"),
])
def test_metric_dim_rejects_degenerate_grids(capsys, argv, message):
    code = cli.run(["metric-dim", "--system", "full_shift", "--alphabet", "2",
                    "--estuary", "0", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,usable", [
    (["--system", "odometer", "--m", "1", "--estuary", "0"], 0),
    (["--system", "full_shift", "--alphabet", "2", "--estuary", "0",
      "--eps-min-pow", "8", "--eps-max-pow", "8"], 1),
])
def test_metric_dim_reports_no_slope_below_two_usable_rows(capsys, argv, usable):
    assert cli.run(["metric-dim", *argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = [r for r in payload["rows"]
            if r["log2_cover_lower"] > 0 and r["log2_cover_upper"] > 0]
    assert len(rows) == usable
    assert payload["summary"] == {"lower_slope": None, "upper_slope": None}


def test_sys_equicontinuity_rejects_a_negative_rcap(capsys):
    code = cli.run(["sys-equicontinuity", "--system", "odometer", "--m", "2",
                    "--window", "0", "--rcap", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "r_cap must be nonnegative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["metric-lipschitz", "--lam", "inf", "--samples", "5"],
     "lambda must be finite and exceed 1, got inf"),
    (["metric-lipschitz", "--coeffs", "nan", "--samples", "5"],
     "coefficients must be finite and positive, got nan"),
    (["holder-check", "--constant", "inf", "--samples", "5"],
     "constant must be finite and positive, got inf"),
    (["holder-check", "--eta", "nan", "--samples", "5"],
     "eta must be finite and positive, got nan"),
    (["holder-check", "--lam2", "inf", "--samples", "5"],
     "--lam2: lambda must be finite and exceed 1, got inf"),
    (["metric-lipschitz", "--metric-file", "nan.json", "--samples", "5"],
     "lambda must be finite and exceed 1, got nan"),
])
def test_metric_parameters_must_be_finite(tmp_path, monkeypatch, capsys, argv, message):
    """An infinite or NaN metric parameter is a usage error, not a passed check."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.json").write_text(json.dumps({"estuary": [0], "lambda": "nan"}))
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (2, f"error: {message}\n", "")


_SYSTEM_FILE = ["sys-propagation", "--vertex", "0", "--T", "2", "--system-file"]
_GRAPH_FILE = ["graph-ball", "--center", "0", "--radius", "1", "--graph-file"]


@pytest.mark.parametrize("argv,desc,message", [
    (_SYSTEM_FILE, {"system": "full_shift", "alphabet": 2.7},
     "alphabet must be an integer, got 2.7"),
    (_SYSTEM_FILE, {"system": "odometer", "m": [2.5]}, "modulus in m must be an integer, got 2.5"),
    (_GRAPH_FILE, {"family": "cayley_zdne", "D": 1.5, "E": 1}, "D must be an integer, got 1.5"),
    (_GRAPH_FILE, {"family": "cayley_zd", "D": True}, "D must be an integer, got True"),
    (_SYSTEM_FILE, {"system": "full_shift", "alphabet": 2**16 + 1},
     "alphabet has 65537 symbols, more than 65536"),
    (_SYSTEM_FILE, {"system": "full_shift", "alphabet": 10**9},
     "alphabet has 1000000000 symbols, more than 65536"),
    (_SYSTEM_FILE, {"system": "ca_zd", "alphabet": 10**9, "offsets": [[0]], "table": [0]},
     "alphabet has 1000000000 symbols, more than 65536"),
    (_SYSTEM_FILE, {"system": "odometer", "m": [2, 2**16 + 1]},
     "alphabet has 65537 symbols, more than 65536"),
    (_SYSTEM_FILE, {"system": "odometer", "m": [10**9]},
     "alphabet has 1000000000 symbols, more than 65536"),
])
def test_descriptor_integers_exit_code(tmp_path, capsys, argv, desc, message):
    """A float or boolean where a descriptor needs an integer is refused, not
    truncated, and an alphabet past 2^16 symbols before any is built."""
    f = tmp_path / "desc.json"
    f.write_text(json.dumps(desc))
    code = cli.run(argv + [str(f)])
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (2, f"error: {message}\n", "")


_METRIC_FILE = ["metric-lipschitz", "--samples", "5", "--metric-file"]
_BALL_FILE = ["graph-ball", "--center", "0", "--radius", "2", "--graph-file"]
_EXPLICIT = {"alphabet": 2, "graph": {"edges": [[0, 0]]}}


@pytest.mark.parametrize("argv,desc,message", [
    (_SYSTEM_FILE, {"system": "odometer", "m": 3}, "m must be a list, got 3"),
    (_SYSTEM_FILE, {"system": "ca_zd", "alphabet": 2, "offsets": [[0], [1]], "table": 5},
     "table must be a list, got 5"),
    (_SYSTEM_FILE, {"system": "ca_zd", "alphabet": 2, "offsets": [[0], [1]]},
     "ca_zd needs the field 'table'"),
    (_SYSTEM_FILE, [], "system must be a JSON object, got []"),
    (_SYSTEM_FILE, "x", "system must be a JSON object, got 'x'"),
    (_SYSTEM_FILE, {"system": "full_shift", "extra": 1}, "full_shift has an unknown field 'extra'"),
    (_SYSTEM_FILE, {"system": "full_shift", "universe": 5}, "universe must be a string, got 5"),
    (_SYSTEM_FILE, {**_EXPLICIT, "rules": 3}, "rules must be a list of JSON objects, got 3"),
    (_SYSTEM_FILE, {**_EXPLICIT, "rules": [{"vertex": 0}]}, "rule needs the field 'inputs'"),
    (_SYSTEM_FILE, {**_EXPLICIT, "graph": 7, "rules": []}, "graph must be a JSON object, got 7"),
    (_METRIC_FILE, [], "metric must be a JSON object, got []"),
    (_METRIC_FILE, "x", "metric must be a JSON object, got 'x'"),
    (_METRIC_FILE, {"estuary": [0], "lambda": [2]}, "lambda must be a number, got [2]"),
    (_METRIC_FILE, {"estuary": [0], "coeffs": 5}, "coeffs must be a list of numbers, got 5"),
    (_METRIC_FILE, {"estuary": 0}, "estuary must be a list of vertices, got 0"),
    (_METRIC_FILE, {"lambda": 2}, "metric needs the field 'estuary'"),
    (_BALL_FILE, {"family": "cayley_zd"}, "cayley_zd needs the field 'D'"),
    (_BALL_FILE, {"edges": 5}, "edges must be a list of vertex pairs, got 5"),
    (_BALL_FILE, {"edges": [[0]]}, "edges must be a list of vertex pairs, got [[0]]"),
    (_BALL_FILE, [], "graph must be a JSON object, got []"),
    (_BALL_FILE, "x", "graph must be a JSON object, got 'x'"),
    (_METRIC_FILE, {"estuary": []}, "estuary must be nonempty"),
    (["holder-check", "--samples", "5", "--metric-file"], {"estuary": []},
     "estuary must be nonempty"),
    (["metric-dim", "--metric-file"], {"estuary": []}, "estuary must be nonempty"),
    (_METRIC_FILE, {"estuary": [0], "scheme": "foo"}, "unknown scheme kind: 'foo'"),
    (_SYSTEM_FILE, {"system": "odometer", "m": [2, 0]}, "moduli must be positive"),
])
def test_malformed_descriptor_exit_code(tmp_path, capsys, argv, desc, message):
    """A descriptor of the wrong shape is a usage error that names the object
    or the field, not a crash."""
    f = tmp_path / "desc.json"
    f.write_text(json.dumps(desc))
    code = cli.run(argv + [str(f)])
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (2, f"error: {message}\n", "")


# Each *-file flag: a command that exits 0 or 2 (never 1, a failed check),
# and valid descriptors for it.
_FILE_CASES = {
    "--graph-file": (["graph-ball", "--center", "0", "--radius", "1"], [
        {"family": "cayley_zd", "D": 1}, {"family": "cayley_zdne", "D": 1, "E": 0},
        {"family": "odometer"}, {"edges": [[1, 0], [0, 1]]}]),
    "--system-file": (["sys-propagation", "--vertex", "0", "--T", "2"], [
        {"system": "odometer", "m": [2, 3]}, {"system": "counterexample"},
        {"system": "full_shift", "alphabet": 3, "universe": "Z"},
        {"system": "ca_zd", "alphabet": 2, "offsets": [[0], [1]], "table": [0, 1, 1, 0]},
        {**_EXPLICIT, "rules": [{"vertex": 0, "inputs": [0], "table": [1, 0]}]}]),
    "--metric-file": (["metric-dim", "--eps-min-pow", "2", "--eps-max-pow", "6"], [
        {"estuary": [0, 1], "lambda": 2, "scheme": "finite", "coeffs": [0.75, 0.25]},
        {"estuary": [0, 1, 2], "lambda": "3", "scheme": "doubleexp"}]),
}
# Integers stay small, so that drawn runs stay fast.  Dimensions past 64 are
# refused (the examples below), and so are lattice balls past 2^22 vertices
# (`test_huge_lattice_radius_exit_code`); a huge vertex, alphabet or modulus is
# valid, and the examples below run one of each.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


@st.composite
def _descriptor_file(draw):
    """A *-file flag and an arbitrary JSON value, or one of its valid
    descriptors with one field replaced or one key added."""
    flag, kind = draw(st.sampled_from(sorted(_FILE_CASES))), draw(st.integers(0, 3))
    if kind == 0:
        return flag, draw(_JSON)
    valid = _FILE_CASES[flag][1]
    desc = dict(draw(st.sampled_from(valid)))
    if kind == 1:
        desc[draw(st.text(max_size=6))] = draw(_JSON)
    else:  # the field's value in another valid descriptor, a small integer, or any
        key = draw(st.sampled_from(sorted(desc)))
        others = st.sampled_from([d[key] for d in valid if key in d])
        desc[key] = draw(others | st.integers(0, 4) | _JSON)
    return flag, desc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_descriptor_file())
@example(("--system-file", {"system": "ca_zd", "alphabet": 2, "offsets": [[0], [10**30]],
                            "table": [0, 1, 1, 0]}))
@example(("--metric-file", {"estuary": [10**30]}))
@example(("--system-file", {"system": "full_shift", "alphabet": 2**16 + 1}))
@example(("--system-file", {"system": "full_shift", "alphabet": 10**9, "universe": "Z"}))
@example(("--system-file", {"system": "odometer", "m": [2, 2**16 + 1]}))
@example(("--system-file", {"system": "odometer", "m": [10**9]}))
@example(("--graph-file", {"family": "cayley_zd", "D": 10**9}))
@example(("--graph-file", {"family": "cayley_zdne", "D": 1, "E": 10**9}))
@example(("--system-file", {"system": "ca_zd", "alphabet": 2, "offsets": [[0] * 65],
                            "table": [0, 1]}))
def test_descriptor_files_exit_0_or_2(flag_and_desc):
    """No descriptor file crashes the CLI: it runs, or exits 2 with one error line."""
    flag, desc = flag_and_desc
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "desc.json")
        with open(path, "w") as fh:
            json.dump(desc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(_FILE_CASES[flag][0] + [flag, path])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv,desc,n", [
    (["graph-ball", "--family", "cayley_zd", "--D", "100000", "--center", "0", "--radius", "1"],
     None, 100000),
    (_GRAPH_FILE, {"family": "cayley_zd", "D": 10**9}, 10**9),
    (_GRAPH_FILE, {"family": "cayley_zdne", "D": 1, "E": 10**9}, 10**9 + 1),
    (_SYSTEM_FILE, {"system": "ca_zd", "alphabet": 2, "offsets": [[0] * 65], "table": [0, 1]},
     65),
])
def test_lattice_dimension_bounded(tmp_path, capsys, argv, desc, n):
    """A lattice of more than 64 coordinates (numpy's limit on array
    dimensions) is a usage error, refused before its offsets are built."""
    if desc is not None:
        f = tmp_path / "desc.json"
        f.write_text(json.dumps(desc))
        argv = argv + [str(f)]
    start = time.perf_counter()
    code = cli.run(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (
        2, f"error: lattice has {n} coordinates, more than 64\n", "")
    assert elapsed < 1.0


def test_lattice_of_64_coordinates_builds():
    """The dimension bound admits 64 coordinates, for grids and automata."""
    origin = (0,) * 64
    assert ng.cayley_zd(64).ball_sizes([origin], 1) == [1, 129]
    assert ng.cayley_zdne(63, 1).ball_sizes([origin], 1) == [1, 127]
    sys_, _ = ss.ca_on_zd(2, [origin, (1,) + origin[1:]], [0, 1, 1, 0])
    assert sys_.graph.ball_sizes([origin], 3) == [1, 2, 3, 4]


def _readme_descriptors() -> list:
    """Every JSON value in the ```json blocks of README.md."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    decoder, found = json.JSONDecoder(), []
    for block in re.findall(r"```json\n(.*?)```", text, re.S):
        pos = 0
        while block[pos:].strip():
            pos += len(block[pos:]) - len(block[pos:].lstrip())
            desc, pos = decoder.raw_decode(block, pos)
            found.append(desc)
    return found


def _first_vertex(g) -> str:
    for v in (0, (0, 0)):
        try:
            return cli.vertex_str(ng.graph_vertex(g, v))
        except ValueError:
            pass
    raise AssertionError(f"no vertex 0 or 0,0 on {g.universe}")


@pytest.mark.parametrize("desc", _readme_descriptors(), ids=json.dumps)
def test_readme_descriptors_load(tmp_path, desc):
    """Each descriptor README.md shows runs through its *-file flag."""
    f = tmp_path / "desc.json"
    f.write_text(json.dumps(desc))
    if "estuary" in desc:
        argv = ["metric-dim", "--eps-min-pow", "2", "--eps-max-pow", "6", "--metric-file", str(f)]
    elif "family" in desc or "edges" in desc:
        center = _first_vertex(ng.graph_from_descriptor(desc))
        argv = ["graph-ball", "--center", center, "--radius", "2", "--graph-file", str(f)]
    else:
        vertex = _first_vertex(symdyn.system_from_descriptor(desc)[0].graph)
        argv = ["sys-propagation", "--vertex", vertex, "--T", "2", "--system-file", str(f)]
    assert run_to_file(tmp_path, "out.csv", argv)[0] == 0


def test_graph_speed_rejects_shifts_off_the_graph(capsys):
    """Z x N has no vertex (0, -1): the distance to it is an error, not the
    length of a path through the missing half."""
    code = cli.run(["graph-speed", "--family", "cayley_zdne", "--D", "1", "--E", "1",
                    "--vertex", "0,0", "--shift", "0,-1", "--nmax", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: vertex (0, -1) is not a vertex of this graph\n"


@pytest.mark.parametrize("argv,code,err", [
    (["--system", "full_shift", "--windows", "0"], 1,
     "not equicontinuous: window (0,) has no certified envelope\n"),
    (["--system", "odometer", "--m", "2", "--windows", "0;1|0"], 2,
     "error: windows must be nested\n"),
    (["--system", "odometer", "--windows", "0|"], 2, "error: window must be nonempty\n"),
    (["--system", "odometer", "--m", "2,65537", "--windows", "0"], 2,
     "error: alphabet has 65537 symbols, more than 65536\n"),
    (["--system", "odometer", "--m", "1000000000", "--windows", "0"], 2,
     "error: alphabet has 1000000000 symbols, more than 65536\n"),
])
def test_sys_odometer_chain_failure_exits(capsys, argv, code, err):
    assert cli.run(["sys-odometer-chain", *argv, "--horizon", "4"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_metric_lipschitz(tmp_path):
    code, text = run_to_file(
        tmp_path, "lip.json",
        ["metric-lipschitz", "--system", "full_shift", "--alphabet", "2",
         "--estuary", "0", "--lam", "2", "--samples", "200", "--seed", "3",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(text)["summary"]["within_lambda"] is True


def test_holder_check_pass_and_fail(tmp_path):
    ok, _ = run_to_file(
        tmp_path, "h1.json",
        ["holder-check", "--system", "full_shift", "--alphabet", "2",
         "--estuary", "0", "--lam", "2", "--lam2", "4", "--eta", "2",
         "--samples", "100", "--format", "json"],
    )
    assert ok == 0
    bad, text = run_to_file(
        tmp_path, "h2.json",
        ["holder-check", "--system", "full_shift", "--alphabet", "2",
         "--estuary", "0", "--lam", "2", "--lam2", "4", "--eta", "3",
         "--samples", "100", "--format", "json"],
    )
    assert bad == 1
    assert json.loads(text)["summary"]["violations"] > 0


def test_usage_error_exit_code():
    assert cli.run(["graph-ball", "--family", "cayley_zd"]) == 2  # no center
    assert cli.run(["no-such-command"]) == 2


def test_config_error_exit_code(tmp_path):
    code = cli.run(
        ["graph-ball", "--family", "nope", "--center", "0", "--radius", "2",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_byte_identical_reruns(tmp_path):
    argv = ["cex-roundtrip", "--J", "3", "--trials", "30", "--seed", "9",
            "--format", "json"]
    _, first = run_to_file(tmp_path, "a.json", argv)
    _, second = run_to_file(tmp_path, "b.json", argv)
    assert first == second
    argv2 = ["graph-dim", "--family", "cayley_zd", "--D", "2", "--vertex",
             "0,0", "--rmin", "8", "--rmax", "24"]
    _, c1 = run_to_file(tmp_path, "c.csv", argv2)
    _, c2 = run_to_file(tmp_path, "d.csv", argv2)
    assert c1 == c2


def test_metric_file_loading(tmp_path):
    f = tmp_path / "metric.json"
    f.write_text(json.dumps({"estuary": [0], "lambda": 2, "scheme": "finite",
                             "coeffs": [1.0]}))
    code, text = run_to_file(
        tmp_path, "md.json",
        ["metric-dim", "--system", "full_shift", "--alphabet", "2",
         "--metric-file", str(f), "--eps-min-pow", "8", "--eps-max-pow", "24",
         "--eps-step", "4", "--format", "json"],
    )
    assert code == 0
    assert 0.8 <= json.loads(text)["summary"]["lower_slope"] <= 1.2


def test_graph_file_loading(tmp_path):
    f = tmp_path / "graph.json"
    f.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 0]]}))
    code, text = run_to_file(
        tmp_path, "gb.json",
        ["graph-ball", "--graph-file", str(f), "--center", "0", "--radius", "3",
         "--format", "json"],
    )
    assert code == 0
    assert [row["size"] for row in json.loads(text)["rows"]] == [1, 2, 3, 3]


def test_system_file_loading(tmp_path):
    desc = {
        "alphabet": 2,
        "graph": {"edges": [[1, 0], [0, 1]]},
        "rules": [
            {"vertex": 0, "inputs": [1], "table": [1, 0]},
            {"vertex": 1, "inputs": [0], "table": [0, 1]},
        ],
    }
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(desc))
    code, text = run_to_file(
        tmp_path, "p.json",
        ["sys-propagation", "--system-file", str(f), "--vertex", "0",
         "--T", "4", "--format", "json"],
    )
    assert code == 0
    assert [row["rho"] for row in json.loads(text)["rows"]] == [1, 2, 2, 2, 2]


@pytest.mark.parametrize("vertex", ["0", "0,"])
def test_graph_dim_z1_vertex(tmp_path, vertex):
    code, text = run_to_file(
        tmp_path, "dim.json",
        ["graph-dim", "--family", "cayley_zd", "--D", "1", "--vertex", vertex,
         "--rmin", "4", "--rmax", "8", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(text)
    est = ng.dim_estimate(ng.cayley_zd(1), (0,), 4, 8)
    assert [row["ball_size"] for row in payload["rows"]] == list(est.ball_sizes)
    assert [row["exponent"] for row in payload["rows"]] == list(est.pointwise_exponents)
    assert payload["summary"]["fit_slope"] == est.fit_slope


def test_graph_ball_and_speed_z1(tmp_path):
    code, text = run_to_file(
        tmp_path, "ball.json",
        ["graph-ball", "--family", "cayley_zd", "--D", "1", "--center", "0",
         "--radius", "3", "--format", "json"],
    )
    assert code == 0
    assert [row["size"] for row in json.loads(text)["rows"]] == [1, 3, 5, 7]
    code, text = run_to_file(
        tmp_path, "speed.json",
        ["graph-speed", "--family", "cayley_zd", "--D", "1", "--vertex", "0",
         "--shift", "1", "--nmax", "4", "--format", "json"],
    )
    assert code == 0
    assert json.loads(text)["summary"]["inf_proxy"] == 1.0


@pytest.mark.parametrize("argv,members", [
    (["--D", "1", "--center", str(2**63 - 2)], [2**63 - 4 + k for k in range(5)]),
    (["--D", "1", "--center", str(2**63)], [2**63 - 2 + k for k in range(5)]),
    (["--D", "2", f"--center={-2**63 + 1},0"],
     sorted((-2**63 + 1 + i, j) for i in range(-2, 3) for j in range(-2, 3)
            if abs(i) + abs(j) <= 2)),
])
def test_graph_ball_past_int64(capsys, argv, members):
    """Lattice balls near or past the int64 edge list their exact members."""
    assert cli.run(["graph-ball", "--family", "cayley_zd", *argv, "--radius", "2",
                    "--members"]) == 0
    summary = capsys.readouterr().out.splitlines()[1].removeprefix("# summary: ")
    assert json.loads(summary)["members"] == [cli.vertex_str(v) for v in members]


def test_full_shift_propagation_past_int64(capsys):
    """A light cone near the int64 edge reads the exact in-neighbors."""
    assert cli.run(["sys-propagation", "--system", "full_shift", "--vertex", str(2**63 - 2),
                    "--T", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["t,rho", "0,1", "1,2", "2,3", "3,4"]


def _ca_file(tmp_path, d):
    """A XOR automaton on Z^d reading the cell itself and its +e_1 neighbor."""
    unit = [1] + [0] * (d - 1)
    desc = {"system": "ca_zd", "alphabet": 2, "offsets": [[0] * d, unit],
            "table": [0, 1, 1, 0]}
    f = tmp_path / f"ca{d}.json"
    f.write_text(json.dumps(desc))
    return str(f)


@pytest.mark.parametrize("argv,bare,point", [
    (["sys-propagation", "--T", "3", "--vertex"], ["0"], ["0,"]),
    (["sys-panorama", "--T", "2", "--window"], ["0"], ["0,"]),
    (["entropy-ball", "--rmin", "2", "--rmax", "4", "--vertex"], ["0"], ["0,"]),
    (["entropy-tau", "--nmax", "3", "--base", "0", "--shift"], ["1"], ["1,"]),
])
def test_ca_z1_bare_integer_vertex(tmp_path, argv, bare, point):
    """On a one-dimensional grid system a bare integer is the 1-tuple."""
    argv = [argv[0], "--system-file", _ca_file(tmp_path, 1), *argv[1:]]
    code, text = run_to_file(tmp_path, "bare.json", argv + bare + ["--format", "json"])
    assert code == 0
    code, expected = run_to_file(tmp_path, "point.json", argv + point + ["--format", "json"])
    assert code == 0
    assert json.loads(text)["rows"] == json.loads(expected)["rows"]


@pytest.mark.parametrize("argv,value", [
    (["graph-ball", "--family", "cayley_zd", "--D", "2", "--radius", "2",
      "--center", "5"], "5"),
    (["graph-ball", "--family", "cayley_zd", "--D", "2", "--radius", "2",
      "--center", "0,0,0"], "0,0,0"),
    (["graph-ball", "--family", "cayley_zdne", "--D", "1", "--E", "1", "--radius", "2",
      "--center", "0"], "0"),
    (["graph-speed", "--family", "cayley_zd", "--D", "2", "--vertex", "0,0",
      "--shift", "1"], "1"),
    (["sys-propagation", "--vertex", "1"], "1"),
    (["sys-equicontinuity", "--window", "0,0;1"], "1"),
    (["entropy-tau", "--base", "0,0", "--shift", "1,0,0"], "1,0,0"),
    (["metric-lipschitz", "--estuary", "0"], "0"),
])
def test_grid_vertex_coordinate_count_exit_code(tmp_path, capsys, argv, value):
    """A vertex with the wrong number of coordinates for its grid is a usage
    error that names it."""
    if argv[0].startswith(("sys-", "entropy-", "metric-")):
        argv = [argv[0], "--system-file", _ca_file(tmp_path, 2), *argv[1:]]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert f"vertex {value!r} needs" in captured.err
    assert captured.out == ""


def _metric_file(tmp_path, estuary):
    f = tmp_path / "metric.json"
    f.write_text(json.dumps({"estuary": estuary, "lambda": 2}))
    return str(f)


@pytest.mark.parametrize("estuary", [[0], [[0, 0, 0]]])
def test_metric_file_estuary_coordinate_count_exit_code(tmp_path, capsys, estuary):
    """A metric file's estuary vertex with the wrong number of coordinates
    for the system's grid is a usage error that names it."""
    code = cli.run(["metric-lipschitz", "--system-file", _ca_file(tmp_path, 2),
                    "--metric-file", _metric_file(tmp_path, estuary), "--samples", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"vertex {estuary[0]!r} needs 2 integer coordinates" in captured.err
    assert captured.out == ""


def test_metric_file_bare_integer_on_z1(tmp_path):
    """On a one-dimensional grid a metric file's bare integer is the 1-tuple."""
    argv = ["metric-lipschitz", "--system-file", _ca_file(tmp_path, 1), "--samples", "20",
            "--format", "json", "--metric-file"]
    code, bare = run_to_file(tmp_path, "bare.json", argv + [_metric_file(tmp_path, [0])])
    assert code == 0
    code, point = run_to_file(tmp_path, "point.json", argv + [_metric_file(tmp_path, [[0]])])
    assert code == 0
    assert json.loads(bare)["summary"] == json.loads(point)["summary"]


@pytest.mark.parametrize("argv", [
    ["metric-lipschitz", "--samples", "20"],
    ["holder-check", "--samples", "20"],
    ["metric-dim", "--eps-min-pow", "8", "--eps-max-pow", "12"],
])
def test_file_given_metric_config_echo(tmp_path, argv):
    """With a system file and a metric file, the config echoes the files,
    not the defaults of the flags they override."""
    system, metric = _ca_file(tmp_path, 1), _metric_file(tmp_path, [0])
    code, text = run_to_file(tmp_path, "out.csv", argv + ["--system-file", system,
                                                          "--metric-file", metric])
    assert code == 0
    config = json.loads(text.splitlines()[0].removeprefix("# config: "))
    assert config["system_file"] == system and config["metric_file"] == metric
    assert not {"system", "m", "estuary", "lam", "scheme"} & set(config)
    code, text = run_to_file(tmp_path, "flags.csv", argv + ["--system-file", system])
    config = json.loads(text.splitlines()[0].removeprefix("# config: "))
    assert config["system_file"] == system and config["estuary"] == "0"
    assert "system" not in config and "metric_file" not in config


@pytest.mark.parametrize("argv", [
    ["sys-propagation", "--vertex", "0", "--T", "3"],
    ["sys-panorama", "--window", "0", "--T", "2"],
    ["entropy-ball", "--vertex", "0", "--rmin", "2", "--rmax", "4"],
])
def test_file_given_system_config_echo(tmp_path, argv):
    """With a system file the config echoes the file, not the defaults or
    values of the flags it overrides."""
    system = _ca_file(tmp_path, 1)
    code, text = run_to_file(tmp_path, "out.csv", argv + [
        "--system-file", system, "--system", "odometer", "--m", "2", "--alphabet", "3",
        "--universe", "Z"])
    assert code == 0
    config = json.loads(text.splitlines()[0].removeprefix("# config: "))
    assert config["system_file"] == system
    assert not {"system", "m", "alphabet", "universe"} & set(config)
    assert config[argv[1][2:]] == argv[2]


def test_file_given_graph_config_echo(tmp_path):
    f = tmp_path / "graph.json"
    f.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 0]]}))
    code, text = run_to_file(tmp_path, "gb.csv", ["graph-ball", "--graph-file", str(f),
                                                  "--center", "0", "--radius", "3"])
    assert code == 0
    config = json.loads(text.splitlines()[0].removeprefix("# config: "))
    assert config == {"center": "0", "graph_file": str(f), "members": False, "radius": 3}


# a non-default value for every flag that changes each subcommand's answer
_ANSWER_ARGV = [
    ["graph-ball", "--family", "cayley_zdne", "--D", "1", "--E", "1", "--center", "0,0",
     "--radius", "2", "--members"],
    ["graph-dim", "--family", "cayley_zdne", "--D", "1", "--E", "1", "--vertex", "0,0",
     "--rmin", "2", "--rmax", "4"],
    ["graph-speed", "--family", "cayley_zdne", "--D", "1", "--E", "1", "--vertex", "0,0",
     "--shift", "1,0", "--nmax", "3", "--cap", "8"],
    ["sys-propagation", "--alphabet", "3", "--universe", "Z", "--vertex", "1", "--T", "3"],
    ["sys-panorama", "--alphabet", "3", "--universe", "Z", "--window", "0", "--T", "2",
     "--max-patterns", "1000"],
    ["sys-equicontinuity", "--system", "odometer", "--m", "3", "--window", "0",
     "--tprobe", "4", "--rcap", "4"],
    ["sys-odometer-chain", "--system", "odometer", "--m", "2,3", "--windows", "0|0;1",
     "--horizon", "4"],
    ["entropy-ball", "--alphabet", "3", "--universe", "Z", "--vertex", "1", "--rmin", "3",
     "--rmax", "5"],
    ["entropy-tau", "--alphabet", "3", "--universe", "Z", "--base", "0", "--shift", "2",
     "--nmax", "3"],
    ["cex-roundtrip", "--J", "2", "--trials", "3", "--seed", "5"],
    ["cex-propagation", "--T", "5"],
    *[pytest.param([command, "--alphabet", "3", "--universe", "Z", "--estuary", "0;1",
                    "--lam", "3", *scheme, *extra], id=f"{command}-{scheme[0][2:]}")
      for scheme in (["--coeffs", "1,0.25"], ["--scheme", "doubleexp"])
      for command, extra in [
          ("metric-dim", ["--eps-min-pow", "2", "--eps-max-pow", "6", "--eps-step", "1"]),
          ("metric-lipschitz", ["--samples", "20", "--seed", "3", "--rcap", "3"]),
          ("holder-check", ["--lam2", "5", "--eta", "1.5", "--constant", "2",
                            "--samples", "20", "--seed", "3", "--rcap", "3"]),
      ]],
]


@pytest.mark.parametrize("argv", _ANSWER_ARGV, ids=lambda argv: argv[0])
def test_config_echoes_every_given_flag(tmp_path, argv):
    """Every flag given on the command line shows in the config, with its
    parsed value, in CSV and in JSON."""
    parsed = vars(cli.build_parser().parse_args(argv))
    expected = {k: parsed[k] for k in (a[2:].replace("-", "_") for a in argv)
                if k in parsed}
    code, text = run_to_file(tmp_path, "out.csv", argv)
    assert code == 0
    csv_config = json.loads(text.splitlines()[0].removeprefix("# config: "))
    code, text = run_to_file(tmp_path, "out.json", argv + ["--format", "json"])
    assert code == 0
    for config in (csv_config, json.loads(text)["config"]):
        assert {k: config.get(k) for k in expected} == expected


def test_system_file_bad_table_exit_code(tmp_path, capsys):
    desc = {
        "alphabet": 2,
        "graph": {"edges": [[0, 0]]},
        "rules": [{"vertex": 0, "inputs": [0], "table": [0, 5]}],
    }
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(desc))
    code = cli.run(["sys-panorama", "--system-file", str(f), "--window", "0",
                    "--T", "2", "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "vertex 0: table entry 1 is 5" in capsys.readouterr().err


@pytest.mark.parametrize("offsets,message", [
    ([], "nonempty list of offsets"),
    ([[0.5], [1]], "offset [0.5] is not a list of integers"),
    ([[True], [1]], "offset [True] is not a list of integers"),
    ([0, 1], "offset 0 is not a list of integers"),
    ([[]], "one dimension d >= 1"),
    ([[0], [1, 0]], "one dimension d >= 1"),
])
def test_system_file_bad_offsets_exit_code(tmp_path, capsys, offsets, message):
    desc = {"system": "ca_zd", "alphabet": 2, "offsets": offsets,
            "table": [0] * 2 ** len(offsets)}
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(desc))
    code = cli.run(["sys-propagation", "--system-file", str(f), "--vertex", "0", "--T", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["--universe", "foo", "--vertex", "0"], "full_shift universe must be 'N' or 'Z', got 'foo'"),
    (["--vertex", "-2"], "vertex '-2' is not a vertex of this graph"),
    (["--alphabet", "65537", "--vertex", "0"], "alphabet has 65537 symbols, more than 65536"),
    (["--alphabet", "1000000000", "--vertex", "0"],
     "alphabet has 1000000000 symbols, more than 65536"),
])
def test_full_shift_bad_universe_or_cell_exit_code(capsys, argv, message):
    code = cli.run(["sys-propagation", "--system", "full_shift", "--T", "2"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["sys-propagation", "--system", "counterexample", "--vertex", "-1", "--T", "3"],
    ["sys-propagation", "--system", "odometer", "--vertex", "-1", "--T", "3"],
    ["sys-panorama", "--system", "counterexample", "--window", "-1", "--T", "2"],
    ["sys-panorama", "--system", "counterexample", "--window", "0;-3", "--T", "2"],
    ["sys-propagation", "--system", "counterexample", "--vertex", "1,2", "--T", "3"],
    ["graph-ball", "--family", "odometer", "--center", "-1", "--radius", "2"],
    ["graph-ball", "--family", "counterexample", "--center", "-1", "--radius", "2"],
    ["graph-ball", "--family", "shortcut", "--center", "-3", "--radius", "3"],
    ["graph-ball", "--family", "shortcut", "--center", "0,-1", "--radius", "3"],
])
def test_half_line_rejects_cells_off_the_line(capsys, argv):
    """The counterexample and the odometer live on the cells n >= 0, and the
    shortcut ladder on Z x N: a negative level (or a vertex of the wrong
    shape) is a usage error, not a cone."""
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: vertex '")
    assert captured.err.endswith("' is not a vertex of this graph\n")
    assert captured.out == ""


def test_csv_quotes_grid_vertices(tmp_path, monkeypatch, capsys):
    """A CSV field that names grid vertices is quoted, so a CSV reader sees
    one field per header name; a grid cell is one vertex, not a list."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "xor2.json").write_text(json.dumps(_CA_FILES["xor2.json"]))
    assert cli.run(["sys-panorama", "--system-file", "xor2.json",
                    "--window", "0,0;1,0", "--T", "1"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()[2:]))
    assert rows == [["t", "layer_size", "layer"], ["0", "2", "0,0|1,0"], ["1", "2", "0,0|1,0"]]
    argv = ["holder-check", "--system-file", "xor2.json", "--estuary", "0,0", "--lam", "2",
            "--lam2", "3", "--eta", "3", "--constant", "0.001", "--samples", "20", "--rcap", "3"]
    assert cli.run(argv) == 1
    rows = list(csv.reader(capsys.readouterr().out.splitlines()[2:]))
    assert rows == [["sample", "cell"], ["1", "-2,-1"]]


@pytest.mark.parametrize("value", ["0", "abc"])
def test_bad_thread_count_exit_code(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("SYMDYN_THREADS", value)
    code = cli.run(["sys-panorama", "--system", "odometer", "--m", "2",
                    "--window", "0", "--T", "2", "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "SYMDYN_THREADS" in capsys.readouterr().err


# stdout of the README commands, captured once from the one-pair-at-a-time
# sweeps; the batched sweeps consume the same random stream
_README_STDOUT = {
    ("metric-lipschitz", 0): (
        '# config: {"alphabet": 2, "estuary": "0", "lam": 2.0, "rcap": 6, "samples": 1000, '
        '"scheme": "finite", "seed": 0, "system": "full_shift"}\n'
        '# summary: {"max_ratio_hi": 2.0, "skipped": 0, "within_lambda": true}\n'
        "sample,ratio_hi\n"
    ),
    ("metric-lipschitz", 1): (
        '# config: {"alphabet": 2, "estuary": "0", "lam": 2.0, "rcap": 6, "samples": 1000, '
        '"scheme": "finite", "seed": 1, "system": "full_shift"}\n'
        '# summary: {"max_ratio_hi": 2.0, "skipped": 0, "within_lambda": true}\n'
        "sample,ratio_hi\n"
    ),
    ("holder-check", 0): (
        '# config: {"alphabet": 2, "constant": 1.0, "estuary": "0", "eta": 2.0, "lam": 2.0, '
        '"lam2": 4.0, "rcap": 8, "samples": 200, "scheme": "finite", "seed": 0, '
        '"system": "full_shift"}\n'
        '# summary: {"holds": 200, "inconclusive": 0, "passed": true, "violations": 0}\n'
        "sample,cell\n"
    ),
    ("holder-check", 1): (
        '# config: {"alphabet": 2, "constant": 1.0, "estuary": "0", "eta": 2.0, "lam": 2.0, '
        '"lam2": 4.0, "rcap": 8, "samples": 200, "scheme": "finite", "seed": 1, '
        '"system": "full_shift"}\n'
        '# summary: {"holds": 200, "inconclusive": 0, "passed": true, "violations": 0}\n'
        "sample,cell\n"
    ),
}
_README_ARGS = {
    "metric-lipschitz": ["--system", "full_shift", "--alphabet", "2", "--estuary", "0",
                         "--samples", "1000"],
    "holder-check": ["--system", "full_shift", "--alphabet", "2", "--estuary", "0",
                     "--lam", "2", "--lam2", "4", "--eta", "2"],
}


@pytest.mark.parametrize("command,seed", sorted(_README_STDOUT))
def test_readme_metric_commands_stdout_pinned(capsys, command, seed):
    argv = [command] + _README_ARGS[command] + (["--seed", str(seed)] if seed else [])
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == _README_STDOUT[(command, seed)]


@pytest.mark.parametrize("rcap", ["0", "2"])
def test_holder_check_plants_inside_small_domains(capsys, rcap):
    """Planted radii stop at the domain's depth, so a domain smaller than
    the deepest planting radius leaves no sample inconclusive."""
    argv = ["holder-check", *_README_ARGS["holder-check"], "--rcap", rcap, "--format", "json"]
    assert cli.run(argv) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["holds"] == 200 and summary["inconclusive"] == 0


def test_holder_check_image_metric_keeps_the_tail(capsys):
    """The image metric is the domain's scheme under --lam2, tail bound
    included, so samples that its intervals cannot certify stay inconclusive.
    A one-vertex doubleexp estuary leaves a tail of (e + 1) exp(-e) = 0.25,
    which leaves all 20 samples here inconclusive, and a run with no
    certified sample fails."""
    argv = ["holder-check", "--alphabet", "3", "--universe", "Z", "--estuary", "0",
            "--scheme", "doubleexp", "--lam", "3", "--lam2", "5", "--eta", "1.5",
            "--constant", "2", "--samples", "20", "--seed", "3", "--rcap", "3",
            "--format", "json"]
    assert cli.run(argv) == 1
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert (summary["holds"], summary["inconclusive"]) == (0, 20)


@pytest.mark.parametrize("argv,flag", [
    (["metric-lipschitz", "--samples", "-5"], "--samples"),
    (["metric-lipschitz", "--samples", "0"], "--samples"),
    (["metric-lipschitz", "--rcap", "-1"], "--rcap"),
    (["metric-lipschitz", "--rcap", "0"], "--rcap"),
    (["holder-check", "--samples", "0"], "--samples"),
    (["holder-check", "--rcap", "-1"], "--rcap"),
])
def test_vacuous_sweep_exit_code(capsys, argv, flag):
    code = cli.run(argv + ["--system", "full_shift", "--alphabet", "2", "--estuary", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert flag in captured.err
    assert captured.out == ""


def _child_env() -> dict:
    """The environment of a child process that imports this symdyn."""
    src = str(Path(symdyn.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "symdyn", "graph-dim", "--family", "cayley_zd",
         "--D", "2", "--vertex", "0,0", "--rmin", "2", "--rmax", "4"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[2] == "r,ball_size,exponent"


@pytest.mark.parametrize("argv,size", [
    (["graph-ball", "--family", "cayley_zd", "--D", "1", "--center", "0",
      "--radius", str(2**40)], 2**41 + 1),
    (["graph-ball", "--family", "cayley_zd", "--D", "1", "--center", "0",
      "--radius", str(10**19)], 2 * 10**19 + 1),
    (["sys-propagation", "--system", "full_shift", "--universe", "Z", "--vertex", "0",
      "--T", str(10**19)], 10**19 + 1),
])
def test_huge_lattice_radius_exit_code(argv, size):
    """A lattice ball of more than 2^22 estimated vertices is refused before
    any BFS.  Without that, radius 2^40 boxes a 2^41-byte bitmap, and past
    +-2^62 the box is refused and the generic loop never ends, so each run
    goes in a child process under a timeout."""
    code = ("import sys, time\n"
            "from symdyn import cli\n"
            "start = time.perf_counter()\n"
            "code = cli.run(sys.argv[1:])\n"
            "print(code, time.perf_counter() - start)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_child_env(), timeout=30)
    exit_code, seconds = proc.stdout.split()
    assert exit_code == "2" and float(seconds) < 1.0
    assert proc.stderr == (f"error: radius {argv[-1]}: a ball of about {size} vertices, "
                           f"over {2**22}\n")


def test_huge_radius_after_a_shallow_read_is_refused():
    """Past +-2^62 a lattice box is refused, so a shallow read grows the ball
    on the generic loop; a huge radius on that center set is still refused
    at once by the size bound.  Without that check the loop never ends, so
    the reads go in a child process under a timeout."""
    code = ("import time\n"
            "from symdyn import netgraph as ng\n"
            "g, v = ng.cayley_zd(1), (2**63 - 2,)\n"
            "assert g.ball_sizes([v], 3) == [1, 3, 5, 7]\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    g.ball_sizes([v], 10**19)\n"
            "except ValueError as exc:\n"
            "    print(time.perf_counter() - start, exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=30)
    seconds, message = proc.stdout.split(" ", 1)
    assert float(seconds) < 1.0, proc.stderr
    assert message == f"radius {10**19}: a ball of about {2 * 10**19 + 1} vertices, over {2**22}\n"


@pytest.mark.parametrize("J", [4, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_cex_roundtrip_stdout_pinned(capsys, J, seed):
    assert cli.run(["cex-roundtrip", "--J", str(J), "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == (
        f'# config: {{"J": {J}, "seed": {seed}, "trials": 200}}\n'
        '# summary: {"passed": true, "trials": 200}\n'
        "trial,seed,mismatches\n"
    )


# with a decoder that zeroes the a-row, the mismatch counts are the a-bits set
# in each trial's initial data, so they pin the sampled stream; the counts were
# derived from one `rng.random()` per cell (`conftest.choice_per_cell`)
_FAULTY_STDOUT = {
    (4, 0): (
        '# config: {"J": 4, "seed": 0, "trials": 6}\n'
        '# summary: {"passed": false, "trials": 6}\n'
        "trial,seed,mismatches\n"
        "0,0,16\n1,1,8\n2,2,12\n3,3,12\n4,4,10\n5,5,13\n"
    ),
    (6, 1): (
        '# config: {"J": 6, "seed": 1, "trials": 6}\n'
        '# summary: {"passed": false, "trials": 6}\n'
        "trial,seed,mismatches\n"
        "0,1000003,22\n1,1000004,21\n2,1000005,25\n3,1000006,21\n"
        "4,1000007,17\n5,1000008,24\n"
    ),
}


@pytest.mark.parametrize("J,seed", sorted(_FAULTY_STDOUT))
def test_cex_roundtrip_failures_pinned(capsys, monkeypatch, J, seed):
    decode = cx.decode_observations

    def zero_a_row(obs, depth):
        a_rows, b_bits = decode(obs, depth)
        return np.zeros_like(a_rows), b_bits

    monkeypatch.setattr(cx, "decode_observations", zero_a_row)
    argv = ["cex-roundtrip", "--J", str(J), "--trials", "6", "--seed", str(seed)]
    assert cli.run(argv) == 1
    assert capsys.readouterr().out == _FAULTY_STDOUT[(J, seed)]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_vacuous_roundtrip_exit_code(capsys, trials):
    code = cli.run(["cex-roundtrip", "--J", "2", "--trials", trials])
    captured = capsys.readouterr()
    assert code == 2
    assert "--trials" in captured.err
    assert captured.out == ""


def test_empty_window_exit_code(capsys):
    code = cli.run(["sys-panorama", "--system", "odometer", "--m", "2", "--window", ";"])
    captured = capsys.readouterr()
    assert code == 2
    assert "window must be nonempty" in captured.err


def test_system_file_with_grid_vertices(tmp_path):
    """List vertices in a descriptor's edges are grid points, as in its rules."""
    desc = {
        "alphabet": 2,
        "graph": {"edges": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]},
        "rules": [
            {"vertex": [0, 0], "inputs": [[0, 1]], "table": [1, 0]},
            {"vertex": [0, 1], "inputs": [[0, 0]], "table": [0, 1]},
        ],
    }
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(desc))
    code, text = run_to_file(
        tmp_path, "p.json",
        ["sys-propagation", "--system-file", str(f), "--vertex", "0,0",
         "--T", "3", "--format", "json"],
    )
    assert code == 0
    assert [row["rho"] for row in json.loads(text)["rows"]] == [1, 2, 2, 2]


def test_system_file_inconsistent_rules_exit_code(tmp_path, capsys):
    desc = {
        "alphabet": 2,
        "graph": {"edges": [[1, 0], [0, 1]]},
        "rules": [
            {"vertex": 0, "inputs": [1], "table": [1, 0]},
            {"vertex": 1, "inputs": [0], "table": [0, 1]},
            {"vertex": 2, "inputs": [0], "table": [0, 1]},
        ],
    }
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(desc))
    code = cli.run(["sys-propagation", "--system-file", str(f), "--vertex", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "rule for vertex 2, which is not in the graph" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["sys-propagation", "--vertex", "9", "--T", "0"],
    ["sys-panorama", "--window", "0;9", "--T", "0"],
    ["metric-lipschitz", "--estuary", "9", "--samples", "5"],
], ids=lambda argv: argv[0])
def test_explicit_system_unknown_vertex_exit_code(tmp_path, capsys, argv):
    """A vertex outside an explicit system's graph is a usage error that
    names it."""
    desc = {
        "alphabet": 2,
        "graph": {"edges": [[1, 0], [0, 1]]},
        "rules": [
            {"vertex": 0, "inputs": [1], "table": [1, 0]},
            {"vertex": 1, "inputs": [0], "table": [0, 1]},
        ],
    }
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(desc))
    code = cli.run(argv + ["--system-file", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert "vertex '9' is not a vertex of this graph" in captured.err
    assert captured.out == ""


def test_explicit_graph_shift_need_not_be_a_vertex(tmp_path):
    """A shift is a translation, not a vertex: -1 is not a vertex of the
    cycle, yet it moves each vertex to its neighbor."""
    f = tmp_path / "cycle.json"
    f.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}))
    code, text = run_to_file(tmp_path, "speed.csv", [
        "graph-speed", "--graph-file", str(f), "--vertex", "2", "--shift", "-1",
        "--nmax", "2", "--cap", "4"])
    assert code == 0
    assert text.splitlines()[3:] == ["1,1.0", "2,1.0"]


# captured from the per-cell presence counters that the one-pass grouping
# replaced: the layers must not move; the engine is the linear one, as the
# counterexample is linear over GF(2)^2
_CEX_PANORAMA_STDOUT = {
    4: (
        '# config: {"T": 4, "max_patterns": 16777216, "system": "counterexample", '
        '"window": "0"}\n'
        '# summary: {"cone_size": 12, "engine": "linear", "pattern_count": 131072}\n'
        "t,layer_size,layer\n"
        "0,1,0\n1,2,0|1\n2,3,0|1|2\n3,4,0|1|2|3\n4,5,0|1|2|3|4\n"
    ),
    5: (
        '# config: {"T": 5, "max_patterns": 16777216, "system": "counterexample", '
        '"window": "0"}\n'
        '# summary: {"cone_size": 16, "engine": "linear", "pattern_count": 4194304}\n'
        "t,layer_size,layer\n"
        "0,1,0\n1,2,0|1\n2,3,0|1|2\n3,4,0|1|2|3\n4,5,0|1|2|3|4\n5,6,0|1|2|3|4|5\n"
    ),
}


@pytest.mark.parametrize("T", sorted(_CEX_PANORAMA_STDOUT))
def test_cex_panorama_stdout_pinned(capsys, T):
    argv = ["sys-panorama", "--system", "counterexample", "--window", "0", "--T", str(T)]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == _CEX_PANORAMA_STDOUT[T]


# stdout of the grid automata and the one-sided shift, captured while their
# graphs still came from neighbor closures; the offset lattice must give the
# same bytes, except that the XOR panorama names the linear engine and
# quotes its grid vertices
_CA_FILES = {
    "xor2.json": {"system": "ca_zd", "alphabet": 2,
                  "offsets": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
                  "table": [bin(i).count("1") % 2 for i in range(32)]},
    # a zero offset and a duplicate one, under an asymmetric table
    "dup1.json": {"system": "ca_zd", "alphabet": 2, "offsets": [[1], [0], [1], [-2]],
                  "table": [0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0]},
}
_LATTICE_STDOUT = [
    (["sys-propagation", "--system-file", "xor2.json", "--vertex", "0,0", "--T", "6"],
     '# config: {"T": 6, "system_file": "xor2.json", "vertex": "0,0"}\n'
     '# summary: {"horizon": 6, "vertex": "0,0"}\n'
     "t,rho\n0,1\n1,5\n2,13\n3,25\n4,41\n5,61\n6,85\n"),
    (["sys-panorama", "--system-file", "xor2.json", "--window", "0,0", "--T", "2"],
     '# config: {"T": 2, "max_patterns": 16777216, "system_file": "xor2.json", '
     '"window": "0,0"}\n'
     '# summary: {"cone_size": 13, "engine": "linear", "pattern_count": 8192}\n'
     't,layer_size,layer\n0,1,"0,0"\n1,1,"0,0"\n2,1,"0,0"\n'),
    (["sys-equicontinuity", "--system-file", "xor2.json", "--window", "0,0",
      "--tprobe", "4", "--rcap", "4"],
     '# config: {"rcap": 4, "system_file": "xor2.json", "tprobe": 4, "window": "0,0"}\n'
     '# summary: {"certified": false, "envelope": null, "reach": 4, '
     '"reason": "cone still growing", "trajectory_count": null}\n'
     "t,cone_size\n0,1\n1,5\n2,13\n3,25\n4,41\n"),
    (["entropy-ball", "--system-file", "xor2.json", "--vertex", "0,0",
      "--rmin", "2", "--rmax", "6"],
     '# config: {"rmax": 6, "rmin": 2, "system_file": "xor2.json", "vertex": "0,0"}\n'
     '# summary: {"lower_proxy": 1.0, "upper_proxy": 1.0}\n'
     "r,log2_count,ball_size,ratio\n2,13.0,13,1.0\n3,25.0,25,1.0\n4,41.0,41,1.0\n"
     "5,61.0,61,1.0\n6,85.0,85,1.0\n"),
    (["sys-propagation", "--system-file", "dup1.json", "--vertex", "0", "--T", "5"],
     '# config: {"T": 5, "system_file": "dup1.json", "vertex": "0"}\n'
     '# summary: {"horizon": 5, "vertex": "0"}\n'
     "t,rho\n0,1\n1,3\n2,6\n3,9\n4,12\n5,15\n"),
    (["sys-panorama", "--system-file", "dup1.json", "--window", "0;1", "--T", "3"],
     '# config: {"T": 3, "max_patterns": 16777216, "system_file": "dup1.json", '
     '"window": "0;1"}\n'
     '# summary: {"cone_size": 11, "engine": "sort", "pattern_count": 2048}\n'
     "t,layer_size,layer\n0,2,0|1\n1,2,0|1\n2,2,0|1\n3,2,0|1\n"),
    (["sys-equicontinuity", "--system-file", "dup1.json", "--window", "0",
      "--tprobe", "4", "--rcap", "4"],
     '# config: {"rcap": 4, "system_file": "dup1.json", "tprobe": 4, "window": "0"}\n'
     '# summary: {"certified": false, "envelope": null, "reach": 4, '
     '"reason": "cone still growing", "trajectory_count": null}\n'
     "t,cone_size\n0,1\n1,3\n2,6\n3,9\n4,12\n"),
    (["entropy-ball", "--system-file", "dup1.json", "--vertex", "0",
      "--rmin", "2", "--rmax", "6"],
     '# config: {"rmax": 6, "rmin": 2, "system_file": "dup1.json", "vertex": "0"}\n'
     '# summary: {"lower_proxy": 1.0, "upper_proxy": 1.0}\n'
     "r,log2_count,ball_size,ratio\n2,6.0,6,1.0\n3,9.0,9,1.0\n4,12.0,12,1.0\n"
     "5,15.0,15,1.0\n6,18.0,18,1.0\n"),
    (["sys-propagation", "--system", "full_shift", "--vertex", "0", "--T", "5"],
     '# config: {"T": 5, "system": "full_shift", "vertex": "0"}\n'
     '# summary: {"horizon": 5, "vertex": "0"}\n'
     "t,rho\n0,1\n1,2\n2,3\n3,4\n4,5\n5,6\n"),
    (["entropy-ball", "--system", "full_shift", "--vertex", "0", "--rmin", "2",
      "--rmax", "6"],
     '# config: {"rmax": 6, "rmin": 2, "system": "full_shift", "vertex": "0"}\n'
     '# summary: {"lower_proxy": 1.0, "upper_proxy": 1.0}\n'
     "r,log2_count,ball_size,ratio\n2,3.0,3,1.0\n3,4.0,4,1.0\n4,5.0,5,1.0\n"
     "5,6.0,6,1.0\n6,7.0,7,1.0\n"),
]


@pytest.mark.parametrize("argv,stdout", _LATTICE_STDOUT,
                         ids=[f"{argv[0]}-{argv[2]}" for argv, _ in _LATTICE_STDOUT])
def test_lattice_systems_stdout_pinned(tmp_path, monkeypatch, capsys, argv, stdout):
    monkeypatch.chdir(tmp_path)
    for name, desc in _CA_FILES.items():
        (tmp_path / name).write_text(json.dumps(desc))
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == stdout
