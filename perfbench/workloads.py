"""The benchmark's workloads: inputs built from a seed, queries checked against pinned answers.

Each workload is a closed loop with one client: `run_pass` sends its queries
back to back, and a query starts only after the previous one has answered.
Queries are either README CLI subcommands, run in-process through
`symdyn.cli.run` with stdout captured, or the acceptance-criterion API calls.
Every query is checked against a pinned answer, so a fast wrong answer counts
as a failure; a failure is recorded and never aborts the pass.

`build_inputs` makes fresh graph, system and space objects.  The library's
only caches live on those objects (`Digraph._ball_cache`,
`SymbolicSystem._rules`), so a pass over freshly built inputs starts cold,
as a CLI invocation does.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shlex
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from symdyn import cli
from symdyn import counterexample as cx
from symdyn import entropydim as ed
from symdyn import metricspace as ms
from symdyn import netgraph as ng
from symdyn import symsys as ss

# Pinned answers.  Tests swap an entry for a wrong value to show that a miss
# is counted, so queries read these at check time.
PINNED: dict = {
    # observing cell 0 of the two-bit counterexample for t steps pins cells 0..t
    "cex_layers": [list(range(t + 1)) for t in range(7)],
    "cex_pattern_count": 2**28,
    "cex_first_t": 6,
    # exact cone growth rho(0..40) at cell 0 of the counterexample
    "cex_rho": [
        1, 3, 5, 8, 12, 16, 21, 27, 33, 40, 48, 56, 65, 75, 85, 96, 108, 120,
        133, 147, 161, 176, 192, 208, 225, 243, 261, 280, 300, 320, 341, 363,
        385, 408, 432, 456, 481, 507, 533, 560, 588,
    ],
    "shift_layers": [list(range(t + 1)) for t in range(13)],
    "shift_pattern_count": 2**13,
    "odometer_layers": [[0]] * 11,
    "odometer_trajectories": [2, 4, 8],
    "roundtrip_trials": 200,
    # criterion 3 / 6 / 7 / 8 tolerances
    "dim_tolerance": 0.15,
    "odometer_exponent_max": 0.25,
    "cex_graph_slope": (1.7, 2.2),
    "grid_speed_values": [1.0] * 8,
    "shortcut_speed_max": 9 / 16,
    "lambda_max": 2.0 + 1e-9,
    "lipschitz_min_used": 9_000,
    "grid_metric_slope": (1.8, 2.1),
    "line_metric_slope": (0.9, 1.1),
    # criterion 9: five new cells per step along the orbit of a radius-2 ball
    "tau_final_value": 113 / 20,
    "tau_min_increment": 4.0,
}

XOR_OFFSETS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
XOR_TABLE = [sum(bits) % 2 for bits in itertools.product((0, 1), repeat=5)]
EPS_GRID = [2.0 ** (-k) for k in range(8, 33, 2)]


def z3_ball_size(r: int) -> int:
    """Closed form of the in-ball size of radius r in Z^3 (L1 ball)."""
    return (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3


def run_cli(argv: list) -> tuple:
    """Run one CLI subcommand in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, buf.getvalue()


def parse_csv_output(text: str) -> dict:
    """Split CLI CSV output into its summary object and its rows of strings."""
    lines = text.splitlines()
    summary = json.loads(lines[1].removeprefix("# summary: "))
    header = lines[2].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[3:]]
    return {"summary": summary, "rows": rows}


def _layer(cell: str) -> list:
    return [int(v) for v in cell.split("|")] if cell else []


@dataclass
class Outcome:
    """One answered query: its solve time, its answer and any check misses."""

    name: str
    seconds: float
    answer: Any = None
    misses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.misses


@dataclass(frozen=True)
class Query:
    """`solve` is the timed call; `check` turns its raw result into a
    JSON-able answer and reports each disagreement with the pinned answers
    through `expect`."""

    name: str
    solve: Callable[[dict], Any]
    check: Callable[[Any, Callable[[bool, str], None]], Any]
    threaded: bool = False  # runs the packed engine's worker threads


def _cli_check(inner):
    """Check wrapper for CLI queries: exit code 0, then the parsed output."""

    def check(raw, expect):
        code, text = raw
        expect(code == 0, f"exit code {code}")
        if code != 0:
            return {"exit": code}
        parsed = parse_csv_output(text)
        return {"exit": code, "stdout": text, **inner(parsed, expect)}

    return check


# -- panorama-cex -----------------------------------------------------------


def _build_panorama_cex(seed: int) -> dict:
    return {"sys": cx.cex_rules(), "space": cx.cex_space()}


def _check_cex_panorama(res, expect):
    layers = [list(layer) for layer in res.layers]
    expect(layers == PINNED["cex_layers"], f"layers {layers}")
    expect(res.pattern_count == PINNED["cex_pattern_count"],
           f"pattern_count {res.pattern_count}")
    return {"layers": layers, "pattern_count": res.pattern_count, "engine": res.engine}


def _check_cex_posexp(res, expect):
    expect(res["covered"], "not covered")
    expect(res["first_t"] == PINNED["cex_first_t"], f"first_t {res['first_t']}")
    return {"covered": res["covered"], "first_t": res["first_t"],
            "missing": list(res["missing"])}


PANORAMA_CEX = [
    Query("panorama_cex_T6",
          lambda inp: ss.panorama(inp["sys"], inp["space"], [0], 6,
                                  max_patterns=2**28),
          _check_cex_panorama),
    Query("posexpansive_cex_T6",
          lambda inp: ss.posexpansive_window_check(
              inp["sys"], inp["space"], [0], 6, list(range(7)),
              max_patterns=2**28),
          _check_cex_posexp, threaded=True),
]


# -- cone-eval --------------------------------------------------------------


def _build_cone_eval(seed: int) -> dict:
    osys, ospace = ss.odometer_system([2])
    return {
        "roundtrip4": shlex.split(f"cex-roundtrip --J 4 --trials 200 --seed {seed}"),
        "roundtrip6": shlex.split(f"cex-roundtrip --J 6 --trials 200 --seed {seed}"),
        "shift_panorama": shlex.split(
            "sys-panorama --system full_shift --alphabet 2 --window 0 --T 12"),
        "odometer_panorama": shlex.split(
            "sys-panorama --system odometer --m 2 --window 0 --T 10"),
        "odometer": osys,
        "odometer_space": ospace,
    }


def _check_roundtrip(parsed, expect):
    s = parsed["summary"]
    expect(s["passed"] is True, "round trip failed")
    expect(s["trials"] == PINNED["roundtrip_trials"], f"trials {s['trials']}")
    expect(not parsed["rows"], f"{len(parsed['rows'])} failing trials")
    return {"summary": s}


def _check_panorama_rows(layers_key, count_key):
    def inner(parsed, expect):
        layers = [_layer(row["layer"]) for row in parsed["rows"]]
        count = parsed["summary"]["pattern_count"]
        expect(layers == PINNED[layers_key], f"layers {layers}")
        if count_key:
            expect(count == PINNED[count_key], f"pattern_count {count}")
        return {"layers": layers, "summary": parsed["summary"]}

    return inner


def _solve_criterion_5(inp):
    sys_, space = inp["odometer"], inp["odometer_space"]
    out = []
    for n, window in enumerate([[0], [0, 1], [0, 1, 2]]):
        horizon = 2 ** (n + 2)
        rep = ss.equicontinuity_envelope(sys_, window, horizon, 8)
        chain = ss.odometer_factor_chain(sys_, space, [window], horizon)
        out.append((window, rep, chain[0]))
    return out


def _check_criterion_5(raw, expect):
    answer = []
    for (window, rep, link), count in zip(raw, PINNED["odometer_trajectories"]):
        expect(rep.certified, f"window {window} not certified")
        expect(rep.envelope == tuple(window), f"envelope {rep.envelope}")
        expect(link["trajectory_count"] == count,
               f"trajectory_count {link['trajectory_count']}")
        expect(link["shift_is_permutation"], f"window {window} not a permutation")
        answer.append({"envelope": list(rep.envelope or ()),
                       "trajectories": link["trajectory_count"],
                       "permutation": link["shift_is_permutation"]})
    return answer


CONE_EVAL = [
    Query("cli_cex_roundtrip_J4", lambda inp: run_cli(inp["roundtrip4"]),
          _cli_check(_check_roundtrip)),
    Query("cli_cex_roundtrip_J6", lambda inp: run_cli(inp["roundtrip6"]),
          _cli_check(_check_roundtrip)),
    Query("cli_sys_panorama_shift_T12", lambda inp: run_cli(inp["shift_panorama"]),
          _cli_check(_check_panorama_rows("shift_layers", "shift_pattern_count"))),
    Query("cli_sys_panorama_odometer_T10",
          lambda inp: run_cli(inp["odometer_panorama"]),
          _cli_check(_check_panorama_rows("odometer_layers", None))),
    Query("criterion_5_envelope_chain", _solve_criterion_5, _check_criterion_5),
]


# -- graph-growth -----------------------------------------------------------


def _build_graph_growth(seed: int) -> dict:
    # The CLI has no vertex syntax for Z^1 (`--vertex 0` raises a TypeError,
    # `--vertex 0,` is a usage error), so Z^1 goes through the API form that
    # criterion 3 uses; Z^2 and Z^3 go through `graph-dim`.
    return {
        "z1": ng.cayley_zd(1),
        "odometer": ng.odometer_graph(),
        "cex": ng.counterexample_graph(),
        "z2_speed": ng.cayley_zd(2),
        "shortcut": ng.shortcut_graph(),
        "z3": ng.cayley_zd(3),
        "z2_tau": ng.cayley_zd(2),
        "space": ss.PatternSpace.full(ss.Alphabet(2)),
        "dim_z2": shlex.split(
            "graph-dim --family cayley_zd --D 2 --vertex 0,0 --rmin 16 --rmax 64"),
        "dim_z3": shlex.split(
            "graph-dim --family cayley_zd --D 3 --vertex 0,0,0 --rmin 16 --rmax 64"),
        "propagation": shlex.split("cex-propagation --T 40"),
    }


def _check_dim_rows(d):
    def inner(parsed, expect):
        slope = parsed["summary"]["fit_slope"]
        sizes = {int(row["r"]): int(row["ball_size"]) for row in parsed["rows"]}
        expect(abs(slope - d) <= PINNED["dim_tolerance"], f"Z^{d} slope {slope}")
        if d == 3:
            wrong = [r for r, s in sizes.items() if s != z3_ball_size(r)]
            expect(not wrong, f"Z^3 ball sizes off the closed form at r={wrong[:5]}")
        return {"fit_slope": slope, "ball_sizes": sizes}

    return inner


def _solve_criterion_3_api(inp):
    odo = inp["odometer"]
    return {
        "z1": ng.dim_estimate(inp["z1"], (0,), 16, 64),
        "odometer_sizes": [odo.ball_sizes([v], 64)[64] for v in (0, 1)],
        "odometer_flat": ng.dim_estimate(odo, 9, 2, 50),
        "cex": ng.dim_estimate(inp["cex"], 0, 8, 40),
    }


def _check_criterion_3_api(raw, expect):
    tol = PINNED["dim_tolerance"]
    z1 = raw["z1"].fit_slope
    expect(abs(z1 - 1) <= tol, f"Z^1 slope {z1}")
    exps = [math.log(s) / math.log(64) for s in raw["odometer_sizes"]]
    expect(all(e <= PINNED["odometer_exponent_max"] for e in exps),
           f"odometer exponents {exps}")
    flat = raw["odometer_flat"].fit_slope
    expect(abs(flat) <= 1e-12, f"odometer slope {flat}")
    lo, hi = PINNED["cex_graph_slope"]
    cex_slope = raw["cex"].fit_slope
    expect(lo <= cex_slope <= hi, f"counterexample slope {cex_slope}")
    return {"z1": z1, "odometer_sizes": raw["odometer_sizes"],
            "odometer_flat": flat, "cex": cex_slope}


def _solve_criterion_6(inp):
    grid = ng.speed_estimate(inp["z2_speed"], ng.shift_tau((1, 0)), (0, 0), 8, 20)
    tau = ng.Subisometry(map=lambda v: (v[0] + 1, v[1]), label="base_shift")
    shortcut = ng.speed_estimate(inp["shortcut"], tau, (0, 0), 16, 12)
    return grid, shortcut


def _check_criterion_6(raw, expect):
    grid, shortcut = raw
    expect(grid["inf_proxy"] == 1.0, f"grid speed {grid['inf_proxy']}")
    expect(grid["values"] == PINNED["grid_speed_values"], f"grid values {grid['values']}")
    v15 = shortcut["values"][15]
    expect(v15 is not None and v15 <= PINNED["shortcut_speed_max"],
           f"shortcut speed at n=16 {v15}")
    return {"grid": grid["values"], "shortcut": shortcut["values"]}


def _check_propagation(parsed, expect):
    rho = [int(row["rho"]) for row in parsed["rows"]]
    expect(rho == PINNED["cex_rho"], f"rho {rho}")
    return {"rho": rho}


def _solve_ball_entropy(inp):
    return ed.ball_entropy(inp["space"], inp["z3"], (0, 0, 0), 16, 48)


def _check_ball_entropy(est, expect):
    wrong = [r for r, s in zip(est.radii, est.ball_sizes) if s != z3_ball_size(r)]
    expect(not wrong, f"Z^3 ball sizes off the closed form at r={wrong[:5]}")
    expect(all(c == s for c, s in zip(est.log2_counts, est.ball_sizes)),
           "log2 counts differ from ball sizes on the full 2-shift")
    return {"ball_sizes": list(est.ball_sizes), "ratios": list(est.ratios)}


def _solve_criterion_9(inp):
    base = inp["z2_tau"].ball_members([(0, 0)], 2)
    return ed.tau_entropy_profile(inp["space"], ng.shift_tau((1, 0)), base, 20)


def _check_criterion_9(prof, expect):
    counts = prof["log2_counts"]
    incs = [b - a for a, b in zip(counts, counts[1:])]
    expect(all(i > PINNED["tau_min_increment"] for i in incs), f"increments {incs}")
    final = prof["values"][-1]
    expect(math.isclose(final, PINNED["tau_final_value"]), f"final value {final}")
    return {"log2_counts": counts, "final": final}


GRAPH_GROWTH = [
    Query("criterion_3_api", _solve_criterion_3_api, _check_criterion_3_api),
    Query("cli_graph_dim_Z2", lambda inp: run_cli(inp["dim_z2"]),
          _cli_check(_check_dim_rows(2))),
    Query("cli_graph_dim_Z3", lambda inp: run_cli(inp["dim_z3"]),
          _cli_check(_check_dim_rows(3))),
    Query("criterion_6_speed", _solve_criterion_6, _check_criterion_6),
    Query("cli_cex_propagation_T40", lambda inp: run_cli(inp["propagation"]),
          _cli_check(_check_propagation)),
    Query("ball_entropy_Z3", _solve_ball_entropy, _check_ball_entropy),
    Query("criterion_9_tau_profile", _solve_criterion_9, _check_criterion_9),
]


# -- metric-sweep -----------------------------------------------------------


def _build_metric_sweep(seed: int) -> dict:
    ca, ca_space = ss.ca_on_zd(2, XOR_OFFSETS, XOR_TABLE)
    space = ss.PatternSpace.full(ss.Alphabet(2))
    return {
        "seed": seed,
        "ca": ca,
        "ca_space": ca_space,
        "ca_metric": ms.single_estuary_metric(ng.cayley_zd(2), (0, 0), 2.0),
        "space": space,
        "grid_metric": ms.single_estuary_metric(ng.cayley_zd(2), (0, 0), 2.0),
        "line_metric": ms.single_estuary_metric(ng.unit_shift_graph(), 0, 2.0),
        "lipschitz": shlex.split(
            "metric-lipschitz --system full_shift --alphabet 2 --estuary 0 "
            f"--samples 1000 --seed {seed}"),
        "holder": shlex.split(
            "holder-check --system full_shift --alphabet 2 --estuary 0 --lam 2 "
            f"--lam2 4 --eta 2 --seed {seed}"),
        "metric_dim": shlex.split(
            "metric-dim --system full_shift --alphabet 2 --estuary 0 --lam 2"),
    }


def _check_lipschitz_report(rep, expect):
    expect(rep["within_lambda"], f"flagged {rep['flagged'][:3]}")
    expect(rep["max_ratio_hi"] <= PINNED["lambda_max"], f"max ratio {rep['max_ratio_hi']}")
    used = rep["samples"] - rep["skipped"]
    expect(used >= PINNED["lipschitz_min_used"], f"only {used} usable pairs")
    # `worst` depends on the sampled pairs; it is returned, never checked
    return {"max_ratio_hi": rep["max_ratio_hi"], "skipped": rep["skipped"],
            "worst": rep["worst"]}


def _check_cli_lipschitz(parsed, expect):
    s = parsed["summary"]
    expect(s["within_lambda"] is True, "flagged expansion ratio")
    expect(s["max_ratio_hi"] <= PINNED["lambda_max"], f"max ratio {s['max_ratio_hi']}")
    return {"summary": s}


def _check_cli_holder(parsed, expect):
    s = parsed["summary"]
    expect(s["passed"] is True and s["violations"] == 0, f"holder summary {s}")
    return {"summary": s}


def _slopes_within(rep, bounds, label, expect):
    lo, hi = bounds
    for key in ("lower_slope", "upper_slope"):
        expect(lo <= rep[key] <= hi, f"{label} {key} {rep[key]}")
    return {"lower_slope": rep["lower_slope"], "upper_slope": rep["upper_slope"]}


def _check_cli_metric_dim(parsed, expect):
    return _slopes_within(parsed["summary"], PINNED["line_metric_slope"], "line",
                          expect)


def _solve_criterion_8(inp):
    return (ms.metric_dim_estimate(inp["space"], inp["grid_metric"], EPS_GRID),
            ms.metric_dim_estimate(inp["space"], inp["line_metric"], EPS_GRID))


def _check_criterion_8(raw, expect):
    grid, line = raw
    return {"grid": _slopes_within(grid, PINNED["grid_metric_slope"], "grid", expect),
            "line": _slopes_within(line, PINNED["line_metric_slope"], "line", expect)}


METRIC_SWEEP = [
    Query("criterion_7_lipschitz",
          lambda inp: ms.lipschitz_report(inp["ca"], inp["ca_metric"], inp["ca_space"],
                                          samples=10_000, seed=inp["seed"], r_cap=6),
          _check_lipschitz_report),
    Query("cli_metric_lipschitz", lambda inp: run_cli(inp["lipschitz"]),
          _cli_check(_check_cli_lipschitz)),
    Query("cli_holder_check", lambda inp: run_cli(inp["holder"]),
          _cli_check(_check_cli_holder)),
    Query("cli_metric_dim", lambda inp: run_cli(inp["metric_dim"]),
          _cli_check(_check_cli_metric_dim)),
    Query("criterion_8_metric_dim", _solve_criterion_8, _check_criterion_8),
]


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], dict]
    queries: list


WORKLOADS = {
    "panorama-cex": Workload(_build_panorama_cex, PANORAMA_CEX),
    "cone-eval": Workload(_build_cone_eval, CONE_EVAL),
    "graph-growth": Workload(_build_graph_growth, GRAPH_GROWTH),
    "metric-sweep": Workload(_build_metric_sweep, METRIC_SWEEP),
}


def build_inputs(workload: str, seed: int) -> dict:
    return WORKLOADS[workload].build(seed)


def run_pass(workload: str, inputs: dict, only: Optional[list] = None) -> list:
    """Solve the queries of one pass in order (those named in `only`, when
    given); returns one Outcome per query.

    Only `solve` is timed.  An error, a nonzero exit or a wrong answer is a
    miss on that query, and the pass goes on with the next one.
    """
    outcomes = []
    for query in WORKLOADS[workload].queries:
        if only is not None and query.name not in only:
            continue
        start = time.perf_counter()
        try:
            raw = query.solve(inputs)
        except Exception:  # a failing query is counted, not fatal
            outcomes.append(Outcome(query.name, time.perf_counter() - start,
                                    misses=[traceback.format_exc(limit=3)]))
            continue
        outcome = Outcome(query.name, time.perf_counter() - start)

        def expect(ok: bool, message: str) -> None:
            if not ok:
                outcome.misses.append(message)

        try:
            outcome.answer = query.check(raw, expect)
        except Exception:  # malformed output is a miss too
            outcome.misses.append(traceback.format_exc(limit=3))
        outcomes.append(outcome)
    return outcomes
