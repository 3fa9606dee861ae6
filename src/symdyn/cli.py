"""Command-line surface: one flat subcommand per analysis operation.

Every run echoes as its config every flag that is set (defaults and the seed
included) except the output destinations `--format`, `--out` and
`--dump-trace`; a graph, system or metric file replaces the flags it
overrides.  `_COMMANDS` declares each subcommand once (its help, handler,
file flags and own flags) and `_FILE_FLAGS` each descriptor flag once;
`build_parser` adds them, and `run` builds the parser of its subcommand
alone (of every subcommand when its first argument names none).  Each
handler names its output columns once, in the header it gives `_emit`, and
passes its rows as values in header order.  Output is CSV (with a leading config
comment; a field naming grid vertices is quoted) or JSON.  Identical
configuration and seed give byte-identical output; there is no
timestamping or machine-dependent content.  Exit codes: 0 success / check
passed, 1 property violation or failed check, 2 usage or configuration
error.  SYMDYN_THREADS (a positive integer) caps the worker threads of the
enumeration engine.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from typing import Optional

from . import counterexample as cx
from . import entropydim as ed
from . import kernel
from . import metricspace as ms
from . import netgraph as ng
from . import symsys as ss


def parse_vertex(text: str):
    """'5' -> 5, '1,-2' -> (1, -2), '5,' -> (5,)."""
    parts = text.split(",")
    if len(parts) == 1:
        return int(parts[0])
    if parts[-1] == "":
        parts.pop()
    return tuple(int(p) for p in parts)


def _graph_vertex(g: ng.Digraph, text: str):
    """Parse a vertex of g (see `netgraph.graph_vertex`)."""
    return ng.graph_vertex(g, parse_vertex(text), repr(text))


def _graph_window(g: ng.Digraph, text: str):
    """Parse a ';'-separated list of vertices of g."""
    return [_graph_vertex(g, p) for p in text.split(";") if p]


def vertex_str(v) -> str:
    if isinstance(v, tuple):
        return ",".join(str(a) for a in v)
    return str(v)


def _emit(args, header: list, rows, summary: dict) -> None:
    """Write the run's config, its rows (each a sequence of values in `header`
    order) and its summary as CSV or as one JSON object."""
    config = _config(args)
    out = _sys.stdout if args.out is None else open(args.out, "w")
    try:
        if args.format == "json":
            rows = [dict(zip(header, row)) for row in rows]
            payload = {"config": config, "rows": rows, "summary": summary}
            out.write(json.dumps(payload, sort_keys=True, default=vertex_str))
            out.write("\n")
        else:
            out.write("# config: " + json.dumps(config, sort_keys=True, default=vertex_str) + "\n")
            out.write("# summary: " + json.dumps(summary, sort_keys=True, default=vertex_str) + "\n")
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(map(_csv_cell, row)) + "\n")
    finally:
        if out is not _sys.stdout:
            out.close()


def _csv_cell(value) -> str:
    """A value as one CSV field: a list of vertices joined by '|' (a tuple
    is one grid vertex), quoted when a grid vertex puts a comma in it; a
    boolean reads `true`/`false`, as in JSON."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, float):
        return repr(value)
    text = "|".join(map(vertex_str, value)) if isinstance(value, list) else vertex_str(value)
    return f'"{text}"' if "," in text else text


# The one declaration of each flag that a graph, system or metric file
# overrides: its argparse settings, plus the descriptor `field` it fills when
# that differs from its name and, for a list, how its text is `read` (with
# the network's graph, for vertices).
_FILE_FLAGS = {
    "graph_file": {
        "family": {"default": "cayley_zd"},
        "D": {"type": int},
        "E": {"type": int},
    },
    "system_file": {
        "system": {"default": "full_shift"},
        "m": {"help": "odometer moduli, comma separated",
              "read": lambda t, g: [int(p) for p in t.split(",")]},
        "alphabet": {"type": int},
        "universe": {},
    },
    "metric_file": {
        "estuary": {"default": "0", "read": lambda t, g: _graph_window(g, t)},
        "lam": {"field": "lambda", "type": float, "default": 2.0},
        "scheme": {"choices": ["finite", "doubleexp"], "default": "finite"},
        "coeffs": {"read": lambda t, g: [float(c) for c in t.split(",")]},
    },
}


def _descriptor(args, file_flag: str, graph=None):
    """The JSON descriptor in the file that `file_flag` names, or else the one
    made by the flags it overrides that are set."""
    if getattr(args, file_flag):
        with open(getattr(args, file_flag)) as fh:
            return json.load(fh)
    return {spec.get("field", flag): spec.get("read", lambda t, g: t)(value, graph)
            for flag, spec in _FILE_FLAGS[file_flag].items()
            if (value := getattr(args, flag)) not in (None, "")}


def _config(args) -> dict:
    """Every flag of the run that is set, except parser bookkeeping and the
    flags that only choose where output goes; a file is echoed instead of
    the flags it overrides."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    dropped = {"command", "fn", "format", "out", "dump_trace"}.union(
        *(flags for f, flags in _FILE_FLAGS.items() if f in given))
    return {k: v for k, v in given.items() if k not in dropped}


def cmd_graph_ball(args) -> int:
    g = ng.graph_from_descriptor(_descriptor(args, "graph_file"))
    center = _graph_vertex(g, args.center)
    sizes = g.ball_sizes([center], args.radius)
    summary = {"graph": g.universe, "center": vertex_str(center)}
    if args.members:
        ball = ng.in_ball(g, [center], args.radius)
        summary["members"] = [vertex_str(v) for v in ball.members]
    _emit(args, ["r", "size"], enumerate(sizes), summary)
    return 0


def cmd_graph_dim(args) -> int:
    g = ng.graph_from_descriptor(_descriptor(args, "graph_file"))
    v = _graph_vertex(g, args.vertex)
    est = ng.dim_estimate(g, v, args.rmin, args.rmax)
    rows = zip(est.radii, est.ball_sizes, est.pointwise_exponents)
    summary = {
        "fit_slope": est.fit_slope,
        "lower_proxy": est.lower_proxy,
        "upper_proxy": est.upper_proxy,
        "window": [args.rmin, args.rmax],
    }
    _emit(args, ["r", "ball_size", "exponent"], rows, summary)
    return 0


def cmd_graph_speed(args) -> int:
    g = ng.graph_from_descriptor(_descriptor(args, "graph_file"))
    v = _graph_vertex(g, args.vertex)
    delta = ng.graph_translation(g, parse_vertex(args.shift), repr(args.shift))
    tau = ng.shift_tau(delta)
    rep = ng.speed_estimate(g, tau, v, args.nmax, args.cap)
    summary = {"inf_proxy": rep["inf_proxy"], "unknown": rep["unknown_count"],
               "cap": args.cap}
    _emit(args, ["n", "value"], enumerate(rep["values"], 1), summary)
    return 0


def cmd_sys_propagation(args) -> int:
    sys_, _space = ss.system_from_descriptor(_descriptor(args, "system_file"))
    v = _graph_vertex(sys_.graph, args.vertex)
    rho = kernel.propagation(sys_, v, args.T)
    _emit(args, ["t", "rho"], enumerate(rho), {"vertex": vertex_str(v), "horizon": args.T})
    return 0


def cmd_sys_panorama(args) -> int:
    sys_, space = ss.system_from_descriptor(_descriptor(args, "system_file"))
    window = _graph_window(sys_.graph, args.window)
    result = ss.panorama(sys_, space, window, args.T,
                         max_patterns=args.max_patterns)
    rows = [(t, len(layer), list(layer)) for t, layer in enumerate(result.layers)]
    summary = {
        "cone_size": len(result.cone),
        "pattern_count": result.pattern_count,
        "engine": result.engine,
    }
    _emit(args, ["t", "layer_size", "layer"], rows, summary)
    return 0


def cmd_sys_equicontinuity(args) -> int:
    sys_, _space = ss.system_from_descriptor(_descriptor(args, "system_file"))
    window = _graph_window(sys_.graph, args.window)
    rep = ss.equicontinuity_envelope(sys_, window, args.tprobe, args.rcap)
    summary = {
        "certified": rep.certified,
        "envelope": list(rep.envelope) if rep.envelope else None,
        "reach": rep.reach,
        "trajectory_count": rep.trajectory_count,
        "reason": rep.reason,
    }
    _emit(args, ["t", "cone_size"], enumerate(rep.cone_sizes), summary)
    return 0


def cmd_sys_odometer_chain(args) -> int:
    sys_, space = ss.system_from_descriptor(_descriptor(args, "system_file"))
    windows = [_graph_window(sys_.graph, w) for w in args.windows.split("|")]
    try:
        chain = ss.odometer_factor_chain(sys_, space, windows, args.horizon)
    except ss.NotEquicontinuousError as exc:
        print(f"not equicontinuous: {exc}", file=_sys.stderr)
        return 1
    rows = [(list(c["window"]), list(c["envelope"]), c["trajectory_count"],
             c["shift_is_permutation"]) for c in chain]
    ok = all(c["shift_is_permutation"] for c in chain)
    _emit(args, ["window", "envelope", "trajectories", "shift_is_permutation"], rows,
          {"all_permutations": ok})
    return 0 if ok else 1


def cmd_entropy_ball(args) -> int:
    sys_, space = ss.system_from_descriptor(_descriptor(args, "system_file"))
    v = _graph_vertex(sys_.graph, args.vertex)
    est = ed.ball_entropy(space, sys_.graph, v, args.rmin, args.rmax)
    rows = zip(est.radii, est.log2_counts, est.ball_sizes, est.ratios)
    _emit(args, ["r", "log2_count", "ball_size", "ratio"], rows,
          {"lower_proxy": est.lower_proxy, "upper_proxy": est.upper_proxy})
    return 0


def cmd_entropy_tau(args) -> int:
    sys_, space = ss.system_from_descriptor(_descriptor(args, "system_file"))
    base = _graph_window(sys_.graph, args.base)
    delta = ng.graph_translation(sys_.graph, parse_vertex(args.shift),
                                   repr(args.shift))
    prof = ed.tau_entropy_profile(space, ng.shift_tau(delta), base, args.nmax)
    rows = zip(prof["n"], prof["log2_counts"], prof["values"], prof["region_sizes"])
    _emit(args, ["n", "log2_count", "value", "region_size"], rows,
          {"final_value": prof["values"][-1]})
    return 0


def cmd_cex_roundtrip(args) -> int:
    _at_least(args, "trials", 1)
    rep = cx.cex_roundtrip(args.J, args.trials, args.seed)
    rows = [(f["trial"], f["seed"], len(f["mismatches"])) for f in rep["failures"]]
    if args.dump_trace:
        import random as _random

        trial_seed = cx.trial_seed(args.seed, 0)
        x0 = cx.random_initial(args.J, _random.Random(trial_seed))
        trace = cx.simulate_trace(x0, args.J)
        with open(args.dump_trace, "w") as fh:
            fh.write("# config: " + json.dumps(
                {"J": args.J, "seed": args.seed, "trial_seed": trial_seed},
                sort_keys=True) + "\n")
            fh.write("t,a,b\n")
            for t, (a, b) in enumerate(trace.observations):
                fh.write(f"{t},{a},{b}\n")
    _emit(args, ["trial", "seed", "mismatches"], rows,
          {"passed": rep["passed"], "trials": rep["trials"]})
    return 0 if rep["passed"] else 1


def cmd_cex_propagation(args) -> int:
    rep = cx.cex_propagation_profile(args.T)
    rows = zip(range(len(rep["rho"])), rep["rho"], rep["floors"])
    _emit(args, ["t", "rho", "floor"], rows, {"lower_bound_ok": rep["lower_bound_ok"]})
    return 0 if rep["lower_bound_ok"] else 1


def cmd_metric_dim(args) -> int:
    _at_least(args, "eps_min_pow", 0)
    _at_least(args, "eps_step", 1)
    sys_, space = ss.system_from_descriptor(_descriptor(args, "system_file"))
    metric = ms.metric_from_descriptor(_descriptor(args, "metric_file", sys_.graph), sys_.graph)
    eps_grid = [2.0 ** (-k) for k in range(args.eps_min_pow, args.eps_max_pow + 1,
                                           args.eps_step)]
    rep = ms.metric_dim_estimate(space, metric, eps_grid)
    header = ["eps", "scale", "log2_cover_lower", "log2_cover_upper"]
    _emit(args, header, [[r[h] for h in header] for r in rep["rows"]],
          {"lower_slope": rep["lower_slope"], "upper_slope": rep["upper_slope"]})
    return 0


def _at_least(args, name: str, low: int) -> None:
    value = getattr(args, name)
    if value < low:
        raise ValueError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")


def cmd_metric_lipschitz(args) -> int:
    _at_least(args, "samples", 1)
    _at_least(args, "rcap", 1)
    sys_, space = ss.system_from_descriptor(_descriptor(args, "system_file"))
    metric = ms.metric_from_descriptor(_descriptor(args, "metric_file", sys_.graph), sys_.graph)
    rep = ms.lipschitz_report(sys_, metric, space, args.samples, args.seed,
                              r_cap=args.rcap)
    rows = [(f["sample"], f["ratio_hi"]) for f in rep["flagged"]]
    _emit(args, ["sample", "ratio_hi"], rows,
          {"max_ratio_hi": rep["max_ratio_hi"], "skipped": rep["skipped"],
           "within_lambda": rep["within_lambda"]})
    return 0 if rep["within_lambda"] else 1


def cmd_holder_check(args) -> int:
    _at_least(args, "samples", 1)
    _at_least(args, "rcap", 0)
    sys_, space = ss.system_from_descriptor(_descriptor(args, "system_file"))
    metric_from = ms.metric_from_descriptor(_descriptor(args, "metric_file", sys_.graph),
                                            sys_.graph)
    try:
        metric_to = ms.BasedMetric(scheme=metric_from.scheme, lam=args.lam2, graph=sys_.graph)
    except ValueError as exc:
        raise ValueError(f"--lam2: {exc}") from None
    domain = sys_.graph.ball_members(metric_from.scheme.vertices, args.rcap)
    rep = ms.holder_report(
        None, metric_from, metric_to, args.eta, args.constant,
        space, domain, args.samples, args.seed
    )
    worst = rep["worst"]
    _emit(args, ["sample", "cell"], [(worst["sample"], worst["cell"])] if worst else [],
          {"holds": rep["holds"], "violations": rep["violations"],
           "inconclusive": rep["inconclusive"], "passed": rep["passed"]})
    return 0 if rep["passed"] else 1


def _default(value) -> dict:
    """A flag of the type of its default `value`."""
    return {"type": type(value), "default": value}


_REQUIRED = {"required": True}

# Each subcommand once: its help, its handler, the file flags it reads (each
# with the flags it overrides) and its own flags, in argparse settings; every
# subcommand ends with the output flags.
_COMMANDS = {
    "graph-ball": ("in-neighbor ball sizes", cmd_graph_ball, ["graph_file"], {
        "center": _REQUIRED, "radius": {"type": int, "required": True},
        "members": {"action": "store_true"}}),
    "graph-dim": ("ball-growth exponent estimate", cmd_graph_dim, ["graph_file"], {
        "vertex": _REQUIRED, "rmin": _default(16), "rmax": _default(64)}),
    "graph-speed": ("subisometry displacement speed", cmd_graph_speed, ["graph_file"], {
        "vertex": _REQUIRED, "shift": {"required": True, "help": "translation vector"},
        "nmax": _default(8), "cap": _default(32)}),
    "sys-propagation": ("light-cone growth at a vertex", cmd_sys_propagation, ["system_file"], {
        "vertex": _REQUIRED, "T": _default(16)}),
    "sys-panorama": ("determined-cell layers of a window", cmd_sys_panorama, ["system_file"], {
        "window": _REQUIRED, "T": _default(4),
        "max-patterns": _default(ss.DEFAULT_PATTERN_CAP)}),
    "sys-equicontinuity": ("envelope certification", cmd_sys_equicontinuity, ["system_file"], {
        "window": _REQUIRED, "tprobe": _default(16), "rcap": _default(16)}),
    "sys-odometer-chain": ("factor-chain certificate", cmd_sys_odometer_chain, ["system_file"], {
        "windows": {"required": True, "help": "windows separated by |"},
        "horizon": _default(8)}),
    "entropy-ball": ("pattern density over balls", cmd_entropy_ball, ["system_file"], {
        "vertex": _REQUIRED, "rmin": _default(2), "rmax": _default(32)}),
    "entropy-tau": ("pattern growth along a shift orbit", cmd_entropy_tau, ["system_file"], {
        "base": {"required": True, "help": "base cells, ; separated"}, "shift": _REQUIRED,
        "nmax": _default(20)}),
    "cex-roundtrip": ("simulate+decode round trips", cmd_cex_roundtrip, [], {
        "J": _default(4), "trials": _default(200), "seed": _default(1),
        "dump-trace": {"help": "also write trial 0's cell-0 trace as CSV (t,a,b)"}}),
    "cex-propagation": ("quadratic cone growth profile", cmd_cex_propagation, [], {
        "T": _default(40)}),
    "metric-dim": ("cylinder-cover dimension bracket", cmd_metric_dim,
                   ["system_file", "metric_file"], {
        "eps-min-pow": _default(8), "eps-max-pow": _default(32), "eps-step": _default(2)}),
    "metric-lipschitz": ("one-step expansion ratios", cmd_metric_lipschitz,
                         ["system_file", "metric_file"], {
        "samples": _default(1000), "seed": _default(0), "rcap": _default(6)}),
    "holder-check": ("sampled Holder inequality check", cmd_holder_check,
                     ["system_file", "metric_file"], {
        "lam2": _default(4.0), "eta": _default(2.0), "constant": _default(1.0),
        "samples": _default(200), "seed": _default(0), "rcap": _default(8)}),
}

_OUTPUT_FLAGS = {"format": {"choices": ["csv", "json"], "default": "csv"}, "out": {}}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `symdyn` parser with every subcommand, or with only `command`."""
    parser = argparse.ArgumentParser(
        prog="symdyn",
        description="Finite-window analysis of symbolic dynamics on digraphs",
    )
    # an unrecognized argument prints the usage line, which names every
    # subcommand also when only one is built
    names = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, (help, handler, file_flags, flags) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help)
        for file_flag in file_flags:
            for flag, spec in _FILE_FLAGS[file_flag].items():
                p.add_argument("--" + flag,
                               **{k: v for k, v in spec.items() if k not in ("field", "read")})
            p.add_argument("--" + file_flag.replace("_", "-"),
                           help=f"JSON {file_flag[:-5]} descriptor; overrides the flags above")
        for flag, spec in {**flags, **_OUTPUT_FLAGS}.items():
            p.add_argument("--" + flag, **spec)
        p.set_defaults(fn=handler)
    return parser


def run(argv: Optional[list] = None) -> int:
    """Parse `argv` (by default the process's arguments) and run its
    subcommand; only that subcommand's parser is built."""
    argv = _sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        ss._thread_count()  # reject a malformed SYMDYN_THREADS before any work
        return args.fn(args)
    except (ng.SymdynError, ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
