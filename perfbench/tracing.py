"""Per-layer tracing from outside the library: wrappers around public functions.

`Tracer.installed()` replaces each traced function in the module that
defines it and in every symdyn module that imported it by name (for example
`counterexample` binds `evaluate`, `light_cone` and `propagation`, and
`symdyn/__init__` re-exports nearly everything), and puts every original
back on exit.  Methods are replaced on their class.

Each wrapped call is one span on a stack; a span's self time is its duration
minus the durations of the wrapped calls it made.  Spans are aggregated into
per-function counters (calls, total, self) instead of being kept one by one,
because `evaluate`, `light_cone` and `Digraph.ball_members` run 10^4 to 10^5
times per pass.  `SymbolicSystem.rule` (about 5x10^6 calls per pass) and the
private stages (`_shells`, `_composed_tables`, key gather, `bincount`) are
not wrapped; splitting those needs run reports inside the program.

The library calls the traced functions only from the thread that called it
(the packed engine's worker threads run numpy code only), so one stack
suffices.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import weakref

from symdyn import cli
from symdyn import counterexample as cx
from symdyn import entropydim as ed
from symdyn import metricspace as ms
from symdyn import netgraph as ng
from symdyn import symsys as ss

# module label -> (module, dotted names of the traced functions in it)
TRACED = {
    "netgraph": (ng, ["Digraph.ball_members", "Digraph.ball_sizes", "in_ball",
                      "dim_estimate", "undirected_distance", "speed_estimate"]),
    "symsys": (ss, ["light_cone", "evaluate", "propagation", "panorama",
                    "posexpansive_window_check", "equicontinuity_envelope",
                    "odometer_factor_chain", "PatternSpace.random_configuration"]),
    "counterexample": (cx, ["cex_roundtrip", "decode_trace", "cex_propagation_profile"]),
    "metricspace": (ms, ["lipschitz_report", "holder_report", "metric_dim_estimate",
                         "dist", "pseudo_dist", "image_configuration"]),
    "entropydim": (ed, ["ball_entropy", "tau_entropy_profile", "pattern_log_count"]),
    "cli": (cli, ["run"]),
}

ENUM_FUNCTIONS = ("panorama", "posexpansive_window_check")

# per-layer metrics beyond calls / total_s / self_s, with their units
EXTRA_UNITS = {
    "netgraph.ball_members.repeat_frac": "fraction",
    "netgraph.bfs_vertices": "count",
    "symsys.light_cone.repeat_frac": "fraction",
    "symsys.enum.patterns": "count",
    "symsys.enum.patterns_per_s": "1/s",
    "symsys.enum.cpu_per_wall": "ratio",
    "symsys.enum.speedup_2v1": "ratio",
    "metricspace.dist.exact_frac": "fraction",
    "metricspace.lipschitz.skipped_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def metric_label(module_label: str, dotted: str) -> str:
    """`netgraph` + `Digraph.ball_members` -> `netgraph.ball_members`."""
    return f"{module_label}.{dotted.rsplit('.', 1)[-1]}"


def per_layer_units() -> dict:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for module_label, (_, names) in TRACED.items():
        for dotted in names:
            label = metric_label(module_label, dotted)
            units.update({f"{label}.calls": "count", f"{label}.total_s": "s",
                          f"{label}.self_s": "s"})
    units.update(EXTRA_UNITS)
    return units


def symdyn_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "symdyn" or name.startswith("symdyn."))]


def _cone_patterns(space, cells) -> int:
    n = 1
    for v in cells:
        n *= len(space.allowed(v))
    return n


class Tracer:
    """Span stack, per-function counters and the per-layer extras of one pass."""

    def __init__(self):
        self.stats: dict = {}  # label -> [calls, total_s, self_s]
        self._stack: list = []  # child time accumulated by each open span
        # (centers, radius) and (window, horizon) keys already answered, per
        # graph / system object; weak so traced runs keep no extra graphs alive
        self._ball_seen = weakref.WeakKeyDictionary()
        self._cone_seen = weakref.WeakKeyDictionary()
        self._ball_largest = weakref.WeakKeyDictionary()
        self.counters = {
            "ball_members.calls": 0, "ball_members.repeats": 0,
            "light_cone.calls": 0, "light_cone.repeats": 0,
            "bfs_vertices": 0,
            "dist.calls": 0, "dist.exact": 0,
            "lipschitz.samples": 0, "lipschitz.skipped": 0,
            "enum.patterns": 0, "enum.wall_s": 0.0, "enum.cpu_s": 0.0,
        }
        self._light_cone = ss.light_cone  # original, for pattern counts

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, label: str, fn, observe=None, cpu: bool = False):
        stats = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            cpu0 = time.process_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, kwargs, result, elapsed,
                        time.process_time() - cpu0 if cpu else 0.0)
            return result

        return wrapper

    def _observers(self) -> dict:
        return {
            "netgraph.ball_members": self._observe_ball_members,
            "netgraph.ball_sizes": self._observe_ball_sizes,
            "symsys.light_cone": self._observe_light_cone,
            "symsys.panorama": self._observe_enum(ss.panorama),
            "symsys.posexpansive_window_check": self._observe_enum(
                ss.posexpansive_window_check),
            "metricspace.dist": self._observe_dist,
            "metricspace.lipschitz_report": self._observe_lipschitz,
        }

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore every original attribute on exit."""
        observers = self._observers()
        patches = []  # (owner, attribute, original)
        try:
            for module_label, (module, names) in TRACED.items():
                for dotted in names:
                    owner_name, _, attr = dotted.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name else module
                    original = owner.__dict__[attr]
                    label = metric_label(module_label, dotted)
                    wrapper = self._wrap(label, original, observers.get(label),
                                         cpu=attr in ENUM_FUNCTIONS)
                    owners = [owner] if owner_name else [
                        m for m in symdyn_modules()
                        if any(v is original for v in vars(m).values())]
                    for target in owners:
                        for name, value in list(vars(target).items()):
                            if value is original:
                                patches.append((target, name, original))
                                setattr(target, name, wrapper)
            yield self
        finally:
            for target, name, original in reversed(patches):
                setattr(target, name, original)

    # -- observers (run after the call, outside its span) ---------------------

    def _note_largest(self, graph, centers: frozenset, largest: int):
        """Keep bfs_vertices equal to the sum of the largest ball per center set."""
        sizes = self._ball_largest.setdefault(graph, {})
        before = sizes.get(centers, 0)
        if largest > before:
            sizes[centers] = largest
            self.counters["bfs_vertices"] += largest - before

    def _observe_ball_members(self, args, kwargs, result, elapsed, cpu):
        graph, centers, radius = args
        key = (frozenset(centers), radius)
        seen = self._ball_seen.setdefault(graph, set())
        self.counters["ball_members.calls"] += 1
        if key in seen:
            self.counters["ball_members.repeats"] += 1
        seen.add(key)
        self._note_largest(graph, key[0], len(result))

    def _observe_ball_sizes(self, args, kwargs, result, elapsed, cpu):
        graph, centers, r_max = args
        self._note_largest(graph, frozenset(centers), result[-1])

    def _observe_light_cone(self, args, kwargs, result, elapsed, cpu):
        system = args[0] if args else kwargs["sys"]
        key = (result.window, result.horizon)
        seen = self._cone_seen.setdefault(system, set())
        self.counters["light_cone.calls"] += 1
        if key in seen:
            self.counters["light_cone.repeats"] += 1
        seen.add(key)

    def _observe_enum(self, fn):
        signature = inspect.signature(fn)

        def observe(args, kwargs, result, elapsed, cpu):
            bound = signature.bind(*args, **kwargs).arguments
            if "horizon" in bound:
                last = bound["horizon"]
            else:  # posexpansive_window_check stops at its first covering horizon
                last = result["first_t"] if result["covered"] else bound["t_max"]
            for t in range(last + 1):
                cone = self._light_cone(bound["sys"], bound["window"], t)
                self.counters["enum.patterns"] += _cone_patterns(bound["space"], cone.union)
            self.counters["enum.wall_s"] += elapsed
            self.counters["enum.cpu_s"] += cpu

        return observe

    def _observe_dist(self, args, kwargs, result, elapsed, cpu):
        self.counters["dist.calls"] += 1
        self.counters["dist.exact"] += result.exact

    def _observe_lipschitz(self, args, kwargs, result, elapsed, cpu):
        self.counters["lipschitz.samples"] += result["samples"]
        self.counters["lipschitz.skipped"] += result["skipped"]

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values by metric name; 0 where the pass made no such call."""
        out = {}
        for module_label, (_, names) in TRACED.items():
            for dotted in names:
                label = metric_label(module_label, dotted)
                calls, total, self_s = self.stats.get(label, (0, 0.0, 0.0))
                out[f"{label}.calls"] = calls
                out[f"{label}.total_s"] = total
                out[f"{label}.self_s"] = self_s
        c = self.counters

        def frac(num, den):
            return num / den if den else 0.0

        out["netgraph.ball_members.repeat_frac"] = frac(
            c["ball_members.repeats"], c["ball_members.calls"])
        out["netgraph.bfs_vertices"] = c["bfs_vertices"]
        out["symsys.light_cone.repeat_frac"] = frac(
            c["light_cone.repeats"], c["light_cone.calls"])
        out["symsys.enum.patterns"] = c["enum.patterns"]
        out["symsys.enum.patterns_per_s"] = frac(c["enum.patterns"], c["enum.wall_s"])
        out["symsys.enum.cpu_per_wall"] = frac(c["enum.cpu_s"], c["enum.wall_s"])
        out["metricspace.dist.exact_frac"] = frac(c["dist.exact"], c["dist.calls"])
        out["metricspace.lipschitz.skipped_frac"] = frac(
            c["lipschitz.skipped"], c["lipschitz.samples"])
        return out
