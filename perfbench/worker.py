"""One benchmark process: set up one workload from a fresh interpreter, then run it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace --seconds S

The worker prints `ready` once its inputs are built (run.py times set-up from
spawn to that line), then, except in `setup` mode, one JSON line:

- `run`: back-to-back untraced passes, each over freshly built inputs, for
  about S seconds; the raw and the host-speed-scaled (hostspeed.py) time of
  every pass and the query counts.
- `trace`: one untraced pass, one traced pass (see tracing.py) and, for
  queries marked `threaded`, a rerun with SYMDYN_THREADS=1; the per-layer
  metrics.  Answers of the traced and the untraced pass must be equal.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
LONG_QUERY_S = 0.5  # queries at least this long get their own host-speed reading
TIMEOUT_S = 170  # a hung worker dumps its stack and exits before run.py's 180 s
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402  (set-up time covers importing numpy)

import symdyn  # noqa: E402
from symdyn import symsys as ss  # noqa: E402

import workloads as W  # noqa: E402
from hostspeed import at_nominal_speed, reference_s  # noqa: E402


def _answers(outcomes) -> list:
    return [o.answer for o in outcomes]


def _tally(outcomes) -> tuple:
    failed = [o for o in outcomes if not o.ok]
    return len(outcomes), len(failed), [f"{o.name}: {o.misses[0]}" for o in failed]


def scaled_pass(workload: str, inputs: dict, ref: float) -> tuple:
    """One pass, with a host-speed reading after every query that took at
    least LONG_QUERY_S and after the last one.

    Each group of queries between two readings is scaled to nominal speed by
    the readings around it, so a host-speed change within a pass is tracked.
    `ref` is the reading taken just before the pass.  Returns the outcomes,
    the pass time at nominal speed and the last reading.
    """
    outcomes, pending, scaled = [], 0.0, 0.0
    queries = W.WORKLOADS[workload].queries
    for query in queries:
        outcomes += W.run_pass(workload, inputs, only=[query.name])
        pending += outcomes[-1].seconds
        if outcomes[-1].seconds >= LONG_QUERY_S or query is queries[-1]:
            ref_after = reference_s()
            scaled += at_nominal_speed(pending, ref, ref_after)
            ref, pending = ref_after, 0.0
    return outcomes, scaled, ref


def timed_passes(workload: str, seed: int, inputs: dict, seconds: float) -> dict:
    """Back-to-back passes: at least MIN_PASSES, then another one only while
    it is expected to end within `seconds` (by the median pass so far).

    Every pass after the first rebuilds its inputs outside the timed region,
    so each starts with cold per-object caches.  A pass whose answers differ
    from the first pass's counts those queries as misses.  The first
    host-speed reading is returned too: it closes the bracket of this
    process's own set-up.
    """
    walls, scaled, outcomes_all, first = [], [], [], None
    ref = first_ref = reference_s()
    start = time.perf_counter()
    spans = []  # elapsed time of each pass, host-speed readings included
    while True:
        pass_start = time.perf_counter()
        outcomes, pass_scaled, ref = scaled_pass(workload, inputs, ref)
        spans.append(time.perf_counter() - pass_start)
        walls.append(sum(o.seconds for o in outcomes))
        scaled.append(pass_scaled)
        if first is None:
            first = _answers(outcomes)
        else:
            for o, a in zip(outcomes, first):
                if o.ok and o.answer != a:
                    o.misses.append("answer differs from the first pass")
        outcomes_all.extend(outcomes)
        elapsed = time.perf_counter() - start
        if len(spans) >= MIN_PASSES and elapsed + statistics.median(spans) > seconds:
            break
        inputs = None  # release the last pass's graphs before building new ones
        inputs = W.build_inputs(workload, seed)
    attempted, failed, misses = _tally(outcomes_all)
    queries: dict = {}
    for o in outcomes_all:
        queries.setdefault(o.name, []).append(o.seconds)
    return {"walls": walls, "scaled_walls": scaled, "first_ref": first_ref,
            "queries": queries, "attempted": attempted, "failed": failed, "misses": misses[:5]}


def traced_pass(workload: str, seed: int, inputs: dict) -> dict:
    from tracing import Tracer, per_layer_units  # only traced runs import the wrappers

    # both passes are scaled to nominal host speed, so that the overhead
    # figure is not dominated by the host's speed changes between them
    plain, plain_scaled, ref = scaled_pass(workload, inputs, reference_s())
    plain_wall = sum(o.seconds for o in plain)
    inputs = None  # release the untraced pass's graphs before building new ones
    tracer = Tracer()
    inputs = W.build_inputs(workload, seed)
    with tracer.installed():
        traced, traced_scaled, _ = scaled_pass(workload, inputs, ref)
    traced_wall = sum(o.seconds for o in traced)
    for o, a in zip(traced, _answers(plain)):
        if o.answer != a:
            o.misses.append("traced answer differs from the untraced answer")

    # single-thread baseline of the enumeration queries, timed untraced
    rerun, one_thread, default = [], 0.0, 0.0
    threaded = [(q, o) for q, o in zip(W.WORKLOADS[workload].queries, plain) if q.threaded]
    if threaded:
        inputs = None
        inputs = W.build_inputs(workload, seed)
        previous = os.environ.get("SYMDYN_THREADS")
        os.environ["SYMDYN_THREADS"] = "1"
        try:
            rerun = W.run_pass(workload, inputs, only=[q.name for q, _ in threaded])
        finally:
            if previous is None:
                del os.environ["SYMDYN_THREADS"]
            else:
                os.environ["SYMDYN_THREADS"] = previous
        one_thread = sum(o.seconds for o in rerun)
        default = sum(o.seconds for _, o in threaded)

    metrics = tracer.metrics()
    metrics["symsys.enum.speedup_2v1"] = one_thread / default if default else 0.0
    metrics["trace.overhead_frac"] = traced_scaled / plain_scaled - 1
    units = per_layer_units()
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    attempted, failed, misses = _tally(plain + traced + rerun)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "misses": misses[:5], "untraced_wall": plain_wall,
            "traced_wall": traced_wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    faulthandler.dump_traceback_later(TIMEOUT_S, exit=True)
    if not Path(symdyn.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported symdyn from {symdyn.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    inputs = W.build_inputs(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "run":
        result = timed_passes(args.workload, args.seed, inputs, args.seconds)
    else:
        result = traced_pass(args.workload, args.seed, inputs)
    result["threads"] = ss._thread_count()  # as the packed engine resolves it
    result["numpy"] = numpy.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
