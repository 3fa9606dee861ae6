"""symdyn benchmark: four exact-query workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  With `--trace 0` it reports, for one workload:

- `wall_s`: median over back-to-back passes of the time to solve one pass;
- `setup_s`: median over five fresh interpreters of the time from spawn until
  the inputs are built (importing numpy and symdyn, building the graphs,
  systems and spaces, splitting the CLI argument lists);
- `peak_rss_mb`: peak resident memory of the process that ran the passes.

Both times are scaled to the host's nominal speed by readings of hostspeed.py
taken around them; the raw medians are printed as comments.  It also prints
`ops_failed_frac`, the share of queries attempted that raised,
exited nonzero or gave an answer other than the pinned one (it equals
`failed / attempted` of the result line).  With `--trace 1` it reports the
per-layer metrics of tracing.py instead, from one traced pass.  The last
line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it records provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import at_nominal_speed, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS; run.py imports no symdyn code, so that it can
# refuse cleanly in a directory without the sources
WORKLOADS = ["panorama-cex", "cone-eval", "graph-growth", "metric-sweep"]
SETUP_SAMPLES = 5  # the run's own worker plus four set-up-only interpreters
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: float) -> tuple:
    """Run one worker; returns (set-up seconds, result dict or None, peak RSS in MB)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker for {workload} exited with {proc.returncode}")
    result = json.loads(rest.splitlines()[-1]) if mode != "setup" else None
    return setup_s, result, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "symdyn").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, result: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "symdyn_threads_effective": result["threads"],
        "symdyn_threads_set": "SYMDYN_THREADS" in os.environ,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def run_untraced(workload: str, seed: int, seconds: float) -> tuple:
    """Set-up samples, then the timed run; each set-up is bracketed by
    host-speed readings (the last one is the worker's first)."""
    ref = reference_s()
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES - 1):
        setup_s = spawn(workload, seed, "setup", seconds)[0]
        ref_after = reference_s()
        raw.append(setup_s)
        scaled.append(at_nominal_speed(setup_s, ref, ref_after))
        ref = ref_after
    setup_s, result, rss_mb = spawn(workload, seed, "run", seconds)
    raw.append(setup_s)
    scaled.append(at_nominal_speed(setup_s, ref, result["first_ref"]))
    result["raw_setup_s"] = statistics.median(raw)
    metrics = {
        "wall_s": statistics.median(result["scaled_walls"]),
        "setup_s": statistics.median(scaled),
        "peak_rss_mb": rss_mb,
    }
    return metrics, result


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        _, result, _ = spawn(workload, seed, "trace", seconds)
        metrics = result["metrics"]
        print(f"# {workload}: untraced pass {result['untraced_wall']:.3f} s, "
              f"traced pass {result['traced_wall']:.3f} s")
    else:
        values, result = run_untraced(workload, seed, seconds)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        print(f"# {workload}: {len(result['walls'])} passes, raw walls "
              f"{[round(w, 3) for w in result['walls']]}, raw_wall_s "
              f"{statistics.median(result['walls']):.4f}, raw_setup_s "
              f"{result['raw_setup_s']:.4f}")
        for name, times in result["queries"].items():
            print(f"# {workload} query {name}: median {statistics.median(times):.3f} s")
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} ops_failed_frac {result['failed'] / result['attempted']:.6g} fraction")
    for miss in result["misses"]:
        print(f"# miss: {miss}")
    print("provenance " + json.dumps(provenance(workload, seed, result), sort_keys=True))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symdyn" / "__init__.py").is_file():
        print(f"error: no symdyn sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = report(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
