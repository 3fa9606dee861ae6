"""The names and answers the benchmark in `perfbench/` relies on.

A renamed function or a wrong answer would otherwise show only as failed
benchmark operations, because the benchmark's own tests
(`python3 -m pytest perfbench`) run whole timed passes.  This loads the
benchmark's modules by file path and runs one untimed pass per workload.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from symdyn import symsys as ss

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_traced_names_resolve():
    """Every traced name resolves as `Tracer.installed` resolves it."""
    for module, names in tracing.TRACED.values():
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(owner.__dict__[attr]), dotted


def test_worker_thread_count_exists():
    """The worker records the thread count the packed engine resolves."""
    assert isinstance(ss._thread_count(), int)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_pass_has_no_misses(workload):
    outcomes = workloads.run_pass(workload, workloads.build_inputs(workload, 1))
    assert outcomes
    assert {o.name: o.misses for o in outcomes if o.misses} == {}


@pytest.mark.parametrize("workload", ["cone-eval", "metric-sweep"])
@pytest.mark.parametrize("seed", [2, 3])
def test_sampled_workload_passes_at_more_seeds(workload, seed):
    """The workloads whose answers rest on sampled rows (round trips and
    sweeps) hold their pinned answers at more than one seed, so a change of
    the random stream that breaks one shows here."""
    outcomes = workloads.run_pass(workload, workloads.build_inputs(workload, seed))
    assert outcomes
    assert {o.name: o.misses for o in outcomes if o.misses} == {}
