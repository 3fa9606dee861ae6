"""Tests of the benchmark itself (slow: they run whole passes).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from tracing import Tracer, symdyn_modules  # noqa: E402
from worker import timed_passes  # noqa: E402

from symdyn import counterexample as cx  # noqa: E402
from symdyn import netgraph as ng  # noqa: E402
from symdyn import symsys as ss  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every symdyn module and of the traced classes."""
    owners = symdyn_modules() + [ng.Digraph, ss.PatternSpace]
    return {(id(owner), name): value
            for owner in owners for name, value in list(vars(owner).items())}


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_traced_and_untraced_answers_agree_and_wrappers_are_removed(workload):
    before = _bindings()
    plain = W.run_pass(workload, W.build_inputs(workload, 7))
    tracer = Tracer()
    with tracer.installed():
        # names imported by name are wrapped where they were imported
        assert cx.evaluate is not before[(id(ss), "evaluate")]
        assert cx.evaluate is ss.evaluate
        traced = W.run_pass(workload, W.build_inputs(workload, 7))
    assert [o.misses for o in plain + traced] == [[]] * (2 * len(plain))
    assert [o.answer for o in traced] == [o.answer for o in plain]
    assert sum(calls for calls, _, _ in tracer.stats.values()) > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("query failed")
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []


def test_wrong_pinned_answer_is_counted_not_raised(monkeypatch):
    monkeypatch.setitem(W.PINNED, "cex_rho", W.PINNED["cex_rho"][:-1] + [0])
    result = timed_passes("graph-growth", 1, W.build_inputs("graph-growth", 1), 0.0)
    passes = len(result["walls"])
    assert result["attempted"] == passes * len(W.WORKLOADS["graph-growth"].queries)
    assert result["failed"] == passes
    assert result["misses"][0].startswith("cli_cex_propagation_T40: rho")


def test_failing_query_is_counted_not_raised(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken")

    monkeypatch.setattr(ss, "equicontinuity_envelope", broken)
    outcomes = W.run_pass("cone-eval", W.build_inputs("cone-eval", 1),
                          only=["criterion_5_envelope_chain"])
    assert len(outcomes) == 1
    assert "ValueError: broken" in outcomes[0].misses[0]


def test_seed_changes_sampled_pairs_but_no_checked_answer():
    runs = {seed: W.run_pass("metric-sweep", W.build_inputs("metric-sweep", seed))
            for seed in (1, 2)}
    for outcomes in runs.values():
        assert [o.misses for o in outcomes] == [[]] * len(outcomes)
    first, second = ({o.name: o.answer for o in runs[s]} for s in (1, 2))
    # the sampled pairs differ: the worst pair of the 10^4-pair sweep moves
    assert first["criterion_7_lipschitz"]["worst"] != second["criterion_7_lipschitz"]["worst"]
    assert first["cli_metric_lipschitz"]["stdout"] != second["cli_metric_lipschitz"]["stdout"]
    # answers that do not depend on sampling are identical
    for name in ("cli_metric_dim", "criterion_8_metric_dim"):
        assert first[name] == second[name]
