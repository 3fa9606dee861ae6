"""Systems: rules, cones, evaluation, panoramas, certificates."""

from __future__ import annotations

import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symdyn import kernel as kn
from symdyn import metricspace as ms
from symdyn import netgraph as ng
from symdyn import symsys as ss
from symdyn import counterexample as cx
from symdyn import entropydim as ed

from conftest import (
    check_proper_oracle,
    choice_per_cell,
    commutation_oracle,
    commutes_oracle,
    cone_order_oracle,
    determined_oracle,
    envelope_oracle,
    evaluate_oracle,
    forward_linear_layers_oracle,
    fresh_ball,
    image_configuration_oracle,
    panorama_layers_oracle,
    propagation_oracle,
    sampled_commutation_oracle,
    sensitivity_oracle,
    shift_permutation_oracle,
    trajectory_set_oracle,
    uniforms_per_call,
)


@pytest.fixture
def full_shift_n():
    return ss.full_shift(2)


@pytest.fixture
def binary_odometer():
    return ss.odometer_system([2])


@pytest.fixture
def cex():
    return cx.cex_rules(), cx.cex_space()


@pytest.fixture(autouse=True)
def counting_floor(monkeypatch):
    """Every panorama of these tests obeys the paper's pigeonhole, with no
    oracle: the patterns on layer t number at most the trajectories through
    t, so sum over layers[t] of log2 |allowed(v)| <= |W| (t+1) log2 k,
    checked in integers."""
    panorama = ss.panorama

    def checked(sys_, space, *args, **kwargs):
        result = panorama(sys_, space, *args, **kwargs)
        k = sys_.alphabet.size
        for t, layer in enumerate(result.layers):
            assert kn.pattern_count(space, layer) <= k ** (len(result.window) * (t + 1))
        return result

    monkeypatch.setattr(ss, "panorama", checked)


# -- alphabets -----------------------------------------------------------------


@pytest.mark.parametrize("size,message", [
    (1, "alphabet needs at least two symbols"),
    (2**16 + 1, "alphabet has 65537 symbols, more than 65536"),
])
def test_alphabet_size_bounds(size, message):
    """An alphabet has 2 to 2^16 symbols; a full space on it shares one tuple."""
    space = kn.PatternSpace.full(kn.Alphabet(2**16))
    assert space.allowed((0, 5)) is space.allowed(7) == tuple(range(2**16))
    with pytest.raises(ValueError, match=f"^{message}$"):
        kn.Alphabet(size)


# -- properness ----------------------------------------------------------------


def test_xor_rule_is_proper():
    rule = kn.LocalRule(inputs=(0, 1), fn=lambda a: a[0] ^ a[1])
    rep = ss.check_proper(rule, kn.Alphabet(2))
    assert rep["proper"]
    assert set(rep["witnesses"]) == {0, 1}
    for i, (a, b) in rep["witnesses"].items():
        assert a[i] != b[i]
        assert all(a[j] == b[j] for j in range(2) if j != i)
        assert rule.fn(a) != rule.fn(b)


def test_projection_rule_is_not_proper():
    rule = kn.LocalRule(inputs=(0, 1), fn=lambda a: a[0])
    rep = ss.check_proper(rule, kn.Alphabet(2))
    assert not rep["proper"]
    assert rep["inessential"] == [1]


def test_junction_rule_is_proper(cex):
    sysx, _ = cex
    rep = ss.check_proper(sysx.rule(0), kn.Alphabet(4))
    assert rep["proper"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_check_proper_matches_scalar_loop(k, arity, seed):
    """On table rules that ignore a random subset of their inputs, the
    elementwise check gives the scalar loop's report, witnesses included,
    as tuples of Python ints."""
    rng = random.Random(seed)
    kept = [i for i in range(arity) if rng.random() < 0.7]
    outputs: dict = {}
    table = [outputs.setdefault(tuple(args[i] for i in kept), rng.randrange(k))
             for args in itertools.product(range(k), repeat=arity)]
    rule = kn.LocalRule.from_table(range(arity), table, k)
    rep = ss.check_proper(rule, kn.Alphabet(k))
    assert rep == check_proper_oracle(rule, kn.Alphabet(k))
    assert all(type(s) is int for pair in rep["witnesses"].values() for t in pair for s in t)


def test_check_proper_matches_scalar_loop_on_named_rules(cex):
    sysx, _ = cex
    for rule, k in [
        (kn.LocalRule(inputs=(0, 1), fn=lambda a: a[0] ^ a[1]), 2),
        (kn.LocalRule(inputs=(0, 1), fn=lambda a: a[0]), 2),
        (kn.LocalRule(inputs=(0, 1, 2), fn=lambda a: a[2]), 3),
        (sysx.rule(0), 4),
        (sysx.rule(1), 4),
    ]:
        assert ss.check_proper(rule, kn.Alphabet(k)) == check_proper_oracle(rule, kn.Alphabet(k))


def test_check_proper_calls_the_rule_once():
    """Every coordinate's check reads the one table of the full input grid."""
    calls = []

    def fn(a):
        calls.append(a)
        return (a[0] + 2 * a[2]) % 3

    rep = ss.check_proper(kn.LocalRule(inputs=(0, 1, 2), fn=fn), kn.Alphabet(3))
    assert len(calls) == 1
    assert rep == {"proper": False, "inessential": [1],
                   "witnesses": {0: ((0, 0, 0), (1, 0, 0)), 2: ((0, 0, 0), (0, 0, 1))}}


def test_check_proper_refuses_a_value_outside_the_alphabet():
    """The full table is checked like any rule call; the rule's inputs stand
    in for its vertex."""
    rule = kn.LocalRule(inputs=(0, 1), fn=lambda a: a[0] + a[1])
    message = r"^rule at vertex \(0, 1\) gave 2, outside the symbols 0\.\.1$"
    with pytest.raises(ValueError, match=message):
        ss.check_proper(rule, kn.Alphabet(2))


def test_check_proper_cap():
    rule = kn.LocalRule(inputs=tuple(range(20)), fn=lambda a: a[0])
    with pytest.raises(kn.EnumerationCapError):
        ss.check_proper(rule, kn.Alphabet(4))


def test_network_consistency_enforced(z2):
    bad = kn.SymbolicSystem(
        kn.Alphabet(2),
        ng.unit_shift_graph(),
        lambda v: kn.LocalRule(inputs=(v,), fn=lambda a: a[0]),
    )
    with pytest.raises(kn.NetworkConsistencyError):
        bad.rule(0)


def test_cone_readers_check_network_consistency():
    """Every cone reader fetches the rules of the cells below its horizon,
    so a rule that disagrees with the graph raises once its cell is there."""
    bad = kn.SymbolicSystem(
        kn.Alphabet(2),
        ng.unit_shift_graph(),
        lambda v: kn.LocalRule(inputs=(v if v == 2 else v + 1,), fn=lambda a: a[0]),
    )
    assert kn.light_cone(bad, [0], 2).union == (0, 1, 2)
    assert ss.sensitivity_certificate(bad, 0, 1, 2) == {"t": 2, "witness": 2}
    for read in (lambda: kn.light_cone(bad, [0], 3), lambda: kn.propagation(bad, 0, 3),
                 lambda: ss.sensitivity_certificate(bad, 0, 1, 3)):
        with pytest.raises(kn.NetworkConsistencyError, match="at vertex 2"):
            read()


# -- light cones and propagation -------------------------------------------------


def test_cone_odometer_fixed(binary_odometer):
    sys_, _ = binary_odometer
    cone = kn.light_cone(sys_, [0], 10)
    assert cone.union == cone.order == (0,)
    assert cone.sizes == (1,) * 11


def test_cone_full_shift_marches(full_shift_n):
    sys_, _ = full_shift_n
    cone = kn.light_cone(sys_, [0], 4)
    assert cone.union == (0, 1, 2, 3, 4)
    assert cone.order == (0, 1, 2, 3, 4)
    assert cone.sizes == (1, 2, 3, 4, 5)


def test_cone_counterexample(cex):
    sysx, _ = cex
    assert kn.light_cone(sysx, [0], 2).union == (0, 1, 2, 3, 6)


def test_propagation_profiles(binary_odometer, full_shift_n, cex):
    osys, _ = binary_odometer
    assert kn.propagation(osys, 0, 8) == [1] * 9
    fs, _ = full_shift_n
    assert kn.propagation(fs, 0, 6) == list(range(1, 8))
    sysx, _ = cex
    rho = kn.propagation(sysx, 0, 10)
    assert rho[:3] == [1, 3, 5]
    assert all(a <= b for a, b in zip(rho, rho[1:]))
    # cone never escapes the graph ball
    for t in (2, 5, 9):
        cone = kn.light_cone(sysx, [0], t)
        assert set(cone.union) <= sysx.graph.ball_members([0], t)


# -- evaluation -------------------------------------------------------------------


def test_evaluate_all_zero_counterexample(cex):
    sysx, _ = cex
    cone = kn.light_cone(sysx, [0], 6)
    x = kn.Configuration({v: 0 for v in cone.union})
    traj = kn.evaluate(sysx, x, [0], 6)
    assert all(step[0] == 0 for step in traj)


def test_evaluate_binary_odometer_carry(binary_odometer):
    sys_, _ = binary_odometer
    x = kn.Configuration({0: 1, 1: 1})
    traj = kn.evaluate(sys_, x, [0, 1], 1)
    assert traj[0] == {0: x[0], 1: x[1]} == {0: 1, 1: 1}
    assert traj[1] == {0: 0, 1: 0}


def test_evaluate_full_shift_slides(full_shift_n):
    sys_, _ = full_shift_n
    traj = kn.evaluate(sys_, kn.Configuration({0: 0, 1: 1, 2: 0}), [0], 2)
    assert [step[0] for step in traj] == [0, 1, 0]


def test_evaluate_missing_domain_names_vertices(full_shift_n):
    sys_, _ = full_shift_n
    with pytest.raises(kn.InsufficientDomainError) as err:
        kn.evaluate(sys_, kn.Configuration({0: 0, 1: 1}), [0], 3)
    assert set(err.value.missing) == {2, 3}


def test_empty_window_rejected(full_shift_n):
    sys_, _ = full_shift_n
    with pytest.raises(ValueError, match="window must be nonempty"):
        kn.light_cone(sys_, [], 3)
    with pytest.raises(ValueError, match="window must be nonempty"):
        ss.equicontinuity_envelope(sys_, [], 4, 4)


_LINE = ss.ca_on_zd(2, [(-1,), (1,)], [0, 1, 1, 0])


@pytest.mark.parametrize("call,vertex", [
    (lambda: ss.panorama(cx.cex_rules(), cx.cex_space(), [-1], 3), -1),
    (lambda: ss.panorama(cx.cex_rules(), cx.cex_space(), [0, -1], 3), -1),
    (lambda: ss.posexpansive_window_check(cx.cex_rules(), cx.cex_space(), [-1], 3, [0]), -1),
    (lambda: kn.propagation(cx.cex_rules(), -3, 4), -3),
    (lambda: kn.evaluate(cx.cex_rules(), kn.Configuration(dict.fromkeys(range(-9, 9), 0)),
                         [-1], 2), -1),
    # lattice cells are tuples, and a bare int is not converted to one
    (lambda: ss.panorama(*_LINE, [0], 2), 0),
    (lambda: ss.posexpansive_window_check(*_LINE, [(0,), 1], 2, [(0,)]), 1),
    (lambda: kn.propagation(_LINE[0], 0, 2), 0),
    (lambda: kn.evaluate(_LINE[0], kn.Configuration({}), [0], 1), 0),
], ids=["panorama", "panorama-two-cells", "window-check", "propagation", "evaluate",
        "lattice-panorama", "lattice-window-check", "lattice-propagation", "lattice-evaluate"])
def test_windows_off_the_graph_are_refused(call, vertex):
    """A window cell that fails the graph's membership test is refused with
    `netgraph.graph_vertex`'s message, before any cone is read."""
    message = f"vertex {vertex!r} is not a vertex of this graph"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
    if vertex < 0:  # off the half-line, where `graph_vertex` converts nothing
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ng.graph_vertex(cx.cex_network(), vertex)


@pytest.mark.parametrize("call,message", [
    (lambda sys_: kn.light_cone(sys_, [0], -1), "horizon must be nonnegative"),
    (lambda sys_: ss.sensitivity_certificate(sys_, 0, -1, 3),
     "radius and t_max must be nonnegative"),
    (lambda sys_: ss.sensitivity_certificate(sys_, 0, 2, -1),
     "radius and t_max must be nonnegative"),
    (lambda sys_: kn.PatternSpace(lambda v: ()).allowed(4), "empty allowed set at vertex 4"),
    (lambda sys_: ss.odometer_system([2, 0]), "moduli must be positive"),
    (lambda sys_: ss.odometer_system([]), "moduli must be positive"),
])
def test_argument_checks(full_shift_n, call, message):
    sys_, _ = full_shift_n
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(sys_)


def test_evaluate_ignores_cells_outside_cone(cex):
    sysx, spx = cex
    rng = random.Random(31)
    cone = kn.light_cone(sysx, [0], 5)
    wide = sysx.graph.ball_members([0], 9)
    for _ in range(10):
        x = spx.random_configuration(wide, rng)
        base = kn.evaluate(sysx, x, [0], 5)
        mutated = dict(x.values)
        outside = [v for v in wide if v not in set(cone.union)]
        for v in rng.sample(outside, k=min(5, len(outside))):
            choices = [s for s in spx.allowed(v) if s != mutated[v]]
            if choices:
                mutated[v] = rng.choice(choices)
        assert kn.evaluate(sysx, kn.Configuration(mutated), [0], 5) == base


@st.composite
def batched_trajectories(draw):
    """Random explicit system (vertex 0 may read nothing), a window that may
    list a cell twice, a horizon, a batch of rows on the cone, and a kernel
    block size small enough to split regions."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, 3))
    inputs = [
        draw(st.lists(st.integers(0, n - 1), min_size=0 if v == 0 else 1,
                      max_size=3, unique=True))
        for v in range(n)
    ]
    if not inputs[0] and 0 not in inputs[1]:
        inputs[1].append(0)  # the zero-input vertex still feeds the graph
    rules = [
        {"vertex": v, "inputs": ins,
         "table": draw(st.lists(st.integers(0, k - 1), min_size=k ** len(ins),
                                max_size=k ** len(ins)))}
        for v, ins in enumerate(inputs)
    ]
    edges = [[u, r["vertex"]] for r in rules for u in r["inputs"]]
    sys_, _ = ss.system_from_descriptor(
        {"alphabet": k, "graph": {"edges": edges}, "rules": rules}
    )
    window = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    cone = kn.light_cone(sys_, window, draw(st.integers(0, 4)))
    batch = draw(st.integers(1, 5))
    rows = np.array(
        draw(st.lists(st.lists(st.integers(0, k - 1), min_size=len(cone.union),
                               max_size=len(cone.union)),
                      min_size=batch, max_size=batch)),
        dtype=np.uint8,
    )
    return sys_, window, cone, rows, draw(st.integers(1, 12))


def test_trajectory_rows_match_dict_loop():
    """The batched kernel gives, row by row, the trajectories of the dict-loop
    oracle, and `evaluate` is its one-row call."""
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(batched_trajectories())
    def check(case):
        sys_, window, cone, rows, block = case
        assert cone.window == ng.sort_vertices(set(window))  # a repeated cell counts once
        with mock.patch.object(kn, "_BLOCK", block):
            got = kn.trajectory_rows(sys_, cone, rows)
            for row, traj in zip(rows.tolist(), got.tolist()):
                x = kn.Configuration(dict(zip(cone.union, row)))
                expected = evaluate_oracle(sys_, x, window, cone.horizon)
                assert traj == [[step[u] for u in cone.window] for step in expected]
                assert kn.evaluate(sys_, x, window, cone.horizon) == expected
        imaged = set(cone.order[: cone.sizes[cone.horizon - 1] if cone.horizon else 0])
        if any(not sys_.rule(v).inputs for v in imaged):
            seen.add("zero-input rule")
        if len(set(window)) < len(window):
            seen.add("repeated window cell")
        if len(cone.window) > 1:
            seen.add("several window cells")
        if len(imaged) > max(1, block // len(rows)):
            seen.add("split region")
        if len(rows) > 1:
            seen.add("several rows")

    check()
    assert seen == {"zero-input rule", "repeated window cell", "several window cells",
                    "split region", "several rows"}


def _check_trajectory_rows(sys_, cone, rows):
    """`trajectory_rows` of every row against `evaluate_oracle`, each
    distinct row run through the oracle once."""
    got = kn.trajectory_rows(sys_, cone, rows)
    assert got.shape == (len(rows), cone.horizon + 1, len(cone.window))
    expected = {}
    for row, traj in zip(map(tuple, rows.tolist()), got.tolist()):
        if row not in expected:
            x = kn.Configuration(dict(zip(cone.union, row)))
            expected[row] = [[step[u] for u in cone.window]
                             for step in evaluate_oracle(sys_, x, cone.window, cone.horizon)]
        assert traj == expected[row]


def test_trajectory_rows_column_layout_edge_cases():
    """The step kernel holds a batch one row per cell: a batch wider than
    _BLOCK (one cell a block, so one rule call per imaged cell), a rule
    that returns a scalar constant, and an odometer, whose cells are each
    their own rule group, all step as the oracle does."""
    base, space = ss.ca_on_zd(2, [(-1,), (1,)], [0, 1, 1, 0])
    shapes = []

    def xor(args):
        if isinstance(args[0], np.ndarray):  # not the oracle's symbols
            shapes.append(args[0].shape)
        return args[0] ^ args[1]

    sys_ = kn.SymbolicSystem(base.alphabet, base.graph,
                             lambda v: kn.LocalRule(base.graph.in_neighbors(v), xor))
    cone = kn.light_cone(sys_, [(0,)], 3)
    wide = np.resize(kn.patterns(space, cone.union, 2**7), (kn._BLOCK + 3, len(cone.union)))
    _check_trajectory_rows(sys_, cone, wide)
    assert shapes == [(1, len(wide))] * sum(cone.sizes[:-1])

    shift, space = ss.full_shift(2)
    odd_constant = kn.SymbolicSystem(shift.alphabet, shift.graph, lambda v: kn.LocalRule(
        shift.rule(v).inputs, (lambda args: 1) if v % 2 else shift.rule(v).fn))
    cone = kn.light_cone(odd_constant, [0, 1], 4)
    _check_trajectory_rows(odd_constant, cone, kn.patterns(space, cone.union, 2**6).astype(np.int64))

    odometer, space = ss.odometer_system([2, 3])
    cone = kn.light_cone(odometer, [0, 1, 2], 5)
    assert len(kn.StepPlan(odometer, kn.columns(cone.order), cone.order).groups) == 3
    _check_trajectory_rows(odometer, cone, kn.patterns(space, cone.union, 2**5))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
@pytest.mark.parametrize("k", [2, 300])
def test_trajectory_rows_dtype(dtype, k):
    """The trajectory array has the type of the rows and the symbols
    together, as stacking the rows with the steps gives."""
    sys_, _ = ss.full_shift(k)
    cone = kn.light_cone(sys_, [0], 2)
    got = kn.trajectory_rows(sys_, cone, np.array([[1, 0, 1]], dtype=dtype))
    assert got.dtype == np.result_type(dtype, np.min_scalar_type(k - 1))
    assert got.tolist() == [[[1], [0], [1]]]


@st.composite
def shared_rule_trajectories(draw):
    """Random explicit system whose rules share two functions over several
    arities (vertices 0 and 1 may read nothing), a window, a horizon, a
    batch of rows on the cone, and a kernel block size."""
    n = draw(st.integers(3, 10))
    k = draw(st.integers(2, 3))
    fns = (lambda a: (sum(a) + 1) % k,
           lambda a: sum((i + 1) * x for i, x in enumerate(a)) % k)
    inputs = [draw(st.lists(st.integers(0, n - 1), min_size=0 if v < 2 else 1,
                            max_size=3, unique=True))
              for v in range(n)]
    for v in range(2):
        if not inputs[v] and not any(v in ins for ins in inputs):
            inputs[n - 1].append(v)  # a vertex that reads nothing still feeds the graph
    picks = [draw(st.integers(0, 1)) for _ in range(n)]
    graph = ng.explicit_graph([(u, v) for v, ins in enumerate(inputs) for u in ins])
    sys_ = kn.SymbolicSystem(kn.Alphabet(k), graph,
                             lambda v: kn.LocalRule(tuple(inputs[v]), fns[picks[v]]))
    window = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    cone = kn.light_cone(sys_, window, draw(st.integers(0, 4)))
    batch = draw(st.integers(1, 4))
    rows = np.array(
        draw(st.lists(st.lists(st.integers(0, k - 1), min_size=len(cone.union),
                               max_size=len(cone.union)),
                      min_size=batch, max_size=batch)),
        dtype=np.uint8,
    )
    return sys_, window, cone, rows, draw(st.integers(1, 12))


def test_planned_step_prefixes_match_dict_loop():
    """Each step of a trajectory images a prefix of one planned step: every
    rule group is cut at the cells that step needs, which may leave none of
    its cells or end inside a block.  Row by row, the trajectories are the
    dict-loop oracle's."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(shared_rule_trajectories())
    def check(case):
        sys_, window, cone, rows, block = case
        with mock.patch.object(kn, "_BLOCK", block):
            got = kn.trajectory_rows(sys_, cone, rows)
        for row, traj in zip(rows.tolist(), got.tolist()):
            x = kn.Configuration(dict(zip(cone.union, row)))
            expected = evaluate_oracle(sys_, x, window, cone.horizon)
            assert traj == [[step[u] for u in cone.window] for step in expected]
        if not cone.horizon:
            return
        groups: dict = {}
        for j, v in enumerate(cone.order[: cone.sizes[cone.horizon - 1]]):
            rule = sys_.rule(v)
            groups.setdefault((rule.fn, len(rule.inputs)), []).append(j)
            if not rule.inputs:
                seen.add("zero-input rule")
        step = max(1, block // len(rows))
        for js in groups.values():
            for size in cone.sizes[: cone.horizon]:
                stop = sum(j < size for j in js)
                if not stop:
                    seen.add("group cut to nothing")
                elif stop < len(js) and stop % step:
                    seen.add("group cut inside a block")
        spans = sorted((js[0], js[-1]) for js in groups.values())
        if any(b[0] < a[1] for a, b in zip(spans, spans[1:])):
            seen.add("interleaved groups")

    check()
    assert seen == {"group cut to nothing", "group cut inside a block", "interleaved groups",
                    "zero-input rule"}


def _copy(a):
    return a[0]


def _plus_five(a):
    return a[0] + 5


def _double(a):
    return a[0] * 2


@pytest.mark.parametrize("fn_at, ones, named", [
    (lambda v: _copy if v < 3 else _plus_five, (), {3, 4, 5}),  # the second group
    (lambda v: _double, (5,), {4}),  # one group: only cell 4, in its third block, gives k
])
def test_rule_value_outside_the_alphabet_in_a_later_group_or_block(fn_at, ones, named):
    """A bad value from the second rule group, or from a group's third
    block, raises ValueError naming a vertex whose rule gave it."""
    sys_ = kn.SymbolicSystem(kn.Alphabet(2), ng.unit_shift_graph(),
                             lambda v: kn.LocalRule(inputs=(v + 1,), fn=fn_at(v)))
    row = [int(v in ones) for v in range(7)]
    with mock.patch.object(kn, "_BLOCK", 2):
        for call in (lambda: kn.evaluate(sys_, kn.Configuration(dict(enumerate(row))), [0], 6),
                     lambda: kn.image_rows(sys_, kn.columns(range(7)), range(6),
                                           np.array([row]))):
            with pytest.raises(ValueError, match=r"gave \d+, outside the symbols 0\.\.1") as err:
                call()
            assert int(re.search(r"rule at vertex (\d+) gave", str(err.value))[1]) in named


# -- panoramas ---------------------------------------------------------------------


def test_panorama_full_shift_layers(full_shift_n):
    sys_, space = full_shift_n
    result = ss.panorama(sys_, space, [0], 3)
    assert result.layers == ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3))


def test_panorama_odometer_stuck(binary_odometer):
    sys_, space = binary_odometer
    result = ss.panorama(sys_, space, [0], 10)
    assert all(layer == (0,) for layer in result.layers)


def test_panorama_horizon_zero_full_space(full_shift_n):
    sys_, space = full_shift_n
    result = ss.panorama(sys_, space, [0, 3], 0)
    assert result.layers == ((0, 3),)


def test_panorama_layers_nested(cex):
    sysx, spx = cex
    result = ss.panorama(sysx, spx, [0], 4)
    for a, b in zip(result.layers, result.layers[1:]):
        assert set(a) <= set(b)
    assert set(result.layers[-1]) <= set(result.cone)


def test_panorama_engines_agree(cex):
    """Count and sort grouping decide the same cells on the same cone, and
    both match the reference dict engine."""
    sysx, spx = cex
    fs, fsp = ss.full_shift(3)
    osys, ospace = ss.odometer_system([3, 2])
    for sys_, space, window, horizon in (
        (sysx, spx, (0,), 2),
        (sysx, spx, (0,), 3),
        (fs, fsp, (0,), 3),
        (fs, fsp, (0, 2), 2),
        (osys, ospace, (0, 1, 2), 3),
    ):
        cells = kn.light_cone(sys_, window, horizon).union
        tables = ss._composed_tables(sys_, space, window, horizon)
        by_count = ss._count_grouping(sys_, space, cells, tables, cells)
        by_sort = ss._sort_grouping(sys_, space, cells, tables, cells)
        expected = determined_oracle(sys_, space, window, horizon, cells)
        assert by_count == by_sort == expected
    cells = kn.light_cone(sysx, [0], 4).union
    tables = ss._composed_tables(sysx, spx, (0,), 4)
    assert ss._count_grouping(sysx, spx, cells, tables, cells) == ss._sort_grouping(
        sysx, spx, cells, tables, cells
    )
    # layers of the cex panorama at horizon 4 as computed once by the
    # reference dict engine (about 8 s, too slow to rerun here)
    assert ss.panorama(sysx, spx, [0], 4).layers == (
        (0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4)
    )


def _enumerated(sys_, space, window, horizon, target=None):
    """The layers enumeration gives on the window's cone, and the grouping
    name it reports, whatever engine `panorama` would dispatch to."""
    cone = kn.light_cone(sys_, window, horizon)
    layers = list(ss._determined_layers(sys_, space, cone, target))
    engine = "+".join(sorted({engine for _, engine in layers}))
    return tuple(ng.sort_vertices(det) for det, _ in layers), engine


def test_panorama_reports_grouping(cex, full_shift_n):
    """Linear cones report the linear engine, with no decline reason;
    enumeration on the same cones still names the groupings the sizes pick."""
    sysx, spx = cex
    result = ss.panorama(sysx, spx, [0], 4)
    assert (result.engine, result.declined) == ("linear", None)
    assert _enumerated(sysx, spx, [0], 4)[1] == "sort"
    sys_, space = full_shift_n
    assert ss.panorama(sys_, space, [0], 6).engine == "linear"
    assert _enumerated(sys_, space, [0], 6)[1] == "sort"


def test_panorama_full_shift_wide_keys(full_shift_n):
    """A 2^26 trajectory key space takes the sort grouping and stays fast."""
    sys_, space = full_shift_n
    expected = ((0, 3), (0, 1, 3, 4)) + tuple(tuple(range(t + 4)) for t in range(2, 13))
    result = ss.panorama(sys_, space, [0, 3], 12)
    assert (result.layers, result.engine) == (expected, "linear")
    start = time.perf_counter()
    enumerated = _enumerated(sys_, space, [0, 3], 12)
    elapsed = time.perf_counter() - start
    assert enumerated == (expected, "sort")
    assert elapsed < 2.0


def test_panorama_cone_of_many_pinned_cells():
    """A 65-cell cone with all but three cells pinned enumerates only eight
    patterns; its cells each get their own radix digit, not their own array
    axis."""
    sys_, _ = ss.full_shift(2)
    space = kn.PatternSpace(lambda v: [0, 1] if v < 3 else [0])
    result = ss.panorama(sys_, space, [0], 64)
    assert len(result.cone) == 65
    assert result.pattern_count == 8
    assert result.layers == panorama_layers_oracle(sys_, space, [0], 64)


def test_panorama_wide_rule_table():
    """Cell 13 of the (3, 2) odometer reads 14 inputs (3^14 table entries);
    its rule only runs on the argument tuples that occur."""
    sys_, space = ss.odometer_system([3, 2])
    result = ss.panorama(sys_, space, [13], 1)
    assert result.layers == ((13,), (13,))
    assert result.pattern_count == 3 * 2**13
    check = ss.posexpansive_window_check(sys_, space, [13], 1, range(14))
    assert check == {"covered": False, "first_t": None, "missing": tuple(range(13))}


def test_long_trajectories_do_not_overflow(binary_odometer):
    """Window (0, 1, 2) over 31 steps observes 93 bits per trajectory."""
    sys_, space = binary_odometer
    trajs = trajectory_set_oracle(sys_, space, [0, 1, 2], 30)
    rep = ss.equicontinuity_envelope(sys_, [0, 1, 2], 30, 8)
    assert rep.trajectory_count == len(trajs) == 8
    chain = ss.odometer_factor_chain(sys_, space, [[0, 1, 2]], 30)
    assert chain[0]["trajectory_count"] == 8
    assert chain[0]["shift_is_permutation"] is shift_permutation_oracle(trajs, 30)
    assert chain[0]["shift_is_permutation"]


_IMAGE_KINDS = ("table", "odometer", "counterexample", "cex shift extension",
                "full shift", "shared rule")


@st.composite
def image_rows_cases(draw):
    """A system of one of `_IMAGE_KINDS`, a region of its cells, a column
    index over the cells the region reads, rows of allowed symbols, and a
    kernel block size small enough to split one rule's cells over blocks.

    Table systems hold one rule of more than 256 entries, at vertex 6, which
    every region of theirs images; the shared rule is one function read at
    every vertex, over several arities.  In both, vertex 0 reads nothing."""
    kind = draw(st.sampled_from(_IMAGE_KINDS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind in ("table", "shared rule"):
        k = rng.choice((3, 4))
        width = 6 if k == 3 else 5  # k**width > 256: a wide table
        inputs = [[], *(rng.sample(range(7), rng.randint(1, 3)) for _ in range(5)),
                  [0, *rng.sample(range(1, 6), width - 1)]]
        edges = [[u, v] for v, ins in enumerate(inputs) for u in ins]
        if kind == "table":
            rules = [{"vertex": v, "inputs": ins,
                      "table": [rng.randrange(k) for _ in range(k ** len(ins))]}
                     for v, ins in enumerate(inputs)]
            sys_, space = ss.system_from_descriptor(
                {"alphabet": k, "graph": {"edges": edges}, "rules": rules})
        else:
            def shared(a):
                return (sum(a) + 1) % k

            graph = ng.explicit_graph(edges)
            sys_ = kn.SymbolicSystem(kn.Alphabet(k), graph,
                                     lambda v: kn.LocalRule(tuple(graph.in_neighbors(v)), shared))
            space = kn.PatternSpace.full(sys_.alphabet)
        cells = list(range(7))
    elif kind == "odometer":
        (sys_, space), cells = ss.odometer_system([2, 3]), list(range(8))
    elif kind == "counterexample":
        sys_, space, cells = cx.cex_rules(), cx.cex_space(), list(range(14))
    elif kind == "cex shift extension":
        sys_, space, _ = ss.shift_extension(cx.cex_rules(), cx.cex_space(), lambda a, b: a ^ b)
        cells = [(v, level) for v in range(8) for level in range(2)]
    else:
        (sys_, space), cells = ss.full_shift(rng.choice((2, 3))), list(range(10))
    region = rng.sample(cells, rng.randint(1, len(cells)))
    if kind in ("table", "shared rule") and 6 not in region:
        region.append(6)  # the wide rule
    columns = sorted({u for w in region for u in sys_.rule(w).inputs}, key=ng.vertex_key)
    rng.shuffle(columns)
    n = draw(st.sampled_from((0, 1, rng.randint(2, 40))))
    dtype = draw(st.sampled_from((np.uint8, np.int64)))
    rows = np.array([[rng.choice(space.allowed(u)) for u in columns] for _ in range(n)],
                    dtype=dtype).reshape(n, len(columns))
    return kind, sys_, region, columns, rows, draw(st.integers(1, 16))


def test_image_rows_match_scalar_rules():
    """The kernel's one elementwise call per rule group gives, row by row,
    the images of one scalar rule call per cell."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(image_rows_cases())
    def check(case):
        kind, sys_, region, columns, rows, block = case
        with mock.patch.object(kn, "_BLOCK", block):
            got = kn.image_rows(sys_, kn.columns(columns), region, rows)
        assert got.shape == rows.shape[:1] + (len(region),)
        for row, image in zip(rows.tolist(), got.tolist()):
            x = kn.Configuration(dict(zip(columns, row)))
            expected = image_configuration_oracle(sys_, x, region).values
            assert image == [expected[w] for w in region]
        n = len(rows)
        seen.update({kind, rows.dtype.name, f"{min(n, 2)} rows"})
        if not n:
            return
        step = max(1, block // n)
        spans: dict = {}
        arities: dict = {}
        for j, w in enumerate(region):
            rule = sys_.rule(w)
            spans.setdefault((rule.fn, len(rule.inputs)), set()).add(j // step)
            arities.setdefault((rule.fn, j // step), set()).add(len(rule.inputs))
            if not rule.inputs:
                seen.add("zero-input rule")
            wide = sys_.alphabet.size ** len(rule.inputs) > 256
            if kind == "table" and rows.dtype == np.uint8 and wide:
                seen.add("wide table on uint8 rows")
        if any(len(b) > 1 for b in spans.values()):
            seen.add("group split over blocks")
        if any(len(a) > 1 for a in arities.values()):
            seen.add("one function, several arities in a block")

    check()
    assert seen == {*_IMAGE_KINDS, "uint8", "int64", "0 rows", "1 rows", "2 rows",
                    "zero-input rule", "wide table on uint8 rows", "group split over blocks",
                    "one function, several arities in a block"}


@pytest.mark.parametrize("fn", [lambda a: a[0] + 5, lambda a: a[0] + 300, lambda a: a[0] - 2,
                                lambda a: a[0] * 0.75])
def test_rule_values_outside_the_alphabet_rejected(fn):
    """A rule value that is not a symbol 0..k-1 is an error that names the
    vertex, in trajectories, composed tables and metric images alike; it
    never wraps or truncates into the row dtype."""
    sys_ = kn.SymbolicSystem(kn.Alphabet(2), ng.unit_shift_graph(),
                             lambda v: kn.LocalRule(inputs=(v + 1,), fn=fn))
    space = kn.PatternSpace.full(sys_.alphabet)
    message = r"rule at vertex \d+ gave -?[\d.]+, outside the symbols 0\.\.1"
    with pytest.raises(ValueError, match=message):
        kn.evaluate(sys_, kn.Configuration({0: 0, 1: 1, 2: 0}), [0], 2)
    with pytest.raises(ValueError, match=message):
        ss.panorama(sys_, space, [0], 2)
    metric = ms.single_estuary_metric(sys_.graph, 0, 2.0)
    with pytest.raises(ValueError, match=message):
        ms.lipschitz_report(sys_, metric, space, samples=10, seed=0, r_cap=3)


@pytest.mark.parametrize("bad", [-1, 5])
def test_symbols_outside_the_alphabet_in_allowed_sets_and_configurations(monkeypatch, bad):
    """An allowed symbol or a configuration value that is not a symbol
    0..k-1 raises ValueError naming its first cell, before a rule reads it:
    it never wraps into an index or a table entry.  An envelope or factor
    chain reads allowed symbols only once its window's cone is an envelope."""
    xor = ss.ca_on_zd(2, [(-1,), (1,)], [0, 1, 1, 0])[0]
    odometer = ss.odometer_system([2])[0]
    space = kn.PatternSpace(lambda v: (0, bad))
    shift = ng.Subisometry(map=lambda v: (v[0] + 1,))

    def allowed(v):
        where = re.escape(f"allowed symbol at vertex {v!r} is {bad}")
        return rf"^{where}, outside the symbols 0\.\.1$"

    for call, v in [(lambda: ss.panorama(xor, space, [(0,)], 2), (-2,)),
                    (lambda: ss.posexpansive_window_check(xor, space, [(0,)], 2, [(0,)]), (-2,)),
                    (lambda: ss.subsymmetry_check(xor, shift, [(0,), (3,)], space), (0,)),
                    (lambda: ss.odometer_factor_chain(odometer, space, [[0]], 4), 0)]:
        with pytest.raises(ValueError, match=allowed(v)):
            call()
    with pytest.raises(ss.NotEquicontinuousError):
        ss.odometer_factor_chain(xor, space, [[(0,)]], 4)
    with monkeypatch.context() as m:  # the envelope's full space, as if it allowed `bad`
        m.setattr(kn.PatternSpace, "full", lambda alphabet: space)
        assert ss.equicontinuity_envelope(xor, [(0,)], 4, 8).reason == "cone still growing"
        with pytest.raises(ValueError, match=allowed(0)):
            ss.equicontinuity_envelope(odometer, [0], 4, 8)
    x = kn.Configuration({(v,): bad if v == 0 else 1 for v in range(-2, 3)})
    message = rf"^configuration value at vertex \(0,\) is {bad}, outside the symbols 0\.\.1$"
    for call in (lambda: kn.evaluate(xor, x, [(1,)], 1),
                 lambda: ms.image_configuration(xor, x, [(1,)])):
        with pytest.raises(ValueError, match=message):
            call()
    assert kn.evaluate(xor, x, [(2,)], 0) == [{(2,): 1}]  # a value never read is not checked


def test_a_panorama_reads_each_cone_cell_allowed_tuple_once():
    """The allowed-symbol check, the pattern count and the engines of a
    panorama share one read of each cone cell's allowed tuple (the window
    check runs the panorama's code unwrapped by `counting_floor`), and a
    symbol outside the alphabet is refused before the pattern cap is
    checked."""
    sys_, space = cx.cex_rules(), cx.cex_space()
    reads = []
    allowed = space._allowed
    space._allowed = lambda v: reads.append(v) or allowed(v)
    ss.posexpansive_window_check(sys_, space, [0], 6, range(7), max_patterns=2**28)
    assert reads == list(kn.light_cone(sys_, [0], 6).union)
    xor = ss.ca_on_zd(2, [(-1,), (1,)], [0, 1, 1, 0])[0]
    with pytest.raises(ValueError, match="^allowed symbol at vertex"):
        ss.panorama(xor, kn.PatternSpace(lambda v: (0, 2)), [(0,)], 2, max_patterns=1)


def _cex_metric():
    return ms.single_estuary_metric(cx.cex_network(), 0, 2.0)


def _odometer_chain(space):
    return ss.odometer_factor_chain(ss.odometer_system([2])[0], space, [[0], [0, 1], [0, 1, 2]], 8)


def _extension():
    return ss.shift_extension(cx.cex_rules(), cx.cex_space(), lambda a, b: a ^ b)


def _extension_check(space):
    ext, _, level = _extension()
    return ss.subsymmetry_check(ext, level, [(0, 0), (1, 0), (2, 0)], space)


@pytest.mark.parametrize("make,consume,cells", [
    (cx.cex_space, lambda space: ms.lipschitz_report(
        cx.cex_rules(), _cex_metric(), space, samples=50, r_cap=4, seed=1), 16),
    (cx.cex_space, lambda space: ms.holder_report(
        cx.cex_rules(), _cex_metric(), _cex_metric(), 1.0, 1.0, space, range(8), 50), 8),
    (lambda: ss.odometer_system([2])[1], _odometer_chain, 3),
    (lambda: _extension()[1], _extension_check, 11),
    (cx.cex_space, lambda space: ed.ball_entropy(space, cx.cex_network(), 0, 2, 8), 33),
    (cx.cex_space, lambda space: ms.metric_dim_estimate(
        space, _cex_metric(), [2.0 ** -k for k in range(2, 11, 2)]), 56),
], ids=["lipschitz", "holder", "factor-chain", "subsymmetry", "ball-entropy", "cover-bracket"])
def test_each_consumer_reads_each_cell_allowed_tuple_once(make, consume, cells):
    """A space reads each cell's allowed tuple once and keeps it: the sweeps,
    the factor chain, the subsymmetry check, the entropy counts and the
    cover bracket call the space's callable once per cell they use, and a
    second run calls it no more.  A tuple that fails its check (empty, or
    repeating a symbol) is not kept: it raises on every call."""
    space = make()
    reads = []
    allowed = space._allowed
    space._allowed = lambda v: reads.append(v) or allowed(v)
    consume(space)
    assert len(reads) == len(set(reads)) == cells
    consume(space)
    assert len(reads) == cells
    for bad, message in [((), "empty allowed set at vertex {!r}"),
                         ((0, 0), "allowed set at vertex {!r} repeats a symbol")]:
        bad_reads = []
        broken = kn.PatternSpace(
            lambda v: bad_reads.append(v) or bad if v == reads[0] else allowed(v))
        for call in range(1, 3):
            with pytest.raises(ValueError, match=f"^{re.escape(message.format(reads[0]))}$"):
                consume(broken)
            assert bad_reads.count(reads[0]) == call


def test_group_rows_keeps_wide_rows_apart():
    """Rows differing only in the first of 100 binary columns stay distinct:
    the packed codes are re-ranked before they could overflow."""
    columns = [np.array([0, 1, 0])] + [np.array([1, 1, 1])] * 99
    first, ranks = ss._group_rows(columns, 2, 3)
    assert list(first) == [0, 1]
    assert list(ranks) == [0, 1, 0]


@st.composite
def explicit_systems(draw):
    """Random explicit system of at most 6 vertices with a random product
    space, window and horizon."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(2, 3))
    rules = []
    for v in range(n):
        inputs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        size = k ** len(inputs)
        table = draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
        rules.append({"vertex": v, "inputs": inputs, "table": table})
    edges = [[u, r["vertex"]] for r in rules for u in r["inputs"]]
    sys_, _ = ss.system_from_descriptor(
        {"alphabet": k, "graph": {"edges": edges}, "rules": rules}
    )
    symbols = st.integers(0, k - 1)
    allowed = [
        sorted(draw(st.just(set(range(k))) | st.sets(symbols, min_size=1)))
        for _ in range(n)
    ]
    space = kn.PatternSpace(lambda v: allowed[v])
    window = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True))
    target = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return sys_, space, sorted(window), draw(st.integers(0, 4)), target


_SHIFT_Z = ss.full_shift(2, "Z")  # shared: later windows read cached lattice shells


@st.composite
def full_shift_z_windows(draw):
    """A window of the full shift on Z, whose cones come from the lattice
    array BFS, in the shape of `explicit_systems`."""
    window = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3, unique=True))
    return (*_SHIFT_Z, sorted(window), draw(st.integers(0, 6)), None)


def test_cone_prefixes_match_oracles():
    """`LightCone.order` and `sizes` list the cells of the rule-input layers
    by first appearance, and propagation, the sensitivity certificate and
    the envelope's sizes, reach and verdict, read from them, agree with
    oracles that walk the layers and rebuild the ball at every radius."""
    seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.one_of(explicit_systems(), full_shift_z_windows()), st.integers(0, 6))
    def check(case, r_cap):
        sys_, _, window, horizon, _ = case
        cone = kn.light_cone(sys_, window, horizon)
        assert (cone.order, cone.sizes) == cone_order_oracle(sys_, window, horizon)
        assert cone.union == ng.sort_vertices(cone.order)
        v = window[-1]
        assert kn.propagation(sys_, v, horizon) == propagation_oracle(sys_, v, horizon)
        cert = ss.sensitivity_certificate(sys_, v, r_cap, horizon)
        assert cert == sensitivity_oracle(sys_, v, r_cap, horizon)
        seen.add("escape" if cert else "no escape")
        if sys_ is _SHIFT_Z[0]:
            seen.add("lattice window")
        rep = ss.equicontinuity_envelope(sys_, window, horizon, r_cap)
        expected = envelope_oracle(sys_, window, horizon, r_cap)
        assert (rep.cone_sizes, rep.reach, rep.certified, rep.reason) == expected
        if expected[1] is None and envelope_oracle(sys_, window, horizon, horizon)[1] is not None:
            seen.add("r_cap below the reach")
        if fresh_ball(sys_.graph, window, horizon) == fresh_ball(sys_.graph, window, horizon + 1):
            seen.add("ball closes")
        if rep.certified:
            seen.add("certified")

    check()
    assert seen == {"r_cap below the reach", "ball closes", "certified", "escape",
                    "no escape", "lattice window"}


# cell 0 reads three cells that copy themselves: at t=1 the cone has 16
# patterns over 4 trajectory keys, so chunks below 16 patterns make it count
_COUNT_CASE = (
    *ss.system_from_descriptor({
        "alphabet": 2,
        "graph": {"edges": [[1, 0], [2, 0], [3, 0], [1, 1], [2, 2], [3, 3]]},
        "rules": [
            {"vertex": 0, "inputs": [1, 2, 3], "table": [0, 1, 1, 0, 1, 0, 0, 1]},
            {"vertex": 1, "inputs": [1], "table": [0, 1]},
            {"vertex": 2, "inputs": [2], "table": [0, 1]},
            {"vertex": 3, "inputs": [3], "table": [0, 1]},
        ],
    }),
    [0], 2, {1},
)


def _record_groupings(monkeypatch, ran):
    """Append (grouping name, tracked cell count) to `ran` at every run of
    the count or the sort grouping."""
    for name in ("count", "sort"):
        grouping = getattr(ss, f"_{name}_grouping")

        def recording(sys_, space, cells, tables, tracked, grouping=grouping, name=name):
            ran.append((name, len(tracked)))
            return grouping(sys_, space, cells, tables, tracked)

        monkeypatch.setattr(ss, f"_{name}_grouping", recording)


def _window_check_from_layers(layers, target):
    """The window check that panorama layers imply for a target."""
    first_t = next((t for t, layer in enumerate(layers) if target <= set(layer)), None)
    missing = () if first_t is not None else ng.sort_vertices(target - set(layers[-1]))
    return {"covered": first_t is not None, "first_t": first_t, "missing": missing}


def test_engine_matches_oracles(monkeypatch):
    """Panoramas, window checks, envelopes and factor chains on random small
    systems agree with the dict-loop oracles, through both groupings."""
    ran: list = []
    _record_groupings(monkeypatch, ran)
    monkeypatch.setattr(ss, "_CHUNK", 8)  # at full size these cones fit one chunk and sort

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(explicit_systems())
    @example(_COUNT_CASE)
    def check(case):
        sys_, space, window, horizon, target = case
        result = ss.panorama(sys_, space, window, horizon)
        layers = panorama_layers_oracle(sys_, space, window, horizon)
        assert result.layers == layers

        assert ss.posexpansive_window_check(sys_, space, window, horizon, target) == (
            _window_check_from_layers(layers, target))

        rep = ss.equicontinuity_envelope(sys_, window, horizon, r_cap=6)
        if rep.certified:
            full = kn.PatternSpace.full(sys_.alphabet)
            assert rep.trajectory_count == len(
                trajectory_set_oracle(sys_, full, window, horizon)
            )
        try:
            chain = ss.odometer_factor_chain(sys_, space, [window], horizon)
        except ss.NotEquicontinuousError:
            return
        trajs = trajectory_set_oracle(sys_, space, window, horizon)
        assert chain[0]["trajectory_count"] == len(trajs)
        assert chain[0]["shift_is_permutation"] is shift_permutation_oracle(trajs, horizon)

    check()
    assert {name for name, _ in ran} == {"count", "sort"}


def _recording(sys_, calls):
    """sys_ with every rule function wrapped to append, per call, the type,
    dtype and shape of each argument to `calls`; cells that share a function
    share its wrapper, so they are still applied in one call."""
    wrappers: dict = {}

    def wrap(fn):
        def recorded(args):
            calls.append({(type(a), getattr(a, "dtype", None), np.shape(a)) for a in args})
            return fn(args)
        return recorded

    def rule_at(v):
        rule = sys_.rule(v)
        if rule.fn not in wrappers:
            wrappers[rule.fn] = wrap(rule.fn)
        return replace(rule, fn=wrappers[rule.fn])

    return kn.SymbolicSystem(sys_.alphabet, sys_.graph, rule_at, sys_.label)


def test_every_rule_call_gets_int64_arrays_of_one_shape(monkeypatch):
    """`LocalRule` promises each call int64 arrays of one shape.  Every path
    that calls a rule keeps that promise: evaluation, panoramas through both
    groupings and the linear engine's table read, envelopes and factor
    chains, images and the Lipschitz sweep, subsymmetry and properness."""
    ran: list = []
    _record_groupings(monkeypatch, ran)
    monkeypatch.setattr(ss, "_CHUNK", 16)  # at full size these cones fit one chunk and sort
    calls: list = []
    cex = _recording(cx.cex_rules(), calls), cx.cex_space()
    odometer = _recording(ss.odometer_system([3, 2])[0], calls), ss.odometer_system([3, 2])[1]
    shift = _recording(ss.full_shift(2, "Z")[0], calls), ss.full_shift(2, "Z")[1]
    majority = [int(bin(i).count("1") >= 2) for i in range(8)]
    vote = ss.ca_on_zd(2, [(-1,), (0,), (1,)], majority)
    vote = _recording(vote[0], calls), vote[1]
    paths = {
        "evaluate": lambda: kn.evaluate(cex[0], cx.random_initial(2, random.Random(1)), [0], 6),
        "enumerated panorama": lambda: ss.panorama(*vote, [(0,)], 3),
        "linear panorama": lambda: ss.panorama(*cex, [0], 3),
        "envelope": lambda: ss.equicontinuity_envelope(odometer[0], [0, 1], 6, 8),
        "factor chain": lambda: ss.odometer_factor_chain(*odometer, [[0], [0, 1]], 6),
        "image": lambda: ms.image_configuration(
            shift[0], kn.Configuration({v: v % 2 for v in range(-2, 4)}), [-1, 0, 1, 2]),
        "lipschitz": lambda: ms.lipschitz_report(
            shift[0], ms.single_estuary_metric(shift[0].graph, 0, 2.0), shift[1], 10, r_cap=3),
        "subsymmetry": lambda: ss.subsymmetry_check(shift[0], ng.shift_tau(1), [0, 1, 2],
                                                   shift[1]),
        "proper": lambda: ss.check_proper(cex[0].rule(0), cex[0].alphabet),
    }
    for name, run in paths.items():
        start = len(calls)
        run()
        assert len(calls) > start, name
        for kinds in calls[start:]:
            assert len(kinds) <= 1 and all(
                t is np.ndarray and dtype == np.int64 for t, dtype, _ in kinds), (name, kinds)
    assert {name for name, _ in ran} == {"count", "sort"}
    assert ss.panorama(*cex, [0], 3).engine == "linear"
    assert ss.panorama(*vote, [(0,)], 3).engine == "count+sort"


# cell 4 XORs cells 0..3: cell 0 is the outer cell of 16-pattern chunks, so
# its two values meet a key in different chunks
_OUTER_CASE = (
    *ss.system_from_descriptor({
        "alphabet": 2,
        "graph": {"edges": [[u, 4] for u in range(4)] + [[u, u] for u in range(5)]},
        "rules": [{"vertex": 4, "inputs": [0, 1, 2, 3, 4],
                   "table": [bin(i >> 1).count("1") % 2 for i in range(32)]}]
                 + [{"vertex": u, "inputs": [u], "table": [0, 1]} for u in range(4)],
    }),
    [4], 1, {0},
)


def _key_chunks(space, cells, tables, chunk):
    """First and last chunk in which each trajectory key occurs, on a
    one-worker count walk over `cells`: a chunk holds the patterns of the
    longest suffix of cells whose pattern count fits `chunk`."""
    inner = 1
    for v in reversed(cells):
        if inner * len(space.allowed(v)) > chunk:
            break
        inner *= len(space.allowed(v))
    rows = np.stack([arr[kn.radix_index(cells, space, ss._strides(dom, space))]
                     for dom, arr in tables], axis=1)
    keys = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
    chunks = np.arange(len(rows)) // inner
    first = np.full(keys.max() + 1, len(rows))
    np.minimum.at(first, keys, chunks)
    last = np.zeros_like(first)
    np.maximum.at(last, keys, chunks)
    return first, last


def test_groupings_match_oracle(monkeypatch):
    """The count grouping and the sort grouping decide the oracle's cells on
    random small systems, on one and two threads, with chunks of a few
    patterns."""
    seen = set()
    merge = ss._merge_reps

    def recording(into, other):
        mine, theirs = into[0] >= 0, other[0] >= 0
        if mine.any() and theirs.any() and (mine != theirs).any():
            seen.add("key on one side of a merge")
        both = mine & theirs
        if (into[0][both] != other[0][both]).any():
            seen.add("shared key, other representative")
        return merge(into, other)

    monkeypatch.setattr(ss, "_merge_reps", recording)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(explicit_systems(), st.sampled_from([1, 4, 16, 64, 1024]))
    @example(_OUTER_CASE, 16)
    @example((*_OUTER_CASE[:4], {0, 1, 4}), 32)
    def check(case, chunk):
        sys_, space, window, horizon, target = case
        cells = kn.light_cone(sys_, window, horizon).union
        tracked = [v for v in cells if v in target]
        tables = ss._composed_tables(sys_, space, window, horizon)
        expected = determined_oracle(sys_, space, window, horizon, tracked)
        with monkeypatch.context() as m:
            m.setattr(ss, "_CHUNK", chunk)
            for threads in ("1", "2"):
                m.setenv("SYMDYN_THREADS", threads)
                assert ss._count_grouping(sys_, space, cells, tables, tracked) == expected
            assert ss._sort_grouping(sys_, space, cells, tables, tracked) == expected
        if any(len(space.allowed(v)) == 3 for v in tracked):
            seen.add("three-symbol field")
        first, last = _key_chunks(space, cells, tables, chunk)
        if (first > 0).any():
            seen.add("key first met after the first chunk")
        if (last > first).any():
            seen.add("key met again in a later chunk")
        if set(tracked) - expected:
            chunks = "one chunk" if kn.pattern_count(space, cells) <= chunk else "chunks"
            seen.add(f"undetermined cell, {chunks}")

    check()
    assert seen == {"three-symbol field", "key on one side of a merge",
                    "shared key, other representative", "undetermined cell, chunks",
                    "undetermined cell, one chunk", "key first met after the first chunk",
                    "key met again in a later chunk"}


class _FullRecorder:
    """numpy, with the length of every `np.full` array recorded."""

    def __init__(self):
        self.lengths = []

    def __getattr__(self, name):
        return getattr(np, name)

    def full(self, shape, *args, **kwargs):
        self.lengths.append(shape)
        return np.full(shape, *args, **kwargs)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_count_grouping_one_key_array_per_worker(monkeypatch, threads):
    """A count walk over many chunks allocates one key-space array per
    worker, not one per chunk, and decides the oracle's cells."""
    sys_, space = ss.full_shift(3)
    cone = kn.light_cone(sys_, [0], 4)
    cells = cone.order[::-1]
    tables = ss._composed_tables(sys_, space, cone.window, 4)
    recorder = _FullRecorder()
    monkeypatch.setenv("SYMDYN_THREADS", threads)
    monkeypatch.setattr(ss, "_CHUNK", 16)
    monkeypatch.setattr(ss, "np", recorder)
    got = ss._count_grouping(sys_, space, cells, tables, cells)
    assert got == determined_oracle(sys_, space, [0], 4, cells)
    assert len(cells) == 5  # 27 chunks of 9 patterns
    assert recorder.lengths == [3**5] * int(threads)


def test_bit_fields_fit_one_word():
    """Tracked digits pack into one int64: 63 bits of fields fit, more are
    refused rather than wrapped."""
    space = kn.PatternSpace(lambda v: (0, 1) if v == 0 else (0, 1, 2))
    fields = ss._bit_fields(space, range(32))
    assert fields[0] == (0, 1) and fields[1] == (1, 3 << 1) and fields[31] == (61, 3 << 61)
    with pytest.raises(ValueError, match="need 65 bits"):
        ss._bit_fields(space, range(33))


def _picks(sys_, space, window, horizon, target=None):
    """The grouping enumeration picks at each horizon of the window's cone."""
    cone = kn.light_cone(sys_, window, horizon)
    return [engine for _, engine in ss._determined_layers(sys_, space, cone, target)]


def test_grouping_picked_by_patterns_and_keys(monkeypatch, cex):
    """Enumeration counts where the patterns overflow one chunk and the
    trajectory keys do not outnumber them, and sorts elsewhere; a window
    check picks at each horizon as the panorama on the same cone does.  The
    counterexample is linear, so its window checks themselves run no
    grouping."""
    ran: list = []
    _record_groupings(monkeypatch, ran)
    assert ss.posexpansive_window_check(*cex, [0], 5, range(6))["first_t"] == 5
    assert ran == []
    majority = ss.system_from_descriptor({
        "system": "ca_zd", "alphabet": 2,
        "offsets": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
        "table": [int(bin(i).count("1") >= 3) for i in range(32)],
    })
    for (sys_, space), window, horizon, expected in (
        (cex, [0], 5, ["sort"] * 5 + ["count"]),  # t = 5: 2^22 patterns, 2^12 keys
        (ss.full_shift(6), [0], 6, ["sort"] * 6 + ["count"]),  # t = 6: 6^7 of each
        (majority, [(0, 0)], 2, ["sort"] * 3),  # t = 2: 2^13 patterns fit one chunk
        (ss.full_shift(4), [0], 8, ["sort"] * 9),  # t = 8: 4^9 patterns fill one chunk
        (ss.full_shift(6), [0, 2], 4, ["sort"] * 5),  # t = 4: 6^7 patterns, 6^10 keys
    ):
        assert _picks(sys_, space, window, horizon) == expected
        cells = kn.light_cone(sys_, window, horizon).union
        for target in ({cells[0]}, {cells[-1]}, set(cells)):
            assert _picks(sys_, space, window, horizon, target) == expected
    # six symbols and the majority vote are not linear, so panoramas enumerate
    assert ss.panorama(*ss.full_shift(6), [0], 6).engine == "count+sort"
    assert ss.panorama(*majority, [(0, 0)], 2).engine == "sort"


def test_repeated_window_cells_count_once(binary_odometer):
    """A window that lists a cell twice is the window that lists it once:
    same cone, layers, pattern count and engine, so the key space (and the
    grouping it picks) does not grow with the repeats."""
    sys_, space = ss.full_shift(6)
    once, twice = ss.panorama(sys_, space, [0], 6), ss.panorama(sys_, space, [0, 0], 6)
    assert twice == once
    assert (twice.window, twice.engine) == ((0,), "count+sort")
    assert kn.light_cone(sys_, [0, 0, 0], 3) == kn.light_cone(sys_, [0], 3)
    for window in ([0, 0], [0, 0, 0]):
        assert (ss.posexpansive_window_check(sys_, space, window, 3, range(4))
                == ss.posexpansive_window_check(sys_, space, [0], 3, range(4)))
    x = kn.Configuration({v: v % 6 for v in range(5)})
    assert kn.evaluate(sys_, x, [0, 0, 1], 3) == kn.evaluate(sys_, x, [0, 1], 3)
    assert (ss.odometer_factor_chain(*binary_odometer, [[0, 0], [1, 0, 1]], 8)
            == ss.odometer_factor_chain(*binary_odometer, [[0], [0, 1]], 8))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_panorama_and_window_check_match_oracle(monkeypatch, cex, threads):
    """On one and two threads, panoramas and window checks equal the layers
    of the reference dict engine, through both groupings."""
    monkeypatch.setenv("SYMDYN_THREADS", threads)
    monkeypatch.setattr(ss, "_CHUNK", 16)  # at full size these cones fit one chunk and sort
    ran: list = []
    _record_groupings(monkeypatch, ran)
    for sys_, space, window, horizon in (
        (*cex, [0], 3),
        (*ss.full_shift(3), [0, 2], 2),
        (*ss.odometer_system([3, 2]), [0, 1, 2], 3),
    ):
        layers = panorama_layers_oracle(sys_, space, window, horizon)
        assert ss.panorama(sys_, space, window, horizon).layers == layers
        # enumeration too, where panorama runs the linear engine
        assert _enumerated(sys_, space, window, horizon)[0] == layers
        for target in ({0}, set(layers[-1]), set(kn.light_cone(sys_, window, horizon).union)):
            expected = _window_check_from_layers(layers, target)
            assert ss.posexpansive_window_check(sys_, space, window, horizon, target) == expected
            enumerated = _enumerated(sys_, space, window, horizon, target)[0]
            assert _window_check_from_layers(enumerated, target) == expected
    assert {name for name, _ in ran} == {"count", "sort"}
    # the reference dict engine's cex layers at horizon 4 (see
    # test_panorama_engines_agree)
    assert ss.panorama(*cex, [0], 4).layers == tuple(tuple(range(t + 1)) for t in range(5))


# -- the exact linear engine ----------------------------------------------------

_GF = {2: (2, 1), 3: (3, 1), 4: (2, 2)}  # k -> (p, m) with k = p^m
_LINEAR_VARIANTS = ("linear", "flipped table entry", "non-subspace allowed set", "six symbols")


def _gf_digits(symbol, p, m):
    return [symbol // p**j % p for j in range(m)]


def _gf_symbol(digits, p):
    return sum(d % p * p**j for j, d in enumerate(digits))


def _gf_span(generators, p, m):
    """Every GF(p) combination of the generators, digit by digit."""
    return sorted({
        _gf_symbol([sum(c * _gf_digits(g, p, m)[j] for c, g in zip(cs, generators))
                    for j in range(m)], p)
        for cs in itertools.product(range(p), repeat=len(generators))
    })


@st.composite
def linear_systems(draw, variants=_LINEAR_VARIANTS, patterns=256, horizons=4):
    """A random explicit system in one of `variants`, with at most
    `patterns` patterns on its cells, a window, a horizon of at most
    `horizons` (2 on six symbols) and a target.

    "linear": k in {2, 3, 4}, every table the map x -> c + sum_i A_i x_i of
    digit vectors with random GF(p) matrices A_i and constant c, every
    allowed set the span of random symbols.  The near-linear variants break
    one thing at the first window cell: one table entry changed (the rule
    reads two inputs, so no change keeps it affine), or its allowed set
    made a set without 0; "six symbols" takes sums mod 6 over Z/6."""
    variant = draw(st.sampled_from(variants))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = 6 if variant == "six symbols" else rng.choice((2, 3, 4))
    p, m = _GF.get(k, (6, 1))
    n = rng.randint(2, max(n for n in range(2, 20) if k**n <= patterns))
    window = sorted(rng.sample(range(n), rng.randint(1, 2)))
    rules = []
    for v in range(n):
        inputs = rng.sample(range(n), 2 if v == window[0] else rng.randint(1, min(3, n)))
        coeffs = [[[rng.randrange(p) for _ in range(m)] for _ in range(m)] for _ in inputs]
        const = [rng.randrange(p) for _ in range(m)]
        table = []
        for args in itertools.product(range(k), repeat=len(inputs)):
            digits = [_gf_digits(a, p, m) for a in args]
            table.append(_gf_symbol([
                const[i] + sum(a[i][j] * x[j] for a, x in zip(coeffs, digits) for j in range(m))
                for i in range(m)], p))
        if variant == "flipped table entry" and v == window[0]:
            at = rng.randrange(len(table))
            table[at] = (table[at] + rng.randrange(1, k)) % k
        rules.append({"vertex": v, "inputs": inputs, "table": table})
    edges = [[u, r["vertex"]] for r in rules for u in r["inputs"]]
    sys_, _ = ss.system_from_descriptor({"alphabet": k, "graph": {"edges": edges},
                                         "rules": rules})
    allowed = [_gf_span(rng.sample(range(k), rng.randint(0, 2)), p, m) for _ in range(n)]
    if variant == "non-subspace allowed set":
        allowed[window[0]] = [s for s in allowed[window[0]] if s] or [rng.randrange(1, k)]
    space = kn.PatternSpace(lambda v: allowed[v])
    horizon = rng.randint(1, 2 if k == 6 else horizons)
    target = set(rng.sample(range(n), rng.randint(1, n)))
    return variant, sys_, space, window, horizon, target


def test_linear_engine_matches_oracles():
    """On random GF(p)-linear systems the linear engine's layers and window
    checks are the reference dict engine's; near-linear systems make it
    decline with its reason, and dispatch falls back to enumeration with
    the oracle's layers."""
    seen = set()
    reasons = {"flipped table entry": "nonlinear rule at vertex {}",
               "non-subspace allowed set": "allowed set at vertex {} is not a subspace",
               "six symbols": "alphabet of 6 symbols is not a prime power"}

    # draws are seeded from this function's source, so the four-symbol case
    # with an undetermined cell is pinned: x_-1 XOR x_1 leaves cells -1, 1 open
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(linear_systems())
    @example(("linear", *ss.ca_on_zd(4, [(-1,), (1,)], [a ^ b for a in range(4) for b in range(4)]),
              [(0,)], 1, {(0,), (1,)}))
    def check(case):
        variant, sys_, space, window, horizon, target = case
        cone = kn.light_cone(sys_, window, horizon)
        layers = panorama_layers_oracle(sys_, space, window, horizon)
        result = ss.panorama(sys_, space, window, horizon)
        assert result.layers == layers
        assert ss.posexpansive_window_check(sys_, space, window, horizon, target) == (
            _window_check_from_layers(layers, target))
        linear = ss._linear_layers(sys_, space, cone)
        if variant == "linear":
            linear = [det for det, _ in linear]
            assert result.engine == "linear"
            assert tuple(ng.sort_vertices(det) for det in linear) == layers
            for t, det in enumerate(linear):
                assert det & target == determined_oracle(sys_, space, window, t, target)
            undetermined = set(cone.union) - set(layers[-1])
            seen.add(f"k={sys_.alphabet.size}" + (", undetermined cell" if undetermined else ""))
        else:
            assert linear == reasons[variant].format(window[0])
            assert result.engine in ("count", "sort", "count+sort")
        seen.add(variant)

    check()
    assert seen == {*_LINEAR_VARIANTS, "k=2", "k=3", "k=4", "k=2, undetermined cell",
                    "k=3, undetermined cell", "k=4, undetermined cell"}


def test_linear_engine_matches_enumeration_on_larger_cones():
    """On random linear systems of up to 2^16 patterns and horizons up to 6,
    the linear engine's layers, of every cell and of a target, are
    enumeration's (whose groupings the oracle tests above pin down)."""
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(linear_systems(("linear",), patterns=2**16, horizons=6))
    def check(case):
        _, sys_, space, window, horizon, target = case
        cone = kn.light_cone(sys_, window, horizon)
        linear = [det for det, _ in ss._linear_layers(sys_, space, cone)]
        for cells in (None, target):
            narrowed = linear if cells is None else [det & cells for det in linear]
            assert narrowed == [det for det, _ in ss._determined_layers(sys_, space, cone, cells)]
            if cells is None and len(cone.union) - len(linear[-1]) >= 2:
                seen.add(f"k={sys_.alphabet.size}, several undetermined cells")

    check()
    assert seen == {"k=2, several undetermined cells", "k=3, several undetermined cells",
                    "k=4, several undetermined cells"}


_XOR_Z2 = ss.ca_on_zd(2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
                      [bin(i).count("1") % 2 for i in range(32)])


@pytest.mark.parametrize("case", ["cex", "xor", "shift"])
def test_linear_layers_match_enumeration(cex, case):
    """The linear engine and enumeration give the same layers, for
    panoramas and window checks, on the counterexample at T=5, the Z^2 XOR
    automaton at T=2 and the three-symbol full shift on window (0, 2)."""
    sys_, space, window, horizon = {
        "cex": (*cex, [0], 5),
        "xor": (*_XOR_Z2, [(0, 0)], 2),
        "shift": (*ss.full_shift(3), [0, 2], 3),
    }[case]
    cone = kn.light_cone(sys_, window, horizon)
    linear = [det for det, _ in ss._linear_layers(sys_, space, cone)]
    for target in (None, set(cone.union[::2])):
        narrowed = linear if target is None else [det & target for det in linear]
        assert narrowed == [det for det, _ in ss._determined_layers(sys_, space, cone, target)]
    assert ss.panorama(sys_, space, window, horizon).engine == "linear"


@pytest.mark.parametrize("system,window,horizon,reason", [
    (ss.full_shift(6), [0], 2, "alphabet of 6 symbols is not a prime power"),
    (ss.odometer_system([2]), [0, 1, 2], 3, "nonlinear rule at vertex 2"),
    (ss.odometer_system([3, 2]), [13], 1, "rule at vertex 13 has 4782969 table entries, over 65536"),
    ((ss.full_shift(2)[0], kn.PatternSpace(lambda v: [1] if v == 1 else [0, 1])), [0], 2,
     "allowed set at vertex 1 is not a subspace"),
    (ss.system_from_descriptor({
        "system": "ca_zd", "alphabet": 2,
        "offsets": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
        "table": [int(bin(i).count("1") >= 3) for i in range(32)],
    }), [(0, 0)], 1, "nonlinear rule at vertex (0, 0)"),
])
def test_linear_engine_declines_with_its_reason(system, window, horizon, reason):
    """Each reason the linear engine declines for, which the panorama keeps
    as `declined`, and the enumeration that then decides the layers."""
    sys_, space = system
    cone = kn.light_cone(sys_, window, horizon)
    assert ss._linear_layers(sys_, space, cone) == reason
    result = ss.panorama(sys_, space, window, horizon)
    assert result.declined == reason
    assert result.engine in ("count", "sort", "count+sort")
    assert result.layers == _enumerated(sys_, space, window, horizon)[0]


def test_linear_engine_checks_only_the_rules_a_cone_applies():
    """Through horizon t a cone applies the rules of its cells within t - 1
    of the window.  Cell 1 ANDs its inputs, so the panorama of cell 0 is
    linear at horizon 1, where cell 1 is only read, and not at horizon 2."""
    sys_, space = ss.system_from_descriptor({
        "alphabet": 2,
        "graph": {"edges": [[1, 0], [1, 1], [2, 1], [2, 2]]},
        "rules": [{"vertex": 0, "inputs": [1], "table": [0, 1]},
                  {"vertex": 1, "inputs": [1, 2], "table": [0, 0, 0, 1]},
                  {"vertex": 2, "inputs": [2], "table": [0, 1]}],
    })
    assert ss.panorama(sys_, space, [0], 1).engine == "linear"
    cone = kn.light_cone(sys_, [0], 2)
    assert ss._linear_layers(sys_, space, cone) == "nonlinear rule at vertex 1"
    assert ss.panorama(sys_, space, [0], 2).layers == panorama_layers_oracle(sys_, space, [0], 2)


_ADD3 = [(a + b + c) % 2 for a, b, c in itertools.product(range(2), repeat=3)]


@pytest.mark.parametrize("system,window,horizon,last", [
    # x + x' + y mod 2 with x and x' the same cell: the shift
    (ss.ca_on_zd(2, [(0,), (0,), (1,)], _ADD3), [(0,)], 8, [(i,) for i in range(9)]),
    # the same table with the right neighbour read twice: the identity, so a
    # pull-back that kept one of the two coefficients would see cell 1
    (ss.ca_on_zd(2, [(1,), (1,), (0,)], _ADD3), [(0,)], 8, [(0,)]),
    # four symbols as two bits: digit 0 of the image is digit 1 of the right
    # neighbour, digit 1 is digit 0 of the cell, so cell t is pinned at 2t
    (ss.ca_on_zd(4, [(0,), (1,)], [b >> 1 | (a & 1) << 1
                                    for a, b in itertools.product(range(4), repeat=2)]),
     [(0,)], 5, [(0,), (1,), (2,)]),
    # x_-1 XOR x_1 on four symbols: both digits of both neighbours at once
    (ss.ca_on_zd(4, [(-1,), (1,)], [a ^ b for a, b in itertools.product(range(4), repeat=2)]),
     [(0,), (1,)], 3, [(i,) for i in range(-3, 5)]),
    (ss.ca_on_zd(4, [(-1,), (1,)], [a ^ b for a, b in itertools.product(range(4), repeat=2)]),
     [(0,)], 3, [(0,)]),
])
def test_linear_engine_adds_repeated_and_digit_mixing_inputs(system, window, horizon, last):
    """Rules that read one cell twice, or route digits between cells, give
    the layers of enumeration and of forward simulation, of every cell and
    of a target: pulled back, a repeated input adds both coefficients."""
    sys_, space = system
    cone = kn.light_cone(sys_, window, horizon)
    linear = [det for det, _ in ss._linear_layers(sys_, space, cone)]
    for target in (None, set(cone.union[1::2])):
        narrowed = linear if target is None else [det & target for det in linear]
        assert narrowed == [det for det, _ in ss._determined_layers(sys_, space, cone, target)]
        assert narrowed == forward_linear_layers_oracle(sys_, space, cone, target)
    result = ss.panorama(sys_, space, window, horizon)
    assert (result.engine, list(result.layers[-1])) == ("linear", last)


def test_counterexample_closed_form_past_the_cap(cex):
    """At T = J(J + 1) the layer of cell 0 is the decoder's window of depth
    J; at J = 6 the cone has more than 2^680 patterns, which only the linear
    engine decides, and every layer t is the cells 0..t."""
    result = ss.panorama(*cex, [0], 42, max_patterns=2**700)
    assert (result.engine, result.declined) == ("linear", None)
    assert result.pattern_count > 2**680
    assert result.layers == tuple(tuple(range(t + 1)) for t in range(43))
    assert result.layers[cx.junction_index(6)] == cx.decode_window(6)


def test_linear_engine_matches_forward_simulation_on_deep_cones():
    """On random linear systems of up to 19 cells and horizons up to 12,
    past those the enumeration tests above reach, the layers of every cell
    and of a target are those of forward simulation."""
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(linear_systems(("linear",), patterns=2**64, horizons=12))
    def check(case):
        _, sys_, space, window, horizon, target = case
        cone = kn.light_cone(sys_, window, horizon)
        linear = [det for det, _ in ss._linear_layers(sys_, space, cone)]
        for cells in (None, target):
            narrowed = linear if cells is None else [det & cells for det in linear]
            assert narrowed == forward_linear_layers_oracle(sys_, space, cone, cells)
        if horizon > 6 and len(cone.union) >= 8:
            seen.add(f"k={sys_.alphabet.size}, horizon past 6 on 8 cells or more")

    check()
    assert seen == {f"k={k}, horizon past 6 on 8 cells or more" for k in (2, 3, 4)}


def test_counterexample_certificate_at_six_steps(cex):
    """Observing cell 0 for six steps pins down cells 0..t at every step t
    over the 2^28 patterns of the cone, and cells 0..6 first at t = 6, by
    elimination and by enumeration."""
    sysx, spx = cex
    result = ss.panorama(sysx, spx, [0], 6, max_patterns=2**28)
    assert result.pattern_count == 2**28
    assert result.layers == tuple(tuple(range(t + 1)) for t in range(7))
    # the counting floor: 10 bits of patterns on layer 6, 14 bits observed
    assert kn.pattern_count(spx, result.layers[6]) == 2**10
    assert ss.posexpansive_window_check(sysx, spx, [0], 6, range(7), max_patterns=2**28) == {
        "covered": True, "first_t": 6, "missing": ()}
    # panorama runs the linear engine here; enumeration must agree on the full cone
    assert _enumerated(sysx, spx, [0], 6) == (result.layers, "count+sort")


def test_composed_tables_with_zero_input_rule():
    """Cell 2 reads nothing, so from t=1 on it is a constant that cells 0
    and 1 keep reading: its composed tables have an empty domain."""
    sys_, space = ss.system_from_descriptor({
        "alphabet": 2,
        "graph": {"edges": [[1, 0], [2, 0], [0, 1], [2, 1]]},
        "rules": [
            {"vertex": 0, "inputs": [1, 2], "table": [0, 1, 1, 0]},
            {"vertex": 1, "inputs": [0, 2], "table": [1, 0, 0, 1]},
            {"vertex": 2, "inputs": [], "table": [1]},
        ],
    })
    assert ss.panorama(sys_, space, [0], 4).layers == panorama_layers_oracle(
        sys_, space, [0], 4)
    rep = ss.equicontinuity_envelope(sys_, [0, 2], 4, r_cap=6)
    assert rep.trajectory_count == len(trajectory_set_oracle(sys_, space, [0, 2], 4))


def test_panorama_against_pairwise_bruteforce(cex):
    """Every determined cell really is forced: re-verify the quantifier by
    comparing all pattern pairs directly on a small instance."""
    sysx, spx = cex
    horizon = 2
    cone = kn.light_cone(sysx, [0], horizon)
    cells = cone.union
    patterns = list(itertools.product(*[spx.allowed(v) for v in cells]))
    trajs = []
    for pat in patterns:
        x = kn.Configuration(dict(zip(cells, pat)))
        traj = kn.evaluate(sysx, x, [0], horizon)
        trajs.append(tuple(step[0] for step in traj))
    determined = set(cells)
    for i, pi in enumerate(patterns):
        for j in range(i + 1, len(patterns)):
            if trajs[i] == trajs[j]:
                pj = patterns[j]
                for pos, v in enumerate(cells):
                    if pi[pos] != pj[pos]:
                        determined.discard(v)
    result = ss.panorama(sysx, spx, [0], horizon)
    assert set(result.layers[horizon]) == determined


def test_panorama_cap():
    fs, fsp = ss.full_shift(2)
    with pytest.raises(kn.EnumerationCapError):
        ss.panorama(fs, fsp, [0], 40, max_patterns=2**20)


@pytest.mark.parametrize("allowed", [(0, 1, 0), (1, 1)])
def test_allowed_tuple_that_repeats_a_symbol_is_refused(allowed):
    """The engines compare places in an allowed tuple, not symbols, so over
    (0, 1, 0) they would determine no cell of the full shift's cone (27
    patterns for the right 8): such a tuple is refused, naming its vertex."""
    sys_, _ = ss.full_shift(3)
    space = kn.PatternSpace(lambda v: allowed)
    with pytest.raises(ValueError, match="allowed set at vertex 0 repeats a symbol"):
        ss.panorama(sys_, space, [0], 2)
    with pytest.raises(ValueError, match="allowed set at vertex 0 repeats a symbol"):
        ss.posexpansive_window_check(sys_, space, [0], 2, [1])


def test_window_check_covers_target(cex):
    sysx, spx = cex
    res = ss.posexpansive_window_check(sysx, spx, [0], 4, [0, 1, 2])
    assert res == {"covered": True, "first_t": 2, "missing": ()}


def test_window_check_odometer_never_covers(binary_odometer):
    sys_, space = binary_odometer
    res = ss.posexpansive_window_check(sys_, space, [0], 10, [1])
    assert not res["covered"]
    assert res["missing"] == (1,)


def test_window_check_trivial_subwindow(full_shift_n):
    sys_, space = full_shift_n
    res = ss.posexpansive_window_check(sys_, space, [0, 1], 0, [1])
    assert res == {"covered": True, "first_t": 0, "missing": ()}


# -- sensitivity and equicontinuity ---------------------------------------------


def test_sensitivity_full_shift(full_shift_n):
    sys_, _ = full_shift_n
    assert ss.sensitivity_certificate(sys_, 0, 3, 10) == {"t": 4, "witness": 4}


def test_sensitivity_odometer_none(binary_odometer):
    sys_, _ = binary_odometer
    assert ss.sensitivity_certificate(sys_, 0, 0, 12) is None


def test_sensitivity_counterexample(cex):
    sysx, _ = cex
    cert = ss.sensitivity_certificate(sysx, 0, 2, 4)
    assert cert is not None
    assert cert["witness"] not in sysx.graph.ball_members([0], 2)


def test_envelope_odometer(binary_odometer):
    sys_, _ = binary_odometer
    rep = ss.equicontinuity_envelope(sys_, [0, 1], 16, 8)
    assert rep.certified
    assert rep.envelope == (0, 1)
    assert rep.trajectory_count == 4


def test_envelope_divergence(full_shift_n, cex):
    fs, _ = full_shift_n
    assert not ss.equicontinuity_envelope(fs, [0], 8, 20).certified
    sysx, _ = cex
    assert not ss.equicontinuity_envelope(sysx, [3], 8, 30).certified


def test_factor_chain_binary(binary_odometer):
    sys_, space = binary_odometer
    chain = ss.odometer_factor_chain(sys_, space, [[0], [0, 1]], 8)
    assert [c["trajectory_count"] for c in chain] == [2, 4]
    assert all(c["shift_is_permutation"] for c in chain)
    assert all(c["envelope"] == c["window"] for c in chain)


def test_factor_chain_does_not_import_numpy_ma():
    """The factor chain finds its distinct heads and tails by sorting: a
    plain np.unique (numpy 2.4) takes a hash path that imports numpy.ma.
    Neither it, the envelope nor the distance and speed searches import
    numpy.ma or numpy.random, each of which adds 1 to 5 MB of peak RSS."""
    src = str(Path(ss.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = ("import sys\nfrom symdyn import netgraph as ng, symsys as ss\n"
              "sys_, space = ss.odometer_system([2])\n"
              "ss.odometer_factor_chain(sys_, space, [[0], [0, 1]], 8)\n"
              "ss.equicontinuity_envelope(sys_, [0, 1], 8, 8)\n"
              "ng.speed_estimate(ng.cayley_zd(2), ng.shift_tau((1, 0)), (0, 0), 8, 32)\n"
              "ng.speed_estimate(ng.shortcut_graph(), ng.shift_tau((1, 0)), (0, 0), 8, 32)\n"
              "ng.undirected_distance(ng.cayley_zd(3), (0, 0, 0), (3, -2, 4), 12)\n"
              "print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


def test_factor_chain_mixed_radix():
    sys_, space = ss.odometer_system([3, 2])
    chain = ss.odometer_factor_chain(sys_, space, [[0, 1]], 12)
    assert chain[0]["trajectory_count"] == 6
    assert chain[0]["shift_is_permutation"]


def test_factor_chain_counts_divide(binary_odometer):
    sys_, space = binary_odometer
    chain = ss.odometer_factor_chain(sys_, space, [[0], [0, 1], [0, 1, 2]], 16)
    counts = [c["trajectory_count"] for c in chain]
    assert all(b % a == 0 for a, b in zip(counts, counts[1:]))


def test_factor_chain_closed_shift_that_is_no_function():
    """Heads and tails are the same set, yet a head has two tails."""
    sys_, space = ss.system_from_descriptor({
        "alphabet": 2,
        "graph": {"edges": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        "rules": [
            {"vertex": 0, "inputs": [0, 1], "table": [1, 0, 0, 0]},
            {"vertex": 1, "inputs": [1, 0], "table": [1, 1, 1, 0]},
        ],
    })
    trajs = trajectory_set_oracle(sys_, space, [1], 2)
    assert {t[:2] for t in trajs} == {t[1:] for t in trajs}
    chain = ss.odometer_factor_chain(sys_, space, [[1]], 2)
    assert chain[0]["trajectory_count"] == len(trajs) == 4
    assert chain[0]["shift_is_permutation"] is False


def test_factor_chain_rejects_sensitive_systems(full_shift_n):
    fs, fsp = full_shift_n
    with pytest.raises(ss.NotEquicontinuousError):
        ss.odometer_factor_chain(fs, fsp, [[0]], 8)


def test_factor_chain_cap_bounds_only_its_own_patterns():
    """The (3, 2) odometer allows 3 * 2 * 3 = 18 patterns on [0, 1, 2]; the
    full alphabet would give 27, which bounds the envelope alone."""
    sys_, space = ss.odometer_system([3, 2])
    chain = ss.odometer_factor_chain(sys_, space, [[0, 1, 2]], 12, max_patterns=20)
    assert chain[0]["trajectory_count"] == 12
    assert chain[0]["shift_is_permutation"]
    with pytest.raises(kn.EnumerationCapError):
        ss.odometer_factor_chain(sys_, space, [[0, 1, 2]], 12, max_patterns=11)
    with pytest.raises(kn.EnumerationCapError) as exc:
        ss.equicontinuity_envelope(sys_, [0, 1, 2], 12, 8, max_patterns=20)
    assert exc.value.required == 27


def test_factor_chain_simulates_each_window_once(monkeypatch, binary_odometer):
    sys_, space = binary_odometer
    calls = []

    def counted(sys_, cone, rows):
        calls.append(cone.window)
        return trajectory_rows(sys_, cone, rows)

    trajectory_rows = ss.trajectory_rows
    monkeypatch.setattr(ss, "trajectory_rows", counted)
    ss.odometer_factor_chain(sys_, space, [[0], [0, 1], [0, 1, 2]], 8)
    assert calls == [(0,), (0, 1), (0, 1, 2)]


def test_envelope_rejects_a_negative_reach_cap(binary_odometer):
    sys_, _ = binary_odometer
    with pytest.raises(ValueError, match="r_cap"):
        ss.equicontinuity_envelope(sys_, [0], 4, -1)
    assert ss.equicontinuity_envelope(sys_, [0], 4, 0).certified


# -- the sampling kernel -------------------------------------------------------------


class _CountedReads(random.Random):
    """A `random.Random` that records the bits each `getrandbits` call reads."""

    def __init__(self, seed):
        super().__init__(seed)
        self.reads = []

    def getrandbits(self, k):
        self.reads.append(k)
        return super().getrandbits(k)


def _uniforms(rng, n, m):
    """The next n * m values of `rng.random()`, as an (n, m) array, as
    `PatternSpace.random_configuration` reads them: `words`, then
    `word_uniforms`."""
    return kn.word_uniforms(kn.words(rng, n * m)).reshape(n, m)


def test_uniform_rows_match_per_call_random(monkeypatch):
    """`words` and `word_uniforms` return the next values of `rng.random()`
    and `RowPlan` picks a[int(u * len(a))] from them, so rows equal one
    `random()` per cell, and the generator ends where those calls leave it:
    also when a read is cut to a few words, with no rows and with empty rows.
    `uniform_blocks` gives m values of each of n generators, the same ones,
    in blocks of _DRAW_WORDS // 2 // m generators: also with m above
    _DRAW_WORDS // 2, where each generator takes several reads."""
    seen = set()
    ranks = st.integers(1, 4).map(lambda n: tuple(range(n)))
    sets = st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True).map(tuple)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**64), st.lists(ranks | sets, max_size=12), st.integers(0, 4),
           st.sampled_from([1, 2, 6, 7, kn._DRAW_WORDS]))
    def check(seed, allowed, n, words):
        monkeypatch.setattr(kn, "_DRAW_WORDS", words)
        ref, rng = random.Random(seed), _CountedReads(seed)
        expected = [[a[int(ref.random() * len(a))] for a in allowed] for _ in range(n)]
        rows = kn.RowPlan(allowed).rows(_uniforms(rng, n, len(allowed)))
        assert rows.shape == (n, len(allowed))
        assert rows.tolist() == expected
        assert rng.getstate() == ref.getstate()
        assert sum(rng.reads) == 64 * n * len(allowed)
        assert max(rng.reads, default=0) <= 32 * max(words, 2)
        assert _uniforms(rng, 2, 3).tolist() == uniforms_per_call(ref, 2, 3).tolist()
        assert rng.getstate() == ref.getstate()
        seen.add("no rows" if not n else "empty rows" if not allowed else
                 "split reads" if len(rng.reads) > 2 else "one read")
        if allowed:
            seen.add("sets 0..n-1" if all(a == tuple(range(len(a))) for a in allowed)
                     else "other sets")
        for m in (len(allowed) or 1, words // 2 + 1 + len(allowed)):
            gens = [_CountedReads(seed + i) for i in range(n)]
            blocks = list(kn.uniform_blocks(iter(gens), m))
            per = max(words // 2 // m, 1)
            assert [len(b) for b in blocks] == [min(per, n - lo) for lo in range(0, n, per)]
            refs = [random.Random(seed + i) for i in range(n)]
            assert [row for b in blocks for row in b.tolist()] == [
                uniforms_per_call(ref, 1, m)[0].tolist() for ref in refs]
            for gen, ref in zip(gens, refs):
                assert gen.getstate() == ref.getstate()
                assert sum(gen.reads) == 64 * m and max(gen.reads) <= 32 * max(words, 2)
                if len(gen.reads) > 1:
                    seen.add("several reads per generator")
            if per > 1 and n > 1:
                seen.add("several generators per block")

    check()
    assert seen == {"no rows", "empty rows", "split reads", "one read", "sets 0..n-1",
                    "other sets", "several reads per generator", "several generators per block"}


def test_rows_of_other_generators_and_empty_sets():
    """A subclass of `random.Random` draws what per-call `random()` draws,
    `SystemRandom` rows lie in their allowed sets, and an empty allowed set
    is refused."""

    class Subclass(random.Random):
        pass

    allowed = [(0, 1), (0, 1, 2), (5,), (3, 9)]
    ref, rng = Subclass(3), Subclass(3)
    rows = kn.RowPlan(allowed).rows(_uniforms(rng, 5, len(allowed)))
    assert rows.tolist() == [[a[int(ref.random() * len(a))] for a in allowed]
                             for _ in range(5)]
    assert rng.getstate() == ref.getstate()
    rows = kn.RowPlan(allowed).rows(_uniforms(random.SystemRandom(), 20, len(allowed)))
    assert all(s in a for row in rows.tolist() for s, a in zip(row, allowed))
    with pytest.raises(ValueError, match="empty allowed set"):
        kn.RowPlan([(0, 1), ()])


def test_random_configuration_tables_each_allowed_tuple_once():
    """Cells that share an allowed tuple draw what one `rng.random()` per
    cell draws, from a table that keeps each distinct tuple once."""
    sets = [(1, 0, 2), (2, 0), (0, 1, 2), (1,), (1, 0, 2), (2, 3, 0, 1)]
    space = kn.PatternSpace(lambda v: sets[v % len(sets)])
    domain = range(37)
    plan = kn.RowPlan([space.allowed(v) for v in domain])
    assert plan.sets == sets[:4] + sets[5:]
    assert len(plan.symbols) == sum(map(len, plan.sets))
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert space.random_configuration(domain, rng) == choice_per_cell(space, domain, ref)
        assert rng.getstate() == ref.getstate()


def test_row_plan_hashes_a_shared_allowed_tuple_once():
    """1000 cells that share one allowed tuple object, as `PatternSpace.full`
    hands out, cost one hash of it; an equal tuple of its own costs one more,
    and joins the same set."""

    class Counted(tuple):
        hashes = 0

        def __hash__(self):
            Counted.hashes += 1
            return tuple.__hash__(self)

    shared = Counted(range(5))
    plan = kn.RowPlan([shared] * 1000)
    assert Counted.hashes == 1
    assert plan.sets == [shared] and plan.base.tolist() == [0] * 1000
    plan = kn.RowPlan([shared] * 999 + [Counted(range(5))])
    assert Counted.hashes == 3
    assert plan.sets == [shared] and plan.size.tolist() == [5] * 1000


def test_other_places_pick_among_the_other_symbols():
    """`RowPlan.other_places` gives entry int(u * n) of the n entries of a
    cell's allowed tuple that differ from the symbol at `own`, in tuple
    order, and flags the cells where there is none."""
    sets = [(1, 0, 2), (2, 3, 0), (3,), (0, 1, 2), (4, 1)]
    plan = kn.RowPlan(sets)
    cols, own, u = [], [], []
    for c, a in enumerate(sets):
        for i in range(len(a)):
            for x in np.linspace(0, 1, 9, endpoint=False):
                cols.append(c)
                own.append(int(plan.base[c]) + i)
                u.append(x)
    places, some = plan.other_places(np.array(cols), np.array(own), np.array(u))
    for c, at, x, place, ok in zip(cols, own, u, places.tolist(), some.tolist()):
        others = [s for s in sets[c] if s != plan.symbols[at]]
        assert ok == bool(others)
        if others:
            assert plan.symbols[place] == others[int(x * len(others))]


def test_random_configuration_of_no_cells_reads_nothing():
    rng = _CountedReads(5)
    state = rng.getstate()
    space = kn.PatternSpace.full(kn.Alphabet(3))
    assert space.random_configuration([], rng) == kn.Configuration({})
    assert rng.reads == [] and rng.getstate() == state


def test_random_configuration_memory_stays_flat_in_the_alphabet():
    """Cells share one table of their allowed tuple: 50 cells of 2^16
    symbols peak far below the 50 x 2^16 entries of a table per cell."""
    space = kn.PatternSpace.full(kn.Alphabet(2**16))
    ref = random.Random(4)
    tracemalloc.start()
    try:
        x = space.random_configuration(range(50), random.Random(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert x == choice_per_cell(space, range(50), ref)


def test_random_configuration_on_mixed_sizes():
    """On an odometer of moduli 2, 3, 5, 7, 6, 6, ..., a random configuration
    is one `rng.random()` per cell."""
    _, ospace = ss.odometer_system([2, 3, 5, 7, 6])
    domain = range(40)
    rng, ref = random.Random(9), random.Random(9)
    assert ospace.random_configuration(domain, rng) == choice_per_cell(ospace, domain, ref)
    assert rng.getstate() == ref.getstate()


# -- subsymmetries -----------------------------------------------------------------


def test_subsymmetry_full_shift_translation():
    fz, fzs = ss.full_shift(2, universe="Z")
    rep = ss.subsymmetry_check(fz, ng.shift_tau(1), [-2, -1, 0, 1, 2], fzs)
    assert rep["passed"]


def test_subsymmetry_refuses_empty_probe():
    """An empty probe would pass vacuously."""
    fz, fzs = ss.full_shift(2, universe="Z")
    with pytest.raises(ValueError, match="^probe must be nonempty$"):
        ss.subsymmetry_check(fz, ng.shift_tau(1), [], fzs)


_XOR3 = [0, 1, 1, 0, 1, 0, 0, 1]


@pytest.mark.parametrize("make,tau,probe,message", [
    (lambda: ss.full_shift(2)[:2], ng.Subisometry(lambda v: v - 1), [0, 1],
     "vertex -1, the image of probe vertex 0,"),
    (lambda: ss.full_shift(2)[:2], ng.shift_tau(1), [-3, -2], "vertex -3"),
    (lambda: ss.ca_on_zd(2, [(0, 0), (1, 0), (0, 1)], _XOR3)[:2], ng.shift_tau((1,)),
     [(0, 0)], "vertex (1,), the image of probe vertex (0, 0),"),
    (lambda: ss.ca_on_zd(2, [(0, 0), (1, 0), (0, 1)], _XOR3)[:2], ng.Subisometry(lambda v: "x"),
     [(0, 0)], "vertex 'x', the image of probe vertex (0, 0),"),
], ids=["image-off-N", "probe-off-N", "image-off-Z2", "image-not-a-point"])
def test_subsymmetry_refuses_vertices_off_the_graph(make, tau, probe, message):
    """A probe vertex or its image that fails the graph's membership test is
    refused, by name, before any rule is fetched: it never passes, crashes
    or blames the rules."""
    sys_, space = make()
    with pytest.raises(ValueError, match=f"^{re.escape(message)} is not a vertex of this graph$"):
        ss.subsymmetry_check(sys_, tau, probe, space)
    assert not sys_._rules


def test_subsymmetry_identity(cex):
    sysx, spx = cex
    ident = ng.Subisometry(map=lambda v: v, label="id")
    rep = ss.subsymmetry_check(sysx, ident, [0, 1, 2, 3], spx)
    assert rep["passed"]


def test_subsymmetry_counterexample_shift_breaks(cex):
    sysx, spx = cex
    rep = ss.subsymmetry_check(sysx, ng.shift_tau(1), [0, 1, 2, 3], spx)
    assert not rep["passed"]
    assert rep["edge_violations"]


def test_subsymmetry_commutation_violations_pinned(cex):
    """Every violation of commutation on the probe, each with the first
    pattern on U_v that breaks it (`conftest.commutation_oracle`)."""
    sysx, spx = cex
    rep = ss.subsymmetry_check(sysx, ng.shift_tau(1), [0, 1, 2, 3], spx)
    assert rep == {
        "passed": False,
        "injective": True,
        "edge_violations": [(2, 0)],
        "space_violations": [0, 1, 2],
        "commute_violations": [
            {"vertex": 0, "pattern": {2: 0, 3: 1}},
            {"vertex": 1, "pattern": {3: 0, 6: 1}},
            {"vertex": 2, "pattern": {4: 0, 7: 1}},
        ],
        "unchecked": [],
    }
    rep = ss.subsymmetry_check(sysx, ng.shift_tau(1), range(41), spx)
    assert [c["vertex"] for c in rep["commute_violations"]] == [
        0, 1, 2, 5, 6, 11, 12, 19, 20, 29, 30]
    osys, ospace = ss.odometer_system([2, 3])
    rep = ss.subsymmetry_check(osys, ng.shift_tau(1), [0, 1, 2, 3], ospace)
    assert rep["space_violations"] == [0]
    assert rep["commute_violations"] == [
        {"vertex": 0, "pattern": {0: 0, 1: 0}},
        {"vertex": 1, "pattern": {0: 0, 1: 1, 2: 0}},
        {"vertex": 2, "pattern": {0: 0, 1: 1, 2: 2, 3: 0}},
        {"vertex": 3, "pattern": {0: 0, 1: 1, 2: 2, 3: 2, 4: 0}},
    ]


def test_subsymmetry_finds_the_carry_sampling_misses():
    """On the odometer [2, 3], commutation fails at vertex 3 only when cells
    1..3 of x sit at their top values and cell 0 does not, one pattern in
    81 of the cells 0..3: the 20 samples of seed 0 flag only 0, 1 and 2."""
    osys, ospace = ss.odometer_system([2, 3])
    rep = ss.subsymmetry_check(osys, ng.shift_tau(1), range(4), ospace)
    assert [c["vertex"] for c in rep["commute_violations"]] == [0, 1, 2, 3]
    assert sampled_commutation_oracle(osys, ng.shift_tau(1), range(4), ospace, 20) == {0, 1, 2}
    witness = rep["commute_violations"][3]["pattern"]
    assert witness == {0: 0, 1: 1, 2: 2, 3: 2, 4: 0}
    assert not commutes_oracle(osys, ng.shift_tau(1), 3, witness)


def test_subsymmetry_flags_a_vertex_broken_on_one_pattern():
    """The XOR of x_{-1} and x_1 on Z, with vertex 3's table set to 1 at
    input (1, 1): commutation with the unit shift fails at vertices 2 and 3,
    each on that one pattern of its two cells, and both are flagged."""
    xor, space = ss.ca_on_zd(2, [(-1,), (1,)], [0, 1, 1, 0])

    def rule_at(v):
        rule = xor.rule(v)
        return kn.LocalRule.from_table(rule.inputs, [0, 1, 1, 1], 2) if v == (3,) else rule

    sys_ = kn.SymbolicSystem(xor.alphabet, xor.graph, rule_at)
    rep = ss.subsymmetry_check(sys_, ng.shift_tau((1,)), [(v,) for v in range(6)], space)
    assert rep["passed"] is False
    assert rep["commute_violations"] == [
        {"vertex": (2,), "pattern": {(2,): 1, (4,): 1}},
        {"vertex": (3,), "pattern": {(3,): 1, (5,): 1}},
    ]


def test_subsymmetry_leaves_wide_vertices_unchecked(binary_odometer):
    """Binary odometer cell n reads cells 0..n, so U_15 has 17 cells and
    2^17 patterns, past TABLE_MAX: vertex 15 is unchecked, and that alone
    fails the check.  Vertices 0..14 all break commutation, each first at the pattern
    with cells 1..v set and cells 0 and v + 1 clear (the carry into v + 1
    that x o tau makes without x)."""
    osys, ospace = binary_odometer
    rep = ss.subsymmetry_check(osys, ng.shift_tau(1), range(16), ospace)
    assert rep["unchecked"] == [15] and not rep["passed"]
    assert rep["commute_violations"] == [
        {"vertex": v, "pattern": {0: 0, **{u: 1 for u in range(1, v + 1)}, v + 1: 0}}
        for v in range(15)]
    assert all(not commutes_oracle(osys, ng.shift_tau(1), c["vertex"], c["pattern"])
               for c in rep["commute_violations"])
    rep = ss.subsymmetry_check(osys, ng.shift_tau(1), [15], ospace)  # fails on 15 alone
    assert rep == {"passed": False, "injective": True, "edge_violations": [],
                   "space_violations": [], "commute_violations": [], "unchecked": [15]}


@st.composite
def subsymmetry_cases(draw):
    """(label, system, tau, probe, space) with at most a few hundred
    patterns on each U_v: odometers with random moduli under the unit
    shift; random 1-D automata under a shift or the reflection v -> -v; the
    counterexample and its shift extension under their level or a base
    shift."""
    kind = draw(st.sampled_from(["odometer", "ca", "cex", "extension"]))
    if kind == "odometer":
        osys, ospace = ss.odometer_system(draw(st.lists(st.integers(2, 4), min_size=1,
                                                        max_size=5)))
        probe = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        return kind, osys, ng.shift_tau(draw(st.integers(0, 2))), probe, ospace
    if kind == "ca":
        k = draw(st.integers(2, 3))
        offsets = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3 if k == 3 else 4,
                                unique=True))
        table = draw(st.lists(st.integers(0, k - 1), min_size=k ** len(offsets),
                              max_size=k ** len(offsets)))
        ca, space = ss.ca_on_zd(k, [(o,) for o in offsets], table)
        tau = draw(st.sampled_from([ng.shift_tau((1,)), ng.shift_tau((-2,)),
                                    ng.Subisometry(map=lambda v: (-v[0],), label="flip")]))
        probe = draw(st.lists(st.integers(-4, 4).map(lambda n: (n,)), min_size=1, max_size=4))
        return kind, ca, tau, probe, space
    sysx, spx = cx.cex_rules(), cx.cex_space()
    if kind == "cex":
        probe = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
        return kind, sysx, ng.shift_tau(draw(st.integers(0, 3))), probe, spx
    ext, extspace, level = ss.shift_extension(sysx, spx, draw(st.sampled_from(
        [lambda a, b: a ^ b, lambda a, b: a & b])))
    tau = draw(st.sampled_from([level, ng.Subisometry(map=lambda w: (w[0] + 1, w[1]))]))
    probe = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(-2, 2)), min_size=1,
                          max_size=4))
    return kind, ext, tau, probe, extspace


def test_subsymmetry_matches_exact_oracle():
    """Commutation matches the one-pattern-at-a-time oracle, every witness
    breaks commutation, and the vertices that 20 sampled configurations
    flag (the check's former sampling) are among those it flags."""
    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(subsymmetry_cases(), st.integers(0, 2**32))
    def check(case, seed):
        kind, sys_, tau, probe, space = case
        rep = ss.subsymmetry_check(sys_, tau, probe, space)
        violations, unchecked = commutation_oracle(sys_, tau, probe, space)
        assert (rep["commute_violations"], rep["unchecked"]) == (violations, unchecked)
        for c in violations:
            assert not commutes_oracle(sys_, tau, c["vertex"], c["pattern"])
        flagged = {c["vertex"] for c in violations}
        assert sampled_commutation_oracle(sys_, tau, probe, space, 20, seed) <= flagged
        if violations or unchecked:
            assert not rep["passed"]
        seen.add((kind, "violated" if violations else "commutes"))

    check()
    assert seen == {(kind, verdict) for kind in ("odometer", "ca", "cex", "extension")
                    for verdict in ("violated", "commutes")}


def test_shift_extension_has_level_shift_symmetry(cex):
    sysx, spx = cex
    ext, extspace, tau = ss.shift_extension(sysx, spx, lambda a, b: a ^ b)
    probe = [(0, 0), (1, 0), (2, 1), (0, 2), (3, -1)]
    rep = ss.subsymmetry_check(ext, tau, probe, extspace)
    assert rep["passed"]


def test_subsymmetry_maps_and_reads_each_probe_vertex_once(cex):
    """tau runs once per probe vertex and once per rule input it maps, and
    the in-neighbors of each probe vertex and image are read once for the
    edge check and once when its rule is fetched, not once per probe pair."""
    ext, space, level = ss.shift_extension(*cex, lambda a, b: a ^ (b & 1))
    calls = {"tau": 0, "in": 0}

    def counted(fn, name):
        return lambda v: calls.update({name: calls[name] + 1}) or fn(v)

    tau = ng.Subisometry(counted(level, "tau"))
    ext.graph._in = counted(ext.graph._in, "in")
    probe = [(n, 0) for n in range(41)]
    assert ss.subsymmetry_check(ext, tau, probe, space)["passed"]
    inputs = sum(len(ext.rule(v).inputs) for v in probe)
    assert (calls, inputs) == ({"tau": 41 + inputs, "in": 4 * 41}, 88)


@pytest.mark.parametrize("vertex", [(-1, 0), (0, 1.0), (0, True), (0,), (0, 0, 0), 5])
def test_shift_extension_refuses_cells_off_its_graph(cex, vertex):
    """The extension's vertices are the pairs (v, n) of a base vertex v and
    an int n: cones, propagation and panoramas refuse anything else."""
    sysx, spx = cex
    ext, space, _ = ss.shift_extension(sysx, spx, lambda a, b: a ^ b)
    message = f"^{re.escape(f'vertex {vertex!r} is not a vertex of this graph')}$"
    for call in (lambda: kn.propagation(ext, vertex, 3),
                 lambda: ss.panorama(ext, space, [(0, 0), vertex], 2)):
        with pytest.raises(ValueError, match=message):
            call()
    assert kn.propagation(ext, (1, -2), 3) == kn.propagation(ext, (1, 7), 3) == [1, 3, 7, 14]


def test_shift_extension_shares_one_function_per_base_function(cex):
    """Cells whose base rules share a function share the extended one, so
    the kernel makes one call per group: two over the cex cells n < 16 on
    two levels."""
    sysx, spx = cex
    ext, _, _ = ss.shift_extension(sysx, spx, lambda a, b: a ^ b)
    region = [(v, level) for v in range(16) for level in range(2)]
    assert len({ext.rule(w).fn for w in region}) == len({sysx.rule(v).fn for v in range(16)}) == 2


# -- descriptors --------------------------------------------------------------------


def test_system_descriptor_roundtrip():
    desc = {
        "alphabet": 2,
        "graph": {"edges": [[1, 0], [0, 1]]},
        "rules": [
            {"vertex": 0, "inputs": [1], "table": [1, 0]},
            {"vertex": 1, "inputs": [0], "table": [0, 1]},
        ],
    }
    sys_, space = ss.system_from_descriptor(desc)
    traj = kn.evaluate(sys_, kn.Configuration({0: 0, 1: 0}), [0, 1], 2)
    assert traj == [{0: 0, 1: 0}, {0: 1, 1: 0}, {0: 1, 1: 1}]


_TWO_CYCLE = {"edges": [[1, 0], [0, 1]]}


@pytest.mark.parametrize("rules, message", [
    ([{"vertex": 0, "inputs": [1], "table": [1, 0]}], r"no rule for vertex 1"),
    ([{"vertex": 0, "inputs": [1], "table": [1, 0]},
      {"vertex": 1, "inputs": [0], "table": [0, 1]},
      {"vertex": 0, "inputs": [1], "table": [0, 1]}], r"two rules for vertex 0"),
    ([{"vertex": 0, "inputs": [1], "table": [1, 0]},
      {"vertex": 1, "inputs": [0], "table": [0, 1]},
      {"vertex": 2, "inputs": [0], "table": [0, 1]}], r"vertex 2, which is not in"),
    ([{"vertex": 0, "inputs": [1], "table": [1, 0]},
      {"vertex": 1, "inputs": [1], "table": [0, 1]}],
     r"rule at vertex 1: inputs \(1,\) != in-neighbors \(0,\)"),
    ([{"vertex": 0, "inputs": [0, 1], "table": [0, 1, 1, 0]},
      {"vertex": 1, "inputs": [0], "table": [0, 1]}], r"rule at vertex 0: inputs"),
])
def test_descriptor_rules_checked_at_load(rules, message):
    with pytest.raises(ValueError, match=message):
        ss.system_from_descriptor({"alphabet": 2, "graph": _TWO_CYCLE, "rules": rules})


def test_explicit_system_has_no_rule_off_its_graph():
    """A cell off an explicit graph has no rule, and the error names it.
    `subsymmetry_check` tests each probe image's membership before it
    fetches a rule, so a tau that leaves the graph stops at the graph."""
    sys_, space = ss.system_from_descriptor({"alphabet": 2, "graph": _TWO_CYCLE, "rules": [
        {"vertex": 0, "inputs": [1], "table": [1, 0]},
        {"vertex": 1, "inputs": [0], "table": [0, 1]}]})
    with pytest.raises(KeyError, match="^'no rule for vertex 2'$"):
        sys_.rule(2)
    with pytest.raises(KeyError, match="^'no rule for vertex 2'$"):
        ms.image_configuration(sys_, kn.Configuration({0: 0, 1: 1}), [0, 2])
    with pytest.raises(ValueError, match="^vertex 2, the image of probe vertex 1, is not a vertex"):
        ss.subsymmetry_check(sys_, lambda v: v + 1, [0, 1], space)


def test_equal_tables_share_one_rule_function():
    """Explicit vertices with one table share its function, so one step
    applies them in one call; another table, or the same entries over
    another alphabet, gets a function of its own."""
    sys_, _ = ss.system_from_descriptor({
        "alphabet": 2, "graph": {"edges": [[1, 0], [0, 1], [2, 2]]},
        "rules": [{"vertex": 0, "inputs": [1], "table": [1, 0]},
                  {"vertex": 1, "inputs": [0], "table": [1, 0]},
                  {"vertex": 2, "inputs": [2], "table": [0, 1]}]})
    assert sys_.rule(0).fn is sys_.rule(1).fn
    assert sys_.rule(2).fn is not sys_.rule(0).fn
    xor = kn.LocalRule.from_table([0, 1], [0, 1, 1, 0], 2)
    assert xor.fn is not kn.LocalRule.from_table([0], [0, 1, 1, 0], 4).fn
    assert len(kn.StepPlan(sys_, kn.columns(range(3)), range(3)).groups) == 2


def test_image_at_matches_image_on_many_rule_groups():
    """On an explicit system with a rule table per cell (some shared, some
    with repeated inputs), the step at random (row, cell) pairs, in any
    order and with repeats, is the step of the whole rows at those pairs;
    also when a group's pairs split over blocks."""
    rnd, k, n = random.Random(7), 3, 60
    tables = [[rnd.randrange(k) for _ in range(k**a)] for a in (1, 2, 2, 3) for _ in range(12)]
    rules, edges = [], set()
    for v in range(n):
        table = tables[rnd.randrange(len(tables))]
        arity = round(math.log(len(table), k))
        inputs = [rnd.randrange(n) for _ in range(arity - 1)]
        inputs.append(rnd.choice(inputs + [rnd.randrange(n)]))  # a repeat, about half the time
        rules.append({"vertex": v, "inputs": inputs, "table": table})
        edges.update((u, v) for u in inputs)
    assert any(len(set(r["inputs"])) < len(r["inputs"]) for r in rules)
    graph = {"edges": [list(e) for e in sorted(edges)]}
    sys_, _ = ss.system_from_descriptor({"alphabet": k, "graph": graph, "rules": rules})
    plan = kn.StepPlan(sys_, kn.columns(range(n)), range(n))
    assert 20 < len(plan.groups) < n
    rows = np.array([[rnd.randrange(k) for _ in range(n)] for _ in range(9)], dtype=np.uint8)
    image = plan.image(np.ascontiguousarray(rows.T), n).T  # `image` steps columns
    which = np.array([rnd.randrange(len(rows)) for _ in range(500)])
    at = np.array([rnd.randrange(n) for _ in range(500)])
    for block in (1, 5, kn._BLOCK):
        with mock.patch.object(kn, "_BLOCK", block):
            assert plan.image_at(rows, which, at).tolist() == image[which, at].tolist()
    assert plan.image_at(rows, which[:0], at[:0]).tolist() == []


def test_descriptor_rule_off_a_named_graph():
    with pytest.raises(ValueError, match=r"rule for vertex 0, which is not in the graph"):
        ss.system_from_descriptor({
            "alphabet": 2,
            "graph": {"family": "cayley_zd", "D": 1},
            "rules": [{"vertex": 0, "inputs": [1], "table": [0, 1]}],
        })


def test_descriptor_with_grid_vertices():
    sys_, _ = ss.system_from_descriptor({
        "alphabet": 2,
        "graph": {"edges": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]},
        "rules": [
            {"vertex": [0, 0], "inputs": [[0, 1]], "table": [1, 0]},
            {"vertex": [0, 1], "inputs": [[0, 0]], "table": [0, 1]},
        ],
    })
    x = kn.Configuration({(0, 0): 0, (0, 1): 0})
    assert kn.evaluate(sys_, x, [(0, 0)], 2) == [{(0, 0): 0}, {(0, 0): 1}, {(0, 0): 1}]


def test_named_descriptors():
    for desc in (
        {"system": "odometer", "m": [2, 2]},
        {"system": "full_shift", "alphabet": 3},
        {"system": "counterexample"},
    ):
        sys_, space = ss.system_from_descriptor(desc)
        assert space.allowed(0)


@pytest.mark.parametrize("desc, message", [
    ({"system": "full_shift", "alphabet": 2.7}, "alphabet must be an integer, got 2.7"),
    ({"system": "full_shift", "alphabet": True}, "alphabet must be an integer, got True"),
    ({"system": "odometer", "m": [2.5]}, "modulus in m must be an integer, got 2.5"),
    ({"system": "ca_zd", "alphabet": "2", "offsets": [[0]], "table": [0, 1]},
     "alphabet must be an integer, got '2'"),
    ({"alphabet": 2.0, "graph": {"edges": [[0, 0]]},
      "rules": [{"vertex": 0, "inputs": [0], "table": [0, 1]}]},
     "alphabet must be an integer, got 2.0"),
    ({"alphabet": 2, "graph": {"family": "cayley_zdne", "D": 1.5, "E": 1}, "rules": []},
     "D must be an integer, got 1.5"),
    ({"alphabet": 2, "graph": {"family": "cayley_zdne", "D": 1, "E": 1.0}, "rules": []},
     "E must be an integer, got 1.0"),
    ({"alphabet": 2, "graph": {"family": "cayley_zd", "D": True}, "rules": []},
     "D must be an integer, got True"),
])
def test_descriptor_integers_are_not_truncated(desc, message):
    """Descriptor integers are JSON integers: a float or a boolean is refused,
    not truncated to the integer it rounds toward."""
    with pytest.raises(ValueError, match=re.escape(message)):
        ss.system_from_descriptor(desc)


def test_descriptor_rejects_out_of_range_entry():
    desc = {
        "alphabet": 2,
        "graph": {"edges": [[0, 0]]},
        "rules": [{"vertex": 0, "inputs": [0], "table": [0, 5]}],
    }
    with pytest.raises(ValueError, match=r"vertex 0: table entry 1 is 5"):
        ss.system_from_descriptor(desc)


@pytest.mark.parametrize(
    "table, message",
    [
        ([0, 1, 1], r"table has 3 entries, expected 2"),
        (["0", 1], r"table entry 0 is '0'"),
        ([True, 0], r"table entry 0 is True"),
        ([0, -1], r"table entry 1 is -1"),
        ([0, 1.0], r"table entry 1 is 1.0"),
    ],
)
def test_from_table_rejects_bad_tables(table, message):
    with pytest.raises(ValueError, match=message):
        kn.LocalRule.from_table([7], table, 2)


def test_ca_table_checked_at_construction():
    with pytest.raises(ValueError, match="table entry 3 is 2"):
        ss.ca_on_zd(2, [(0,), (1,)], [0, 1, 1, 2])
    with pytest.raises(ValueError, match="expected 4"):
        ss.ca_on_zd(2, [(0,), (1,)], [0, 1, 1])


def test_ca_step_reads_inputs_in_offset_order():
    """Cell v reads (x[v+1], x[v], x[v+1], x[v-1]) as the table's row,
    duplicate included, most significant first."""
    table = [0] * 16
    table[0b1011] = table[0b0111] = 1
    ca, _ = ss.ca_on_zd(2, [(1,), (0,), (1,), (-1,)], table)
    x = kn.Configuration({(-1,): 1, (0,): 0, (1,): 1, (2,): 1})
    # v = 0 reads (1, 0, 1, 1) = 11 -> 1; v = 1 reads (1, 1, 1, 0) = 14 -> 0
    assert kn.evaluate(ca, x, [(0,), (1,)], 1) == [{(0,): 0, (1,): 1}, {(0,): 1, (1,): 0}]


@pytest.mark.parametrize("value", ["0", "abc", "-1", ""])
def test_thread_count_rejects_non_positive(monkeypatch, value):
    monkeypatch.setenv("SYMDYN_THREADS", value)
    with pytest.raises(ValueError, match="SYMDYN_THREADS"):
        ss._thread_count()


def test_thread_count_values(monkeypatch):
    monkeypatch.setenv("SYMDYN_THREADS", "1")
    assert ss._thread_count() == 1
    monkeypatch.delenv("SYMDYN_THREADS")
    assert 1 <= ss._thread_count() <= 2
