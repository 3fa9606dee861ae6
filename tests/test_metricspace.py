"""Based Cantor metrics: intervals, Lipschitz/Holder sampling, cover dims."""

from __future__ import annotations

import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symdyn import kernel as kn
from symdyn import metricspace as ms
from symdyn import netgraph as ng
from symdyn import symsys as ss
from symdyn import counterexample as cx

from conftest import (
    covered_radius_oracle,
    dist_oracle,
    fresh_ball,
    holder_report_oracle,
    image_configuration_oracle,
    lipschitz_report_oracle,
    metric_dim_estimate_oracle,
    planted_pair_oracle,
    pseudo_dist_oracle,
    read_cells_oracle,
    words_per_call,
)


@pytest.fixture
def z2_metric(z2):
    return ms.single_estuary_metric(z2, (0, 0), 2.0)


@pytest.fixture
def binary_space():
    return kn.PatternSpace.full(kn.Alphabet(2))


def _config_on_ball(space, g, center, radius, rng):
    return space.random_configuration(g.ball_members([center], radius), rng)


# -- pseudometric ----------------------------------------------------------------


def test_pseudo_dist_full_agreement(z2, z2_metric, binary_space):
    rng = random.Random(0)
    x = _config_on_ball(binary_space, z2, (0, 0), 6, rng)
    y = kn.Configuration(dict(x.values))
    b = ms.pseudo_dist(z2_metric, (0, 0), x, y, r_cap=5)
    assert (b.lo, b.hi) == (0.0, 2.0**-5)


def test_pseudo_dist_exact_at_disagreement(z2, z2_metric, binary_space):
    rng = random.Random(1)
    x = _config_on_ball(binary_space, z2, (0, 0), 6, rng)
    shell = sorted(z2.ball_members([(0, 0)], 4) - z2.ball_members([(0, 0)], 3))
    y = dict(x.values)
    y[shell[0]] ^= 1
    b = ms.pseudo_dist(z2_metric, (0, 0), x, kn.Configuration(y))
    assert b.lo == b.hi == 0.125  # agreement radius 3


def test_pseudo_dist_center_disagreement_caps_at_one(z2, z2_metric, binary_space):
    rng = random.Random(2)
    x = _config_on_ball(binary_space, z2, (0, 0), 3, rng)
    y = dict(x.values)
    y[(0, 0)] ^= 1
    b = ms.pseudo_dist(z2_metric, (0, 0), x, kn.Configuration(y))
    assert b.lo == b.hi == 1.0


def test_pseudo_dist_closed_ball_is_covered_up_to_the_cap():
    g = ng.explicit_graph([(0, 1), (1, 2), (2, 0)])  # B(0, r) closes at r = 2
    metric = ms.single_estuary_metric(g, 0, 2.0)
    x = kn.Configuration({0: 1, 1: 0, 2: 1})
    for r_cap, hi in ((None, 2.0**-2), (1, 2.0**-1), (5, 2.0**-5)):
        b = ms.pseudo_dist(metric, 0, x, x, r_cap)
        assert (b.lo, b.hi) == (0.0, hi) == pseudo_dist_oracle(metric, 0, x, x, r_cap)


def test_pseudo_dist_domain_mismatch(z2, z2_metric):
    x = kn.Configuration({(0, 0): 0})
    y = kn.Configuration({(0, 0): 0, (1, 0): 1})
    with pytest.raises(ms.DomainMismatchError):
        ms.pseudo_dist(z2_metric, (0, 0), x, y)


# -- based distance ----------------------------------------------------------------


def test_dist_two_anchor_exact():
    g = ng.unit_shift_graph()
    scheme = ms.CoefficientScheme.finite([0, 4], [0.5, 0.5])
    metric = ms.BasedMetric(scheme=scheme, lam=2.0, graph=g)
    domain = range(0, 10)
    x = kn.Configuration({v: 0 for v in domain})
    y = dict(x.values)
    # anchor 0 first sees cell 2 at radius 2, anchor 4 sees cell 7 at radius 3
    y[2] = 1
    y[7] = 1
    b = ms.dist(metric, x, kn.Configuration(y))
    assert b.lo == b.hi == 0.5 * 0.5 + 0.5 * 0.25


def test_dist_agreement_bound_includes_tail(z2, binary_space):
    scheme = ms.CoefficientScheme([(0, 0)], [1.0], tail_bound=0.001)
    metric = ms.BasedMetric(scheme=scheme, lam=2.0, graph=z2)
    rng = random.Random(3)
    x = _config_on_ball(binary_space, z2, (0, 0), 4, rng)
    b = ms.dist(metric, x, kn.Configuration(dict(x.values)))
    assert b.lo == 0.0
    assert b.hi == pytest.approx(2.0**-4 + 0.001)


def test_dist_tolerance_unreachable(z2, binary_space):
    scheme = ms.CoefficientScheme([(0, 0)], [1.0])
    metric = ms.BasedMetric(scheme=scheme, lam=2.0, graph=z2)
    rng = random.Random(4)
    x = _config_on_ball(binary_space, z2, (0, 0), 2, rng)
    y = kn.Configuration(dict(x.values))
    with pytest.raises(ms.ToleranceUnreachableError):
        ms.dist(metric, x, y, tol=1e-6)


def test_metric_axioms_sampled(z2, z2_metric, binary_space):
    rng = random.Random(5)
    domain = ng.sort_vertices(z2.ball_members([(0, 0)], 5))
    for _ in range(30):
        x = binary_space.random_configuration(domain, rng)
        y = binary_space.random_configuration(domain, rng)
        z = binary_space.random_configuration(domain, rng)
        dxy = ms.dist(z2_metric, x, y)
        dyx = ms.dist(z2_metric, y, x)
        assert (dxy.lo, dxy.hi) == (dyx.lo, dyx.hi)  # symmetric exactly
        dxz = ms.dist(z2_metric, x, z)
        dzy = ms.dist(z2_metric, z, y)
        assert dxy.lo <= dxz.hi + dzy.hi + 1e-12  # triangle, interval slack


def test_self_distance_upper_shrinks_with_domain(z2, z2_metric, binary_space):
    rng = random.Random(6)
    his = []
    for radius in (2, 4, 6):
        x = _config_on_ball(binary_space, z2, (0, 0), radius, rng)
        his.append(ms.dist(z2_metric, x, kn.Configuration(dict(x.values))).hi)
    assert his[0] > his[1] > his[2]


# -- coefficient schemes -------------------------------------------------------------


def test_finite_scheme_is_precipitous():
    scheme = ms.CoefficientScheme.finite([0, 1, 2], [0.5, 0.25, 0.125])
    rep = scheme.precipitous_report()
    assert rep["precipitous"]


def test_double_exponential_scheme_is_precipitous():
    scheme = ms.CoefficientScheme.double_exponential(range(100))
    assert scheme.kind == "doubleexp"
    assert scheme.coeffs[0] == pytest.approx(math.exp(-1.0))
    rep = scheme.precipitous_report()
    assert rep["precipitous"]
    ratios = [p["ratio"] for p in rep["points"]]
    assert ratios[-1] < ratios[0]


@pytest.mark.parametrize("tol", [1e-12, 0.0])
def test_double_exponential_tail_bound_covers_the_omitted_mass(tol):
    """On 1..10 vertices the tail bound is at least the mass of the omitted
    coefficients, summed to j = 40.  The default tolerance keeps 4 of them;
    tol 0 keeps every one until c_j underflows at j = 7."""
    for n in range(1, 11):
        scheme = ms.CoefficientScheme.double_exponential(range(n), tol)
        stored = len(scheme.coeffs)
        assert stored == min(n, 4 if tol else 7)
        omitted = math.fsum(math.exp(-math.exp(j)) * math.exp(j) for j in range(stored, 41))
        assert scheme.tail_bound >= omitted, (n, scheme.tail_bound, omitted)


def test_slow_decay_is_not_precipitous():
    # c_j ~ j^-2 has tails ~ 1/J, so the cutoff index blows up like 1/eps
    n = 4000
    coeffs = [1.0 / (j + 1) ** 2 for j in range(n)]
    scheme = ms.CoefficientScheme(list(range(n)), coeffs, tail_bound=1.0 / n)
    rep = scheme.precipitous_report([2.0 ** (-k) for k in range(4, 11)])
    assert not rep["precipitous"]


def test_precipitous_report_respects_truncation():
    scheme = ms.CoefficientScheme([0], [1.0], tail_bound=0.01)
    with pytest.raises(ms.ToleranceUnreachableError):
        scheme.prefix_length(1e-6)


@pytest.mark.parametrize("scheme", [ms.CoefficientScheme.finite([], []),
                                    ms.CoefficientScheme.double_exponential([])])
@pytest.mark.parametrize("call", [
    lambda sys_, m, space: ms.lipschitz_report(sys_, m, space, 10, seed=1),
    lambda sys_, m, space: ms.holder_report(sys_, m, m, 1.0, 1.0, space, [(0, 0)], 10),
    lambda sys_, m, space: ms.metric_dim_estimate(space, m, [0.5, 0.25]),
])
def test_metric_without_an_estuary_vertex_is_refused(z2, scheme, call):
    """A scheme with no vertex has nothing to measure from: the metric is
    refused when built, before a sweep or a cover count can fail on it."""
    sys_, space = ss.ca_on_zd(2, [(0, 0), (1, 0)], [0, 1, 1, 0])
    with pytest.raises(ValueError, match="^estuary must be nonempty$"):
        call(sys_, ms.BasedMetric(scheme, 2.0, z2), space)


# -- Lipschitz and Holder --------------------------------------------------------------


def _xor_automaton():
    offsets = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    table = [sum(bits) % 2 for bits in itertools.product((0, 1), repeat=5)]
    return ss.ca_on_zd(2, offsets, table)


def test_lipschitz_ca_on_z2(z2, z2_metric):
    ca, space = _xor_automaton()
    rep = ms.lipschitz_report(ca, z2_metric, space, samples=400, seed=7, r_cap=6)
    assert rep["within_lambda"]
    assert rep["max_ratio_hi"] <= 2.0 + 1e-9


def test_lipschitz_identity_map(z2, z2_metric, binary_space):
    ident_rule = lambda v: kn.LocalRule(inputs=(v,), fn=lambda a: a[0])
    loop = ng.Digraph(lambda v: [v], lambda v: [v], universe={"family": "loops"})
    ident = kn.SymbolicSystem(kn.Alphabet(2), loop, ident_rule)
    metric = ms.single_estuary_metric(loop, (0, 0), 2.0)
    rep = ms.lipschitz_report(ident, metric, binary_space, samples=100, seed=8,
                              r_cap=4)
    assert rep["max_ratio_hi"] <= 1.0 + 1e-9


def test_lipschitz_shift_attains_lambda():
    sys_, space = ss.full_shift(2)
    metric = ms.single_estuary_metric(sys_.graph, 0, 2.0)
    rep = ms.lipschitz_report(sys_, metric, space, samples=500, seed=9, r_cap=6)
    assert rep["within_lambda"]
    assert rep["max_ratio_hi"] == pytest.approx(2.0)


def test_holder_identity_between_bases(z2, binary_space):
    # with d' built on lambda^2, the identity is exactly eta=2 Holder
    m2 = ms.single_estuary_metric(z2, (0, 0), 2.0)
    m4 = ms.single_estuary_metric(z2, (0, 0), 4.0)
    domain = z2.ball_members([(0, 0)], 8)
    rep = ms.holder_report(None, m2, m4, eta=2.0, lam_const=1.0,
                           space=binary_space, domain=domain, samples=150,
                           seed=10)
    assert rep["passed"]
    assert rep["violations"] == 0


def test_holder_eta_one_for_lipschitz(z2, binary_space):
    m2 = ms.single_estuary_metric(z2, (0, 0), 2.0)
    domain = z2.ball_members([(0, 0)], 8)
    rep = ms.holder_report(None, m2, m2, eta=1.0, lam_const=1.0,
                           space=binary_space, domain=domain, samples=100,
                           seed=11)
    assert rep["passed"]


def test_holder_overreaching_eta_fails(z2, binary_space):
    # d' = d^2 cannot satisfy d' <= d^3 at small distances
    m2 = ms.single_estuary_metric(z2, (0, 0), 2.0)
    m4 = ms.single_estuary_metric(z2, (0, 0), 4.0)
    domain = z2.ball_members([(0, 0)], 8)
    rep = ms.holder_report(None, m2, m4, eta=3.0, lam_const=1.0,
                           space=binary_space, domain=domain, samples=150,
                           seed=12)
    assert not rep["passed"]
    assert rep["worst"] is not None


def test_lipschitz_criterion_7_pinned(z2_metric):
    # derived from the one-pair-at-a-time sweep (`lipschitz_report_oracle`);
    # the random stream and every float must be reproduced exactly
    ca, space = _xor_automaton()
    rep = ms.lipschitz_report(ca, z2_metric, space, samples=10_000, seed=1, r_cap=6)
    assert rep == {
        "samples": 10_000,
        "skipped": 0,
        "max_ratio_hi": 2.0,
        "worst": {"sample": 0, "cell": (1, -1), "pre": (0.5, 0.5),
                  "post": (1.0, 1.0)},
        "flagged": [],
        "lambda": 2.0,
        "within_lambda": True,
    }


def test_lipschitz_multi_anchor_doubleexp_pinned(z2):
    # derived from the one-pair-at-a-time sweep, like the test above
    ca, space = _xor_automaton()
    anchors = [(0, 0), (3, 1), (-2, 2), (1, -4), (5, 5)]
    metric = ms.BasedMetric(
        scheme=ms.CoefficientScheme.double_exponential(anchors), lam=3.0, graph=z2
    )
    rep = ms.lipschitz_report(ca, metric, space, samples=1500, seed=0, r_cap=5)
    assert rep["skipped"] == 0
    assert rep["max_ratio_hi"] == 537762.2908832699
    assert rep["worst"] == {
        "sample": 277, "cell": (1, -7),
        "pre": (4.22282500449373e-09, 0.0007569586828052341),
        "post": (1.2668475013481192e-08, 0.0022708760484157027),
    }
    assert len(rep["flagged"]) == 649
    assert rep["flagged"][:3] == [
        {"sample": 0, "ratio_hi": 3.0185185771689835},
        {"sample": 1, "ratio_hi": 3.0003090368979133},
        {"sample": 4, "ratio_hi": 179256.09696108996},
    ]


def test_lipschitz_single_symbol_space_skips_everything():
    sys_, _ = ss.full_shift(2)
    metric = ms.single_estuary_metric(sys_.graph, 0, 2.0)
    space = kn.PatternSpace(lambda v: (0,))
    rep = ms.lipschitz_report(sys_, metric, space, samples=50, seed=2, r_cap=6)
    assert rep == lipschitz_report_oracle(sys_, metric, space, 50, seed=2, r_cap=6)
    assert rep["skipped"] == 50 and rep["worst"] is None


@pytest.mark.parametrize("samples", [7, ms._SWEEP_ROWS + 37])
def test_lipschitz_chunks_match_oracle_sweep(samples):
    """Below one chunk, and across a chunk boundary with a partial chunk."""
    sys_, space = ss.full_shift(2, "Z")
    metric = ms.BasedMetric(
        scheme=ms.CoefficientScheme.double_exponential([0, 3, -2]), lam=2.0,
        graph=sys_.graph,
    )
    rep = ms.lipschitz_report(sys_, metric, space, samples, seed=5, r_cap=4)
    assert rep == lipschitz_report_oracle(sys_, metric, space, samples, seed=5, r_cap=4)
    assert rep["flagged"]


def test_sweeps_on_mixed_sizes_match_one_call_per_cell(monkeypatch):
    """Cells of 2, 3 and 1 symbols, some sets not starting at 0: both sweeps
    draw the pairs of one `rng.random()` per pick, so each report equals its
    oracle sweep and both equal the sweeps on per-call draws."""
    sets = [(0, 1), (0, 1, 2), (2,), (1, 2)]
    space = kn.PatternSpace(lambda v: sets[v % 4])
    sys_, _ = ss.full_shift(3, "Z")
    metric = ms.BasedMetric(scheme=ms.CoefficientScheme.double_exponential([0, 3, -2]),
                            lam=2.0, graph=sys_.graph)
    m2, m4 = (ms.single_estuary_metric(sys_.graph, 0, lam) for lam in (2.0, 4.0))
    domain = sys_.graph.ball_members([0], 6)

    def sweeps():
        return (ms.lipschitz_report(sys_, metric, space, 300, seed=3, r_cap=4),
                ms.holder_report(None, m2, m4, eta=2.0, lam_const=1.0, space=space,
                                 domain=domain, samples=300, seed=4))

    lipschitz, holder = sweeps()
    assert lipschitz["skipped"] and lipschitz["flagged"]
    assert holder["holds"] and holder["inconclusive"] and holder["passed"]
    assert lipschitz == lipschitz_report_oracle(sys_, metric, space, 300, seed=3, r_cap=4)
    assert holder == holder_report_oracle(None, m2, m4, 2.0, 1.0, space, domain, 300, seed=4)
    calls = []
    monkeypatch.setattr(ms, "words", lambda *args: calls.append(args) or words_per_call(*args))
    assert sweeps() == (lipschitz, holder)
    assert calls


@pytest.mark.parametrize("kind", ["identity", "step"])
@pytest.mark.parametrize("samples", [7, ms._SWEEP_ROWS + 37])
def test_holder_matches_oracle_sweep(z2, kind, samples):
    """The identity and one XOR-automaton step, under a 3-anchor metric, below
    one chunk and across a chunk boundary: each report equals the sweep of
    one pair at a time, and the settings both hold and violate."""
    ca, space = _xor_automaton()
    anchors = [(0, 0), (2, 1), (-1, -2)]
    m2, m4 = (ms.BasedMetric(scheme=ms.CoefficientScheme.double_exponential(anchors),
                             lam=lam, graph=z2) for lam in (2.0, 4.0))
    domain = z2.ball_members(anchors, 4)
    sys_ = None if kind == "identity" else ca
    seen = set()
    for eta, constant in [(1.0, 2.0), (1.5, 1.0), (1.0, 1.0)]:
        rep = ms.holder_report(sys_, m2, m4, eta, constant, space, domain, samples, seed=6)
        assert rep == holder_report_oracle(sys_, m2, m4, eta, constant, space, domain,
                                           samples, seed=6)
        seen |= {key for key in ("holds", "violations") if rep[key]}
    assert seen == {"holds", "violations"}


@st.composite
def sweep_cases(draw):
    """A random explicit system on 3 symbols whose rules are the shared
    functions sum and weighted sum (so cells of one arity share a group) or
    tables of their own, some reading an input twice; allowed sets of one,
    two and three symbols, one of them (1, 0, 2); a metric on one to three
    anchors; a sample count below, at or across the sweep's chunk."""
    rnd = draw(st.randoms(use_true_random=False))
    k, n = 3, draw(st.integers(3, 7))
    shared = [lambda a: sum(a) % k,
              lambda a: (1 + sum((i + 1) * x for i, x in enumerate(a))) % k]
    rules = {}
    for v in range(n):
        inputs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        inputs += inputs[:1] * draw(st.integers(0, 1))
        kind = draw(st.integers(0, 2))
        rules[v] = (kn.LocalRule(tuple(inputs), shared[kind]) if kind < 2 else
                    kn.LocalRule.from_table(inputs, [rnd.randrange(k) for _ in range(k ** len(inputs))], k))
    graph = ng.explicit_graph([(u, v) for v, r in rules.items() for u in set(r.inputs)])
    sys_ = kn.SymbolicSystem(kn.Alphabet(k), graph, rules.__getitem__)
    sets = [(1, 0, 2), (2,)] + [draw(st.sampled_from([(0, 1), (0, 1, 2), (2, 0), (1,)]))
                                for _ in range(n - 2)]
    rnd.shuffle(sets)
    space = kn.PatternSpace(sets.__getitem__)
    anchors = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    if draw(st.booleans()):
        scheme = ms.CoefficientScheme.double_exponential(anchors)
    else:
        scheme = ms.CoefficientScheme(anchors, [rnd.uniform(0.01, 1.0) for _ in anchors],
                                      tail_bound=rnd.choice([0.0, 0.05]))
    metric = ms.BasedMetric(scheme=scheme, lam=draw(st.sampled_from([1.5, 2.0, 3.0])),
                            graph=graph)
    rows = ms._SWEEP_ROWS
    samples = draw(st.sampled_from([1, 9, rows - 1, rows, rows + 1, 2 * rows + 5]))
    return sys_, metric, space, samples, draw(st.integers(1, 4)), draw(st.integers(0, 9))


def test_lipschitz_sweep_matches_oracle_on_explicit_systems():
    """The sweep, which images y only at the readers of its planted cell,
    returns the report of the one-pair-at-a-time oracle."""
    seen = set()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(sweep_cases())
    def check(case):
        sys_, metric, space, samples, r_cap, seed = case
        rep = ms.lipschitz_report(sys_, metric, space, samples, seed=seed, r_cap=r_cap)
        assert rep == lipschitz_report_oracle(sys_, metric, space, samples, seed=seed,
                                              r_cap=r_cap)
        region = metric.graph.ball_members(metric.scheme.vertices, r_cap)
        fns = [sys_.rule(w).fn for w in region]
        if len(set(fns)) > 1:
            seen.add("several rules")
        if len(set(fns)) < len(fns):
            seen.add("a shared rule")
        if len(set(metric.scheme.vertices)) > 1:
            seen.add("several anchors")
        if rep["flagged"]:
            seen.add("flagged")
        if rep["skipped"]:
            seen.add("skipped")
        seen.add("below a chunk" if samples < ms._SWEEP_ROWS else
                 "one chunk" if samples == ms._SWEEP_ROWS else "across chunks")

    check()
    assert seen == {"several rules", "a shared rule", "several anchors", "flagged",
                    "skipped", "below a chunk", "one chunk", "across chunks"}


def _with_bad_value(sys_, w, args):
    """The system with the rule at w giving the non-symbol k on `args`."""
    rule, k = sys_.rule(w), sys_.alphabet.size

    def fn(a):
        hit = np.logical_and.reduce([np.asarray(x) == b for x, b in zip(a, args)])
        return np.where(hit, k, rule.fn(a))

    bad = kn.LocalRule(rule.inputs, fn)
    return kn.SymbolicSystem(sys_.alphabet, sys_.graph,
                             lambda v: bad if v == w else sys_.rule(v))


@pytest.mark.parametrize("reads_planted_cell", [True, False])
def test_lipschitz_checks_every_image_value(z2, z2_metric, reads_planted_cell):
    """A rule value outside the alphabet raises, naming its vertex: on y's
    row at a cell that reads the planted cell, where y is imaged apart from
    x, and at a cell that does not, where x's full image holds the value."""
    ca, space = _xor_automaton()
    reads = read_cells_oracle(ca, space, z2.ball_members([(0, 0)], 4),
                              z2.ball_members([(0, 0)], 3))
    x, cell, y = planted_pair_oracle(z2_metric, space, reads, 2, random.Random(4))
    if reads_planted_cell:
        w = next(v for v in ng.sort_vertices(z2.ball_members([(0, 0)], 3))
                 if cell in ca.rule(v).inputs and v != cell)
    else:
        w = (3, 0)
        assert cell not in ca.rule(w).inputs
    bad = _with_bad_value(ca, w, [y.values[u] for u in ca.rule(w).inputs])
    assert bool(image_configuration_oracle(bad, x, [w]).values[w] == 2) != reads_planted_cell
    with pytest.raises(ValueError, match=re.escape(f"rule at vertex {w!r} gave 2")):
        ms.lipschitz_report(bad, z2_metric, space, samples=1, seed=4, r_cap=3)


def test_sweeps_check_rule_values_before_drawing(z2, z2_metric, monkeypatch):
    """A rule that gives a non-symbol on one input tuple, at a cell that
    reads no plantable cell, raises before anything is drawn, on every
    seed: also on the seeds whose x never shows that tuple there."""
    ca, space = _xor_automaton()
    w, args = (3, 0), (1, 0, 1, 1, 0)
    bad = _with_bad_value(ca, w, args)
    domain = ng.sort_vertices(z2.ball_members([(0, 0)], 4))
    message = re.escape(f"rule at vertex {w!r} gave 2")
    reads = read_cells_oracle(ca, space, domain, z2.ball_members([(0, 0)], 3))
    misses = 0
    for seed in range(6):
        x, cell, _ = planted_pair_oracle(z2_metric, space, reads, 2, random.Random(seed))
        assert cell not in ca.rule(w).inputs
        misses += tuple(x.values[u] for u in ca.rule(w).inputs) != args
        monkeypatch.setattr(ms, "words", None)  # a draw would raise TypeError
        with pytest.raises(ValueError, match=message):
            ms.lipschitz_report(bad, z2_metric, space, samples=1, seed=seed, r_cap=3)
        with pytest.raises(ValueError, match=message):
            ms.holder_report(bad, z2_metric, z2_metric, 1.0, 1.0, space, domain, 1, seed)
        with pytest.raises(TypeError):  # the sweeps draw through the binding patched
            ms.lipschitz_report(ca, z2_metric, space, samples=1, seed=seed, r_cap=3)
        monkeypatch.undo()
    assert misses >= 4


def test_value_check_raises_no_false_alarm():
    """Rules that give a non-symbol only where two reads of one cell differ
    (a repeated `ca_on_zd` offset), or only on symbols that the cell they
    read does not allow (cells of 4, 2 and 1 symbols), pass the check, and
    both sweeps equal their oracles."""
    ca, _ = ss.ca_on_zd(3, [(0,), (0,), (1,)], [0] * 27)

    def twice(a):
        return np.where(a[0] == a[1], (a[0] + a[2]) % 3, 3)

    repeated = kn.SymbolicSystem(ca.alphabet, ca.graph,
                                 lambda v: kn.LocalRule(ca.rule(v).inputs, twice))
    sets = [(0, 1, 2, 3), (0, 1), (1,), (0, 1), (2, 0)]
    allowed = [lambda a, s=s: np.where(np.isin(a[0], s), a[0], 4) for s in sets]
    shift = ss.full_shift(4, "Z")[0]
    restricted = kn.SymbolicSystem(
        shift.alphabet, shift.graph,
        lambda v: kn.LocalRule((v + 1,), allowed[(v + 1) % len(sets)]))
    cases = [(repeated, kn.PatternSpace.full(kn.Alphabet(3)), (0,), (-1,)),
             (restricted, kn.PatternSpace(lambda v: sets[v % len(sets)]), 0, -1)]
    for sys_, space, anchor, other in cases:
        metric = ms.BasedMetric(ms.CoefficientScheme.double_exponential([anchor, other]),
                                2.0, sys_.graph)
        domain = sys_.graph.ball_members([anchor, other], 4)
        assert (ms.lipschitz_report(sys_, metric, space, 300, seed=2, r_cap=4)
                == lipschitz_report_oracle(sys_, metric, space, 300, seed=2, r_cap=4))
        assert (ms.holder_report(sys_, metric, metric, 1.0, 2.0, space, domain, 300, seed=3)
                == holder_report_oracle(sys_, metric, metric, 1.0, 2.0, space, domain, 300,
                                        seed=3))


def test_value_check_leaves_wide_cells_to_the_drawn_rows():
    """A cell whose distinct inputs have more than TABLE_MAX allowed patterns
    is not checked up front: its values are checked on x at every kept pair,
    also where it reads no planted cell.  A bad value on half of its inputs
    raises; one on a single tuple that no pair draws does not."""
    k = 300
    assert k * k > kn.TABLE_MAX
    graph = ss.ca_on_zd(2, [(0,), (1,)], [0] * 4)[0].graph

    def add(a):
        return (a[0] + a[1]) % k

    def system(bad):  # (2,) reads (2,) and (3,); the planted cell is (0,) or (1,)
        return kn.SymbolicSystem(kn.Alphabet(k), graph, lambda v: kn.LocalRule(
            graph.in_neighbors(v), bad if v == (2,) else add))

    metric = ms.single_estuary_metric(graph, (0,), 2.0)
    space = kn.PatternSpace.full(kn.Alphabet(k))
    half = system(lambda a: np.where(a[0] < k // 2, k, add(a)))
    with pytest.raises(ValueError, match=re.escape(f"rule at vertex (2,) gave {k}")):
        ms.lipschitz_report(half, metric, space, 50, seed=1, r_cap=3)
    one = system(lambda a: np.where((a[0] == 7) & (a[1] == 7), k, add(a)))
    assert (ms.lipschitz_report(one, metric, space, 50, seed=1, r_cap=3)
            == lipschitz_report_oracle(one, metric, space, 50, seed=1, r_cap=3))


@pytest.mark.parametrize("samples", [7, ms._SWEEP_ROWS + 37])
def test_sweeps_read_every_value_of_each_sample(z2, z2_metric, monkeypatch, samples):
    """A sample reads W + 4 values of the generator, W the most cells that a
    pair reads x on (`read_cells_oracle`): 1 for the identity, and never more
    than the domain, so no sweep reads more than one value per domain cell
    and four.  After each sweep the generator stands where that many calls
    of `random()` leave it."""
    ca, space = _xor_automaton()
    domain = z2.ball_members([(0, 0)], 4)
    lipschitz_domain = z2.ball_members([(0, 0)], 5)
    step_region = [w for w in domain if domain.issuperset(ca.rule(w).inputs)]
    rngs, words = [], ms.words
    monkeypatch.setattr(ms, "words", lambda rng, count: rngs.append(rng) or words(rng, count))
    for sweep, reads, size in [
            (lambda: ms.lipschitz_report(ca, z2_metric, space, samples, seed=3, r_cap=4),
             read_cells_oracle(ca, space, lipschitz_domain, domain), len(lipschitz_domain)),
            (lambda: ms.holder_report(ca, z2_metric, z2_metric, 1.0, 1.0, space, domain,
                                      samples, seed=3),
             read_cells_oracle(ca, space, domain, step_region), len(domain)),
            (lambda: ms.holder_report(None, z2_metric, z2_metric, 1.0, 1.0, space, domain,
                                      samples, seed=3),
             read_cells_oracle(None, space, domain, domain), len(domain))]:
        width = max(map(len, reads.values()))
        assert 1 <= width <= size
        rngs.clear()
        sweep()
        expected = random.Random(3)
        for _ in range(samples * (width + 4)):
            expected.random()
        assert len(rngs) == -(-samples // ms._SWEEP_ROWS)
        assert all(rng is rngs[0] for rng in rngs)
        assert rngs[0].getstate() == expected.getstate()
    assert width == 1


def test_lipschitz_memory_stays_flat_in_the_alphabet():
    """On 2^16 symbols the new symbol is picked by an index shift past x's
    symbol, without a (pairs x symbols) matrix and its int64 cumsum, which
    would take about 800 MB for one chunk: the sweep peaks at a few MB."""
    sys_, space = ss.full_shift(2**16)
    metric = ms.single_estuary_metric(sys_.graph, 0, 2.0)
    tracemalloc.start()
    try:
        rep = ms.lipschitz_report(sys_, metric, space, ms._SWEEP_ROWS, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["skipped"] == 0 and rep["within_lambda"]
    assert peak < 64 * 2**20
    assert (ms.lipschitz_report(sys_, metric, space, 20, seed=1)
            == lipschitz_report_oracle(sys_, metric, space, 20, seed=1))


@st.composite
def reader_sweep_cases(draw):
    """A `sweep_cases` system, space and metric, measured by both sweeps:
    the Lipschitz one, and a Hölder one of the identity or of one step, on a
    drawn part of the anchors' ball, into the metric of squared lambda."""
    sys_, metric, space, samples, r_cap, seed = draw(sweep_cases())
    ball = ng.sort_vertices(metric.graph.ball_members(metric.scheme.vertices, r_cap))
    domain = draw(st.lists(st.sampled_from(ball), min_size=1, unique=True))
    metric_to = ms.BasedMetric(metric.scheme, metric.lam**2, metric.graph)
    holder = (draw(st.sampled_from([None, sys_])), metric, metric_to,
              draw(st.sampled_from([1.0, 1.5, 2.0])), draw(st.sampled_from([1.0, 4.0])),
              space, domain, samples)
    return (sys_, metric, space, samples, r_cap, seed), holder


def _three_anchor_case():
    """A ring of cells 0..3 on 3 symbols, each reading itself twice and its
    successor; (1, 0, 2) at cell 1; doubleexp weights at 0, 1 and 2."""
    rules = {v: kn.LocalRule((v, v, (v + 1) % 4), lambda a: (a[0] + a[1] + a[2]) % 3)
             for v in range(4)}
    graph = ng.explicit_graph([(u, v) for v, r in rules.items() for u in set(r.inputs)])
    sys_ = kn.SymbolicSystem(kn.Alphabet(3), graph, rules.__getitem__)
    space = kn.PatternSpace([(0, 1, 2), (1, 0, 2), (2, 0), (0, 1)].__getitem__)
    metric = ms.BasedMetric(ms.CoefficientScheme.double_exponential([0, 1, 2]), 2.0, graph)
    samples = ms._SWEEP_ROWS + 9
    return ((sys_, metric, space, samples, 2, 5),
            (sys_, metric, ms.BasedMetric(metric.scheme, 4.0, graph), 1.0, 1.0, space,
             [0, 1, 2, 3], samples))


def test_reader_only_sweeps_match_oracles():
    """Both sweeps, which convert x only at the planted cell and the inputs
    of its readers and image only at the readers, return the reports of the
    one-pair-at-a-time oracles: on rules that read an input twice, 3-anchor
    doubleexp metrics, the identity and one step, below and across the
    sweep's chunk."""
    seen = set()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(reader_sweep_cases())
    @example(_three_anchor_case())
    def check(case):
        (sys_, metric, space, samples, r_cap, seed), holder = case
        assert (ms.lipschitz_report(sys_, metric, space, samples, seed=seed, r_cap=r_cap)
                == lipschitz_report_oracle(sys_, metric, space, samples, seed=seed,
                                           r_cap=r_cap))
        rep = ms.holder_report(*holder, seed=seed)
        assert rep == holder_report_oracle(*holder, seed=seed)
        if any(len(set(sys_.rule(w).inputs)) < len(sys_.rule(w).inputs)
               for w in metric.graph.ball_members(metric.scheme.vertices, r_cap)):
            seen.add("repeated inputs")
        if metric.scheme.kind == "doubleexp" and len(set(metric.scheme.vertices)) == 3:
            seen.add("3-anchor doubleexp")
        seen.add("identity" if holder[0] is None else "step")
        seen.update(key for key in ("holds", "violations") if rep[key])
        seen.add("below a chunk" if samples < ms._SWEEP_ROWS else
                 "one chunk" if samples == ms._SWEEP_ROWS else "across chunks")

    check()
    assert seen == {"repeated inputs", "3-anchor doubleexp", "identity", "step", "holds",
                    "violations", "below a chunk", "one chunk", "across chunks"}


def _read_cells_cases():
    """Systems for the read-cell test, by name: (system, metric, space, r_cap,
    Hölder domain or None for the Lipschitz sweep).  Changing one cell
    changes every reader of the XOR automaton, whatever its other inputs, but
    not always a reader of the others: the majority automaton on Z^2; a
    3-symbol table on Z under cells of 2, 3 and 1 symbols; and a line of
    cells v reading v and v + 1 under a product mod 300, where cells 4 and 5
    allow all 300 symbols and the rest 0 and 1, so cell 4 reads 300^2 >
    TABLE_MAX allowed patterns and is a wide cell."""
    z2 = ng.cayley_zd(2)
    three = ms.CoefficientScheme.double_exponential([(0, 0), (2, 1), (-1, -2)])
    xor, space2 = _xor_automaton()
    majority = ss.ca_on_zd(2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
                           [int(sum(b) > 2) for b in itertools.product((0, 1), repeat=5)])[0]
    rnd = random.Random(7)
    table = ss.ca_on_zd(3, [(0,), (1,), (-1,)], [rnd.randrange(3) for _ in range(27)])[0]
    sets = [(0, 1), (0, 1, 2), (2,), (1, 2)]
    k = 300
    assert k * k > kn.TABLE_MAX
    line = ss.ca_on_zd(2, [(0,), (1,)], [0] * 4)[0].graph
    product = kn.SymbolicSystem(kn.Alphabet(k), line, lambda v: kn.LocalRule(
        line.in_neighbors(v), lambda a: (a[0] * a[1]) % k))
    return {
        "xor": (xor, ms.BasedMetric(three, 2.0, z2), space2, 4, None),
        "majority-step": (majority, ms.BasedMetric(three, 2.0, z2), space2, 4,
                          z2.ball_members(three.vertices, 3)),
        "mixed": (table, ms.BasedMetric(ms.CoefficientScheme.double_exponential(
            [(0,), (3,), (-2,)]), 2.0, table.graph),
            kn.PatternSpace(lambda v: sets[v[0] % 4]), 4, None),
        "wide": (product, ms.single_estuary_metric(line, (0,), 2.0), kn.PatternSpace(
            lambda v: range(k) if v in ((4,), (5,)) else (0, 1)), 5, None),
    }


@pytest.mark.parametrize("case", ["xor", "majority-step", "mixed", "wide"])
def test_planted_pairs_are_measured_alike_whatever_lies_outside_their_read_cells(
        monkeypatch, case):
    """The sweeps draw x only on the cells R(c) that a pair planted at c is
    read on (`read_cells_oracle`).  Filling every other cell of the pairs
    they draw with either of two random fillers gives the same pre-image and
    image intervals by the one-pair oracles, so what x holds there cannot
    move a report."""
    sys_, metric, space, r_cap, domain = _read_cells_cases()[case]
    if domain is None:
        domain = metric.graph.ball_members(metric.scheme.vertices, r_cap + 1)
        region = metric.graph.ball_members(metric.scheme.vertices, r_cap)
    else:
        region = [w for w in domain if domain.issuperset(sys_.rule(w).inputs)]
    domain = ng.sort_vertices(domain)
    reads = read_cells_oracle(sys_, space, domain, region)
    assert all(len(r) < len(domain) for r in reads.values())
    chunks, planted = [], ms._planted_pairs
    monkeypatch.setattr(ms, "_planted_pairs", lambda *a: (
        chunks.append(chunk) or chunk for chunk in planted(*a)))
    if case.endswith("-step"):
        ms.holder_report(sys_, metric, metric, 1.0, 1.0, space, domain, 200, seed=2)
    else:
        ms.lipschitz_report(sys_, metric, space, 200, seed=2, r_cap=r_cap)
    fillers = [random.Random(1), random.Random(2)]
    pairs = 0
    for _, cols, xs, news in chunks:
        for col, x, new in zip(cols.tolist(), xs.tolist(), news.tolist()):
            cell, measured = domain[col], []
            for filler in fillers:
                x_values = {v: x[j] if v in reads[cell] else
                            space.allowed(v)[int(filler.random() * len(space.allowed(v)))]
                            for j, v in enumerate(domain)}
                pair = (kn.Configuration(x_values), kn.Configuration({**x_values, cell: new}))
                images = [image_configuration_oracle(sys_, z, region) for z in pair]
                measured.append((dist_oracle(metric, *pair), dist_oracle(metric, *images)))
            assert measured[0] == measured[1]
            pairs += 1
    assert pairs > 100


@pytest.mark.parametrize("system", ["xor", "shift"])
def test_sweeps_reject_symbols_outside_the_alphabet(system):
    """A space allowing 2 on a binary system raises before the sweep draws,
    naming the first domain cell, rather than failing in a rule."""
    sys_ = _xor_automaton()[0] if system == "xor" else ss.full_shift(2)[0]
    anchor = (0, 0) if system == "xor" else 0
    metric = ms.single_estuary_metric(sys_.graph, anchor, 2.0)
    space = kn.PatternSpace.full(kn.Alphabet(3))
    domain = sys_.graph.ball_members([anchor], 3)
    for sweep, cells in [
            (lambda: ms.lipschitz_report(sys_, metric, space, 20, r_cap=3),
             sys_.graph.ball_members([anchor], 4)),
            (lambda: ms.holder_report(sys_, metric, metric, 1.0, 1.0, space, domain, 20),
             domain)]:
        message = (f"allowed symbol at vertex {ng.sort_vertices(cells)[0]!r} is 2, "
                   "outside the symbols 0..1")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep()


def test_sweeps_name_the_first_cell_of_an_allowed_tuple_outside_the_alphabet():
    """The check runs once per distinct allowed tuple, and names the first
    domain cell that allows a symbol outside the alphabet, past cells whose
    tuples pass."""
    sys_ = ss.full_shift(2)[0]
    metric = ms.single_estuary_metric(sys_.graph, 0, 2.0)
    space = kn.PatternSpace(lambda v: (1, 0) if v % 3 else (0, 1, 2) if v > 2 else (0, 1))
    for sweep in (lambda: ms.lipschitz_report(sys_, metric, space, 20, r_cap=4),
                  lambda: ms.holder_report(sys_, metric, metric, 1.0, 1.0, space, range(6), 20)):
        with pytest.raises(ValueError, match=r"^allowed symbol at vertex 3 is 2, outside"):
            sweep()


def test_sweep_checks_each_distinct_allowed_tuple_once(monkeypatch):
    """On 2^16 symbols that every cell shares, the sweep checks the least and
    the largest symbol of the one tuple: two calls, not two per cell."""
    sys_, space = ss.full_shift(2**16)
    metric = ms.single_estuary_metric(sys_.graph, 0, 2.0)
    calls, check = [], kn.check_symbol
    monkeypatch.setattr(kn, "check_symbol", lambda *args: calls.append(args) or check(*args))
    assert ms.lipschitz_report(sys_, metric, space, ms._SWEEP_ROWS, seed=1)["within_lambda"]
    assert [args[0] for args in calls] == [0, 2**16 - 1]


@pytest.mark.parametrize("call,message", [
    (lambda sweep: sweep(samples=5.5), "samples must be an int, got 5.5"),
    (lambda sweep: sweep(samples=True), "samples must be an int, got True"),
    (lambda sweep: sweep(samples=10, r_cap=2.5), "r_cap must be an int, got 2.5"),
])
def test_lipschitz_rejects_counts_that_are_not_ints(z2_metric, call, message):
    ca, space = _xor_automaton()
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(lambda **kwargs: ms.lipschitz_report(ca, z2_metric, space, **kwargs))


@pytest.mark.parametrize("samples", [5.5, True])
def test_holder_rejects_counts_that_are_not_ints(z2, z2_metric, binary_space, samples):
    with pytest.raises(TypeError, match=f"^samples must be an int, got {samples}$"):
        ms.holder_report(None, z2_metric, z2_metric, 1.0, 1.0, binary_space,
                         z2.ball_members([(0, 0)], 3), samples=samples)


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -5},
                                    {"samples": 10, "r_cap": 0},
                                    {"samples": 10, "r_cap": -1}])
def test_lipschitz_rejects_vacuous_sweeps(z2_metric, kwargs):
    ca, space = _xor_automaton()
    with pytest.raises(ValueError, match="samples|r_cap"):
        ms.lipschitz_report(ca, z2_metric, space, **kwargs)


def test_holder_rejects_vacuous_sweeps(z2, z2_metric, binary_space):
    with pytest.raises(ValueError, match="samples"):
        ms.holder_report(None, z2_metric, z2_metric, 1.0, 1.0, binary_space,
                         z2.ball_members([(0, 0)], 3), samples=0)


@pytest.mark.parametrize("lam", [1.0, math.inf, math.nan])
def test_metric_rejects_lambda_not_finite_above_one(z2, lam):
    with pytest.raises(ValueError, match="lambda must be finite and exceed 1"):
        ms.single_estuary_metric(z2, (0, 0), lam)
    with pytest.raises(ValueError, match="lambda must be finite and exceed 1"):
        ms.metric_from_descriptor({"estuary": [[0, 0]], "lambda": str(lam)}, z2)


@pytest.mark.parametrize("kwargs,message", [
    ({"coeffs": [1.0, 0.0]}, "coefficients must be finite and positive, got 0.0"),
    ({"coeffs": [math.inf, 1.0]}, "coefficients must be finite and positive, got inf"),
    ({"coeffs": [0.5, math.nan]}, "coefficients must be finite and positive, got nan"),
    ({"tail_bound": -1.0}, "tail bound must be finite and nonnegative, got -1.0"),
    ({"tail_bound": math.inf}, "tail bound must be finite and nonnegative, got inf"),
    ({"tail_bound": math.nan}, "tail bound must be finite and nonnegative, got nan"),
])
def test_scheme_rejects_coefficients_not_finite_positive(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ms.CoefficientScheme([0, 1], **{"coeffs": [0.5, 0.25], **kwargs})


@pytest.mark.parametrize("eta,constant,name", [
    (0.0, 1.0, "eta"), (math.inf, 1.0, "eta"), (math.nan, 1.0, "eta"),
    (1.0, -2.0, "constant"), (1.0, math.inf, "constant"), (1.0, math.nan, "constant"),
])
def test_holder_rejects_parameters_not_finite_positive(z2, z2_metric, binary_space,
                                                       eta, constant, name):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        ms.holder_report(None, z2_metric, z2_metric, eta, constant, binary_space,
                         z2.ball_members([(0, 0)], 3), samples=5)


@pytest.mark.parametrize("call,error,message", [
    (lambda z2, m, space: ms.DistanceBound(1.0, 0.5), ValueError, "bad interval [1.0, 0.5]"),
    (lambda z2, m, space: ms.CoefficientScheme([0, 1], [0.5]), ValueError,
     "vertices and coeffs must align"),
    (lambda z2, m, space: ms.dist(m, kn.Configuration({(0, 0): 0}),
                                  kn.Configuration({(0, 0): 0, (1, 0): 1})),
     ms.DomainMismatchError, "configurations must share a domain"),
    (lambda z2, m, space: ms.metric_dim_estimate(space, m, [0.5, 0.5]), ValueError,
     "eps grid must decrease"),
    (lambda z2, m, space: ms.metric_dim_estimate(space, m, [0.25, 0.5]), ValueError,
     "eps grid must decrease"),
    (lambda z2, m, space: ms.metric_dim_estimate(space, m, []), ValueError,
     "eps grid must be nonempty"),
    (lambda z2, m, space: ms.metric_dim_estimate(space, m, [0.5, 0.0]), ValueError,
     "eps must be finite and positive, got 0.0"),
    (lambda z2, m, space: ms.metric_dim_estimate(space, m, [-0.5]), ValueError,
     "eps must be finite and positive, got -0.5"),
    (lambda z2, m, space: ms.metric_dim_estimate(space, m, [math.inf, 0.5]), ValueError,
     "eps must be finite and positive, got inf"),
    (lambda z2, m, space: m.scheme.precipitous_report([]), ValueError,
     "eps grid must be nonempty"),
    (lambda z2, m, space: m.scheme.precipitous_report([0.1, math.nan]), ValueError,
     "eps must be finite and positive, got nan"),
    (lambda z2, m, space: m.scheme.precipitous_report([0.01, 0.1]), ValueError,
     "eps grid must decrease"),
    (lambda z2, m, space: m.scheme.precipitous_report([1.0]), ValueError,
     "eps must be below 1/e, got 1.0"),
    (lambda z2, m, space: m.scheme.precipitous_report([math.exp(-1)]), ValueError,
     f"eps must be below 1/e, got {math.exp(-1)}"),
    (lambda z2, m, space: m.scheme.precipitous_report([2.0, 0.1]), ValueError,
     "eps must be below 1/e, got 2.0"),
    (lambda z2, m, space: ms.uniform_dim_profile(z2, [(0, 0)], [4, 1]), ValueError,
     "radii must be >= 2"),
])
def test_argument_checks(z2, z2_metric, binary_space, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(z2, z2_metric, binary_space)


def test_holder_skips_pairs_with_no_lower_distance(z2, binary_space):
    """An estuary outside the domain leaves every pre-image interval at
    [0, hi]: each sample is inconclusive, even under a constant so small
    that a pair measured from d_lo = 0 would read as a violation."""
    far = ms.single_estuary_metric(z2, (4, 0), 2.0)
    rep = ms.holder_report(None, far, ms.single_estuary_metric(z2, (0, 0), 2.0),
                           1.0, 1e-6, binary_space, z2.ball_members([(0, 0)], 3), 20)
    assert rep == {"holds": 0, "violations": 0, "inconclusive": 20, "passed": False,
                   "worst": None}


def test_image_configuration_names_missing_inputs():
    """An image whose region reads cells the configuration misses raises
    the error `evaluate` raises, naming every missing input once."""
    sys_ = ss.full_shift(2)[0]
    with pytest.raises(kn.InsufficientDomainError) as err:
        ms.image_configuration(sys_, kn.Configuration({0: 1}), [0])
    assert err.value.missing == (1,)
    with pytest.raises(kn.InsufficientDomainError) as err:
        ms.image_configuration(sys_, kn.Configuration({0: 1, 2: 0}), [3, 0, 2, 1])
    assert err.value.missing == (1, 3, 4)


def test_lipschitz_names_rule_inputs_outside_the_domain(z2, monkeypatch):
    """A Moore automaton reads diagonal cells that the von Neumann metric's
    domain, the ball of radius r_cap + 1, lacks: the sweep names every such
    input of an image cell before anything is drawn.  The Hölder report
    images only the cells whose inputs lie in the domain."""
    moore = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    ca, space = ss.ca_on_zd(2, moore, [int(bin(i).count("1") >= 5) for i in range(512)])
    metric = ms.single_estuary_metric(z2, (0, 0), 2.0)
    domain = set(z2.ball_members([(0, 0)], 4))
    read = {(a + i, b + j) for a, b in z2.ball_members([(0, 0)], 3) for i, j in moore}
    monkeypatch.setattr(ms, "words", None)  # a draw would raise TypeError
    with pytest.raises(kn.InsufficientDomainError) as err:
        ms.lipschitz_report(ca, metric, space, 10, r_cap=3)
    assert err.value.missing == ng.sort_vertices(read - domain)
    assert len(err.value.missing) == 16
    with pytest.raises(TypeError):  # the sweeps draw through the binding patched
        ms.holder_report(None, metric, metric, 1.0, 2.0, space, domain, 10)
    monkeypatch.undo()
    rep = ms.holder_report(ca, metric, metric, 1.0, 2.0, space, domain, 10)
    assert rep["holds"] + rep["violations"] + rep["inconclusive"] == 10


# -- batched kernels against the one-pair oracles --------------------------------


@st.composite
def metric_cases(draw):
    """A system, a based metric and configuration pairs on a finite domain:
    either a random automaton on Z^2 measured on Z^2 balls, or a random
    explicit system whose balls close.  Anchors may lie outside the domain;
    pairs may agree everywhere, differ at an anchor, differ at random cells,
    or differ only beyond the first anchor's covered radius.  Tables, symbols
    and coefficients come from one drawn `Random`."""
    rnd = draw(st.randoms(use_true_random=False))
    k = draw(st.integers(2, 3))
    if draw(st.booleans()):
        offsets = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
        sys_, _ = ss.ca_on_zd(k, offsets, [rnd.randrange(k) for _ in range(k**5)])
        graph = ng.cayley_zd(2)
        domain = graph.ball_members([(0, 0)], draw(st.integers(0, 3)))
        points = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    else:
        n = draw(st.integers(2, 6))
        rules = []
        for v in range(n):
            inputs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2,
                                   unique=True))
            table = [rnd.randrange(k) for _ in range(k ** len(inputs))]
            rules.append({"vertex": v, "inputs": inputs, "table": table})
        edges = [[u, r["vertex"]] for r in rules for u in r["inputs"]]
        sys_, _ = ss.system_from_descriptor(
            {"alphabet": k, "graph": {"edges": edges}, "rules": rules}
        )
        graph = sys_.graph
        domain = set(range(n)) if draw(st.booleans()) else draw(
            st.sets(st.integers(0, n - 1), min_size=1))
        points = st.integers(0, n - 1)
    anchors = draw(st.lists(points, min_size=1, max_size=3))
    coeffs = [rnd.uniform(0.01, 1.0) for _ in anchors]
    kind = draw(st.sampled_from(["finite", "halving", "doubleexp", "tail"]))
    if kind == "finite":
        scheme = ms.CoefficientScheme.finite(anchors, coeffs)
    elif kind == "halving":
        scheme = ms.CoefficientScheme.finite(anchors, [2.0**-j for j in range(len(anchors))])
    elif kind == "doubleexp":
        scheme = ms.CoefficientScheme.double_exponential(anchors)
    else:
        scheme = ms.CoefficientScheme(anchors, coeffs, tail_bound=rnd.uniform(0.001, 0.1))
    metric = ms.BasedMetric(scheme=scheme, lam=draw(st.sampled_from([1.5, 2.0, 3.0])),
                            graph=graph)
    cells = ng.sort_vertices(domain)
    cap = covered_radius_oracle(graph, anchors[0], frozenset(cells))
    beyond = [c for c in cells
              if cap < 0 or c not in graph.ball_members([anchors[0]], cap)]
    pairs = []
    for mode in draw(st.lists(st.sampled_from(["same", "center", "random", "beyond"]),
                              min_size=1, max_size=5)):
        x = {c: rnd.randrange(k) for c in cells}
        if mode == "center":
            flips = [anchors[0]] if anchors[0] in x else []
        elif mode == "random":
            flips = [c for c in cells if rnd.random() < 0.3]
        else:
            flips = beyond if mode == "beyond" else []
        y = dict(x)
        for c in flips:
            y[c] = (y[c] + 1) % k
        pairs.append((kn.Configuration(x), kn.Configuration(y)))
    region = [w for w in cells if set(sys_.rule(w).inputs) <= set(cells)]
    r_cap = draw(st.none() | st.integers(0, 3))
    return sys_, metric, cells, pairs, region, r_cap


def _metric_example(grid):
    """A `metric_cases` value for each family that reaches, with its three
    pairs, every class the tests below assert.  Grid: the XOR automaton on
    the radius-2 ball of Z^2, double-exponential weights at (1, 0) and at
    (5, 5), outside the domain.  Explicit: two closed components {0, 1} and
    {2, 3} with cells 0..2, custom weights at 0 and 2 and a tail.  The pairs
    agree, differ at the first anchor, and differ only at a cell that the
    first anchor's covered ball misses."""
    if grid:
        offsets = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
        sys_, _ = ss.ca_on_zd(2, offsets, [sum(b) % 2 for b in itertools.product((0, 1), repeat=5)])
        graph = ng.cayley_zd(2)
        cells = ng.sort_vertices(graph.ball_members([(0, 0)], 2))
        scheme, beyond = ms.CoefficientScheme.double_exponential([(1, 0), (5, 5)]), (-2, 0)
    else:
        sys_, _ = ss.system_from_descriptor({
            "alphabet": 2, "graph": {"edges": [[v ^ 1, v] for v in range(4)]},
            "rules": [{"vertex": v, "inputs": [v ^ 1], "table": [1, 0]} for v in range(4)]})
        graph, cells = sys_.graph, [0, 1, 2]
        scheme, beyond = ms.CoefficientScheme([0, 2], [0.5, 0.25], tail_bound=0.01), 2
    x = {c: i % 2 for i, c in enumerate(cells)}
    pairs = [(kn.Configuration(x), kn.Configuration({**x, **{c: 1 - x[c] for c in flips}}))
             for flips in ([], [scheme.vertices[0]], [beyond])]
    region = [w for w in cells if set(sys_.rule(w).inputs) <= set(cells)]
    return sys_, ms.BasedMetric(scheme=scheme, lam=2.0, graph=graph), cells, pairs, region, 2


def test_batched_kernels_match_oracles():
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(metric_cases())
    @example(_metric_example(grid=True))
    @example(_metric_example(grid=False))
    def check(case):
        sys_, metric, cells, pairs, region, r_cap = case
        index = {v: i for i, v in enumerate(cells)}
        anchor = metric.scheme.vertices[0]
        cap = covered_radius_oracle(metric.graph, anchor, frozenset(cells))
        seen.add(metric.graph.universe["family"])
        if metric.scheme.tail_bound > 0:
            seen.add(f"{metric.scheme.kind} tail")
        if any(u not in index for u in metric.scheme.vertices):
            seen.add("anchor outside")
        if cap >= 0 and metric.graph.ball_members([anchor], cap + 1) <= set(cells):
            seen.add("closed ball")
        for x, y in pairs:
            if cap >= 0 and x.values[anchor] != y.values[anchor]:
                seen.add("center differs")
            elif cap >= 0 and x != y and pseudo_dist_oracle(metric, anchor, x, y)[0] == 0.0:
                seen.add("differs beyond cover")
        X = np.array([[x.values[v] for v in cells] for x, _ in pairs],
                     dtype=np.uint8).reshape(len(pairs), len(cells))
        Y = np.array([[y.values[v] for v in cells] for _, y in pairs],
                     dtype=np.uint8).reshape(len(pairs), len(cells))
        lo, hi = ms._intervals(ms._depths(metric, index), len(pairs), *np.nonzero(X != Y))
        images = ms.image_rows(sys_, index, region, np.concatenate([X, Y]))
        for row, (x, y) in enumerate(pairs):
            expected = dist_oracle(metric, x, y)
            assert (lo[row], hi[row]) == expected
            b = ms.dist(metric, x, y)
            assert (b.lo, b.hi) == expected
            for u in metric.scheme.vertices:
                b = ms.pseudo_dist(metric, u, x, y, r_cap)
                assert (b.lo, b.hi) == pseudo_dist_oracle(metric, u, x, y, r_cap)
            for config, image in ((x, images[row]), (y, images[len(pairs) + row])):
                expected = image_configuration_oracle(sys_, config, region).values
                assert dict(zip(region, image.tolist())) == expected
                assert ms.image_configuration(sys_, config, region).values == expected

    check()
    assert seen >= {"cayley_zd", "explicit", "doubleexp tail", "custom tail",
                    "anchor outside", "closed ball", "center differs",
                    "differs beyond cover"}


def test_interval_tables_equal_one_hot_rows(z2):
    """The sweep's per-column interval tables (`_intervals` of each column
    against itself) are `dist_oracle` of the one-hot pairs, float for float:
    on drawn metrics and domains, and on a 3-anchor doubleexp metric over the
    radius-7 ball of Z^2."""

    def check_tables(metric, cells):
        every = np.arange(len(cells))
        lo, hi = ms._intervals(ms._depths(metric, kn.columns(cells)), len(cells), every, every)
        x = {v: 0 for v in cells}
        for col, v in enumerate(cells):
            pair = kn.Configuration(x), kn.Configuration({**x, v: 1})
            assert (lo[col], hi[col]) == dist_oracle(metric, *pair)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(metric_cases())
    def check(case):
        check_tables(case[1], case[2])

    check()
    anchors = [(0, 0), (2, 1), (-1, -2)]
    check_tables(ms.BasedMetric(ms.CoefficientScheme.double_exponential(anchors), 3.0, z2),
                 ng.sort_vertices(z2.ball_members([(0, 0)], 7)))


def test_intervals_take_the_least_depth_of_each_row(z2):
    """Three rows in one `_intervals` call, on the radius-3 ball of Z^2 with
    anchors (0, 0) and (1, 0): row 0 disagrees on shells 3 and 2 of (0, 0)
    (the inner one counts), row 1 lists one disagreement twice, and row 2
    has none."""
    cells = ng.sort_vertices(z2.ball_members([(0, 0)], 3))
    index = kn.columns(cells)
    metric = ms.BasedMetric(ms.CoefficientScheme.finite([(0, 0), (1, 0)], [0.5, 0.25]), 2.0, z2)
    flips = [[(3, 0), (1, 1)], [(0, -2), (0, -2)], []]
    rows = np.array([r for r, vs in enumerate(flips) for _ in vs])
    cols = np.array([index[v] for vs in flips for v in vs])
    lo, hi = ms._intervals(ms._depths(metric, index), len(flips), rows, cols)
    # (0, 0) is covered to radius 3, (1, 0) to radius 2: (0, -2) is past it
    assert (lo.tolist(), hi.tolist()) == ([0.5, 0.25, 0.0], [0.5, 0.3125, 0.125])
    x = {v: 0 for v in cells}
    for row, vs in enumerate(flips):
        pair = kn.Configuration(x), kn.Configuration({**x, **{v: 1 for v in vs}})
        b = ms.dist(metric, *pair)
        assert (lo[row], hi[row]) == dist_oracle(metric, *pair) == (b.lo, b.hi)


def _exact_dist_oracle(metric, x, y):
    """Based distance over the stored estuary prefix of two configurations
    on every vertex of a finite graph: each agreement radius is read off the
    whole, closed ball (agreement on all of it is distance 0)."""
    total = 0.0
    n = len(x.values)
    for u, c in zip(metric.scheme.vertices, metric.scheme.coeffs):
        value = 0.0
        for r in range(n + 1):
            shell = metric.graph.ball_members([u], r)
            if r:
                shell -= metric.graph.ball_members([u], r - 1)
            if any(x.values[w] != y.values[w] for w in shell):
                value = min(1.0, metric.lam ** -(r - 1))
                break
        total += c * value
    return total


def test_dist_interval_contains_every_extension():
    """A pair's distance interval contains the distance of any extension of
    the pair: the exact distance of random extensions to every vertex of a
    finite graph (plus anything the coefficient tail may add), and the
    interval of random extensions to a larger ball of Z^2."""
    seen = set()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(metric_cases(), st.randoms(use_true_random=False))
    @example(_metric_example(grid=True), random.Random(0))
    @example(_metric_example(grid=False), random.Random(0))
    def check(case, rnd):
        sys_, metric, cells, pairs, _, _ = case
        k = sys_.alphabet.size
        explicit = metric.graph.universe["family"] == "explicit"
        if explicit:
            wider = set(metric.graph.universe["vertices"])
        else:
            radius = max(max(abs(a) + abs(b) for a, b in cells), 0) + 2
            wider = metric.graph.ball_members([(0, 0)], radius)
        extra = ng.sort_vertices(wider - set(cells))
        for x, y in pairs:
            b = ms.dist(metric, x, y)
            for _ in range(3):
                x2 = kn.Configuration({**x.values, **{v: rnd.randrange(k) for v in extra}})
                y2 = kn.Configuration({**y.values, **{v: rnd.randrange(k) for v in extra}})
                if explicit:
                    exact = _exact_dist_oracle(metric, x2, y2)
                    assert b.lo - 1e-12 <= exact
                    assert exact + metric.scheme.tail_bound <= b.hi + 1e-12
                    seen.add("exact" if exact > b.lo else "exact at lo")
                else:
                    b2 = ms.dist(metric, x2, y2)
                    assert b.lo - 1e-12 <= b2.lo <= b2.hi <= b.hi + 1e-12
                    seen.add("narrower" if b2.width < b.width else "as wide")

    check()
    assert seen == {"exact", "exact at lo", "narrower", "as wide"}


# -- dimension ---------------------------------------------------------------------------


def test_metric_dim_z2(z2, z2_metric, binary_space):
    eps_grid = [2.0 ** (-k) for k in range(8, 33, 2)]
    rep = ms.metric_dim_estimate(binary_space, z2_metric, eps_grid)
    assert 1.8 <= rep["lower_slope"] <= 2.1
    assert 1.8 <= rep["upper_slope"] <= 2.1


def test_metric_dim_unit_shift(binary_space):
    g = ng.unit_shift_graph()
    metric = ms.single_estuary_metric(g, 0, 2.0)
    eps_grid = [2.0 ** (-k) for k in range(8, 33, 2)]
    rep = ms.metric_dim_estimate(binary_space, metric, eps_grid)
    assert 0.9 <= rep["lower_slope"] <= 1.1
    assert 0.9 <= rep["upper_slope"] <= 1.1


def test_metric_dim_counterexample_window_values():
    metric = ms.single_estuary_metric(cx.cex_network(), 0, 2.0)
    eps_grid = [2.0 ** (-k) for k in range(8, 33, 2)]
    rep = ms.metric_dim_estimate(cx.cex_space(), metric, eps_grid)
    # quadratic ball growth shows up slowly: the window slope sits below 2
    assert 1.5 <= rep["lower_slope"] <= 1.8
    assert 1.5 <= rep["upper_slope"] <= 1.8


def test_metric_dim_lower_below_upper(z2, z2_metric, binary_space):
    eps_grid = [2.0 ** (-k) for k in range(6, 25, 2)]
    rep = ms.metric_dim_estimate(binary_space, z2_metric, eps_grid)
    for row in rep["rows"]:
        assert row["log2_cover_lower"] <= row["log2_cover_upper"] + 1e-12


def test_metric_dim_fits_no_slope_at_eps_one(binary_space):
    """At eps = 1 the scale -log_lam eps is 0, which has no logarithm: a
    coefficient above 1 gives that row positive counts, and the slopes are
    fitted to the other rows alone."""
    line = ng.unit_shift_graph()
    metric = ms.BasedMetric(scheme=ms.CoefficientScheme.finite([0], [2.0]), lam=2.0,
                            graph=line)
    grid = [2.0 ** (-k) for k in range(0, 9, 2)]
    rep = ms.metric_dim_estimate(binary_space, metric, grid)
    assert rep["rows"][0]["scale"] == 0 and rep["rows"][0]["log2_cover_lower"] > 0
    rest = ms.metric_dim_estimate(binary_space, metric, grid[1:])
    assert (rep["lower_slope"], rep["upper_slope"]) == (rest["lower_slope"],
                                                        rest["upper_slope"])


def test_metric_dim_matches_the_set_union_oracle(binary_space):
    """Rows and slopes equal, to the bit, those of per-anchor balls rebuilt
    and united as sets: one-alphabet and mixed spaces (`fsum` over cells),
    one anchor and several whose lower balls differ in radius, and a grid
    from eps = 1."""
    grid = [2.0 ** (-k) for k in range(8, 33, 2)]
    odometer, odometer_space = ss.odometer_system([2, 3])
    cases = [
        (binary_space, ms.single_estuary_metric(ng.cayley_zd(2), (0, 0), 2.0), grid),
        (binary_space, ms.single_estuary_metric(ng.unit_shift_graph(), 0, 2.0), grid),
        (cx.cex_space(), ms.single_estuary_metric(cx.cex_network(), 0, 2.0), grid),
        (odometer_space, ms.BasedMetric(ms.CoefficientScheme.finite([0, 1], [1.0, 0.5]), 2.0,
                                        odometer.graph), [2.0 ** (-k) for k in range(2, 7)]),
        (binary_space, ms.BasedMetric(ms.CoefficientScheme.double_exponential(
            [(0, 0), (2, 1), (-1, 3)]), 2.0, ng.cayley_zd(2)), [2.0 ** (-k) for k in range(0, 24)]),
        (binary_space, ms.BasedMetric(ms.CoefficientScheme.finite([0], [0.25]), 2.0,
                                      ng.unit_shift_graph()), [2.0 ** (-k) for k in range(0, 9)]),
    ]
    for space, metric, eps_grid in cases:
        want = metric_dim_estimate_oracle(space, metric, eps_grid)
        assert ms.metric_dim_estimate(space, metric, eps_grid) == want
    # at eps = 2^-20 the three anchors' lower balls have radii 18, 17 and 12
    coeffs = cases[4][1].scheme.coeffs
    assert [math.floor(math.log(c / 2.0 ** -20, 2.0)) for c in coeffs] == [18, 17, 12]


def test_metric_dim_grows_each_center_set_once_and_decodes_no_shell(monkeypatch, binary_space):
    """On a one-alphabet space the single-anchor bracket boxes the anchor's
    ball once, at its deepest radius, reads no allowed set and decodes no
    lattice shell: every count comes from shell sizes."""
    boxed = []
    box = ng._LatticeBall._box
    monkeypatch.setattr(ng._LatticeBall, "_box",
                        lambda self, shells, *a: boxed.append(frozenset(shells[0]))
                        or box(self, shells, *a))
    calls = []
    allowed = binary_space._allowed
    binary_space._allowed = lambda v: calls.append(v) or allowed(v)
    g = ng.cayley_zd(2)
    grid = [2.0 ** (-k) for k in range(8, 33, 2)]
    rep = ms.metric_dim_estimate(binary_space, ms.single_estuary_metric(g, (0, 0), 2.0), grid)
    assert boxed == [frozenset([(0, 0)])]
    assert calls == []
    shells = g.shells(frozenset([(0, 0)]), 0)
    coded = [s for s in shells if isinstance(s, ng._CodeShell)]
    assert len(coded) == len(shells) - 1 >= 33
    assert all(s._vertices is None for s in coded)
    assert rep["rows"][-1]["upper_region_size"] == len(fresh_ball(g, [(0, 0)], len(coded)))


def test_metric_dim_empty_cover_region_above_twice_the_mass(binary_space):
    """Above eps = 2S the cover radius ceil(log_lam(2S / eps)) is negative:
    any two configurations lie within S < eps, one cylinder covers the
    space, and the region is empty.  No anchor is active, and the rows of
    scale <= 0 fit no slope."""
    metric = ms.single_estuary_metric(ng.unit_shift_graph(), 0, 2.0)
    rep = ms.metric_dim_estimate(binary_space, metric, [4.0, 2.0])
    assert rep == {
        "rows": [
            {"eps": 4.0, "scale": -2.0, "log2_cover_lower": 0.0, "log2_cover_upper": 0.0,
             "lower_region_size": 0, "upper_region_size": 0},
            {"eps": 2.0, "scale": -1.0, "log2_cover_lower": 0.0, "log2_cover_upper": 1.0,
             "lower_region_size": 0, "upper_region_size": 1},
        ],
        "lower_slope": None,
        "upper_slope": None,
    }


def test_cover_and_separation_soundness(z2, z2_metric, binary_space):
    """Sampled pairs: disagreement on the separation region forces distance
    above eps; agreement on the cover region forces it below eps."""
    rng = random.Random(13)
    lam = z2_metric.lam
    eps = 2.0**-6
    r_sep = math.floor(math.log(1.0 / eps, lam))
    r_cov = math.ceil(math.log(2 * z2_metric.scheme.total_mass / eps, lam))
    domain = ng.sort_vertices(z2.ball_members([(0, 0)], r_cov + 2))
    sep_region = z2.ball_members([(0, 0)], r_sep)
    cov_region = z2.ball_members([(0, 0)], r_cov)
    for _ in range(25):
        x = binary_space.random_configuration(domain, rng)
        y = dict(x.values)
        cell = sorted(sep_region)[rng.randrange(len(sep_region))]
        y[cell] ^= 1
        d = ms.dist(z2_metric, x, kn.Configuration(y))
        assert d.lo > eps or math.isclose(d.lo, eps)
        z = {
            v: (x.values[v] if v in cov_region else rng.randrange(2))
            for v in domain
        }
        d2 = ms.dist(z2_metric, x, kn.Configuration(z))
        assert d2.hi < eps


def test_metric_descriptor_roundtrip(z2):
    desc = {"estuary": [[0, 0], [1, 0]], "lambda": 2, "scheme": "finite",
            "coeffs": [0.75, 0.25]}
    metric = ms.metric_from_descriptor(desc, z2)
    assert metric.scheme.vertices == ((0, 0), (1, 0))
    assert metric.scheme.coeffs == (0.75, 0.25)
    assert metric.lam == 2.0
    dexp = ms.metric_from_descriptor(
        {"estuary": [0, 1, 2, 3], "lambda": 3, "scheme": "doubleexp"},
        ng.unit_shift_graph(),
    )
    assert dexp.scheme.kind == "doubleexp"
    assert dexp.lam == 3.0


def test_uniform_dim_profile(z2, odometer):
    rows = ms.uniform_dim_profile(z2, [(0, 0), (2, 1)], [8, 16, 32])
    assert all(1.9 <= row["sup_exponent"] <= 2.6 for row in rows)
    single = ms.uniform_dim_profile(z2, [(0, 0)], [16])
    est = ng.dim_estimate(z2, (0, 0), 16, 17)
    assert single[0]["sup_exponent"] == pytest.approx(est.pointwise_exponents[0])
    odo = ms.uniform_dim_profile(odometer, list(range(5)), [8, 64])
    assert odo[0]["sup_exponent"] == pytest.approx(math.log(5) / math.log(8))
    assert odo[1]["sup_exponent"] < odo[0]["sup_exponent"]
