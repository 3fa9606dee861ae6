"""Based Cantor metrics: intervals, Lipschitz/Holder sampling, cover dims."""

from __future__ import annotations

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symdyn import metricspace as ms
from symdyn import netgraph as ng
from symdyn import symsys as ss
from symdyn import counterexample as cx

from conftest import (
    covered_radius_oracle,
    dist_oracle,
    image_configuration_oracle,
    lipschitz_report_oracle,
    planted_pair_oracle,
    pseudo_dist_oracle,
    uniforms_per_call,
)


@pytest.fixture
def z2_metric(z2):
    return ms.single_estuary_metric(z2, (0, 0), 2.0)


@pytest.fixture
def binary_space():
    return ss.PatternSpace.full(ss.Alphabet(2))


def _config_on_ball(space, g, center, radius, rng):
    return space.random_configuration(g.ball_members([center], radius), rng)


# -- pseudometric ----------------------------------------------------------------


def test_pseudo_dist_full_agreement(z2, z2_metric, binary_space):
    rng = random.Random(0)
    x = _config_on_ball(binary_space, z2, (0, 0), 6, rng)
    y = ss.Configuration(dict(x.values))
    b = ms.pseudo_dist(z2_metric, (0, 0), x, y, r_cap=5)
    assert (b.lo, b.hi) == (0.0, 2.0**-5)


def test_pseudo_dist_exact_at_disagreement(z2, z2_metric, binary_space):
    rng = random.Random(1)
    x = _config_on_ball(binary_space, z2, (0, 0), 6, rng)
    shell = sorted(z2.ball_members([(0, 0)], 4) - z2.ball_members([(0, 0)], 3))
    y = dict(x.values)
    y[shell[0]] ^= 1
    b = ms.pseudo_dist(z2_metric, (0, 0), x, ss.Configuration(y))
    assert b.lo == b.hi == 0.125  # agreement radius 3


def test_pseudo_dist_center_disagreement_caps_at_one(z2, z2_metric, binary_space):
    rng = random.Random(2)
    x = _config_on_ball(binary_space, z2, (0, 0), 3, rng)
    y = dict(x.values)
    y[(0, 0)] ^= 1
    b = ms.pseudo_dist(z2_metric, (0, 0), x, ss.Configuration(y))
    assert b.lo == b.hi == 1.0


def test_pseudo_dist_closed_ball_is_covered_up_to_the_cap():
    g = ng.explicit_graph([(0, 1), (1, 2), (2, 0)])  # B(0, r) closes at r = 2
    metric = ms.single_estuary_metric(g, 0, 2.0)
    x = ss.Configuration({0: 1, 1: 0, 2: 1})
    for r_cap, hi in ((None, 2.0**-2), (1, 2.0**-1), (5, 2.0**-5)):
        b = ms.pseudo_dist(metric, 0, x, x, r_cap)
        assert (b.lo, b.hi) == (0.0, hi) == pseudo_dist_oracle(metric, 0, x, x, r_cap)


def test_pseudo_dist_domain_mismatch(z2, z2_metric):
    x = ss.Configuration({(0, 0): 0})
    y = ss.Configuration({(0, 0): 0, (1, 0): 1})
    with pytest.raises(ms.DomainMismatchError):
        ms.pseudo_dist(z2_metric, (0, 0), x, y)


# -- based distance ----------------------------------------------------------------


def test_dist_two_anchor_exact():
    g = ng.unit_shift_graph()
    scheme = ms.CoefficientScheme.finite([0, 4], [0.5, 0.5])
    metric = ms.BasedMetric(scheme=scheme, lam=2.0, graph=g)
    domain = range(0, 10)
    x = ss.Configuration({v: 0 for v in domain})
    y = dict(x.values)
    # anchor 0 first sees cell 2 at radius 2, anchor 4 sees cell 7 at radius 3
    y[2] = 1
    y[7] = 1
    b = ms.dist(metric, x, ss.Configuration(y))
    assert b.lo == b.hi == 0.5 * 0.5 + 0.5 * 0.25


def test_dist_agreement_bound_includes_tail(z2, binary_space):
    scheme = ms.CoefficientScheme([(0, 0)], [1.0], tail_bound=0.001)
    metric = ms.BasedMetric(scheme=scheme, lam=2.0, graph=z2)
    rng = random.Random(3)
    x = _config_on_ball(binary_space, z2, (0, 0), 4, rng)
    b = ms.dist(metric, x, ss.Configuration(dict(x.values)))
    assert b.lo == 0.0
    assert b.hi == pytest.approx(2.0**-4 + 0.001)


def test_dist_tolerance_unreachable(z2, binary_space):
    scheme = ms.CoefficientScheme([(0, 0)], [1.0])
    metric = ms.BasedMetric(scheme=scheme, lam=2.0, graph=z2)
    rng = random.Random(4)
    x = _config_on_ball(binary_space, z2, (0, 0), 2, rng)
    y = ss.Configuration(dict(x.values))
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
        his.append(ms.dist(z2_metric, x, ss.Configuration(dict(x.values))).hi)
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
    ident_rule = lambda v: ss.LocalRule(inputs=(v,), fn=lambda a: a[0])
    loop = ng.Digraph(lambda v: [v], lambda v: [v], universe={"family": "loops"})
    ident = ss.SymbolicSystem(ss.Alphabet(2), loop, ident_rule)
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
    rep = ms.holder_report(lambda x: x, m2, m4, eta=2.0, lam_const=1.0,
                           space=binary_space, domain=domain, samples=150,
                           seed=10)
    assert rep["passed"]
    assert rep["violations"] == 0


def test_holder_eta_one_for_lipschitz(z2, binary_space):
    m2 = ms.single_estuary_metric(z2, (0, 0), 2.0)
    domain = z2.ball_members([(0, 0)], 8)
    rep = ms.holder_report(lambda x: x, m2, m2, eta=1.0, lam_const=1.0,
                           space=binary_space, domain=domain, samples=100,
                           seed=11)
    assert rep["passed"]


def test_holder_overreaching_eta_fails(z2, binary_space):
    # d' = d^2 cannot satisfy d' <= d^3 at small distances
    m2 = ms.single_estuary_metric(z2, (0, 0), 2.0)
    m4 = ms.single_estuary_metric(z2, (0, 0), 4.0)
    domain = z2.ball_members([(0, 0)], 8)
    rep = ms.holder_report(lambda x: x, m2, m4, eta=3.0, lam_const=1.0,
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
        "worst": {"sample": 1, "cell": (3, 0), "pre": (0.25, 0.25),
                  "post": (0.5, 0.5)},
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
        "sample": 34, "cell": (2, -6),
        "pre": (4.22282500449373e-09, 0.0007569586828052341),
        "post": (1.2668475013481192e-08, 0.0022708760484157027),
    }
    assert len(rep["flagged"]) == 647
    assert rep["flagged"][:3] == [
        {"sample": 1, "ratio_hi": 3.0180339905364972},
        {"sample": 6, "ratio_hi": 7.438765031794283},
        {"sample": 8, "ratio_hi": 3.0185185771689835},
    ]


def test_lipschitz_single_symbol_space_skips_everything():
    sys_, _ = ss.full_shift(2)
    metric = ms.single_estuary_metric(sys_.graph, 0, 2.0)
    space = ss.PatternSpace(lambda v: (0,))
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
    draw the pairs of one `rng.random()` per pick, so the Lipschitz report
    equals the oracle sweep and both equal the sweeps on per-call draws."""
    sets = [(0, 1), (0, 1, 2), (2,), (1, 2)]
    space = ss.PatternSpace(lambda v: sets[v % 4])
    sys_, _ = ss.full_shift(3, "Z")
    metric = ms.BasedMetric(scheme=ms.CoefficientScheme.double_exponential([0, 3, -2]),
                            lam=2.0, graph=sys_.graph)
    m2, m4 = (ms.single_estuary_metric(sys_.graph, 0, lam) for lam in (2.0, 4.0))
    domain = sys_.graph.ball_members([0], 6)

    def sweeps():
        return (ms.lipschitz_report(sys_, metric, space, 300, seed=3, r_cap=4),
                ms.holder_report(lambda x: x, m2, m4, eta=2.0, lam_const=1.0, space=space,
                                 domain=domain, samples=300, seed=4))

    lipschitz, holder = sweeps()
    assert lipschitz["skipped"] and lipschitz["flagged"]
    assert holder["holds"] and holder["inconclusive"] and holder["passed"]
    assert lipschitz == lipschitz_report_oracle(sys_, metric, space, 300, seed=3, r_cap=4)
    monkeypatch.setattr(ms, "_uniforms", uniforms_per_call)
    assert sweeps() == (lipschitz, holder)


@st.composite
def sweep_cases(draw):
    """A random explicit system on 3 symbols whose rules are the shared
    functions sum and weighted sum (so cells of one arity share a group) or
    tables of their own, some reading an input twice; allowed sets of one,
    two and three symbols, one of them (1, 0, 1); a metric on one to three
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
        rules[v] = (ss.LocalRule(tuple(inputs), shared[kind]) if kind < 2 else
                    ss.LocalRule.from_table(inputs, [rnd.randrange(k) for _ in range(k ** len(inputs))], k))
    graph = ng.explicit_graph([(u, v) for v, r in rules.items() for u in set(r.inputs)])
    sys_ = ss.SymbolicSystem(ss.Alphabet(k), graph, rules.__getitem__)
    sets = [(1, 0, 1), (2,)] + [draw(st.sampled_from([(0, 1), (0, 1, 2), (2, 0), (1,)]))
                                for _ in range(n - 2)]
    rnd.shuffle(sets)
    space = ss.PatternSpace(sets.__getitem__)
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

    bad = ss.LocalRule(rule.inputs, fn)
    return ss.SymbolicSystem(sys_.alphabet, sys_.graph,
                             lambda v: bad if v == w else sys_.rule(v))


@pytest.mark.parametrize("reads_planted_cell", [True, False])
def test_lipschitz_checks_every_image_value(z2, z2_metric, reads_planted_cell):
    """A rule value outside the alphabet raises, naming its vertex: on y's
    row at a cell that reads the planted cell, where y is imaged apart from
    x, and at a cell that does not, where x's full image holds the value."""
    ca, space = _xor_automaton()
    domain = ng.sort_vertices(z2.ball_members([(0, 0)], 4))
    x, cell, y = planted_pair_oracle(z2_metric, space, domain, 3, random.Random(4))
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
        ms.holder_report(lambda x: x, z2_metric, z2_metric, 1.0, 1.0, binary_space,
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
        ms.holder_report(lambda x: x, z2_metric, z2_metric, 1.0, 1.0, binary_space,
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
        ms.holder_report(lambda x: x, z2_metric, z2_metric, eta, constant, binary_space,
                         z2.ball_members([(0, 0)], 3), samples=5)


@pytest.mark.parametrize("call,error,message", [
    (lambda z2, m, space: ms.DistanceBound(1.0, 0.5), ValueError, "bad interval [1.0, 0.5]"),
    (lambda z2, m, space: ms.CoefficientScheme([0, 1], [0.5]), ValueError,
     "vertices and coeffs must align"),
    (lambda z2, m, space: ms.dist(m, ss.Configuration({(0, 0): 0}),
                                  ss.Configuration({(0, 0): 0, (1, 0): 1})),
     ms.DomainMismatchError, "configurations must share a domain"),
    (lambda z2, m, space: ms.metric_dim_estimate(space, m, [0.5, 0.5]), ValueError,
     "eps grid must decrease"),
    (lambda z2, m, space: ms.metric_dim_estimate(space, m, [0.25, 0.5]), ValueError,
     "eps grid must decrease"),
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
    rep = ms.holder_report(lambda x: x, far, ms.single_estuary_metric(z2, (0, 0), 2.0),
                           1.0, 1e-6, binary_space, z2.ball_members([(0, 0)], 3), 20)
    assert rep == {"holds": 0, "violations": 0, "inconclusive": 20, "passed": False,
                   "worst": None}


def _restrict(x, cells):
    return ss.Configuration({v: x.values[v] for v in cells})


def test_holder_batches_image_domains(z2, binary_space):
    """A transform whose image domain changes from pair to pair: every pair
    is measured on its own domain, as one pair at a time would be."""
    m2 = ms.single_estuary_metric(z2, (0, 0), 2.0)
    domain = ng.sort_vertices(z2.ball_members([(0, 0)], 5))
    calls = []

    def crop(x):
        radius = 2 + len(calls) // 2 % 2  # alternates pair by pair
        image = _restrict(x, z2.ball_members([(0, 0)], radius))
        calls.append((x, image))
        return image

    rep = ms.holder_report(crop, m2, m2, eta=1.0, lam_const=1.0,
                           space=binary_space, domain=domain, samples=60, seed=3)
    holds = violations = 0
    for (x, tx), (y, ty) in zip(calls[::2], calls[1::2]):
        pre = dist_oracle(m2, x, y)
        post = dist_oracle(m2, tx, ty)
        if pre[0] > 0.0 and post[1] <= pre[0] * (1 + 1e-9):
            holds += 1
        elif pre[0] > 0.0 and post[0] > pre[1] * (1 + 1e-9):
            violations += 1
    assert (rep["holds"], rep["violations"]) == (holds, violations)
    assert rep["holds"] + rep["violations"] + rep["inconclusive"] == 60


def test_holder_image_domain_mismatch(z2, binary_space):
    m2 = ms.single_estuary_metric(z2, (0, 0), 2.0)
    domain = z2.ball_members([(0, 0)], 3)
    calls = []

    def uneven(x):
        calls.append(x)
        return _restrict(x, list(x.values)[: len(calls) % 2 + 1])

    with pytest.raises(ms.DomainMismatchError):
        ms.holder_report(uneven, m2, m2, 1.0, 1.0, binary_space, domain, samples=5)


def test_image_configuration_names_missing_inputs():
    """An image whose region reads cells the configuration misses raises
    the error `evaluate` raises, naming every missing input once."""
    sys_ = ss.full_shift(2)[0]
    with pytest.raises(ss.InsufficientDomainError) as err:
        ms.image_configuration(sys_, ss.Configuration({0: 1}), [0])
    assert err.value.missing == (1,)
    with pytest.raises(ss.InsufficientDomainError) as err:
        ms.image_configuration(sys_, ss.Configuration({0: 1, 2: 0}), [3, 0, 2, 1])
    assert err.value.missing == (1, 3, 4)


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
        pairs.append((ss.Configuration(x), ss.Configuration(y)))
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
    pairs = [(ss.Configuration(x), ss.Configuration({**x, **{c: 1 - x[c] for c in flips}}))
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
        lo, hi = ms._dist_rows(metric, ms._estuary_shells(metric, index), X != Y)
        images = ms._image_rows(sys_, index, region, np.concatenate([X, Y]))
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
                x2 = ss.Configuration({**x.values, **{v: rnd.randrange(k) for v in extra}})
                y2 = ss.Configuration({**y.values, **{v: rnd.randrange(k) for v in extra}})
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
        d = ms.dist(z2_metric, x, ss.Configuration(y))
        assert d.lo > eps or math.isclose(d.lo, eps)
        z = {
            v: (x.values[v] if v in cov_region else rng.randrange(2))
            for v in domain
        }
        d2 = ms.dist(z2_metric, x, ss.Configuration(z))
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
