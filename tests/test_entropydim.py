"""Pattern-count entropy: log counts, ball densities, orbit growth."""

from __future__ import annotations

import itertools
import math
import random
import re

import pytest
from conftest import fresh_ball, log_count_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from symdyn import entropydim as ed
from symdyn import netgraph as ng
from symdyn import symsys as ss
from symdyn import counterexample as cx


@pytest.fixture
def binary_space():
    return ss.PatternSpace.full(ss.Alphabet(2))


def test_log_count_full_binary(binary_space):
    assert ed.pattern_log_count(binary_space, range(7)) == 7.0


def test_log_count_counterexample_prefix():
    # cells 0..6 carry one a-bit each plus b-bits at the junctions 0, 2, 6
    space = cx.cex_space()
    assert ed.pattern_log_count(space, range(7)) == 10.0


def test_log_count_singletons():
    space = ss.PatternSpace(lambda v: (1,))
    assert ed.pattern_log_count(space, range(5)) == 0.0


def test_log_count_additive_over_disjoint(binary_space):
    rng = random.Random(2)
    for _ in range(20):
        left = {(rng.randrange(-9, 0), rng.randrange(-9, 10)) for _ in range(6)}
        right = {(rng.randrange(1, 10), rng.randrange(-9, 10)) for _ in range(6)}
        total = ed.pattern_log_count(binary_space, left | right)
        assert total == pytest.approx(
            ed.pattern_log_count(binary_space, left)
            + ed.pattern_log_count(binary_space, right)
        )


def test_ball_entropy_full_shift_z2(z2, binary_space):
    est = ed.ball_entropy(binary_space, z2, (0, 0), 2, 10)
    assert all(r == 1.0 for r in est.ratios)
    assert est.lower_proxy == est.upper_proxy == 1.0


def test_ball_entropy_counterexample_decays():
    est = ed.ball_entropy(cx.cex_space(), cx.cex_network(), 0, 2, 40)
    assert all(1.0 < r <= 1.6 for r in est.ratios)
    assert all(a >= b for a, b in zip(est.ratios, est.ratios[1:]))
    assert est.ratios[-1] < 1.1  # junction density thins out quadratically


def test_ball_entropy_singleton_space(z2):
    space = ss.PatternSpace(lambda v: (0,))
    est = ed.ball_entropy(space, z2, (0, 0), 2, 6)
    assert all(r == 0.0 for r in est.ratios)


def test_ball_entropy_bounded_by_alphabet(z2):
    space = cx.cex_space()
    est = ed.ball_entropy(space, cx.cex_network(), 0, 2, 12)
    assert all(0.0 <= r <= math.log2(4) for r in est.ratios)


@pytest.mark.parametrize("call,message", [
    (lambda z2, space: ed.ball_entropy(space, z2, (0, 0), 1, 4), "need 2 <= r_min < r_max"),
    (lambda z2, space: ed.ball_entropy(space, z2, (0, 0), 4, 4), "need 2 <= r_min < r_max"),
    (lambda z2, space: ed.tau_entropy_profile(space, ng.shift_tau((1, 0)), [(0, 0)], 0),
     "need n_max >= 1"),
    (lambda z2, space: ed.tau_entropy_profile(space, ng.shift_tau((1, 0)), [], 3),
     "base must be nonempty"),
])
def test_argument_checks(z2, binary_space, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(z2, binary_space)


# Graphs for the log count oracle: a constructor, a strategy for a center,
# and the largest radius drawn.  Non-uniform spaces label only the cells
# n >= 0 of the half-line graphs.
_GRAPHS = {
    "Z^1": (lambda: ng.cayley_zd(1), st.tuples(st.integers(-3, 3)), 12),
    "Z^2": (lambda: ng.cayley_zd(2), st.tuples(*[st.integers(-3, 3)] * 2), 8),
    "Z^3": (lambda: ng.cayley_zd(3), st.tuples(*[st.integers(-3, 3)] * 3), 5),
    "Z^2 x N": (lambda: ng.cayley_zdne(2, 1),
                st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3)), 5),
    "unit shift": (ng.unit_shift_graph, st.integers(0, 9), 12),
    "counterexample": (ng.counterexample_graph, st.integers(0, 30), 10),
    "odometer": (ng.odometer_graph, st.integers(0, 9), 6),  # balls close at r = 1
}
_HALF_LINE = ["unit shift", "counterexample", "odometer"]


@st.composite
def log_count_cases(draw):
    """A full space on k = 2..7 symbols or a non-uniform space, a fresh
    graph whose cells it labels, a center, radii, and a region of ball cells
    with repeats."""
    kind = draw(st.sampled_from([2, 3, 4, 5, 6, 7, "counterexample", "odometer"]))
    if kind == "counterexample":
        space = cx.cex_space()
    elif kind == "odometer":
        space = ss.odometer_system([2, 3, 5])[1]
    else:
        space = ss.PatternSpace.full(ss.Alphabet(kind))
    name = draw(st.sampled_from(_HALF_LINE if isinstance(kind, str) else sorted(_GRAPHS)))
    make, center, top = _GRAPHS[name]
    r_max = draw(st.integers(3, top))
    r_min = draw(st.integers(2, r_max - 1))
    g, v = make(), draw(center)
    cells = ng.sort_vertices(fresh_ball(g, [v], r_max))  # leaves g's shell cache empty
    region = draw(st.lists(st.sampled_from(cells), max_size=40))
    return kind, name, space, g, v, r_min, r_max, region


def test_log_counts_equal_the_fsum_oracle():
    """pattern_log_count and every ball_entropy row equal the correctly
    rounded per-cell sum (the rows as sums of per-shell sums), bit for bit,
    on one-alphabet and non-uniform spaces."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(log_count_cases())
    def check(case):
        kind, name, space, g, v, r_min, r_max, region = case
        seen.update([kind, name])
        balls = [fresh_ball(g, [v], r) for r in range(r_max + 1)]
        assert ed.pattern_log_count(space, region) == log_count_oracle(space, region)
        assert ed.pattern_log_count(space, balls[-1]) == log_count_oracle(space, balls[-1])
        shells = [balls[0]] + [b - a for a, b in zip(balls, balls[1:])]
        want = itertools.accumulate(log_count_oracle(space, s) for s in shells)
        assert ed.ball_entropy(space, g, v, r_min, r_max).log2_counts == tuple(want)[r_min:]
        if balls[-1] == balls[-2]:
            seen.add("closed ball")

    check()
    assert seen == {*range(2, 8), "counterexample", "odometer", *_GRAPHS, "closed ball"}


def test_one_alphabet_ball_entropy_decodes_no_shell():
    """On a full space the counts come from shell sizes: no lattice shell is
    decoded and no cell's allowed set is read."""
    g = ng.cayley_zd(3)
    space = ss.PatternSpace.full(ss.Alphabet(3))
    calls = []
    allowed = space._allowed
    space._allowed = lambda v: calls.append(v) or allowed(v)
    est = ed.ball_entropy(space, g, (0, 0, 0), 2, 12)
    shells = g._shells(frozenset([(0, 0, 0)]), 12)
    coded = [s for s in shells if isinstance(s, ng._CodeShell)]
    assert len(coded) == 12 and all(s._vertices is None for s in coded)
    assert calls == []
    assert est.ball_sizes[-1] == len(fresh_ball(g, [(0, 0, 0)], 12))
    assert est.log2_counts[-1] == pytest.approx(est.ball_sizes[-1] * math.log2(3), rel=1e-15)


# -- weak independence -----------------------------------------------------------


def test_weak_independence_product_exact(z2, binary_space):
    from conftest import disjoint_ball_families

    rng = random.Random(9)
    families = disjoint_ball_families(z2, rng, 20)
    rep = ed.weak_independence_report(binary_space, z2, families)
    assert rep["epsilon"] == 1.0
    assert all(f["additive"] for f in rep["families"])


def test_weak_independence_exact_on_three_symbols(z2):
    """The sum of per-ball log counts is exact, not a sum of rounded terms,
    so additivity holds bit for bit where log2 k is not an integer."""
    from conftest import disjoint_ball_families

    space = ss.PatternSpace.full(ss.Alphabet(3))
    families = disjoint_ball_families(z2, random.Random(9), 50)
    rep = ed.weak_independence_report(space, z2, families)
    assert all(f["ratio"] == 1.0 for f in rep["families"])
    assert rep["epsilon"] == 1.0


def test_weak_independence_counterexample_space():
    g = cx.cex_network()
    balls = [ng.in_ball(g, [0], 2), ng.in_ball(g, [100], 2)]
    rep = ed.weak_independence_report(cx.cex_space(), g, [balls])
    assert rep["epsilon"] == 1.0


def test_weak_independence_single_ball(z2, binary_space):
    rep = ed.weak_independence_report(
        binary_space, z2, [[ng.in_ball(z2, [(0, 0)], 3)]]
    )
    assert rep["epsilon"] == 1.0


def test_weak_independence_rejects_overlap(z2, binary_space):
    balls = [ng.in_ball(z2, [(0, 0)], 2), ng.in_ball(z2, [(1, 0)], 2)]
    with pytest.raises(ed.NonDisjointBallsError):
        ed.weak_independence_report(binary_space, z2, [balls])


# -- orbit entropy -----------------------------------------------------------------


def test_tau_entropy_unit_shift_line(binary_space):
    prof = ed.tau_entropy_profile(binary_space, ng.shift_tau(1), [0], 12)
    assert prof["log2_counts"] == [float(n + 1) for n in range(1, 13)]
    assert prof["values"] == pytest.approx([(n + 1) / n for n in range(1, 13)])


def test_tau_entropy_fixed_region(binary_space):
    ident = ng.Subisometry(map=lambda v: v, label="id")
    prof = ed.tau_entropy_profile(binary_space, ident, [0, 1, 2], 10)
    assert prof["log2_counts"] == [3.0] * 10
    assert prof["values"][-1] == pytest.approx(0.3)


def test_tau_entropy_z2_band(z2, binary_space):
    base = z2.ball_members([(0, 0)], 2)
    prof = ed.tau_entropy_profile(binary_space, ng.shift_tau((1, 0)), base, 20)
    # the swept diamond gains one cell per row per step: 13 + 5N
    assert prof["log2_counts"] == [13.0 + 5 * n for n in range(1, 21)]
    assert prof["values"][-1] == pytest.approx(113 / 20)


def test_region_count_invariant_under_shift(z2, binary_space):
    base = z2.ball_members([(0, 0)], 2)
    tau = ng.shift_tau((3, -2))
    shifted = {tau(v) for v in base}
    assert ed.pattern_log_count(binary_space, base) == ed.pattern_log_count(
        binary_space, shifted
    )


def test_orbit_growth_beats_claimed_floor(z2, binary_space):
    """Positive-speed orbits of a ball must grow at least speed*eps/(4r)
    times the ball's own log count, per step, in the long run."""
    r = 2
    speed = ng.speed_estimate(z2, ng.shift_tau((1, 0)), (0, 0), 8, 20)["inf_proxy"]
    eps = 1.0  # product space: exact additivity
    ball = z2.ball_members([(0, 0)], r)
    floor = speed * eps / (4 * r) * ed.pattern_log_count(binary_space, ball)
    prof = ed.tau_entropy_profile(binary_space, ng.shift_tau((1, 0)), ball, 20)
    assert prof["values"][-1] > floor
