"""Graph-side operations: balls, distances, growth, reachability, speed."""

from __future__ import annotations

import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symdyn import entropydim as ed
from symdyn import kernel as kn
from symdyn import metricspace as ms
from symdyn import netgraph as ng
from symdyn import symsys as ss
from conftest import (
    ball_entropy_oracle,
    ball_oracle_members,
    bfs_distance_oracle,
    fresh_ball,
    random_explicit_digraph,
    rank_oracle,
    upstream_oracle,
)


# -- in_ball ------------------------------------------------------------------


def test_ball_z2_radius2_is_diamond(z2):
    ball = ng.in_ball(z2, [(0, 0)], 2)
    assert len(ball.members) == 13
    assert all(abs(a) + abs(b) <= 2 for a, b in ball.members)


def test_ball_odometer_closes_at_center_prefix(odometer):
    ball = ng.in_ball(odometer, [3], 5)
    assert ball.members == (0, 1, 2, 3)


def test_ball_radius_zero_is_center(z2):
    assert ng.in_ball(z2, [(4, -1)], 0).members == ((4, -1),)


def test_ball_rejects_empty_center(z2):
    with pytest.raises(ValueError):
        ng.in_ball(z2, [], 1)


def test_ball_rejects_negative_radius(z2):
    with pytest.raises(ValueError, match="nonnegative"):
        z2.ball_members([(0, 0)], -1)
    with pytest.raises(ValueError, match="nonnegative"):
        z2.ball_sizes([(0, 0)], -1)
    with pytest.raises(ValueError, match="nonnegative"):
        ng.in_ball(z2, [(0, 0)], -1)


@pytest.mark.parametrize("call,message", [
    (lambda z2: ng.undirected_distance(z2, (0, 0), (1, 0), -1), "cap must be nonnegative"),
    (lambda z2: ng.upstream(z2, (0, 0), (1, 0), -1), "cap must be nonnegative"),
    (lambda z2: ng.superlinear_check(z2, (0, 0), 3), "need r_max >= 4"),
    (lambda z2: ng.speed_estimate(z2, ng.shift_tau((1, 0)), (0, 0), 0, 8), "need n_max >= 1"),
    (lambda z2: ng.cayley_zd(0), "need d >= 1"),
    (lambda z2: ng.cayley_zdne(-1, 1), "need d, e >= 0 with d + e >= 1"),
])
def test_argument_checks(z2, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(z2)


def test_balls_monotone_and_composable(z2, odometer):
    shortcut = ng.shortcut_graph()
    for g, center in ((z2, (0, 0)), (odometer, 6), (shortcut, (0, 0))):
        prev = set()
        for r in range(5):
            members = set(ng.in_ball(g, [center], r).members)
            assert prev <= members
            prev = members
        # one more expansion round from radius n equals radius n+1
        for n in range(3):
            inner = ng.in_ball(g, [center], n).members
            assert set(ng.in_ball(g, inner, 1).members) == set(
                ng.in_ball(g, [center], n + 1).members
            )


def test_ball_matches_matrix_power_oracle(z2, odometer):
    probes = {
        "z2": (z2, [(a, b) for a in range(-8, 9) for b in range(-8, 9)], (0, 0)),
        "odometer": (odometer, list(range(41)), 9),
        "unit_shift": (ng.unit_shift_graph(), list(range(41)), 0),
        "zdne": (
            ng.cayley_zdne(1, 1),
            [(a, b) for a in range(-9, 10) for b in range(0, 10)],
            (0, 0),
        ),
        "shortcut": (
            ng.shortcut_graph(),
            [(z, n) for z in range(-80, 81) for n in range(0, 8)],
            (0, 0),
        ),
        "counterexample": (ng.counterexample_graph(), list(range(120)), 0),
    }
    for name, (g, probe, center) in probes.items():
        for r in range(7):
            got = set(ng.in_ball(g, [center], r).members)
            expected = ball_oracle_members(g, probe, center, r)
            assert got == expected, (name, r)


def test_explicit_graph_universe_exhaustion():
    g = ng.explicit_graph([(0, 1), (1, 2)])
    with pytest.raises(ng.UniverseExhaustionError):
        g.in_neighbors(9)


def test_in_out_neighbor_consistency():
    rng = random.Random(3)
    probes = {
        "z2": (ng.cayley_zd(2),
               [(rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(15)]),
        "zdne": (ng.cayley_zdne(1, 1),
                 [(rng.randrange(-5, 6), rng.randrange(0, 6)) for _ in range(15)]),
        "shortcut": (ng.shortcut_graph(),
                     [(rng.randrange(-9, 10), rng.randrange(0, 4)) for _ in range(15)]),
        "unit_shift": (ng.unit_shift_graph(), list(range(1, 12))),
        "counterexample": (ng.counterexample_graph(), list(range(1, 25))),
        "explicit": (random_explicit_digraph(rng), list(range(8))),
    }
    for name, (g, probe) in probes.items():
        for v in probe:
            for w in probe:
                assert (w in g.out_neighbors(v)) == (v in g.in_neighbors(w)), (
                    name, v, w,
                )


# -- undirected distance ------------------------------------------------------


def test_distance_z2(z2):
    assert ng.undirected_distance(z2, (0, 0), (3, -1), 10) == 4


def test_distance_identity_and_symmetry(z2):
    assert ng.undirected_distance(z2, (2, 2), (2, 2), 5) == 0
    a = ng.undirected_distance(z2, (0, 0), (2, 3), 12)
    b = ng.undirected_distance(z2, (2, 3), (0, 0), 12)
    assert a == b == 5


def test_distance_disconnected_is_infinite():
    g = ng.explicit_graph([(0, 1), (1, 0), (2, 3), (3, 2)])
    assert ng.undirected_distance(g, 0, 3, 20) == ng.INFINITE_DISTANCE


@pytest.mark.parametrize("g,vertex,other", [
    (ng.explicit_graph([(0, 1)]), 5, 0),
    (ng.cayley_zdne(1, 1), (0, -1), (0, 0)),
])
def test_distance_rejects_a_non_vertex_at_either_end(g, vertex, other):
    """A non-vertex endpoint is an error whichever side it is on, not a
    distance or an answer that depends on the argument order."""
    for v, w in ((vertex, other), (other, vertex)):
        with pytest.raises(ValueError) as info:
            ng.undirected_distance(g, v, w, 10)
        assert str(info.value) == f"vertex {vertex!r} is not a vertex of this graph"


def test_distance_requires_out_neighbors(odometer):
    with pytest.raises(ng.MissingOutNeighborsError):
        ng.undirected_distance(odometer, 0, 3, 5)


def test_distance_matches_bfs_oracle_on_random_graphs():
    rng = random.Random(11)
    for trial in range(25):
        g = random_explicit_digraph(rng)
        v = rng.randrange(8)
        w = rng.randrange(8)
        assert ng.undirected_distance(g, v, w, 10) == bfs_distance_oracle(
            g, v, w, 10
        ), (trial, v, w)


def test_distance_cap_exhaustion(z2):
    assert ng.undirected_distance(z2, (0, 0), (6, 0), 3) == ng.INFINITE_DISTANCE


def test_shortcut_distance_uses_jumps():
    g = ng.shortcut_graph()
    # climbing to the matching jump level beats walking along the base line
    assert ng.undirected_distance(g, (0, 0), (16, 0), 12) == 8


@st.composite
def distance_cases(draw):
    """A fresh graph with out-neighbors (random explicit, Z x N, the grid of
    a CA on Z^2 with a zero offset or with offsets on a line, or the
    shortcut ladder) and queries (v, w, cap) on it."""
    kind = draw(st.sampled_from(["explicit", "zn", "ca_zero", "ca_line", "shortcut"]))
    if kind == "explicit":
        n = draw(st.integers(1, 9))
        vertex = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=16))
        g = ng.explicit_graph(edges)
        vertex = st.sampled_from(g.universe["vertices"])
    elif kind.startswith("ca"):
        offsets = ([(0, 0), (1, 0), (0, -1)] if kind == "ca_zero"
                   else draw(st.sampled_from([[(1, 2)], [(2, 1), (-4, -2)], [(0, 0), (1, 1)]])))
        g = ss.ca_on_zd(2, offsets, [0] * 2 ** len(offsets))[0].graph
        vertex = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    else:
        g = ng.cayley_zdne(1, 1) if kind == "zn" else ng.shortcut_graph()
        vertex = st.tuples(st.integers(-4, 4), st.integers(0, 3))
    queries = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 12)),
                            min_size=1, max_size=4))
    return kind, g, queries


def test_distance_matches_bfs_oracle_on_cached_shells():
    """undirected_distance agrees with a one-sided BFS on every family with
    out-neighbors, for caps 0..12, asked both ways on one graph object so
    that later queries read the undirected view's cached shells."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(distance_cases())
    def check(case):
        kind, g, queries = case
        for v, w, cap in queries:
            for a, b in ((v, w), (w, v)):
                expected = bfs_distance_oracle(g, a, b, cap)
                assert ng.undirected_distance(g, a, b, cap) == expected, (kind, a, b, cap)
                seen.add((kind, "finite" if expected < ng.INFINITE_DISTANCE else "infinite"))

    check()
    kinds = ["explicit", "zn", "ca_zero", "ca_line", "shortcut"]
    assert seen >= {(k, "finite") for k in kinds} | {("explicit", "infinite"),
                                                     ("ca_line", "infinite")}


def test_distance_needs_out_neighbors_even_at_cap_zero(odometer):
    with pytest.raises(ng.MissingOutNeighborsError):
        ng.undirected_distance(odometer, 0, 3, 0)
    assert ng.undirected_distance(odometer, 3, 3, 0) == 0


# -- dimension estimates ------------------------------------------------------


def test_dim_estimate_z2(z2):
    est = ng.dim_estimate(z2, (0, 0), 16, 64)
    assert 1.85 <= est.fit_slope <= 2.05
    assert est.ball_sizes[0] == 2 * 16 * 16 + 2 * 16 + 1
    assert all(a <= b for a, b in zip(est.ball_sizes, est.ball_sizes[1:]))


def test_dim_estimate_odometer_decays(odometer):
    est = ng.dim_estimate(odometer, 9, 2, 50)
    assert est.fit_slope == pytest.approx(0.0, abs=1e-12)
    expected = [math.log(10) / math.log(r) for r in est.radii]
    assert list(est.pointwise_exponents) == pytest.approx(expected)
    assert est.pointwise_exponents[-1] < est.pointwise_exponents[0]


def test_dim_estimate_counterexample_network():
    est = ng.dim_estimate(ng.counterexample_graph(), 0, 8, 40)
    assert 1.7 <= est.fit_slope <= 2.2


def test_dim_estimate_window_validation(z2):
    with pytest.raises(ValueError):
        ng.dim_estimate(z2, (0, 0), 1, 8)


def test_ols_slope_of_one_abscissa_is_zero():
    """With no spread in x there is no slope to fit, so it reads 0."""
    assert ng.ols_slope([2.0, 2.0], [1.0, 5.0]) == 0.0
    assert ng.ols_slope([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]) == 2.0


# -- superlinear connectivity -------------------------------------------------


def test_superlinear_z2_diverges(z2):
    rep = ng.superlinear_check(z2, (0, 0), 64)
    assert rep["divergent"]
    assert rep["ratios"][-1] > 100


def test_superlinear_z1_flat():
    rep = ng.superlinear_check(ng.cayley_zd(1), (0,), 64)
    assert not rep["divergent"]
    assert rep["ratios"][-1] == pytest.approx((2 * 64 + 1) / 64)


def test_superlinear_odometer_decays(odometer):
    rep = ng.superlinear_check(odometer, 5, 64)
    assert not rep["divergent"]
    assert rep["ratios"][-1] == pytest.approx(6 / 64)


# -- upstream / biconnected ----------------------------------------------------


def test_upstream_odometer(odometer):
    assert ng.upstream(odometer, 0, 5, 1) is True
    assert ng.upstream(odometer, 7, 5, 20) is False  # index only climbs


def test_upstream_self_at_zero_cap(z2):
    assert ng.upstream(z2, (3, 3), (3, 3), 0) is True


def test_upstream_cap_exhaustion_is_unknown(z2):
    assert ng.upstream(z2, (5, 0), (0, 0), 3) is None
    assert ng.upstream(z2, (5, 0), (0, 0), 5) is True


def test_ball_bound_along_upstream(odometer, z2):
    # reaching w within R forces |B(v, r)| <= |B(w, R + r)|
    for g, v, w, R in ((odometer, 2, 7, 1), (z2, (1, 1), (0, 0), 2)):
        assert ng.upstream(g, v, w, R) is True
        for r in range(4):
            assert len(g.ball_members([v], r)) <= len(g.ball_members([w], R + r))


@st.composite
def ball_cases(draw):
    """A fresh graph (random explicit, Z^2 or the odometer graph), two of its
    vertices, a cap, maybe a larger radius to grow the cache to first, and a
    random product space."""
    kind = draw(st.sampled_from(["explicit", "z2", "odometer"]))
    if kind == "explicit":
        n = draw(st.integers(1, 7))
        vertex = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=12))
        g = ng.explicit_graph(edges)
        vertex = st.sampled_from(g.universe["vertices"])
    elif kind == "z2":
        g = ng.cayley_zd(2)
        vertex = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    else:
        g = ng.odometer_graph()
        vertex = st.integers(0, 9)
    cap = draw(st.integers(0, 6))
    warm = draw(st.none() | st.integers(cap + 1, cap + 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=5, max_size=5))
    space = kn.PatternSpace(lambda u: range(sizes[sum(ng.vertex_key(u)) % 5]))
    return g, draw(vertex), draw(vertex), cap, warm, space


def test_ball_reads_match_fresh_bfs():
    """upstream, ball_members, ball_sizes, ball_entropy and
    uniform_dim_profile, read from the cached shells, agree with a BFS of
    their own on random graphs, also after a larger call grew the cache."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(ball_cases())
    def check(case):
        g, v, w, cap, warm, space = case
        if warm is not None:
            g.ball_sizes([w], warm)
            if len(g.shells(frozenset([w]), 0)) > cap + 1:
                seen.add("deeper shells cached")
        expected = upstream_oracle(g, v, w, cap)
        assert ng.upstream(g, v, w, cap) is expected
        balls = [fresh_ball(g, [w], r) for r in range(cap + 2)]
        assert [g.ball_members([w], r) for r in range(cap + 2)] == balls
        assert g.ball_sizes([w], cap + 1) == [len(b) for b in balls]
        if cap >= 2:
            est = ed.ball_entropy(space, g, w, 2, cap + 1)
            want = ball_entropy_oracle(space, g, w, 2, cap + 1)
            assert est.ball_sizes == tuple(size for size, _ in want)
            assert est.log2_counts == pytest.approx([c for _, c in want], rel=1e-12)
            rows = ms.uniform_dim_profile(g, [w, v], range(2, cap + 2))
            assert rows == [
                {"r": r, "sup_exponent": max(
                    math.log(len(fresh_ball(g, [u], r))) / math.log(r) for u in (w, v))}
                for r in range(2, cap + 2)
            ]
        if cap == 0:
            seen.add("cap = 0")
        if v == w:
            seen.add("v == w")
        closes = next((r for r in range(1, cap + 2) if balls[r] == balls[r - 1]), None)
        if expected is False and closes == cap:
            seen.add("closure exactly at the cap")

    check()
    assert seen == {"cap = 0", "v == w", "closure exactly at the cap",
                    "deeper shells cached"}


@st.composite
def lattice_cases(draw):
    """A fresh offset-lattice graph (Z^1..Z^3, Z^d x N^e, the shift graphs
    on Z and N, or the graph of a CA on Z^1 or Z^2 with random offsets of
    length at most 2), one or two centers near the origin (N coordinates
    from 0), the radii of successive reads of their ball, and the longest
    step."""
    kind = draw(st.sampled_from(["zd", "zdne", "shift_z", "shift_n", "ca"]))
    step = 1
    if kind == "zd":
        d, e = draw(st.integers(1, 3)), 0
        g = ng.cayley_zd(d)
    elif kind == "zdne":
        d, e = draw(st.sampled_from([(0, 2), (0, 1), (1, 1), (2, 1), (1, 2)]))
        g = ng.cayley_zdne(d, e)
    elif kind == "ca":
        d, e = draw(st.integers(1, 2)), 0
        offset = st.tuples(*[st.integers(-2, 2)] * d)
        offsets = draw(st.lists(offset, min_size=1, max_size=4))
        g = ss.ca_on_zd(2, offsets, [0] * 2 ** len(offsets))[0].graph
        step = max(abs(c) for o in offsets for c in o) or 1
    else:
        d, e = (1, 0) if kind == "shift_z" else (0, 1)
        g = ng.unit_shift_graph_z() if kind == "shift_z" else ng.unit_shift_graph()
    if kind.startswith("shift"):
        vertex = st.integers(0 if e else -3, 3)
    else:
        vertex = st.tuples(*[st.integers(-2, 2)] * d, *[st.integers(0, 3)] * e)
    centers = draw(st.lists(vertex, min_size=1, max_size=2, unique=True))
    radii = draw(st.lists(st.integers(0, 4 if d + e == 3 else 6), min_size=1, max_size=3))
    return kind, g, d, e, centers, radii, step


def _spans(offsets, d):
    """True iff the integer span of the offsets is all of Z^d (d <= 2): the
    gcd of their d x d minors is 1."""
    minors = ([o[0] for o in offsets] if d == 1 else
              [a[0] * b[1] - a[1] * b[0] for a, b in itertools.combinations(offsets, 2)])
    return math.gcd(*minors) == 1


def _lattice_probe(centers, d, e, radius):
    """The lattice points within radius of the centers in every coordinate
    (a superset of their ball when no step is longer than 1)."""
    points = [c if isinstance(c, tuple) else (c,) for c in centers]
    ranges = [
        range(max(min(p[i] for p in points) - radius, 0 if i >= d else -math.inf),
              max(p[i] for p in points) + radius + 1)
        for i in range(d + e)
    ]
    probe = list(itertools.product(*ranges))
    return probe if isinstance(centers[0], tuple) else [p[0] for p in probe]


def test_lattice_shells_match_oracle():
    """The array BFS of offset lattices gives the shells of the matrix
    reachability oracle, read after read, as the cache is grown past its box
    and read shallower again."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(lattice_cases())
    def check(case):
        kind, g, d, e, centers, radii, step = case
        center = frozenset(centers)
        probe = _lattice_probe(centers, d, e, step * max(radii))
        balls = [set().union(*(ball_oracle_members(g, probe, c, r) for c in centers))
                 for r in range(max(radii) + 1)]
        oracle = [balls[0]] + [b - a for a, b in zip(balls, balls[1:])]
        box_radius = None
        for radius in radii:
            shells = g.shells(center, radius)[: radius + 1]
            if len(shells) <= radius:  # closed: one empty shell ends the list
                assert not shells[-1]
                seen.add("ball closed")
            padding = [set()] * (radius + 1 - len(shells))
            assert [set(s) for s in shells] + padding == oracle[: radius + 1]
            assert g.ball_sizes(centers, radius) == [len(b) for b in balls[: radius + 1]]
            state = g._ball_cache[center][1]
            assert isinstance(state, ng._LatticeBall)
            if box_radius is not None and state.radius > box_radius:
                seen.add("box regrown")
            if radius < len(g.shells(center, 0)) - 1:
                seen.add("shallower read")
            box_radius = state.radius
        if e and any(ng.vertex_key(c)[-1] == 0 for c in centers):
            seen.add(f"{kind} center on N = 0")
        if (d, e) == (0, 2):
            seen.add("E = 2, D = 0")
        if kind == "ca":
            offsets = g.universe["offsets"]
            if (0,) * d in offsets:
                seen.add("ca zero offset")
            if len(set(offsets)) < len(offsets):
                seen.add("ca duplicate offset")
            if step == 2:
                seen.add("ca step of 2")
            if not _spans(offsets, d):
                seen.add(f"ca Z^{d} not spanned")

    check()
    assert seen == {"box regrown", "shallower read", "zdne center on N = 0",
                    "shift_n center on N = 0", "E = 2, D = 0", "ball closed",
                    "ca zero offset", "ca duplicate offset", "ca step of 2",
                    "ca Z^1 not spanned", "ca Z^2 not spanned"}


def _ca_case(offsets, centers, radii):
    """A `lattice_cases` case on the graph of a CA with these offsets."""
    d = len(offsets[0])
    g = ss.ca_on_zd(2, offsets, [0] * 2 ** len(offsets))[0].graph
    return "ca", g, d, 0, centers, radii, max(abs(c) for o in offsets for c in o) or 1


def test_lattice_shells_are_duplicate_free():
    """Every shell of the array BFS holds distinct codes, none of them in an
    earlier shell or the center, each set in the ball's visited bitmap, read
    after read, as the box is regrown; `set(shell)` in the oracle test would
    hide a repeat."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(lattice_cases())
    @example(_ca_case([(0,), (1,), (1,), (-2,)], [(0,), (3,)], [2, 5, 1]))
    @example(_ca_case([(0, 0), (1, 0), (-1, 1), (1, 0)], [(0, 0)], [1, 4]))
    @example(("zdne", ng.cayley_zdne(1, 1), 1, 1, [(0, 0), (1, 2)], [1, 3], 1))
    @example(("shift_n", ng.unit_shift_graph(), 0, 1, [0], [3, 7], 1))
    def check(case):
        kind, g, d, e, centers, radii, step = case
        center = frozenset(centers)
        box_radius = None
        for radius in radii:
            shells = g.shells(center, radius)
            state = g._ball_cache[center][1]
            assert isinstance(state, ng._LatticeBall)
            if state.radius < 0:  # read only at radius 0: no box yet
                assert shells == [set(centers)]
                continue
            points = np.array([ng.vertex_key(c) for c in centers], dtype=np.int64)
            earlier = state.coding.codes(points).tolist()
            for shell in shells[1:]:
                assert isinstance(shell, ng._CodeShell) and shell.coding is state.coding
                codes = shell.codes.tolist()
                assert len(set(codes)) == len(codes)
                assert set(codes).isdisjoint(earlier)
                assert state.seen[shell.codes].all()
                earlier += codes
            if box_radius is not None and state.radius > box_radius:
                seen.add("box regrown")
            box_radius = state.radius
        if e and any(ng.vertex_key(c)[-1] == 0 for c in centers):
            seen.add("center on N = 0")
        if kind == "ca":
            offsets = g.universe["offsets"]
            if (0,) * d in offsets:
                seen.add("ca zero offset")
            if len(set(offsets)) < len(offsets):
                seen.add("ca duplicate offset")

    check()
    assert seen == {"box regrown", "center on N = 0", "ca zero offset", "ca duplicate offset"}


def test_bigger_box_keeps_decoded_shells(monkeypatch):
    """A bigger box refills the shells by BFS, but each refilled shell keeps
    the vertex set an earlier read decoded: after a read to radius 3, a read
    to radius 4 (a new box, to radius 6) decodes only the new shell."""
    decoded = []
    vertices = ng._Coding.vertices
    monkeypatch.setattr(ng._Coding, "vertices",
                        lambda self, codes: decoded.append(len(codes)) or vertices(self, codes))
    g = ng.cayley_zd(2)
    origin = (0, 0)
    assert g.ball_members([origin], 3) == fresh_ball(g, [origin], 3)
    state = g._ball_cache[frozenset([origin])][1]
    assert state.radius == 3 and decoded == [4, 8, 12]
    assert g.ball_members([origin], 4) == fresh_ball(g, [origin], 4)
    assert state.radius == 6 and decoded == [4, 8, 12, 16]
    assert g.ball_sizes([origin], 4) == [1, 5, 13, 25, 41]


def test_lattice_ball_size_bound(monkeypatch):
    """A ball whose estimated size at the requested radius passes _MAX_BALL
    is refused, naming the radius, and the cache stays readable; a doubled
    box past the bound falls back to a box at the requested radius.  The
    bound is the smaller of the estimate and the box that N's zero clips:
    Z x N from (0, 0) is Z x {0}, and N from 5 closes at radius 5."""
    half = ng.cayley_zdne(1, 1)
    assert half._lattice.box([(0, 0)], 2048)[2] == 4097 * 2 < (2048 + 1) ** 2
    assert len(half.ball_members([(0, 0)], 2048)) == 4097
    assert ng.cayley_zdne(0, 1).ball_members([(5,)], 10**19) == {(k,) for k in range(6)}
    monkeypatch.setattr(ng, "_MAX_BALL", 100)
    g = ng.cayley_zd(1)
    assert g.ball_sizes([(0,)], 30)[-1] == 61
    state = g._ball_cache[frozenset([(0,)])][1]
    assert state.radius == 30
    assert g.ball_sizes([(0,)], 31)[-1] == 63  # a box to radius 62 would hold 125
    assert g._ball_cache[frozenset([(0,)])][1] is state and state.radius == 31
    with pytest.raises(ValueError, match="^radius 50: a ball of about 101 vertices, over 100$"):
        g.ball_members([(0,)], 50)
    with pytest.raises(ValueError, match="^radius 40: a ball of about 162 vertices, over 100$"):
        g.ball_members([(0,), (1000,)], 40)
    assert g.ball_sizes([(0,)], 31) == [2 * r + 1 for r in range(32)]


def test_generic_loop_refuses_a_ball_past_the_bound(monkeypatch):
    """The generic loop counts its members and refuses, naming the radius,
    a ball of more than _MAX_BALL vertices, on every graph: offsets of
    length about 1000 on Z fill ~2r^2 cells where the lattice estimate is
    2r + 1 (and the box is refused), and the counterexample network has no
    estimate.  The cache keeps every shell grown before the refusal."""
    monkeypatch.setattr(ng, "_MAX_BALL", 1000)
    ca = ss.ca_on_zd(2, [(-1000,), (-999,), (999,), (1000,)], [0] * 16)[0].graph
    assert ca._lattice.box([(0,)], 40)[2] == 81
    assert ca.ball_sizes([(0,)], 10)[-1] == 221
    with pytest.raises(ValueError, match="^radius 40: a ball of over 1000 vertices$"):
        ca.ball_sizes([(0,)], 40)
    cex = ng.counterexample_graph()
    with pytest.raises(ValueError, match="^radius 5000: a ball of over 1000 vertices$"):
        cex.ball_members([0], 5000)
    for g, v, r in [(ca, (0,), 12), (cex, 0, 20)]:
        assert g._ball_cache[frozenset([v])][2] is not None
        assert g.ball_members([v], r) == fresh_ball(g, [v], r)


def test_lattice_falls_back_to_the_generic_loop():
    """A box that would outweigh the tuple shells, a box whose corners leave
    +-2^62, and a center set that is not on the lattice (a negative N
    coordinate), run the generic loop; each matches a fresh BFS.  Only the
    irregular networks have no lattice."""
    z6 = ng.cayley_zd(6)
    origin = (0,) * 6
    assert z6.ball_sizes([origin], 1) == [1, 13]
    assert isinstance(z6._ball_cache[frozenset([origin])][1], ng._LatticeBall)
    assert z6.ball_members([origin], 4) == fresh_ball(z6, [origin], 4)
    assert z6._ball_cache[frozenset([origin])][2] is not None
    half = ng.cayley_zdne(1, 1)
    off = (0, -1)  # negative N coordinate: not a lattice point
    assert half.ball_members([off], 3) == fresh_ball(half, [off], 3)
    assert half._ball_cache[frozenset([off])][2] is not None
    assert ng.odometer_graph()._lattice is None
    assert ng.shortcut_graph()._lattice is None
    assert ng.counterexample_graph()._lattice is None
    shift = ng.unit_shift_graph()
    assert shift.ball_members([-2], 3) == fresh_ball(shift, [-2], 3) == {-2}
    assert shift._ball_cache[frozenset([-2])][2] is not None
    z1, z2 = ng.cayley_zd(1), ng.cayley_zd(2)
    for g, v in [(z1, (2**63 - 2,)), (z1, (2**63,)), (z2, (-2**63 + 1, 0)), (shift, 2**63 - 2)]:
        assert g.ball_members([v], 3) == fresh_ball(g, [v], 3)
        assert g._ball_cache[frozenset([v])][2] is not None
    assert isinstance(shift._lattice, ng._Lattice)
    assert isinstance(ss.ca_on_zd(2, [(0, 0), (1, 0)], [0, 1, 1, 0])[0].graph._lattice,
                      ng._Lattice)


@pytest.mark.parametrize("offsets,refused_from,sizes", [
    ([(5, 3)], 13, lambda r: r + 1),
    ([(1, 1), (-1, -1)], 88, lambda r: 2 * r + 1),
])
def test_lattice_of_lower_rank_refuses_its_box(offsets, refused_from, sizes):
    """Offsets that span a line grow a ball of about r points in a box of
    about r^2: the box is refused once it outweighs the tuple shells, and
    the ball runs the generic loop."""
    g = ss.ca_on_zd(2, offsets, [0] * 2 ** len(offsets))[0].graph
    origin = np.zeros((1, 2), dtype=np.int64)
    assert g._lattice.box(origin, refused_from - 1)[0] is not None
    assert g._lattice.box(origin, refused_from)[0] is None
    r = refused_from + 20
    assert g.ball_sizes([(0, 0)], r) == [sizes(k) for k in range(r + 1)]
    assert g._ball_cache[frozenset([(0, 0)])][2] is not None
    assert g.ball_members([(0, 0)], r) == fresh_ball(g, [(0, 0)], r)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rank_matches_fraction_elimination(data):
    """Exact rank of small integer rows, of full rank or spanned by fewer
    base rows, against elimination over the rationals."""
    n = data.draw(st.integers(1, 8))
    ints = st.integers(-4, 4)
    base = data.draw(st.lists(st.lists(ints, min_size=n, max_size=n), max_size=8))
    if base and data.draw(st.booleans()):
        mix = data.draw(st.lists(st.lists(ints, min_size=len(base), max_size=len(base)),
                                 max_size=8))
        base = [[sum(c * b[j] for c, b in zip(m, base)) for j in range(n)] for m in mix]
    assert ng._rank(base) == rank_oracle(base)


def test_rank_of_wide_offsets_finishes():
    """24 rows of 64 entries in -3..3: without the division by the previous
    pivot, entry lengths double at each pivot and this runs for minutes, so
    it runs in a child process under a timeout."""
    code = ("import random, time\n"
            "from symdyn import netgraph as ng\n"
            "rng = random.Random(0)\n"
            "rows = [[rng.randint(-3, 3) for _ in range(64)] for _ in range(24)]\n"
            "start = time.perf_counter()\n"
            "print(ng._rank(rows), time.perf_counter() - start)\n")
    src = str(Path(ng.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    rank, seconds = proc.stdout.split()
    rng = random.Random(0)
    rows = [[rng.randint(-3, 3) for _ in range(64)] for _ in range(24)]
    assert int(rank) == rank_oracle(rows) == 24
    assert float(seconds) < 1.0


def test_z3_ball_sizes_and_log_counts_pinned():
    """|B_r| = (2r+1)(2r^2+2r+3)/3 on Z^3 for every r <= 64, and log2
    pattern counts equal to ball sizes on the full 2-shift (r 16..48)."""
    def closed(r):
        return (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3

    z3 = ng.cayley_zd(3)
    est = ng.dim_estimate(z3, (0, 0, 0), 2, 64)
    assert est.ball_sizes == tuple(closed(r) for r in range(2, 65))
    assert z3.ball_sizes([(0, 0, 0)], 1) == [1, 7]
    space = kn.PatternSpace.full(kn.Alphabet(2))
    ent = ed.ball_entropy(space, ng.cayley_zd(3), (0, 0, 0), 16, 48)
    assert ent.ball_sizes == tuple(closed(r) for r in range(16, 49))
    assert ent.log2_counts == ent.ball_sizes


def test_ball_membership():
    ball = ng.in_ball(ng.cayley_zd(2), [(0, 0)], 2)
    assert (1, 1) in ball and (0, -2) in ball
    assert (2, 1) not in ball


def test_biconnected_z2_single_class(z2):
    rep = ng.biconnected_probe(z2, [(0, 0), (1, 0), (2, 2)], 10)
    assert len(rep["classes"]) == 1
    assert not rep["unknown_pairs"]


def test_biconnected_odometer_singletons(odometer):
    rep = ng.biconnected_probe(odometer, [0, 1, 2], 10)
    assert rep["classes"] == [(0,), (1,), (2,)]


def test_biconnected_counterexample_chain():
    g = ng.counterexample_graph()
    rep = ng.biconnected_probe(g, [0, 1], 10)
    assert rep["classes"] == [(0,), (1,)]


# -- subisometries and speed ---------------------------------------------------


def test_subisometry_preserves_edges_and_contracts(z2):
    tau = ng.shift_tau((1, 0))
    rng = random.Random(5)
    pts = [(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(12)]
    for v in pts:
        for w in pts:
            assert z2.has_edge(v, w) == z2.has_edge(tau(v), tau(w))
            d = ng.undirected_distance(z2, v, w, 20)
            dt = ng.undirected_distance(z2, tau(v), tau(w), 20)
            assert dt <= d
    # ball image lands in the image ball
    for r in range(4):
        ball = z2.ball_members([(0, 0)], r)
        image_ball = z2.ball_members([tau((0, 0))], r)
        assert {tau(v) for v in ball} <= image_ball


def test_speed_z2_unit_shift(z2):
    rep = ng.speed_estimate(z2, ng.shift_tau((1, 0)), (0, 0), 8, 20)
    assert rep["values"] == [1.0] * 8
    assert rep["inf_proxy"] == 1.0


def test_speed_identity_is_zero(z2):
    ident = ng.Subisometry(map=lambda v: v, label="id")
    rep = ng.speed_estimate(z2, ident, (2, -1), 5, 5)
    assert rep["values"] == [0.0] * 5


def test_speed_shortcut_collapses():
    g = ng.shortcut_graph()
    tau = ng.Subisometry(map=lambda v: (v[0] + 1, v[1]), label="base_shift")
    rep = ng.speed_estimate(g, tau, (0, 0), 16, 12)
    assert rep["values"][15] is not None
    assert rep["values"][15] <= 9 / 16
    assert rep["inf_proxy"] <= 9 / 16


# -- estuaries -----------------------------------------------------------------


def test_estuary_z2_singleton(z2):
    probes = ng.in_ball(z2, [(0, 0)], 5).members
    assert ng.is_estuary(z2, [(0, 0)], probes, 12) is True


def test_estuary_odometer_definite_negatives(odometer):
    # paths only climb the index, so low anchors catch nothing above them
    assert ng.is_estuary(odometer, [5], [7], 20) is False
    assert ng.is_estuary(odometer, [0], range(10), 10) is False


def test_estuary_odometer_cofinal_anchors(odometer):
    assert ng.is_estuary(odometer, list(range(10)), range(10), 5) is True


def test_estuary_unknown_when_cap_short(z2):
    assert ng.is_estuary(z2, [(6, 0)], [(0, 0)], 2) is None
