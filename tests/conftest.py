"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from symdyn import netgraph as ng
from symdyn import symsys as ss


@pytest.fixture
def z2():
    return ng.cayley_zd(2)


@pytest.fixture
def odometer():
    return ng.odometer_graph()


def ball_oracle_members(g, probe, center, radius):
    """Reachability oracle: boolean adjacency over a finite probe set,
    expanded by matrix-vector steps.  Independent of the BFS in the library;
    the probe must contain the true ball."""
    probe = list(probe)
    index = {u: i for i, u in enumerate(probe)}
    n = len(probe)
    adj = np.zeros((n, n), dtype=bool)
    for j, u in enumerate(probe):
        for w in g.in_neighbors(u):
            if w in index:
                adj[index[w], j] = True
    reached = np.zeros(n, dtype=bool)
    reached[index[center]] = True
    for _ in range(radius):
        reached = reached | (adj @ reached)
    return {probe[i] for i in range(n) if reached[i]}


def bfs_distance_oracle(g, v, w, cap):
    """Plain one-sided breadth-first search over undirected adjacency."""
    if v == w:
        return 0
    frontier = {v}
    seen = {v}
    for d in range(1, cap + 1):
        nxt = set()
        for x in frontier:
            for y in g.undirected_neighbors(x):
                if y == w:
                    return d
                if y not in seen:
                    seen.add(y)
                    nxt.add(y)
        if not nxt:
            break
        frontier = nxt
    return ng.INFINITE_DISTANCE


def random_explicit_digraph(rng: random.Random, n_vertices=8, n_edges=14):
    """Small random explicit digraph with both neighbor directions."""
    edges = set()
    while len(edges) < n_edges:
        v = rng.randrange(n_vertices)
        w = rng.randrange(n_vertices)
        if v != w:
            edges.add((v, w))
    return ng.explicit_graph(sorted(edges))


def disjoint_ball_families(g, rng: random.Random, count: int):
    """Random families of pairwise disjoint small balls on a grid graph."""
    families = []
    while len(families) < count:
        centers = [
            (rng.randrange(-30, 31) * 7, rng.randrange(-30, 31) * 7)
            for _ in range(rng.randrange(2, 5))
        ]
        balls = [ng.in_ball(g, [c], rng.randrange(1, 4)) for c in centers]
        seen = set()
        ok = True
        for b in balls:
            if seen & set(b.members):
                ok = False
                break
            seen |= set(b.members)
        if ok:
            families.append(balls)
    return families


def trajectory_set_oracle(sys_, space, window, horizon):
    """Observed trajectories of every pattern on the window's cone, each
    computed by `evaluate` on its own configuration."""
    w = ng.sort_vertices(window)
    cells = ss.light_cone(sys_, w, horizon).union
    out = set()
    for pattern in itertools.product(*[space.allowed(v) for v in cells]):
        traj = ss.evaluate(sys_, ss.Configuration(dict(zip(cells, pattern))), w, horizon)
        out.add(tuple(tuple(step[u] for u in w) for step in traj))
    return out


def determined_oracle(sys_, space, window, horizon, tracked):
    """Reference dict engine: materialize every pattern on the horizon's
    cone, group by trajectory, and keep the tracked cells every group agrees
    on."""
    w = ng.sort_vertices(window)
    cells = ss.light_cone(sys_, w, horizon).union
    pos = {v: i for i, v in enumerate(cells)}
    tracked = [v for v in tracked if v in pos]
    groups: dict = {}
    for pattern in itertools.product(*[space.allowed(v) for v in cells]):
        x = ss.Configuration(dict(zip(cells, pattern)))
        traj = ss.evaluate(sys_, x, w, horizon)
        obs = tuple(tuple(step[u] for u in w) for step in traj)
        ref = groups.setdefault(obs, pattern)
        tracked = [v for v in tracked if pattern[pos[v]] == ref[pos[v]]]
    return set(tracked)


def panorama_layers_oracle(sys_, space, window, horizon):
    """Panorama layers by the reference dict engine."""
    cone = ss.light_cone(sys_, window, horizon)
    cum: set = set()
    layers = []
    for t, layer in enumerate(cone.layers):
        cum.update(layer)
        layers.append(ng.sort_vertices(determined_oracle(sys_, space, window, t, cum)))
    return tuple(layers)


def shift_permutation_oracle(trajs, horizon):
    """Does dropping the first observation permute the horizon-truncated
    trajectories?"""
    forward: dict = {}
    backward: dict = {}
    functional = injective = True
    for tr in trajs:
        head, tail = tr[:horizon], tr[1:]
        if forward.get(head, tail) != tail:
            functional = False
        if backward.get(tail, head) != head:
            injective = False
        forward[head] = tail
        backward[tail] = head
    return functional and injective and set(forward) == set(backward)
