"""Countable digraphs with lazy in-neighbor enumeration.

Vertices are opaque hashable identifiers: plain integers for chain-like
vertex families, tuples of integers for lattice points.  Every analysis
routine works on a finite probe of the (possibly infinite) graph, expanding
neighborhoods on demand; nothing ever materializes the full vertex set.
There is one in-neighbor BFS, `Digraph.shells`, cached per center set: balls,
ball sizes, `upstream`, the light cones of `kernel` (a cone is an in-ball)
and the entropy and metric routines read its shells, and undirected
distances read the shells of the undirected view (`Digraph.undirected`).
It has two expansions.  Every translation-invariant network is an offset
lattice (`cayley_zd`, `cayley_zdne`, `unit_shift_graph`,
`unit_shift_graph_z` and the grid of `symsys.ca_on_zd`: Z^d x N^e, where
v + offset feeds v), and expands a shell as an int64 code array in a box
around the center set, offset by offset through a visited bitmap, unsorted;
a shell's length is the array's, and it is decoded to its vertex set when
first iterated or probed.  The irregular networks (odometer,
counterexample, shortcut, explicit, shift extension), and lattice balls
whose box `_Lattice.box` refuses, expand one vertex at a time over the
in-neighbor function.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

Vertex = object  # int or tuple[int, ...]

INFINITE_DISTANCE = math.inf


class SymdynError(Exception):
    """Base class of every error the library raises of its own."""


class UniverseExhaustionError(SymdynError):
    """A finite explicit universe cannot supply a requested vertex."""


class MissingOutNeighborsError(SymdynError):
    """Operation needs out-neighbors but the graph only supplies in-neighbors."""


def vertex_key(v: Vertex):
    """Canonical sort key: integers and integer tuples order consistently."""
    return v if isinstance(v, tuple) else (v,)


def sort_vertices(vs: Iterable[Vertex]) -> tuple:
    return tuple(sorted(vs, key=vertex_key))


@dataclass(frozen=True)
class Ball:
    """In-neighbor closure of a center set after `radius` expansion rounds."""

    center: tuple
    radius: int
    members: tuple

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._member_set

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Subisometry:
    """Injective, edge-preserving self-map of the vertex set."""

    map: Callable[[Vertex], Vertex]
    label: str = ""

    def __call__(self, v: Vertex) -> Vertex:
        return self.map(v)


@dataclass(frozen=True)
class DimensionEstimate:
    """Finite-window growth-exponent report for one center vertex.

    `pointwise_exponents[i]` is log|B(v, radii[i])| / log(radii[i]); the
    lower/upper proxies are the min/max of those exponents over the upper
    half of the radius window, and `fit_slope` is the least-squares slope of
    log|B| against log r over the whole window.  All three are finite-window
    surrogates; none claims a limit.
    """

    center: Vertex
    radii: tuple
    ball_sizes: tuple
    pointwise_exponents: tuple
    lower_proxy: float
    upper_proxy: float
    fit_slope: float


class Digraph:
    """A digraph given by a lazy in-neighbor function.

    `in_neighbors(v)` must return a finite sequence for every vertex.
    `out_neighbors` is optional; operations that need undirected adjacency
    raise MissingOutNeighborsError when it is absent.  `universe` is a
    JSON-able descriptor used for serialization and error messages.
    `contains`, where given, tests membership in the vertex set; without it
    every value `graph_translation` accepts is a vertex.
    """

    _lattice: Optional[_Lattice] = None  # set by `offset_lattice`

    def __init__(
        self,
        in_neighbors: Callable[[Vertex], Sequence[Vertex]],
        out_neighbors: Optional[Callable[[Vertex], Sequence[Vertex]]] = None,
        universe: Optional[dict] = None,
        contains: Optional[Callable[[Vertex], bool]] = None,
    ):
        self._in = in_neighbors
        self._out = out_neighbors
        self.universe = universe or {"family": "anonymous"}
        self.contains = contains
        # center set -> (shells, their union or the center set's _LatticeBall)
        self._ball_cache: dict = {}

    def in_neighbors(self, v: Vertex) -> tuple:
        return tuple(self._in(v))

    def out_neighbors(self, v: Vertex) -> tuple:
        if self._out is None:
            raise MissingOutNeighborsError(
                f"graph {self.universe!r} supplies only in-neighbors"
            )
        return tuple(self._out(v))

    def has_edge(self, v: Vertex, w: Vertex) -> bool:
        """True iff v is an in-neighbor of w."""
        return v in self._in(w)

    def undirected_neighbors(self, v: Vertex) -> tuple:
        seen = dict.fromkeys(self.in_neighbors(v))
        seen.update(dict.fromkeys(self.out_neighbors(v)))
        seen.pop(v, None)
        return tuple(seen)

    @cached_property
    def undirected(self) -> Digraph:
        """The graph with undirected adjacency as in-neighbors and its own
        ball cache: its balls are the undirected balls of this graph."""
        return Digraph(self.undirected_neighbors, self.undirected_neighbors,
                       self.universe, self.contains)

    # -- ball expansion ----------------------------------------------------

    def shells(self, center: frozenset, radius: int) -> list:
        """shells[r] holds the vertices at in-distance exactly r from the
        center set, for every r <= radius until the ball closes; a closed
        ball's list ends with one empty shell.  Kept per center set, and
        grown only past the deepest radius so far.  Offset lattices grow
        their shells by the array BFS of `_LatticeBall` (as unsorted
        `_CodeShell`s); other graphs, and lattice balls whose box
        `_Lattice.box` refuses, by the loop below over the shells' union, in
        exact Python ints.  A ball of more than _MAX_BALL vertices is
        refused with a ValueError: by the lattice's size bound before it
        grows, and by the loop's count."""
        cached = self._ball_cache.get(center)
        if cached is None:
            lattice = self._lattice
            ball = _LatticeBall(lattice) if lattice is not None and lattice.holds(center) else None
            cached = self._ball_cache[center] = [[set(center)], ball, None]
        shells, ball, members = cached
        if ball is not None and ball.grow(shells, radius):
            return shells
        if members is None:  # the loop's first run on this center set
            members = cached[2] = set().union(*shells)
        while len(shells) <= radius and shells[-1]:
            new = set()
            for w in shells[-1]:
                for u in self._in(w):
                    if u not in members:
                        new.add(u)
            shells.append(new)
            members |= new
            if len(members) > _MAX_BALL:
                raise ValueError(f"radius {radius}: a ball of over {_MAX_BALL} vertices")
        return shells

    def ball_members(self, centers: Iterable[Vertex], radius: int) -> set:
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return set().union(*self.shells(frozenset(centers), radius)[: radius + 1])

    def ball_sizes(self, centers: Iterable[Vertex], r_max: int) -> list:
        """|B(centers, r)| for r = 0..r_max (constant tail once closed)."""
        if r_max < 0:
            raise ValueError("radius must be nonnegative")
        shells = self.shells(frozenset(centers), r_max)[: r_max + 1]
        sizes = list(itertools.accumulate(len(s) for s in shells))
        return sizes + sizes[-1:] * (r_max + 1 - len(sizes))


# -- offset lattices ----------------------------------------------------------

# Bytes per ball member that tuple shells and their union take (tracemalloc:
# 175 to 183 on Z^2, Z^3 and Z^4); a ball whose box bitmap would take more
# runs the generic loop.
_TUPLE_BYTES = 175
# numpy's limit on array dimensions: a box bitmap has one axis per coordinate
_MAX_DIMENSION = 64
# Most vertices a lattice ball may hold (`_Lattice.box`'s size bound): 2^22 take 32 MiB
# as int64 codes, plus a bitmap byte per box point (1 per vertex on Z, ~6 on Z^3).
_MAX_BALL = 2**22


def _check_dimension(n: int) -> None:
    """Refuse a lattice of more coordinates than a box bitmap can have axes."""
    if n > _MAX_DIMENSION:
        raise ValueError(f"lattice has {n} coordinates, more than {_MAX_DIMENSION}")


def _rank(rows: list, pivot: int = 1) -> int:
    """Rank of integer rows, exactly (an SVD maps ~1.3 MB of LAPACK buffers),
    by Bareiss elimination: entries are minors, so dividing by the previous
    pivot is exact and keeps them small."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    p, j = rows[0], next(j for j, c in enumerate(rows[0]) if c)
    return 1 + _rank([[(p[j] * a - r[j] * b) // pivot for a, b in zip(r, p)]
                      for r in rows[1:]], p[j])


class _Lattice:
    """The offsets (k x n) of an offset lattice, its `e` trailing N
    coordinates, and whether its vertices are plain ints (n == 1)."""

    def __init__(self, offsets: Sequence[tuple], e: int, scalar: bool):
        self.offsets = np.array(offsets, dtype=np.int64)
        self.e = e
        self.scalar = scalar
        self.down = np.maximum(-self.offsets.min(axis=0), 0)  # longest step per coordinate
        self.up = np.maximum(self.offsets.max(axis=0), 0)
        # d coordinates step both ways and m one way, d + m cut to the rank
        # (d first): offsets on a line, like (5, 3), fill ~r of a ~r^2 box.
        rank = _rank(self.offsets.tolist())
        m = int(np.sum((self.down > 0) != (self.up > 0)))
        self.d = min(int(np.sum((self.down > 0) & (self.up > 0))), max(rank - m, 0))
        self.m = min(m, rank - self.d)

    def holds(self, vertices: Iterable[Vertex]) -> bool:
        """True iff every vertex is a point of the lattice."""
        n, e = self.offsets.shape[1], self.e
        if self.scalar:
            return all(type(v) is int and (v >= 0 or not e) for v in vertices)
        return all(
            type(v) is tuple and len(v) == n and all(type(c) is int for c in v)
            and all(c >= 0 for c in v[n - e:])
            for v in vertices
        )

    def box(self, points, radius: int):
        """(lower corner, shape, size) of the box that holds B(points, radius)
        plus one step below N's zero.  `size` bounds |B| by the smaller of
        the box, which N's zero clips, and sum_k 2^k C(d, k) C(radius + m,
        k + m) points per center.  The corner is None when, taken in exact
        ints, it leaves +-2^62 (int64 with room), or when the box bitmap
        would take more bytes than the ball's tuple shells."""
        n, e, d, m = len(self.down), self.e, self.d, self.m
        points = np.array(points, dtype=object).reshape(-1, n)
        lo = points.min(axis=0) - radius * self.down.astype(object)
        hi = points.max(axis=0) + radius * self.up.astype(object)
        lo[n - e:] = np.maximum(lo[n - e:], -self.down[n - e:])
        shape = tuple(int(s) for s in hi - lo + 1)
        ball = sum(2**k * math.comb(d, k) * math.comb(radius + m, k + m) for k in range(d + 1))
        size = min(math.prod(shape), len(points) * ball)
        if min(lo) < -2**62 or max(hi) > 2**62 or math.prod(shape) > _TUPLE_BYTES * size:
            return None, shape, size
        return lo.astype(np.int64), shape, size


class _Coding:
    """Row-major codes of the points of one box."""

    def __init__(self, lo: np.ndarray, shape: tuple, scalar: bool):
        self.lo, self.shape, self.scalar = lo, shape, scalar
        self.strides = np.array([math.prod(shape[i + 1:]) for i in range(len(shape))])

    def codes(self, points: np.ndarray) -> np.ndarray:
        return (points - self.lo) @ self.strides

    def vertices(self, codes: np.ndarray) -> list:
        cols = [(c + lo).tolist() for c, lo in zip(np.unravel_index(codes, self.shape), self.lo)]
        return cols[0] if self.scalar else list(zip(*cols))


class _CodeShell:
    """One BFS shell of an offset lattice as codes in a box.  Its length is
    the codes' length; it is decoded to its vertex set the first time it is
    iterated or probed, and keeps that set."""

    __slots__ = ("codes", "coding", "_vertices")

    def __init__(self, codes: np.ndarray, coding: _Coding, vertices: Optional[set] = None):
        self.codes, self.coding, self._vertices = codes, coding, vertices

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.vertices

    @property
    def vertices(self) -> set:
        if self._vertices is None:
            self._vertices = set(self.coding.vertices(self.codes))
        return self._vertices


class _LatticeBall:
    """Array BFS state of one center set on an offset lattice: the box that
    holds the ball to `radius`, its visited bitmap and the last shell's
    codes."""

    def __init__(self, lattice: _Lattice):
        self.lattice = lattice
        self.radius = -1  # no box yet
        self.refused = False  # a box was refused: the generic loop grows the ball

    def grow(self, shells: list, radius: int) -> bool:
        """Grow `shells` to `radius` or until the ball closes: each offset's
        step of the last shell keeps what the visited bitmap has not seen and
        marks it before the next offset's, so shells repeat no code unsorted.
        False, from then on, once `_Lattice.box` refuses the box for a
        radius; ValueError when the ball's size bound passes _MAX_BALL,
        checked on every call that grows the ball, refused or not."""
        if len(shells) > radius or not shells[-1]:
            return True
        old = shells[1:]  # a new box refills these: keep the vertex sets they decoded
        if radius > self.radius or self.refused:
            center = list(shells[0])
            box = self.lattice.box(center, radius)
            if box[2] > _MAX_BALL:
                raise ValueError(f"radius {radius}: a ball of about {box[2]} vertices, "
                                 f"over {_MAX_BALL}")
            # Regrow to at least twice the radius, so that a caller going one
            # radius at a time (`upstream`) boxes O(log r) times.
            wide = 2 * self.radius
            if self.refused or not (
                    wide > radius and self._box(shells, wide, self.lattice.box(center, wide))
                    or self._box(shells, radius, box)):
                self.refused = True
                return False
        seen, frontier = self.seen, self.frontier
        while len(shells) <= radius and len(frontier):
            parts = []
            for step in self.steps:
                reached = frontier + step
                parts.append(reached[~seen[reached]])
                seen[parts[-1]] = True
            frontier = np.concatenate(parts)
            r = len(shells)
            shells.append(_CodeShell(frontier, self.coding,
                                     old[r - 1]._vertices if r <= len(old) else None))
        self.frontier = frontier
        return True

    def _box(self, shells: list, radius: int, box: tuple) -> bool:
        """Take `box`, the `_Lattice.box` of the ball to `radius`, unless it
        is refused or its size bound passes _MAX_BALL, and cut `shells` back
        to the center, for `grow` to refill.  Points with a negative N
        coordinate start out seen, so the bitmap test drops the steps that
        leave the lattice."""
        lo, shape, size = box
        if lo is None or size > _MAX_BALL:
            return False
        lattice = self.lattice
        center = list(shells[0])
        coding = _Coding(lo, shape, lattice.scalar)
        seen = np.zeros(math.prod(shape), dtype=bool)
        grid = seen.reshape(shape)
        n = len(shape)
        for j in range(n - lattice.e, n):
            grid[(slice(None),) * j + (slice(0, max(-int(lo[j]), 0)),)] = True
        del shells[1:]
        self.frontier = coding.codes(np.array(center, dtype=np.int64).reshape(-1, n))
        seen[self.frontier] = True
        self.seen, self.coding, self.radius = seen, coding, radius
        self.steps = lattice.offsets @ coding.strides
        return True


def offset_lattice(
    offsets: Sequence[tuple], e: int, universe: dict, scalar: bool = False
) -> Digraph:
    """Digraph on Z^n with its last e coordinates in N, where v + offset
    feeds v (and v feeds v - offset) whenever both are lattice points.  The
    in-neighbors of v are v + offset in offset order, repeats kept, so a
    CA's table reads them as listed.  `scalar` vertices are plain ints
    (n == 1).  Builds `cayley_zd`, `cayley_zdne`, both unit shift graphs and
    the grid of `symsys.ca_on_zd`; their balls run on the array BFS
    (`_LatticeBall`)."""
    n = len(offsets[0])
    _check_dimension(n)

    def neighbors(sign):
        moves = [tuple(sign * c for c in off) for off in offsets]
        if scalar:
            return lambda z: [z + m for (m,) in moves if z + m >= 0 or not e]

        def nbrs(v):
            us = [tuple(map(operator.add, v, m)) for m in moves]
            return [u for u in us if min(u[n - e:]) >= 0] if e else us

        return nbrs

    lattice = _Lattice(offsets, e, scalar)
    g = Digraph(neighbors(1), neighbors(-1), universe, lambda v: lattice.holds([v]))
    g._lattice = lattice
    return g


# -- operations ------------------------------------------------------------


def in_ball(g: Digraph, centers: Iterable[Vertex], r: int) -> Ball:
    """B(centers, r): r rounds of in-neighbor expansion from the center set."""
    centers = tuple(centers)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if not centers:
        raise ValueError("center set must be nonempty")
    members = g.ball_members(centers, r)
    return Ball(center=sort_vertices(centers), radius=r, members=sort_vertices(members))


def undirected_distance(g: Digraph, v: Vertex, w: Vertex, cap: int):
    """Exact shortest undirected path length if <= cap, else INFINITE_DISTANCE.

    Bidirectional search over the cached shells of the undirected view
    (`Digraph.undirected`): the ball with the smaller outermost shell grows
    by one shell until that shell meets the other ball; requires
    out-neighbors, and endpoints that pass the graph's membership test.
    INFINITE_DISTANCE means "no path of length <= cap", which covers
    genuinely disconnected pairs as well as cap exhaustion.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    for u in (v, w):
        graph_vertex(g, u)  # on either side, a non-vertex raises ValueError
    if v == w:
        return 0
    g.out_neighbors(v)  # raises early when out-neighbors are unavailable
    view = g.undirected
    # The balls stay disjoint, so the distance exceeds the sum of the radii
    # and a new shell can meet the other ball only in its outermost shell.
    centers, radii, fronts = (frozenset([v]), frozenset([w])), [0, 0], [{v}, {w}]
    while sum(radii) < cap:
        i = 0 if len(fronts[0]) <= len(fronts[1]) else 1  # grow the smaller front
        radii[i] += 1
        fronts[i] = view.shells(centers[i], radii[i])[radii[i]]
        if not fronts[i]:
            break  # that side closed without meeting the other
        if not fronts[i].isdisjoint(fronts[1 - i]):
            return sum(radii)
    return INFINITE_DISTANCE


def dim_estimate(g: Digraph, v: Vertex, r_min: int, r_max: int) -> DimensionEstimate:
    """Ball sizes and growth-exponent proxies over the window [r_min, r_max]."""
    if not (2 <= r_min < r_max):
        raise ValueError("need 2 <= r_min < r_max")
    sizes = g.ball_sizes([v], r_max)
    radii = tuple(range(r_min, r_max + 1))
    ball_sizes = tuple(sizes[r] for r in radii)
    exps = tuple(math.log(s) / math.log(r) for r, s in zip(radii, ball_sizes))
    tail_start = (len(radii)) // 2
    tail = exps[tail_start:]
    slope = ols_slope(
        [math.log(r) for r in radii], [math.log(s) for s in ball_sizes]
    )
    return DimensionEstimate(
        center=v,
        radii=radii,
        ball_sizes=ball_sizes,
        pointwise_exponents=exps,
        lower_proxy=min(tail),
        upper_proxy=max(tail),
        fit_slope=slope,
    )


def ols_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def superlinear_check(g: Digraph, v: Vertex, r_max: int) -> dict:
    """Ratios |B(v,r)|/r and a finite-window divergence heuristic.

    Verdict is True when the minimum ratio over the last quartile of radii
    exceeds the maximum over the first quartile.  A heuristic, not a proof.
    """
    if r_max < 4:
        raise ValueError("need r_max >= 4")
    sizes = g.ball_sizes([v], r_max)
    ratios = [sizes[r] / r for r in range(1, r_max + 1)]
    q = max(1, len(ratios) // 4)
    head_max = max(ratios[:q])
    tail_min = min(ratios[-q:])
    return {
        "radii": list(range(1, r_max + 1)),
        "ratios": ratios,
        "divergent": tail_min > head_max,
        "head_max": head_max,
        "tail_min": tail_min,
    }


def upstream(g: Digraph, v: Vertex, w: Vertex, cap: int):
    """True iff a directed path v -> ... -> w of length <= cap exists.

    Searched as membership of v in the expanding in-neighbor closure of w,
    one cached shell at a time.  Returns None ("unknown") when the cap is
    exhausted while the closure is still growing; returns False only when
    the closure is complete.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if v == w:
        return True
    center = frozenset([w])
    for r in range(1, cap + 1):
        shell = g.shells(center, r)[r]
        if v in shell:
            return True
        if not shell:
            return False
    return None  # cap exhausted, closure still open


def biconnected_probe(g: Digraph, vertices: Iterable[Vertex], cap: int) -> dict:
    """Partition a finite probe set by mutual reachability within cap.

    Two probe vertices share a class iff upstream holds both ways with a
    definite True.  Pairs whose status came back unknown are listed so the
    caller can see which merges a larger cap might still produce.
    """
    vs = sort_vertices(set(vertices))
    parent = {v: v for v in vs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    unknown_pairs = []
    for i, v in enumerate(vs):
        for w in vs[i + 1 :]:
            a = upstream(g, v, w, cap)
            b = upstream(g, w, v, cap)
            if a is True and b is True:
                parent[find(v)] = find(w)
            elif a is None or b is None:
                unknown_pairs.append((v, w))
    classes: dict = {}
    for v in vs:
        classes.setdefault(find(v), []).append(v)
    partition = sorted(
        (sort_vertices(c) for c in classes.values()), key=lambda c: vertex_key(c[0])
    )
    return {"classes": partition, "unknown_pairs": unknown_pairs}


def speed_estimate(
    g: Digraph, tau: Subisometry, v: Vertex, n_max: int, cap: int
) -> dict:
    """Per-n values d(v, tau^n(v)) / n and their minimum.

    The displacement sequence is subadditive, so the minimum over the probed
    window upper-bounds the true speed and converges to it from above.
    Entries whose distance exceeded the cap are recorded as None and left
    out of the minimum.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    values = []
    current = v
    known = []
    for n in range(1, n_max + 1):
        current = tau(current)
        d = undirected_distance(g, v, current, cap)
        if d == INFINITE_DISTANCE:
            values.append(None)
        else:
            values.append(d / n)
            known.append(d / n)
    return {
        "values": values,
        "inf_proxy": min(known) if known else None,
        "unknown_count": values.count(None),
    }


def is_estuary(
    g: Digraph, base: Iterable[Vertex], probes: Iterable[Vertex], cap: int
):
    """Check that every probe vertex is upstream of some base vertex.

    True certifies only the probe set.  False is definite (some probe cannot
    reach any base vertex even with closed search).  None means the cap ran
    out before a verdict.
    """
    base = list(base)
    saw_unknown = False
    for p in sort_vertices(probes):
        statuses = [upstream(g, p, u, cap) for u in base]
        if any(s is True for s in statuses):
            continue
        if all(s is False for s in statuses):
            return False
        saw_unknown = True
    return None if saw_unknown else True


# -- built-in families -------------------------------------------------------


def _grid_offsets(d: int, e: int) -> list:
    """In-neighbor offsets of Z^d x N^e: -e_i and +e_i on each Z coordinate,
    -e_j on each N coordinate (N coordinates only step forward)."""
    _check_dimension(d + e)
    units = [tuple(int(i == j) for j in range(d + e)) for i in range(d + e)]
    return [tuple(s * c for c in units[i]) for i in range(d) for s in (-1, 1)] + [
        tuple(-c for c in units[d + j]) for j in range(e)
    ]


def cayley_zd(d: int) -> Digraph:
    """Cayley digraph of Z^d with generators +-e_i (symmetric, biconnected)."""
    if d < 1:
        raise ValueError("need d >= 1")
    return offset_lattice(_grid_offsets(d, 0), 0, {"family": "cayley_zd", "D": d})


def cayley_zdne(d: int, e: int) -> Digraph:
    """Cayley digraph of the monoid Z^d x N^e.

    Z coordinates step both ways; N coordinates only forward, so in-neighbors
    in an N coordinate exist only above zero.
    """
    if d < 0 or e < 0 or d + e < 1:
        raise ValueError("need d, e >= 0 with d + e >= 1")
    return offset_lattice(
        _grid_offsets(d, e), e, {"family": "cayley_zdne", "D": d, "E": e}
    )


def is_cell_of_n(v) -> bool:
    """Is v a cell n >= 0 of N (the vertex set of the half-line networks)?"""
    return type(v) is int and v >= 0


def odometer_graph() -> Digraph:
    """Adding-machine network on N: every cell below n (and n itself) feeds n.

    Out-neighbor sets are infinite, so only in-neighbors are supplied.
    """

    def ins(n):
        return list(range(0, n + 1))

    return Digraph(ins, None, universe={"family": "odometer"}, contains=is_cell_of_n)


def unit_shift_graph() -> Digraph:
    """Network of the one-sided full shift on N: cell n+1 feeds cell n."""
    return offset_lattice([(1,)], 1, {"family": "unit_shift"}, scalar=True)


def unit_shift_graph_z() -> Digraph:
    """Network of the full shift on Z: cell z+1 feeds cell z."""
    return offset_lattice([(1,)], 0, {"family": "unit_shift_z"}, scalar=True)


def shortcut_graph() -> Digraph:
    """Ladder over Z x N with level-n horizontal jumps of length 2^n.

    (z, n) points to (z, n+-1) and to (z + 2^n, n); the shift (z, n) ->
    (z+1, n) is a subisometry of zero speed thanks to the jumps.
    """

    def neighbors(sign):
        def nbrs(v):
            z, n = v
            return [(z, n + 1), (z + sign * 2**n, n)] + ([(z, n - 1)] if n >= 1 else [])

        return nbrs

    def contains(v):
        return type(v) is tuple and len(v) == 2 and type(v[0]) is int and is_cell_of_n(v[1])

    return Digraph(neighbors(-1), neighbors(1), {"family": "shortcut"}, contains)


def explicit_graph(edges: Iterable[tuple]) -> Digraph:
    """Finite digraph from an explicit edge list (v, w) meaning v feeds w."""
    ins: dict = {}
    outs: dict = {}
    verts = set()
    for v, w in edges:
        ins.setdefault(w, []).append(v)
        outs.setdefault(v, []).append(w)
        verts.add(v)
        verts.add(w)

    def lookup(table):
        def get(v):
            if v not in verts:
                raise UniverseExhaustionError(f"vertex {v!r} not in explicit universe")
            return table.get(v, [])

        return get

    return Digraph(
        lookup(ins),
        lookup(outs),
        universe={"family": "explicit", "vertices": sorted(verts, key=vertex_key)},
        contains=verts.__contains__,
    )


def counterexample_graph() -> Digraph:
    from .counterexample import cex_network

    return cex_network()


def shift_tau(delta) -> Subisometry:
    """Translation subisometry v -> v + delta on tuple or integer vertices."""
    if isinstance(delta, tuple):
        return Subisometry(
            map=lambda v: tuple(a + b for a, b in zip(v, delta)),
            label=f"shift{delta}",
        )
    return Subisometry(map=lambda v: v + delta, label=f"shift({delta})")


def graph_translation(g: Digraph, v, name: Optional[str] = None):
    """v (an int, tuple or JSON list) as a translation of g.  On a grid (`D`
    coordinates, plus `E` if given) it must have that many coordinates, and
    a bare integer is a 1-tuple; `name` is how errors quote v."""
    name = name or repr(v)
    v = tuple(v) if isinstance(v, list) else v
    if "D" not in g.universe:
        return v
    point = v if isinstance(v, tuple) else (v,)
    dim = g.universe["D"] + g.universe.get("E", 0)
    if len(point) != dim or any(type(c) is not int for c in point):
        raise ValueError(f"vertex {name} needs {dim} integer coordinates on this grid")
    return point


def graph_vertex(g: Digraph, v, name: Optional[str] = None):
    """v as a vertex of g: a `graph_translation` that passes g's membership
    test, if g has one."""
    point = graph_translation(g, v, name)
    if g.contains is not None and not g.contains(point):
        raise ValueError(f"vertex {name or repr(v)} is not a vertex of this graph")
    return point


# -- descriptors --------------------------------------------------------------


def _of(*kinds, item=None, size=None):
    """A reader of JSON values of the types `kinds`: lists of `size` entries (if
    given), each read by `item`."""
    def read(value):
        if type(value) not in kinds or size and len(value) != size:
            raise TypeError
        return [item(x) for x in value] if item else value
    return read


def _vertex(v):  # an integer, or a list of integers: a grid point, read as a tuple
    return v if type(v) is int else tuple(_of(list, tuple, item=_of(int))(v))


_INT, _STR, _LIST = ("an integer", _of(int)), ("a string", _of(str)), ("a list", _of(list))
_REAL = ("a number", lambda v: float(_of(int, float, str)(v)))
_VERTICES = ("a list of vertices", _of(list, item=_vertex))
# Each descriptor field: its JSON type as errors name it, and its reader, which
# raises TypeError, ValueError or OverflowError on a value of another type.
_FIELDS = {
    "family": _STR, "D": _INT, "E": _INT,
    "edges": ("a list of vertex pairs", _of(list, item=_of(list, item=_vertex, size=2))),
    "system": _STR, "alphabet": _INT, "universe": _STR, "m": _LIST, "offsets": _LIST,
    "table": _LIST, "graph": ("a JSON object", _of(dict)),
    "rules": ("a list of JSON objects", _of(list, item=_of(dict))),
    "vertex": ("an integer or a list of integers", _vertex), "inputs": _VERTICES,
    # estuary vertices are checked, but kept as written for `graph_vertex` to quote
    "estuary": (_VERTICES[0], lambda v: _VERTICES[1](v) and v),
    "lambda": _REAL, "scheme": _STR, "coeffs": ("a list of numbers", _of(list, item=_REAL[1])),
}


def read_fields(desc, where: str, required=(), **optional) -> list:
    """desc's required fields, then its optional ones (or their defaults), read
    by `_FIELDS`; ValueError naming `where` or the field if desc is not a JSON
    object, lacks a required field, has any other or one of the wrong type."""
    if type(desc) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {desc!r}")
    for key in [k for k in required if k not in desc] + [k for k in desc if k not in required]:
        if key not in optional:
            raise ValueError(f"{where} needs the field {key!r}" if key in required
                             else f"{where} has an unknown field {key!r}")
    values = []
    for key in (*required, *optional):
        kind, read = _FIELDS[key]
        try:
            values.append(read(desc[key]) if key in desc else optional[key])
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{key} must be {kind}, got {desc[key]!r}") from None
    return values


def read_form(desc, where: str, key: str, forms: dict):
    """Build desc by the entry of `forms` that its field `key` names (None if it
    has none): a constructor, the fields it takes and the optional ones'
    defaults."""
    kind, = read_fields({key: desc[key]} if type(desc) is dict and key in desc else {},
                        where, **{key: None})
    if kind not in forms:
        raise ValueError(f"unknown {where} {kind!r}")
    make, required, optional = forms[kind]
    return make(*read_fields(desc, kind or where, required, **optional, **{key: None})[:-1])


_GRAPHS = {  # the forms of a graph descriptor, by its field "family"
    "cayley_zd": (cayley_zd, ["D"], {}), "cayley_zdne": (cayley_zdne, ["D", "E"], {}),
    "odometer": (odometer_graph, [], {}), "unit_shift": (unit_shift_graph, [], {}),
    "unit_shift_z": (unit_shift_graph_z, [], {}), "shortcut": (shortcut_graph, [], {}),
    "counterexample": (counterexample_graph, [], {}), None: (explicit_graph, ["edges"], {}),
}


def graph_from_descriptor(desc) -> Digraph:
    """Build a graph from its JSON descriptor: {"family": name} plus the fields
    `_GRAPHS` gives it, or {"edges": [[v, w], ...]}."""
    return read_form(desc, "graph", "family", _GRAPHS)
