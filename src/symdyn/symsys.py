"""Symbolic dynamical systems over countable digraphs.

A system is a finite alphabet, a digraph, and one local rule per vertex whose
input list matches the vertex's in-neighbors.  Everything here evaluates on
finite windows only: trajectories by exact cone evaluation (no boundary
guesses), and panoramas / window certificates exactly over the pattern
space restricted to the cone, by elimination when the cone is linear and by
exhaustive enumeration otherwise.  Because every rule reads exactly
its in-neighbors, the light cone of a window at horizon t is the in-ball
B(window, t): `light_cone` reads it from the network's cached BFS
(`Digraph._shells`), and the cone of every shorter horizon is a prefix of
its `order`, which propagation, trajectories, envelopes and panoramas read.

Rules are applied to configurations in one place, `_StepPlan`: one update
step of a batch of configurations (the rows of a symbol matrix), with one
elementwise call of each rule function on the argument columns of all the
cells that share it.  A trajectory plans its step once and images each
horizon as a prefix (`evaluate` is a batch of one, and the envelope and
factor-chain certificates simulate every pattern on the envelope in one
batch); composed tables, subsymmetry checks and `image_configuration`
plan and image one step (`_image_rows`).  The Lipschitz sweep of
`metricspace` plans its step once, images every x row in full and each
perturbed row only at given (row, cell) pairs (`_StepPlan.image_at`).
Sampled rows come from one sampling kernel: the symbol of a cell with n
allowed symbols is number int(rng.random() * n), and `_uniforms` reads
those values in bulk (`_uniform_blocks`: m from each of many generators).

Panoramas and window checks first try the *linear* engine: when the k =
p^m symbols, read as base-p digit vectors, make every rule the cone applies
GF(p)-affine and every allowed set a subspace, a cell is determined exactly
when its coordinate functionals lie in the span of the observation
functionals, which one incremental Gaussian elimination decides.  The
pattern cap still applies first.  Where it declines, one enumeration engine
runs (panoramas and window checks only).  It composes each window cell's
value at each time step into a lookup table over the cells it reads, then
groups the cone's patterns by observed trajectory in one of two ways,
chosen by what each allocates: *count* packs each pattern's trajectory into
an integer key and walks the patterns in vectorized chunks, keeping one
representative per key, and is used when the patterns overflow one chunk
and the keys do not outnumber them; *sort* otherwise builds the observation
matrix (one row per pattern) and ranks its rows.  Both then compare every
pattern's tracked digits with those of a representative of its trajectory.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .netgraph import (Digraph, Subisometry, UniverseExhaustionError, Vertex, _offset_lattice,
                       graph_from_descriptor, read_fields, read_form, sort_vertices,
                       unit_shift_graph, unit_shift_graph_z)


class NetworkConsistencyError(Exception):
    """A vertex's rule inputs disagree with the graph's in-neighbors."""


class InsufficientDomainError(Exception):
    """A configuration does not cover the light cone needed for evaluation."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"configuration missing vertices: {self.missing}")


class EnumerationCapError(Exception):
    """An exhaustive enumeration would exceed the configured cap."""

    def __init__(self, required, cap):
        self.required = required
        self.cap = cap
        super().__init__(f"enumeration needs {required} patterns, cap is {cap}")


class NotEquicontinuousError(Exception):
    """A window failed envelope certification within the probe horizon."""


DEFAULT_PATTERN_CAP = 2**24
_CHUNK = 2**18  # inner vector length of the count grouping; L2/L3 friendly
_TABLE_MAX = 2**16  # most symbols of an alphabet; most entries of a rule table evaluated at once


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set; symbols are the integers 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("alphabet needs at least two symbols")
        if self.size > _TABLE_MAX:
            raise ValueError(f"alphabet has {self.size} symbols, more than {_TABLE_MAX}")

    def symbols(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class LocalRule:
    """Next-state function of one vertex over its ordered input list.

    `fn` is elementwise.  It gets a tuple with one entry per input, either
    all symbols or all int64 arrays of one shape, and returns the next
    state: a symbol for symbols, an array of that shape for arrays.  Write
    it with numpy operators (`np.where`, not a Python `if` on arguments).
    Vertices that share `fn` and arity are applied in one call.
    """

    inputs: tuple
    fn: Callable[[tuple], int] = field(compare=False)
    label: str = ""

    @classmethod
    def from_table(cls, inputs, table, alphabet_size: int, label: str = ""):
        """Build a rule from a flat table in row-major order of input tuples
        (first input most significant) under symbol order 0..k-1.  Every
        entry must be one of the symbols 0..k-1.
        """
        inputs = tuple(inputs)
        k = alphabet_size
        flat = list(table)
        expected = k ** len(inputs)
        if len(flat) != expected:
            raise ValueError(f"table has {len(flat)} entries, expected {expected}")
        for idx, value in enumerate(flat):
            _check_symbol(value, k, f"table entry {idx} is")
        values = np.array(flat, dtype=np.int64)

        def fn(args):
            idx = 0
            for a in args:
                idx = idx * k + np.asarray(a, dtype=np.intp)
            return values[idx]

        return cls(inputs=inputs, fn=fn, label=label)


def _check_symbol(value, k: int, where: str) -> None:
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (is_int and 0 <= value < k):
        raise ValueError(f"{where} {value!r}, outside the symbols 0..{k - 1}")


class SymbolicSystem:
    """Alphabet + digraph + per-vertex local rule.

    Rules are fetched lazily and checked once against the graph: the rule's
    input set must equal the vertex's in-neighbor set, so the digraph really
    is the dependency network of the update map.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        graph: Digraph,
        rule_at: Callable[[Vertex], LocalRule],
        label: str = "",
    ):
        self.alphabet = alphabet
        self.graph = graph
        self.label = label
        self._rule_at = rule_at
        self._rules: dict = {}

    def rule(self, v: Vertex) -> LocalRule:
        r = self._rules.get(v)
        if r is None:
            r = self._rule_at(v)
            if set(r.inputs) != set(self.graph.in_neighbors(v)):
                raise NetworkConsistencyError(
                    f"rule inputs {r.inputs} != in-neighbors "
                    f"{self.graph.in_neighbors(v)} at vertex {v!r}"
                )
            self._rules[v] = r
        return r


class PatternSpace:
    """Product pattern space: an independent allowed-symbol set per vertex.
    `symbols` is the allowed tuple every cell shares (set by `full`), or None."""

    def __init__(self, allowed: Callable[[Vertex], Sequence[int]], label: str = ""):
        self._allowed = allowed
        self.label = label or "product"
        self.symbols: Optional[tuple] = None

    def allowed(self, v: Vertex) -> tuple:
        if self.symbols is not None:
            return self.symbols
        syms = tuple(self._allowed(v))
        if not syms:
            raise ValueError(f"empty allowed set at vertex {v!r}")
        return syms

    @classmethod
    def full(cls, alphabet: Alphabet) -> "PatternSpace":
        syms = tuple(alphabet.symbols())
        space = cls(lambda v: syms, label="full")
        space.symbols = syms
        return space

    def random_configuration(
        self, domain: Iterable[Vertex], rng: random.Random
    ) -> "Configuration":
        """An allowed symbol per cell, a[int(rng.random() * len(a))], in vertex order."""
        domain = sort_vertices(domain)
        row = _RowPlan([self.allowed(v) for v in domain]).rows(_uniforms(rng, 1, len(domain)))
        return Configuration(dict(zip(domain, row[0].tolist())))


@dataclass(frozen=True)
class Configuration:
    """Finite partial assignment vertex -> symbol."""

    values: dict

    @property
    def domain(self) -> frozenset:
        return frozenset(self.values)

    def __getitem__(self, v: Vertex) -> int:
        return self.values[v]


@dataclass(frozen=True)
class LightCone:
    """Backward dependency cone of a window: the in-ball B(window, horizon)."""

    window: tuple
    horizon: int
    union: tuple
    order: tuple  # cells by in-distance from the window, each shell sorted: window first
    sizes: tuple  # sizes[t] = |B(window, t)|; the cone of horizon t is order[: sizes[t]]


@dataclass(frozen=True)
class PanoramaResult:
    """Determined-cell layers of a window under repeated observation.

    `engine` is "linear" when the cone is GF(p)-linear and elimination
    decided the layers.  Otherwise it names the grouping enumeration picked
    by pattern count and key space: "count" (one pass over packed
    trajectory keys), "sort" (ranked rows of the observation matrix), or
    "count+sort" when layers differed; a layer with no cell left to check
    names its pick without running it.
    """

    window: tuple
    horizon: int
    layers: tuple  # layers[t] = cells determined by observations 0..t
    cone: tuple
    pattern_count: int
    engine: str


# -- the sampling kernel: `rng.random()` read in bulk -------------------------

_DRAW_WORDS = 2**14  # most 32-bit words read at once (64 KB), two per value


def _words(rng: random.Random, count: int):
    """The 32-bit words of the next `count` values of `rng.random()`, two per
    value: `rng.getrandbits(64 * k)` returns the next 2k words, the first
    one lowest.  Reads take at most _DRAW_WORDS words (one value at least)
    and none ahead, so the generator ends where `count` calls leave it."""
    step = max(_DRAW_WORDS // 2, 1)
    for start in range(0, count, step):
        k = min(step, count - start)
        yield np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4")


def _word_uniforms(words: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The `random()` values of `words` (into `out` when given).  CPython
    computes each from two words w1, w2 as (a * 2^26 + b) / 2^53 with
    a = w1 >> 5 and b = w2 >> 6; each step is exact in float64."""
    out = np.multiply(words[0::2] >> 5, 67108864.0, out=out)
    out += words[1::2] >> 6
    out /= 2.0**53
    return out


def _uniforms(rng: random.Random, n: int, m: int) -> np.ndarray:
    """The next n * m values of `rng.random()`, as an (n, m) array."""
    out = np.empty(n * m)
    start = 0
    for words in _words(rng, n * m):
        _word_uniforms(words, out[start: start + len(words) // 2])
        start += len(words) // 2
    return out.reshape(n, m)


def _uniform_blocks(rngs: Iterator[random.Random], m: int):
    """The next m values of `random()` of each generator in `rngs`, as
    (b, m) arrays of b = _DRAW_WORDS // 2 // m generators in turn (one at
    least, m >= 1): each generator's words are read as in `_uniforms`, and a
    block's are converted at once."""
    while block := list(itertools.islice(rngs, max(_DRAW_WORDS // 2 // m, 1))):
        words = np.concatenate([w for rng in block for w in _words(rng, m)])
        yield _word_uniforms(words).reshape(len(block), m)


_BITS_OF_2_52 = np.float64(2.0**52).view(np.int64)


class _RowPlan:
    """Rows of one allowed symbol per cell, `a[int(u * len(a))]` for the
    allowed set a of each cell and a uniform u in [0, 1), of `dtype`."""

    def __init__(self, allowed: Sequence[Sequence[int]], dtype=np.int64):
        sizes = [len(a) for a in allowed]
        if not all(sizes):
            raise ValueError("cannot draw from an empty allowed set")
        self.sizes = np.array(sizes, dtype=np.int64)
        offsets = np.cumsum(self.sizes) - self.sizes  # where each cell's symbols start
        self.biased_offsets = offsets + 2.0**52
        self.symbols = np.array([s for a in allowed for s in a], dtype=dtype)

    def rows(self, uniforms: np.ndarray) -> np.ndarray:
        """One row per row of `uniforms` (one column per cell).  The index
        of each symbol is computed in the uniforms' own buffer, which is
        overwritten: for an integer f below 2^52, the float f + 2^52 has the
        bits of 2^52 plus f."""
        u = np.multiply(uniforms, self.sizes, out=uniforms)
        np.floor(u, out=u)
        idx = np.add(u, self.biased_offsets, out=u).view(np.int64)
        idx -= _BITS_OF_2_52
        return self.symbols[idx]


# -- cones, propagation, evaluation -----------------------------------------


def light_cone(sys: SymbolicSystem, window: Iterable[Vertex], horizon: int) -> LightCone:
    """Input cone of a window: the cells its values at times 0..horizon read.

    Every rule reads exactly its vertex's in-neighbors, so this is the
    in-ball B(window, horizon), read from the graph's cached shells.  The
    rules of the cells within horizon - 1 are fetched, which checks that.
    A cell listed twice in the window is one cell of it.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    w = sort_vertices(set(window))
    if not w:
        raise ValueError("window must be nonempty")
    shells = sys.graph._shells(frozenset(w), horizon)[: horizon + 1]
    order = tuple(v for shell in shells for v in sort_vertices(shell))
    sizes = tuple(sys.graph.ball_sizes(w, horizon))
    for v in order[: sizes[horizon - 1] if horizon else 0]:
        sys.rule(v)
    return LightCone(window=w, horizon=horizon, union=sort_vertices(order),
                     order=order, sizes=sizes)


def propagation(sys: SymbolicSystem, v: Vertex, horizon: int) -> list:
    """Cumulative cone sizes rho(0..horizon) at one vertex: |B(v, t)|."""
    return list(light_cone(sys, [v], horizon).sizes)


def evaluate(
    sys: SymbolicSystem, x: Configuration, window: Iterable[Vertex], horizon: int
) -> list:
    """Trajectory [x_W, Phi(x)_W, ..., Phi^T(x)_W] by exact cone evaluation.

    The configuration must cover the full light cone; otherwise the error
    names the missing vertices.  Values outside the cone are never read.
    """
    cone = light_cone(sys, window, horizon)
    missing = [v for v in cone.union if v not in x.values]
    if missing:
        raise InsufficientDomainError(missing)
    traj = _trajectory_rows(sys, cone, np.array([[x.values[v] for v in cone.union]]))
    return [dict(zip(cone.window, step)) for step in traj[0].tolist()]


# -- the rule-application kernel: every rule call on configurations -----------
# Configurations are the rows of a symbol matrix; `index` maps cells to columns.

_BLOCK = 2**12  # (row, cell) pairs gathered at once: keeps peak memory flat


def _columns(cells: Iterable[Vertex]) -> dict:
    return {v: i for i, v in enumerate(cells)}


class _StepPlan:
    """One update step on any prefix of the region.  Cells are grouped once
    by rule function and arity, each group with its region positions
    (ascending) and argument columns; only `image` and `image_at` run rule
    functions."""

    def __init__(self, sys: SymbolicSystem, index: dict, region: Sequence[Vertex]):
        groups: dict = {}
        for j, w in enumerate(region):
            rule = sys.rule(w)
            js, cols = groups.setdefault((rule.fn, len(rule.inputs)), ([], []))
            js.append(j)
            cols.append([index[u] for u in rule.inputs])
        self.region, self.k = region, sys.alphabet.size
        self.groups = [(fn, np.array(js, dtype=np.intp),
                        np.array(cols, dtype=np.intp).reshape(len(js), arity))
                       for (fn, arity), (js, cols) in groups.items()]

    def image(self, rows: np.ndarray, size: int) -> np.ndarray:
        """The step of every row on the first `size` region cells: one call
        per block of about _BLOCK / rows cells of a group, on its argument
        columns as int64.  Values that are not symbols 0..k-1 raise ValueError."""
        n, k = len(rows), self.k
        out = np.empty((n, size), dtype=np.min_scalar_type(k - 1))
        step = max(1, _BLOCK // max(n, 1))
        for fn, js, cols in self.groups:
            stop = int(np.searchsorted(js, size))
            for lo in range(0, stop, step):
                hi = min(lo + step, stop)
                at, args = js[lo:hi], rows[:, cols[lo:hi]].astype(np.int64)
                values = np.broadcast_to(fn(tuple(args.transpose(2, 0, 1))), (n, len(at)))
                _check_values(values, k, lambda i, at=at: self.region[at[i[1]]])
                out[:, at] = values
        return out

    @cached_property
    def _slots(self) -> np.ndarray:
        """The group of each region cell, and its place in the group."""
        slots = np.empty((2, len(self.region)), dtype=np.intp)
        for g, (_, js, _) in enumerate(self.groups):
            slots[0, js], slots[1, js] = g, np.arange(len(js))
        return slots

    def image_at(self, rows: np.ndarray, which: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The step of row which[q] at region position at[q], for every q:
        one call per block of _BLOCK of a group's pairs, checked as in `image`."""
        out = np.empty(len(at), dtype=np.min_scalar_type(self.k - 1))
        group, slot = self._slots[:, at]
        for g, (fn, _, cols) in enumerate(self.groups):
            pairs = np.flatnonzero(group == g)
            for lo in range(0, len(pairs), _BLOCK):
                q = pairs[lo: lo + _BLOCK]
                args = rows[which[q, None], cols[slot[q]]].astype(np.int64)
                values = np.broadcast_to(fn(tuple(args.T)), (len(q),))
                _check_values(values, self.k, lambda i, q=q: self.region[at[q[i[0]]]])
                out[q] = values
        return out


def _image_rows(sys: SymbolicSystem, index: dict, region: Sequence[Vertex],
                rows: np.ndarray) -> np.ndarray:
    """One update step of every row, on the region's cells (`_StepPlan`)."""
    return _StepPlan(sys, index, region).image(rows, len(region))


def _check_values(values: np.ndarray, k: int, vertex_at: Callable) -> None:
    """Raise ValueError, naming the vertex that `vertex_at` gives for its
    index, at the first value that is not a symbol 0..k-1."""
    if values.dtype.kind in "biu" and values.size and values.min() >= 0 and values.max() < k:
        return
    for at in np.argwhere((values < 0) | (values >= k) | (values % 1 != 0))[:1]:
        _check_symbol(values[tuple(at)].item(), k, f"rule at vertex {vertex_at(at)!r} gave")


def _trajectory_rows(sys: SymbolicSystem, cone: LightCone, rows: np.ndarray) -> np.ndarray:
    """Window trajectories of every row, as an array (row, time, window cell)
    over the distinct window cells.  Row columns follow `cone.union`.

    Cells go in `cone.order`: the window leads, and step t, which needs
    only the cells within horizon - t of the window, images a prefix.
    """
    cells, ends = cone.order, cone.sizes
    index, position = _columns(cells), _columns(cone.union)
    values = rows[:, [position[v] for v in cells]]
    traj = [values[:, : ends[0]]]
    plan = _StepPlan(sys, index, cells[: ends[cone.horizon - 1] if cone.horizon else 0])
    for t in range(1, cone.horizon + 1):
        values = plan.image(values, ends[cone.horizon - t])
        traj.append(values[:, : ends[0]].copy())
    return np.stack(traj, axis=1)


# -- exhaustive panorama enumeration -----------------------------------------


def _pattern_count(space: PatternSpace, cells: Sequence[Vertex]) -> int:
    n = 1
    for v in cells:
        n *= len(space.allowed(v))
    return n


def panorama(
    sys: SymbolicSystem,
    space: PatternSpace,
    window: Iterable[Vertex],
    horizon: int,
    max_patterns: int = DEFAULT_PATTERN_CAP,
) -> PanoramaResult:
    """Determined-cell layers of a window, by elimination on linear cones
    and exhaustive enumeration otherwise; the cap bounds both.

    A cone cell is in layer t exactly when every pair of cone patterns with
    equal observed trajectories through time t agrees at that cell.  Cells
    outside the cone cannot influence the observations and are never listed.
    Layer t is computed over the cone of horizon t, which decides the same
    quantifier as any larger cone because the space is a product.
    """
    cone, count = _enumerable_cone(sys, space, window, horizon, max_patterns)
    layers = []
    engines = set()
    for det, engine in _layers(sys, space, cone):
        layers.append(sort_vertices(det))
        engines.add(engine)
    return PanoramaResult(
        window=cone.window,
        horizon=horizon,
        layers=tuple(layers),
        cone=cone.union,
        pattern_count=count,
        engine="+".join(sorted(engines)),
    )


def posexpansive_window_check(
    sys: SymbolicSystem,
    space: PatternSpace,
    window: Iterable[Vertex],
    t_max: int,
    target: Iterable[Vertex],
    max_patterns: int = DEFAULT_PATTERN_CAP,
) -> dict:
    """Find the least horizon at which a target set is fully determined.

    The panorama's horizon loop restricted to the target, stopping at the
    first horizon that pins all of it down.  A positive answer is a finite
    certificate; a negative one only reports what stayed undetermined
    through t_max.
    """
    target = set(target)
    cone, _ = _enumerable_cone(sys, space, window, t_max, max_patterns)
    for t, (det, _) in enumerate(_layers(sys, space, cone, target)):
        if target <= det:
            return {"covered": True, "first_t": t, "missing": ()}
    return {"covered": False, "first_t": None, "missing": sort_vertices(target - det)}


def _enumerable_cone(sys, space, window, horizon, max_patterns):
    """The window's light cone and its pattern count, within the cap."""
    cone = light_cone(sys, window, horizon)
    count = _pattern_count(space, cone.union)
    if count > max_patterns:
        raise EnumerationCapError(count, max_patterns)
    return cone, count


def _layers(sys, space, cone, target=None):
    """The linear engine's layers, or enumeration's where it declines."""
    layers = _linear_layers(sys, space, cone, target)
    return _determined_layers(sys, space, cone, target) if isinstance(layers, str) else layers


def _determined_layers(sys, space, cone, target=None):
    """For t = 0..horizon, the cells (of `target`, default all) of the cone
    of horizon t that observations 0..t pin down, and the grouping ("count"
    or "sort") the sizes pick for that horizon.

    Exact for product spaces: enumeration runs over the horizon's own cone
    and every cell outside it is unconstrained.  Layers are nested, so only
    cells not determined at an earlier horizon are checked; composed tables
    are shared between horizons.  The grouping is picked by what each
    allocates: count, one representative per trajectory key per worker plus
    chunk buffers, when the patterns overflow one chunk and the keys do not
    outnumber them; sort, one row per pattern, otherwise.
    """
    det: frozenset = frozenset()
    memo: dict = {}
    for t, size in enumerate(cone.sizes):
        cells = cone.order[:size][::-1]  # farthest first: the count walk's outer block
        cum = set(cells) if target is None else target.intersection(cells)
        keyspace = sys.alphabet.size ** (len(cone.window) * (t + 1))
        patterns = _pattern_count(space, cells)
        engine = "count" if patterns > _CHUNK and keyspace <= patterns else "sort"
        pending = sort_vertices(cum - det)
        if pending:
            grouping = _count_grouping if engine == "count" else _sort_grouping
            tables = _composed_tables(sys, space, cone.window, t, memo)
            det |= grouping(sys, space, cells, tables, pending)
        yield det, engine


def _strides(cells: Sequence[Vertex], space: PatternSpace) -> dict:
    """Place value of each cell in the mixed-radix enumeration of `cells`
    (first cell most significant, digits indexing `space.allowed`)."""
    out = {}
    stride = 1
    for c in reversed(cells):
        out[c] = stride
        stride *= len(space.allowed(c))
    return out


def _radix_index(
    cells: Sequence[Vertex], space: PatternSpace, weights: dict
) -> np.ndarray:
    """Sum of digit * weight at every point of the mixed-radix enumeration
    of `cells`; cells without a weight count zero.

    With `_strides(dom, space)` as weights this maps each pattern on `cells`
    to its position in the enumeration of a sub-domain `dom`; with `{v: 1}`
    it is the digit of v.
    """
    out = np.zeros(1, dtype=np.int64)
    for c in cells:
        r = len(space.allowed(c))
        if r > 1:
            step = np.arange(r, dtype=np.int64) * weights.get(c, 0)
            out = (out[:, None] + step).ravel()
    return out


def _group_rows(columns: Iterable[np.ndarray], radix: int, n: int):
    """Rank the rows of an n-row matrix given column by column, with entries
    in 0..radix-1, so that equal rows share a rank.

    Returns (first, ranks): ranks[i] is the rank of row i among the distinct
    rows and first[j] the first row of rank j.  Rows pack into int64 codes,
    re-ranked whenever one more column could overflow them, so rows of any
    width group exactly.
    """
    code = np.zeros(n, dtype=np.int64)
    bound = 1
    for col in columns:
        if bound * radix > 2**62:
            code = np.unique(code, return_inverse=True)[1]
            bound = n
        code = code * radix + col
        bound *= radix
    _, first, ranks = np.unique(code, return_index=True, return_inverse=True)
    return first, ranks


def _composed_tables(sys, space, window, horizon, memo=None):
    """Value of each window cell at each time, as a lookup table over the
    mixed-radix enumeration of the cells it reads at time 0.

    Returns (domain, table) pairs, time-major and in window order.  Each rule
    runs on its table's argument matrix through `_image_rows`.  Tables
    are kept in `memo` by (time, cell), so calls sharing it reuse them.
    """
    memo = {} if memo is None else memo

    def build(t, v):
        got = memo.get((t, v))
        if got is not None:
            return got
        if t == 0:
            got = (v,), np.array(space.allowed(v), dtype=np.int64)
        else:
            inputs = sys.rule(v).inputs
            subs = [build(t - 1, u) for u in inputs]
            dom = sort_vertices(set().union(*(d for d, _ in subs)))
            cols = [arr[_radix_index(dom, space, _strides(d, space))] for d, arr in subs]
            args = np.stack(cols, axis=1) if cols else np.zeros((1, 0), dtype=np.int64)
            got = dom, _image_rows(sys, _columns(inputs), [v], args)[:, 0]
        memo[(t, v)] = got
        return got

    return [build(t, u) for t in range(horizon + 1) for u in window]


def _bit_fields(space, tracked):
    """Shift and mask of each tracked cell's bit field in one int64 word of
    packed digits, in order."""
    fields, shift = {}, 0
    for v in tracked:
        width = (len(space.allowed(v)) - 1).bit_length()
        fields[v] = shift, ((1 << width) - 1) << shift
        shift += width
    if shift > 63:  # needs more than 2^50 patterns: beyond any enumerable cone
        raise ValueError(f"{len(fields)} tracked cells need {shift} bits, more than one int64")
    return fields


def _packed_digits(cells, space, fields):
    """The tracked digits of every pattern on `cells` (a mixed-radix
    enumeration), each shifted into its bit field."""
    return _radix_index(cells, space, {v: 1 << s for v, (s, _) in fields.items()})


def _merge_reps(into, other):
    """Fold one count-grouping worker's (representatives, differences) pair
    into another's.  A pair holds a representative per key (the packed digits
    of some pattern with that key, -1 where none has it) and the OR of every
    pattern's packed digits XOR its key's representative.  Keys both have
    seen OR the XOR of their representatives into the differences, keys only
    `other` has seen take its representative; `into`'s change in place."""
    (rep, diff), (rep2, diff2) = into, other
    seen, seen2 = rep >= 0, rep2 >= 0
    both, new = seen & seen2, seen2 & ~seen
    diff |= diff2 | int(np.bitwise_or.reduce(rep[both] ^ rep2[both]))
    rep[new] = rep2[new]
    return rep, diff


def _settled(fields, diff):
    """The tracked cells whose bit field stayed zero in the differences:
    every pattern agrees there with its trajectory's representative."""
    return frozenset(v for v, (_, mask) in fields.items() if not diff & mask)


def _sort_grouping(sys, space, cells, tables, tracked):
    """Rank the rows of the observation matrix and compare every pattern's
    packed tracked digits with those of the first pattern of its rank.
    Entry (i, j) of the matrix is the j-th table's value under the i-th
    pattern on `cells`."""
    first, ranks = _group_rows(
        (arr[_radix_index(cells, space, _strides(dom, space))] for dom, arr in tables),
        sys.alphabet.size,
        _pattern_count(space, cells),
    )
    fields = _bit_fields(space, tracked)
    packed = _packed_digits(cells, space, fields)
    return _settled(fields, int(np.bitwise_or.reduce(packed ^ packed[first[ranks]])))


def _merge_tables(tables, space, radix, cap):
    """Greedily merge consecutive tables over their union domains while the
    union's enumeration stays within `cap` entries.

    Fewer, cache-resident lookup tables mean fewer gather passes in the hot
    loop.  Each merged table holds its members' values, each times its key
    weight (radix^(n-1-j) for the j-th of n tables), so a trajectory's key is
    the sum of the merged tables' entries.
    """
    merged = []
    i = 0
    while i < len(tables):
        dom = set(tables[i][0])
        j = i + 1
        while j < len(tables) and _pattern_count(space, dom | set(tables[j][0])) <= cap:
            dom |= set(tables[j][0])
            j += 1
        dom = sort_vertices(dom)
        packed = np.zeros(_pattern_count(space, dom), dtype=np.int64)
        for m, (sub_dom, arr) in enumerate(tables[i:j], i):
            weight = np.int64(radix) ** (len(tables) - 1 - m)
            packed += arr[_radix_index(dom, space, _strides(sub_dom, space))] * weight
        merged.append((dom, packed))
        i = j
    return merged


def _thread_count() -> int:
    """Worker threads of the count grouping: SYMDYN_THREADS, else up to 2."""
    env = os.environ.get("SYMDYN_THREADS")
    if env is None:
        return max(1, min(2, os.cpu_count() or 1))
    if not (env.isdecimal() and int(env) > 0):
        raise ValueError(f"SYMDYN_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _count_grouping(sys, space, cells, tables, tracked):
    """One pass over packed trajectory keys, checking every tracked cell.

    The pattern space over the cone is enumerated as an outer x inner
    product: the low-stride cell block is materialized once as vectorized
    index arrays, while the high-stride block is walked in an outer loop
    contributing scalar offsets.  Each pattern's observed trajectory packs
    into one integer key via merged lookup tables, and its tracked digits
    into bit fields of one int64.  Each worker keeps one representative per
    key for its whole walk, taken in the first chunk that meets the key, and
    ORs every pattern's XOR with it; workers then merge on the keys they
    share, so a cell is determined exactly when its field of the OR stays
    zero, however the work is split.  Callers list the farthest cells first,
    so the outer block moves the fewest observations and keys recur across
    chunks.
    """
    k = sys.alphabet.size
    keyspace = k ** len(tables)
    rads = [len(space.allowed(v)) for v in cells]
    fields = _bit_fields(space, tracked)

    # split cells into outer | inner with the inner product near _CHUNK
    split = len(cells)
    inner_count = 1
    while split > 0 and inner_count * rads[split - 1] <= _CHUNK:
        split -= 1
        inner_count *= rads[split]
    outer_cells = cells[:split]
    inner_cells = cells[split:]

    key_dtype = np.uint16 if keyspace <= 2**16 else np.int32 if keyspace <= 2**31 else np.int64

    # each block's index is its inner index plus the outer pattern's offset
    prepared = [
        (_radix_index(inner_cells, space, _strides(dom, space)),
         _radix_index(outer_cells, space, _strides(dom, space)).tolist(),
         table.astype(key_dtype))
        for dom, table in _merge_tables(tables, space, k, cap=2**18)
    ]
    inner_packed = _packed_digits(inner_cells, space, fields)
    outer_packed = _packed_digits(outer_cells, space, fields).tolist()

    def run(w):
        rep, ored = np.full(keyspace, -1, dtype=np.int64), 0
        ibuf = np.empty(inner_count, dtype=np.intp)
        keys = np.empty_like(ibuf)
        key = np.empty(inner_count, dtype=key_dtype)
        block = np.empty_like(key)
        packed = np.empty(inner_count, dtype=np.int64)
        diff = np.empty_like(packed)
        for o in range(w, len(outer_packed), workers):
            # indices are in range; "clip" spares the copy of `out` that "raise" makes
            for j, (inner_part, outer_part, table) in enumerate(prepared):
                np.add(inner_part, outer_part[o], out=ibuf)
                np.take(table, ibuf, out=block if j else key, mode="clip")
                if j:
                    key += block
            np.add(inner_packed, outer_packed[o], out=packed)
            np.copyto(keys, key)
            np.take(rep, keys, out=diff, mode="clip")
            if diff.min() < 0:  # keys first met here take one of their patterns
                np.copyto(diff, packed, where=diff < 0)
                rep[keys] = diff
                np.take(rep, keys, out=diff, mode="clip")
            diff ^= packed
            ored |= int(np.bitwise_or.reduce(diff))
        return rep, ored

    from concurrent.futures import ThreadPoolExecutor  # lazy: 15 ms and 0.6 MB to import

    workers = min(_thread_count(), len(outer_packed))
    with ThreadPoolExecutor(workers) as pool:
        state, *others = pool.map(run, range(workers))
    for other in others:
        state = _merge_reps(state, other)
    return _settled(fields, state[1])


# -- the exact engine for GF(p)-linear cones ---------------------------------
# Symbols 0..p^m-1 are read as vectors of m base-p digits, least significant
# first; sums and scalings act digit by digit mod p.

def _linear_layers(sys, space, cone, target=None):
    """`_determined_layers` by elimination, or the reason it does not apply.

    It applies when k = p^m with p prime, every rule the cone applies is
    GF(p)-affine on its full table of at most _TABLE_MAX entries,
    and every allowed set is a subspace.  Then the observations through t
    are affine in the coordinates of the pattern over a basis of the
    allowed subspaces, and a cell is determined exactly when each of its
    coordinate functionals lies in the span of the observation functionals.
    The zero pattern and each basis vector are simulated once over the full
    cone (cells beyond the cone of horizon t do not move observations
    through t), and one incremental elimination in reduced echelon form
    serves every horizon.
    """
    k = sys.alphabet.size
    p = next(d for d in range(2, k + 1) if k % d == 0)
    m = 1
    while p**m < k:
        m += 1
    if p**m != k:
        return f"alphabet of {k} symbols is not a prime power"
    seen = set()
    for v in cone.order[: cone.sizes[cone.horizon - 1] if cone.horizon else 0]:
        rule = sys.rule(v)
        fn, arity = rule.fn, len(rule.inputs)
        if (fn, arity) in seen:
            continue
        seen.add((fn, arity))
        try:
            grid, values = _rule_table(fn, arity, k)
        except EnumerationCapError as e:
            return f"rule at vertex {v!r} has {e.required} table entries, over {e.cap}"
        if not _is_affine(grid, values, k, p, m, v):
            return f"nonlinear rule at vertex {v!r}"
    basis = []  # (cell, symbol) of each basis vector of the pattern space
    for v in cone.union:
        cell_basis = _subspace_basis(space.allowed(v), p, m)
        if cell_basis is None:
            return f"allowed set at vertex {v!r} is not a subspace"
        basis += [(v, s) for s in cell_basis]
    return _eliminated_layers(sys, cone, basis, p, m, target)


def _digits(symbols, p: int, m: int) -> np.ndarray:
    """Base-p digit vectors of symbols, along a new last axis of length m."""
    return np.asarray(symbols, dtype=np.int64)[..., None] // p ** np.arange(m) % p


def _is_affine(grid, values, k, p, m, vertex) -> bool:
    """Is f(x) - f(0) the sum of its one-input restrictions, each linear in
    its input's digits?  Reads f's full table (`_rule_table`); every value
    must be a symbol, else ValueError names `vertex`."""
    arity, total = grid.shape
    _check_values(values, k, lambda at: vertex)
    out = _digits(values, p, m)
    # the outputs at the digit unit vectors of each input give the linear part
    units = [p**j * k ** (arity - 1 - i) for i in range(arity) for j in range(m)]
    linear = (out[units] - out[0]) % p
    inputs = _digits(grid.T, p, m).reshape(total, arity * m)
    return np.array_equal(inputs @ linear % p, (out - out[0]) % p)


def _subspace_basis(symbols, p, m):
    """A basis of the symbols as a GF(p) subspace, None if they are not one."""
    allowed, basis = set(symbols), []
    span = np.zeros(1, dtype=np.int64)
    for s in sorted(allowed):
        if s not in span:
            basis.append(s)
            steps = np.arange(p)[:, None] * _digits(s, p, m)
            span = ((_digits(span, p, m)[:, None] + steps) % p @ p ** np.arange(m)).ravel()
            if not allowed.issuperset(span.tolist()):
                return None
    return basis


def _eliminated_layers(sys, cone, basis, p, m, target):
    """Per horizon, the determined cells (of `target`, default all) of the
    horizon's cone and "linear".  `pivots` keeps the rows, int64 arrays mod
    p, in reduced echelon form."""
    k = sys.alphabet.size
    rows = np.zeros((len(basis) + 1, len(cone.union)), dtype=np.min_scalar_type(k - 1))
    position = _columns(cone.union)
    columns: dict = {v: [] for v in cone.union}
    for j, (v, s) in enumerate(basis):
        rows[j + 1, position[v]] = s
        columns[v].append(j)
    traj = _digits(_trajectory_rows(sys, cone, rows), p, m)
    # functionals[t]: the observed digits at time t, each over the basis
    functionals = ((traj[1:] - traj[0]) % p).transpose(1, 2, 3, 0).reshape(
        cone.horizon + 1, traj.shape[2] * m, len(basis))
    pivots: dict = {}

    def add(row):
        for c, pivot_row in pivots.items():
            row = (row - row[c] * pivot_row) % p
        if row.any():
            c = int(np.flatnonzero(row)[0])
            row = row * pow(int(row[c]), -1, p) % p
            for c2, pivot_row in pivots.items():
                pivots[c2] = (pivot_row - pivot_row[c] * row) % p
            pivots[c] = row

    def pinned(j):
        return j in pivots and np.count_nonzero(pivots[j]) == 1

    det: frozenset = frozenset()
    for t, size in enumerate(cone.sizes):
        for row in functionals[t]:
            add(row)
        cells = cone.order[:size] if target is None else target.intersection(cone.order[:size])
        det |= {v for v in cells if v not in det and all(map(pinned, columns[v]))}
        yield det, "linear"


# -- sensitivity, equicontinuity, factor chains ------------------------------


def sensitivity_certificate(
    sys: SymbolicSystem, v: Vertex, radius: int, t_max: int
) -> Optional[dict]:
    """Witness that the cone of v escapes the ball B(v, radius).

    Such an escape at some time t certifies that the propagation at v grows
    past the ball, which is the finite content of v-sensitivity.  The cone
    of horizon t is B(v, t), so the first escape is at t = radius + 1, when
    that shell is nonempty, and the witness is its least cell.
    """
    if radius < 0 or t_max < 0:
        raise ValueError("radius and t_max must be nonnegative")
    cone = light_cone(sys, [v], t_max)
    if radius < t_max and cone.sizes[radius + 1] > cone.sizes[radius]:
        return {"t": radius + 1, "witness": cone.order[cone.sizes[radius]]}
    return None


@dataclass(frozen=True)
class EnvelopeReport:
    certified: bool
    envelope: Optional[tuple]
    certified_horizon: int
    reach: Optional[int]
    cone_sizes: tuple
    trajectory_count: Optional[int]
    reason: str = ""


def _envelope_cone(sys, window, t_probe, r_cap):
    """The window's cone at t_probe, the in-distance of its farthest cell
    (None beyond r_cap), and why it is no envelope ("" when it is one)."""
    cone = light_cone(sys, window, t_probe)
    stabilized = cone.sizes[t_probe // 2] == cone.sizes[t_probe]  # sizes never shrink
    reach = cone.sizes.index(cone.sizes[-1])  # in-distance of the farthest cone cell
    reach = reach if reach <= r_cap else None
    reason = ("cone still growing" if not stabilized
              else "cone beyond reach cap" if reach is None else "")
    return cone, reach, reason


def _pattern_trajectories(sys, space, cone, max_patterns):
    """`_trajectory_rows` of every pattern of `space` on the cone, in
    mixed-radix order; EnumerationCapError past max_patterns patterns."""
    cells = cone.union
    count = _pattern_count(space, cells)
    if count > max_patterns:
        raise EnumerationCapError(count, max_patterns)
    rows = np.empty((count, len(cells)), dtype=np.min_scalar_type(sys.alphabet.size - 1))
    for j, v in enumerate(cells):
        rows[:, j] = np.asarray(space.allowed(v))[_radix_index(cells, space, {v: 1})]
    return _trajectory_rows(sys, cone, rows)


def equicontinuity_envelope(
    sys: SymbolicSystem,
    window: Iterable[Vertex],
    t_probe: int,
    r_cap: int,
    max_patterns: int = DEFAULT_PATTERN_CAP,
) -> EnvelopeReport:
    """Look for a finite cell set whose values pin the window's trajectory.

    The candidate is the cumulative cone; it certifies only when it stops
    growing over the second half of the probe horizon and its farthest cell
    is within r_cap.  A certified envelope's distinct trajectories are then
    counted by simulating every full-alphabet pattern on it.  A finite
    non-divergent probe without stabilization is reported as uncertified.
    """
    if r_cap < 0:
        raise ValueError("r_cap must be nonnegative")
    cone, reach, reason = _envelope_cone(sys, window, t_probe, r_cap)
    count = None
    if not reason:
        traj = _pattern_trajectories(sys, PatternSpace.full(sys.alphabet), cone, max_patterns)
        first, _ = _group_rows(traj.reshape(len(traj), -1).T, sys.alphabet.size, len(traj))
        count = len(first)
    return EnvelopeReport(
        certified=not reason,
        envelope=None if reason else cone.union,
        certified_horizon=t_probe,
        reach=reach,
        cone_sizes=cone.sizes,
        trajectory_count=count,
        reason=reason,
    )


def odometer_factor_chain(
    sys: SymbolicSystem,
    space: PatternSpace,
    windows: Sequence[Iterable[Vertex]],
    horizon: int,
    max_patterns: int = DEFAULT_PATTERN_CAP,
) -> list:
    """Finite-horizon factor-chain certificate over nested windows.

    For each window: its cone must be an envelope (as in
    `equicontinuity_envelope`), the observed trajectory set over the
    horizon is enumerated from the pattern space (the cap bounds those
    patterns), and the drop-first-observation shift is checked to act as a
    permutation on the horizon-truncated trajectories.
    """
    prepared = [sort_vertices(set(w)) for w in windows]
    if not all(prepared):
        raise ValueError("window must be nonempty")
    for a, b in zip(prepared, prepared[1:]):
        if not set(a) <= set(b):
            raise ValueError("windows must be nested")
    k = sys.alphabet.size
    results = []
    for w in prepared:
        cone, _, reason = _envelope_cone(sys, w, horizon, r_cap=horizon + len(w) + 1)
        if reason:
            raise NotEquicontinuousError(f"window {w} has no certified envelope")
        traj = _pattern_trajectories(sys, space, cone, max_patterns)
        count = len(traj)
        trajs, _ = _group_rows(traj.reshape(count, -1).T, k, count)
        # rank heads (steps 0..T-1) and tails (steps 1..T) in one pool
        pool = np.concatenate([traj[:, :-1], traj[:, 1:]]).reshape(2 * count, -1)
        _, ranks = _group_rows(pool.T, k, 2 * count)
        heads, tails = np.zeros((2, 2 * count), dtype=bool)  # rank presence
        heads[ranks[:count]] = tails[ranks[count:]] = True
        # for horizon >= 1 a trajectory is its (head, tail) pair, so the
        # shift is a function and injective exactly when there are as many
        # heads as trajectories, and it permutes when heads and tails agree;
        # at horizon 0 every head and tail is empty
        permutation = horizon == 0 or (
            int(heads.sum()) == len(trajs) and np.array_equal(heads, tails)
        )
        results.append(
            {
                "window": w,
                "envelope": cone.union,
                "trajectory_count": len(trajs),
                "shift_is_permutation": permutation,
            }
        )
    return results


# -- rule properness and subsymmetry -----------------------------------------


def _rule_table(fn, arity: int, k: int):
    """The input grid of a rule's full table, shape (arity, k**arity) in
    row-major order, and fn's values on it; EnumerationCapError past
    _TABLE_MAX entries."""
    total = k**arity
    if total > _TABLE_MAX:
        raise EnumerationCapError(total, _TABLE_MAX)
    grid = np.indices((k,) * arity, dtype=np.int64).reshape(arity, total)
    return grid, np.broadcast_to(fn(tuple(grid)), (total,))


def check_proper(rule: LocalRule, alphabet: Alphabet) -> dict:
    """Exhaustively test that every input coordinate is essential.

    For each coordinate the report carries either a witness pair of input
    tuples differing only there with different outputs, or marks it
    inessential.  The witness is the first input tuple in row-major order
    with such a partner, and its least partner symbol.
    """
    k = alphabet.size
    arity = len(rule.inputs)
    grid, values = _rule_table(rule.fn, arity, k)
    rows, symbols = np.arange(len(values)), np.arange(k)[:, None]
    witnesses: dict = {}
    inessential = []
    for i in range(arity):
        # outs[s, j]: the value at the j-th input tuple with coordinate i set
        # to s, a row of the same row-major table
        outs = values[rows + (symbols - grid[i]) * k ** (arity - 1 - i)]
        differs = outs != values
        hits = np.flatnonzero(differs.any(axis=0))
        if len(hits):
            args = tuple(grid[:, hits[0]].tolist())
            s = int(np.argmax(differs[:, hits[0]]))
            witnesses[i] = (args, args[:i] + (s,) + args[i + 1 :])
        else:
            inessential.append(i)
    return {"proper": not inessential, "witnesses": witnesses, "inessential": inessential}


def subsymmetry_check(
    sys: SymbolicSystem,
    tau: Subisometry,
    probe: Iterable[Vertex],
    space: PatternSpace,
    samples: int = 20,
    seed: int = 0,
) -> dict:
    """Probe-level evidence that tau is a subsymmetry of the system.

    Checks (i) injectivity and edge preservation on the probe set, (ii) that
    the pattern space looks the same along tau, and (iii) commutation of the
    update map with the induced shift on sampled configurations.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    probe = sort_vertices(set(probe))
    images = [tau(v) for v in probe]
    injective = len(set(images)) == len(images)
    edge_violations = []
    for v in probe:
        for w in probe:
            if sys.graph.has_edge(v, w) != sys.graph.has_edge(tau(v), tau(w)):
                edge_violations.append((v, w))
    space_violations = [
        v for v in probe if set(space.allowed(v)) != set(space.allowed(tau(v)))
    ]
    shifted = {u: tau(u) for v in probe for u in sys.rule(v).inputs}
    domain = sort_vertices({*shifted.values(), *(u for w in images for u in sys.rule(w).inputs)})
    rows = _RowPlan([space.allowed(v) for v in domain]).rows(
        _uniforms(random.Random(seed), samples, len(domain)))
    index = _columns(domain)
    # Phi(x o tau) at v against Phi(x) at tau(v), on every sample at once
    differ = _image_rows(sys, {u: index[w] for u, w in shifted.items()}, probe, rows)
    differ = differ != _image_rows(sys, index, images, rows)
    commute_violations = [{"sample": s, "vertex": probe[j]}
                          for s, j in np.argwhere(differ).tolist()]
    passed = (
        injective
        and not edge_violations
        and not space_violations
        and not commute_violations
    )
    return {
        "passed": passed,
        "injective": injective,
        "edge_violations": edge_violations,
        "space_violations": space_violations,
        "commute_violations": commute_violations,
        "samples": samples,
        "seed": seed,
    }


# -- built-in systems ---------------------------------------------------------


def odometer_system(m: Sequence[int]):
    """Adding machine with per-cell moduli m (last entry repeats forever).

    Cell 0 always increments; cell n increments exactly when every lower
    cell is at its top value.  Returns the system and its pattern space.
    """
    from .netgraph import odometer_graph

    for x in m:
        if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
            raise ValueError(f"modulus in m must be an integer, got {x!r}")
    m = tuple(int(x) for x in m)
    if not m or any(x < 1 for x in m):
        raise ValueError("moduli must be positive")
    size = max(2, max(m))
    alphabet = Alphabet(size)

    def modulus(v):
        return m[v] if v < len(m) else m[-1]

    def rule_at(v):
        mv = modulus(v)

        def fn(args, _v=v, _mv=mv):
            carry = np.all([args[n] == modulus(n) - 1 for n in range(_v)], axis=0)
            return np.where(carry, (args[_v] + 1) % _mv, args[_v])[()]

        return LocalRule(inputs=tuple(range(v + 1)), fn=fn, label=f"odometer[{v}]")

    sys = SymbolicSystem(alphabet, odometer_graph(), rule_at, label="odometer")
    space = PatternSpace(lambda v: tuple(range(modulus(v))), label="odometer")
    return sys, space


def full_shift(alphabet_size: int, universe: str = "N"):
    """One- or two-sided full shift: every cell copies its successor."""
    if universe not in ("N", "Z"):
        raise ValueError(f"full_shift universe must be 'N' or 'Z', got {universe!r}")
    alphabet = Alphabet(alphabet_size)
    graph = unit_shift_graph() if universe == "N" else unit_shift_graph_z()

    def copy(args):
        return args[0]

    def rule_at(v):
        return LocalRule(inputs=(v + 1,), fn=copy, label="copy")

    sys = SymbolicSystem(alphabet, graph, rule_at, label=f"full_shift_{universe}")
    return sys, PatternSpace.full(alphabet)


def ca_on_zd(alphabet_size: int, offsets: Sequence[tuple], table: Sequence[int]):
    """Translation-invariant automaton on Z^d: cell v reads v + offset for
    each offset (d >= 1 integers; zero and repeated offsets are allowed), in
    order.  The flat table is row-major over input tuples ordered like
    `offsets`.  Cones run on the array BFS of `netgraph`'s offset lattice;
    offsets that do not span Z^d, like (5, 3) alone, fall back to the
    generic loop once the box would outweigh the ball.
    """
    if not (isinstance(offsets, (list, tuple)) and offsets):
        raise ValueError("ca_zd needs a nonempty list of offsets")
    for o in offsets:
        if not (isinstance(o, (list, tuple)) and all(type(c) is int for c in o)):
            raise ValueError(f"offset {o!r} is not a list of integers")
    offsets = [tuple(o) for o in offsets]
    d = len(offsets[0])
    if d < 1 or any(len(o) != d for o in offsets):
        raise ValueError("offsets must share one dimension d >= 1")
    alphabet = Alphabet(alphabet_size)
    proto = LocalRule.from_table(offsets, table, alphabet_size, label="ca")
    graph = _offset_lattice(offsets, 0, {"family": "ca_zd", "D": d, "offsets": offsets})

    def rule_at(v):
        return replace(proto, inputs=graph.in_neighbors(v))

    sys = SymbolicSystem(alphabet, graph, rule_at, label=f"ca_z{d}")
    return sys, PatternSpace.full(alphabet)


def shift_extension(base_sys: SymbolicSystem, base_space: PatternSpace, psi):
    """Stack copies of a system along an extra integer level.

    The state at (v, n) updates to psi(base update of level n at v, current
    value at (v, n+1)); the level shift (v, n) -> (v, n+1) commutes with the
    update by construction.  Base vertices must be plain integers.
    """

    def ins(vn):
        v, n = vn
        base_inputs = base_sys.rule(v).inputs
        return [(u, n) for u in base_inputs] + [(v, n + 1)]

    graph = Digraph(
        ins, None, universe={"family": "shift_extension", "base": base_sys.label}
    )

    @cache
    def extended(base_fn, width):  # one function per base function, so cells share calls
        return lambda args: psi(base_fn(tuple(args[:width])), args[width])

    def rule_at(vn):
        base_rule = base_sys.rule(vn[0])
        fn = extended(base_rule.fn, len(base_rule.inputs))
        return LocalRule(inputs=tuple(ins(vn)), fn=fn, label="shift_ext")

    sys = SymbolicSystem(
        base_sys.alphabet, graph, rule_at, label=f"{base_sys.label}+shift"
    )
    space = PatternSpace(lambda vn: base_space.allowed(vn[0]), label="shift_ext")
    tau = Subisometry(map=lambda vn: (vn[0], vn[1] + 1), label="level_shift")
    return sys, space, tau


def _explicit_system(alphabet_size: int, graph: dict, entries: list):
    alphabet = Alphabet(alphabet_size)
    graph = graph_from_descriptor(graph)
    rules = {}
    for entry in entries:
        v, inputs, table = read_fields(entry, "rule", ["vertex", "inputs", "table"])
        if v in rules:
            raise ValueError(f"two rules for vertex {v!r}")
        try:
            neighbors = graph.in_neighbors(v)
        except (TypeError, UniverseExhaustionError):
            raise ValueError(f"rule for vertex {v!r}, which is not in the graph") from None
        try:
            rules[v] = LocalRule.from_table(inputs, table, alphabet.size)
        except ValueError as exc:
            raise ValueError(f"rule at vertex {v!r}: {exc}") from None
        if set(inputs) != set(neighbors):
            raise ValueError(
                f"rule at vertex {v!r}: inputs {tuple(inputs)} != in-neighbors {neighbors}"
            )
    missing = [v for v in graph.universe.get("vertices", ()) if v not in rules]
    if missing:  # explicit graphs list their vertices
        raise ValueError(f"no rule for vertex {missing[0]!r}")

    def rule_at(v):
        if v not in rules:
            raise KeyError(f"no rule for vertex {v!r}")
        return rules[v]

    sys = SymbolicSystem(alphabet, graph, rule_at, label="explicit")
    return sys, PatternSpace.full(alphabet)


def system_from_descriptor(desc):
    """Build a system (and its pattern space) from a JSON descriptor: a named
    system, by its field "system", with the fields given below, or the explicit
    {"alphabet": k, "graph": {...}, "rules": [{"vertex": v, "inputs": [...],
    "table": [...]}]} with row-major tables, checked when loaded: one rule per
    graph vertex, with the vertex's in-neighbors as inputs.
    """
    from .counterexample import cex_rules, cex_space

    return read_form(desc, "system", "system", {
        "odometer": (odometer_system, [], {"m": [2]}),
        "full_shift": (full_shift, [], {"alphabet": 2, "universe": "N"}),
        "counterexample": (lambda: (cex_rules(), cex_space()), [], {}),
        "ca_zd": (ca_on_zd, ["alphabet", "offsets", "table"], {}),
        None: (_explicit_system, ["alphabet", "graph", "rules"], {}),
    })
