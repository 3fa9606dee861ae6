"""The model of a symbolic system, and the kernel every exact answer runs on.

Trajectories come by exact cone evaluation (no boundary guesses).  Because
every rule reads exactly its in-neighbors, the light cone of a window at
horizon t is the in-ball B(window, t): `light_cone` reads it from the
network's cached BFS (`Digraph.shells`), and the cone of every shorter
horizon is a prefix of its `order`, which propagation, trajectories,
envelopes and panoramas read.

Rule functions are called in one place, `rule_values`: one elementwise call
on int64 arguments, whose values are checked to be symbols.  `StepPlan`
steps a batch of configurations held column-major (a row per cell, a column
per configuration), with one call per block of about _BLOCK (cell,
configuration) pairs of the cells that share a rule function, each argument
gathered as whole rows.  A trajectory plans its step once and images each
horizon as a prefix (`evaluate` is a batch of one, and the envelope and
factor-chain certificates simulate every pattern on the envelope in one
batch); `image_configuration` steps row-major configurations (`image_rows`),
and the sweeps of `metricspace` image a pair only at given (row, cell) pairs
(`StepPlan.image_at`).  Composed tables, subsymmetry checks and full rule
tables call `rule_values` on their own argument columns.  Allowed symbols
and configuration values are checked before a rule reads them
(`check_allowed`, `configuration_row`); a panorama reads each cone
cell's allowed tuple once, in that check, and its space answers from them
(`PatternSpace.read`).  Sampled rows come from one
sampling kernel: the pick of item int(u * n) of n items for a value u of
`rng.random()` (`pick`), of the symbols of a cell as a place in a table that
keeps each distinct allowed tuple once (`RowPlan`).  The values are read in
bulk as words (`_word_bytes`; `uniform_blocks`: m from each of many
generators, joined) and converted as CPython computes them
(`word_uniforms`), only where used.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .netgraph import Digraph, SymdynError, Vertex, sort_vertices


class NetworkConsistencyError(SymdynError):
    """A vertex's rule inputs disagree with the graph's in-neighbors."""


class InsufficientDomainError(SymdynError):
    """A configuration does not cover the light cone needed for evaluation."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"configuration missing vertices: {self.missing}")


class EnumerationCapError(SymdynError):
    """An exhaustive enumeration would exceed the configured cap."""

    def __init__(self, required, cap):
        self.required = required
        self.cap = cap
        super().__init__(f"enumeration needs {required} patterns, cap is {cap}")


TABLE_MAX = 2**16  # most symbols of an alphabet; most entries of a rule table evaluated at once


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set; symbols are the integers 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("alphabet needs at least two symbols")
        if self.size > TABLE_MAX:
            raise ValueError(f"alphabet has {self.size} symbols, more than {TABLE_MAX}")

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
            check_symbol(value, k, f"table entry {idx} is")
        values = np.array(flat, dtype=np.int64)

        def fn(args):
            idx = 0
            for a in args:
                idx = idx * k + np.asarray(a, dtype=np.intp)
            return values[idx]

        fn = _TABLE_FNS.setdefault((k, values.tobytes()), fn)  # equal tables share one
        return cls(inputs=inputs, fn=fn, label=label)


_TABLE_FNS = weakref.WeakValueDictionary()  # a table's function while a rule holds it


def check_symbol(value, k: int, where: str) -> None:
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (is_int and 0 <= value < k):
        raise ValueError(f"{where} {value!r}, outside the symbols 0..{k - 1}")


def check_allowed(space: "PatternSpace", cells: Iterable[Vertex], k: int) -> list:
    """The allowed tuple of each of `cells`, in order; ValueError names the
    first cell that allows a symbol outside 0..k-1.  The least and the
    largest symbol of each distinct allowed tuple are read once; a tuple
    object that several cells share is hashed once."""
    seen, distinct, read = {}, set(), []  # id -> tuple; holding the tuple keeps its id unique
    for v in cells:
        a = space.allowed(v)
        read.append(a)
        if id(a) in seen:
            continue
        seen[id(a)] = a
        if a not in distinct:
            distinct.add(a)
            for s in (min(a), max(a)):
                check_symbol(s, k, f"allowed symbol at vertex {v!r} is")
    return read


def configuration_row(x: "Configuration", cells: Sequence[Vertex], k: int) -> np.ndarray:
    """x's values on `cells`, as one row; ValueError names the first cell
    whose value is not a symbol 0..k-1."""
    row = np.array([[x.values[v] for v in cells]])
    if not (row.dtype.kind in "iu" and (not row.size or 0 <= row.min() <= row.max() < k)):
        for v in cells:
            check_symbol(x.values[v], k, f"configuration value at vertex {v!r} is")
    return row


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
        if len(set(syms)) < len(syms):
            raise ValueError(f"allowed set at vertex {v!r} repeats a symbol")
        return syms

    def read(self, cells: Sequence[Vertex], allowed: Sequence[tuple]) -> "PatternSpace":
        """This space on `cells`, answering from `allowed`, their tuples as
        `self.allowed` gave them, without reading or checking them again;
        itself when every cell shares one tuple."""
        if self.symbols is not None:
            return self
        table = dict(zip(cells, allowed))
        space = PatternSpace(table.__getitem__, self.label)
        space.allowed = table.__getitem__  # the tuples are checked: skip the method's check
        return space

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
        row = RowPlan(map(self.allowed, domain)).rows(word_uniforms(words(rng, len(domain))))
        return Configuration(dict(zip(domain, row.tolist())))


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


def pattern_count(space: PatternSpace, cells: Sequence[Vertex], cap=None) -> int:
    """The number of allowed patterns on `cells`; EnumerationCapError past cap."""
    n = 1
    for v in cells:
        n *= len(space.allowed(v))
    if cap is not None and n > cap:
        raise EnumerationCapError(n, cap)
    return n


def patterns(space: PatternSpace, cells: Sequence[Vertex], cap: int) -> np.ndarray:
    """Every allowed pattern on `cells`, one row each in mixed-radix order
    (first cell most significant); EnumerationCapError past cap patterns."""
    count = pattern_count(space, cells, cap)
    allowed = [space.allowed(v) for v in cells]
    rows = np.empty((count, len(cells)), np.min_scalar_type(max(map(max, allowed), default=0)))
    stride = count  # rows as blocks (outer, symbol s, the patterns on the cells after j)
    for j, a in enumerate(allowed):
        stride //= len(a)
        rows.reshape(-1, len(a), stride, len(cells))[..., j] = np.reshape(a, (-1, 1))
    return rows


def radix_index(
    cells: Sequence[Vertex], space: PatternSpace, weights: dict
) -> np.ndarray:
    """Sum of digit * weight at every point of the mixed-radix enumeration
    of `cells`; cells without a weight count zero.

    With the place values of a sub-domain `dom` as weights this maps each
    pattern on `cells` to its position in the enumeration of `dom`; with
    `{v: 1}` it is the digit of v.
    """
    out = np.zeros(1, dtype=np.int64)
    for c in cells:
        r = len(space.allowed(c))
        if r > 1:
            step = np.arange(r, dtype=np.int64) * weights.get(c, 0)
            out = (out[:, None] + step).ravel()
    return out


# -- the sampling kernel: `rng.random()` read in bulk -------------------------

_DRAW_WORDS = 2**14  # most 32-bit words read at once (64 KB), two per value


def _word_bytes(rng: random.Random, count: int) -> bytes:
    """The 32-bit words of the next `count` values of `rng.random()`, two per
    value, as little-endian bytes: `rng.getrandbits(64 * k)` returns the next
    2k words, the first one lowest.  Reads take at most _DRAW_WORDS words
    (one value at least) and none ahead, so the generator ends where `count`
    calls leave it."""
    step = max(_DRAW_WORDS // 2, 1)
    return b"".join(rng.getrandbits(64 * k).to_bytes(8 * k, "little")
                    for k in (min(step, count - at) for at in range(0, count, step)))


def words(rng: random.Random, count: int) -> np.ndarray:
    """The words of `_word_bytes`, as one array."""
    return np.frombuffer(_word_bytes(rng, count), "<u4")


def word_uniforms(words: np.ndarray) -> np.ndarray:
    """The `random()` values of `words`.  CPython computes each from two
    words w1, w2 as (a * 2^26 + b) / 2^53 with a = w1 >> 5 and b = w2 >> 6;
    each step is exact in float64."""
    out = np.multiply(words[0::2] >> 5, 67108864.0)
    out += words[1::2] >> 6
    out /= 2.0**53
    return out


def uniform_blocks(rngs: Iterator[random.Random], m: int):
    """The next m values of `random()` of each generator in `rngs`, as (b, m)
    arrays of b = _DRAW_WORDS // 2 // m generators in turn (one at least,
    m >= 1): each one's `_word_bytes`, a block's joined and converted at once."""
    while block := list(itertools.islice(rngs, max(_DRAW_WORDS // 2 // m, 1))):
        words = np.frombuffer(b"".join(_word_bytes(rng, m) for rng in block), "<u4")
        yield word_uniforms(words).reshape(len(block), m)


_BITS_OF_2_52 = np.float64(2.0**52).view(np.int64)


def pick(u: np.ndarray, n, base=0) -> np.ndarray:
    """base + int(u * n) for each uniform u (n, base may be arrays), made in
    u's float64 buffer: an integer f < 2^52 plus 2^52 has the bits of 2^52 plus f."""
    u = np.multiply(u, n, out=u)
    np.floor(u, out=u)
    picks = np.add(u, np.add(base, 2.0**52), out=u).view(np.int64)
    picks -= _BITS_OF_2_52
    return picks


class RowPlan:
    """One table, `symbols`, of each distinct allowed tuple (`sets`) from its
    `bases` entry on; a uniform u picks a[int(u * len(a))] of the allowed
    tuple a of cell c, the `size[c]` symbols from `base[c]` on.  A tuple
    object that several cells share is hashed once."""

    def __init__(self, allowed: Iterable[tuple]):
        sets: dict = {}
        seen: dict = {}  # id -> (tuple, its set); holding the tuple keeps its id unique
        set_of = []
        for a in allowed:
            if id(a) not in seen:
                seen[id(a)] = a, sets.setdefault(a, len(sets))
            set_of.append(seen[id(a)][1])
        if () in sets:
            raise ValueError("cannot draw from an empty allowed set")
        self.sets = list(sets)
        sizes = np.array([len(a) for a in self.sets], dtype=np.intp)
        self.bases = np.cumsum(sizes) - sizes
        self.base, self.size = self.bases[set_of], sizes[set_of]
        self.symbols = np.array([s for a in self.sets for s in a],
                                dtype=np.min_scalar_type(max(map(max, self.sets), default=0)))

    def places(self, u: np.ndarray, cols=slice(None)) -> np.ndarray:
        """The place in `symbols` of the pick of each uniform u[..., j] (which
        `pick` overwrites) at cell cols[..., j], or at cell j."""
        return pick(u, self.size[cols], self.base[cols])

    def rows(self, u: np.ndarray) -> np.ndarray:
        """One row of symbols per row of `u` (one column per cell)."""
        return self.symbols[self.places(u)]

    def other_places(self, cols: np.ndarray, own: np.ndarray, u: np.ndarray):
        """The place of entry int(u[q] * n) of the n entries at cell cols[q] other than
        place own[q], and whether n > 0 (the place is junk where it is not)."""
        others = self.size[cols] - 1
        nth = pick(u, others, self.base[cols])
        nth += nth >= own
        return nth, others > 0


# -- cones, propagation, evaluation -----------------------------------------


def light_cone(sys: SymbolicSystem, window: Iterable[Vertex], horizon: int) -> LightCone:
    """Input cone of a window: the cells its values at times 0..horizon read.

    Every rule reads exactly its vertex's in-neighbors, so this is the
    in-ball B(window, horizon), read from the graph's cached shells.  The
    rules of the cells within horizon - 1 are fetched, which checks that.
    A cell listed twice in the window is one cell of it; a cell that fails
    the graph's membership test is refused, as `netgraph.graph_vertex` does.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    w = sort_vertices(set(window))
    if not w:
        raise ValueError("window must be nonempty")
    for v in w:
        if sys.graph.contains is not None and not sys.graph.contains(v):
            raise ValueError(f"vertex {v!r} is not a vertex of this graph")
    shells = sys.graph.shells(frozenset(w), horizon)[: horizon + 1]
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
    names the missing vertices; a value that is not a symbol raises
    ValueError.  Values outside the cone are never read.
    """
    cone = light_cone(sys, window, horizon)
    missing = [v for v in cone.union if v not in x.values]
    if missing:
        raise InsufficientDomainError(missing)
    traj = trajectory_rows(sys, cone, configuration_row(x, cone.union, sys.alphabet.size))
    return [dict(zip(cone.window, step)) for step in traj[0].tolist()]


# -- the rule-application kernel: every rule call ----------------------------
# `index` maps cells to their rows in a column-major batch (`image`) or to
# their columns in rows of configurations (`image_at`, `image_rows`).

_BLOCK = 2**14  # (cell, configuration) pairs gathered at once: 128 KB an int64 argument


def rule_values(fn: Callable, args: Iterable, shape: tuple, k: int,
                vertex_at: Callable) -> np.ndarray:
    """`fn` called once on `args`, each read as int64, its values broadcast to
    `shape` in the smallest dtype that holds k - 1.  The first value that is
    not a symbol 0..k-1 raises ValueError naming the vertex `vertex_at` gives
    for its index."""
    values = np.asarray(fn(tuple(np.asarray(a, dtype=np.int64) for a in args)))
    if values.shape != shape:
        values = np.broadcast_to(values, shape)
    if not (values.dtype.kind in "biu" and values.size and values.min() >= 0
            and values.max() < k):
        for at in np.argwhere((values < 0) | (values >= k) | (values % 1 != 0))[:1]:
            check_symbol(values[tuple(at)].item(), k, f"rule at vertex {vertex_at(at)!r} gave")
    return values.astype(np.min_scalar_type(k - 1), copy=False)


def columns(cells: Iterable[Vertex]) -> dict:
    return {v: i for i, v in enumerate(cells)}


class StepPlan:
    """One update step on any prefix of the region.  Cells are grouped once
    by rule function and arity, each group with its region positions
    (ascending) and the `index` entries of its arguments; `image` (on a
    column-major batch: a row per cell) and `image_at` call `rule_values`
    in blocks of about _BLOCK (cell, configuration) pairs."""

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

    def image(self, cells: np.ndarray, size: int) -> np.ndarray:
        """The step of every column of `cells` (a row per `index` cell) on the
        first `size` region cells, a row each: one call per block of about
        _BLOCK / columns cells of a group, each argument whole rows."""
        n, k = cells.shape[1], self.k
        out = np.empty((size, n), dtype=np.min_scalar_type(k - 1))
        step = max(1, _BLOCK // max(n, 1))
        for fn, js, cols in self.groups:
            stop = int(np.searchsorted(js, size))
            for lo in range(0, stop, step):
                hi = min(lo + step, stop)
                at = js[lo:hi]
                out[at] = rule_values(fn, (cells[c] for c in cols[lo:hi].T), (len(at), n), k,
                                      lambda i: self.region[at[i[0]]])
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
        one call per block of _BLOCK of a group's pairs.  Each argument is
        gathered from the flattened rows with one `take`."""
        out = np.empty(len(at), dtype=np.min_scalar_type(self.k - 1))
        group, slot = self._slots[0][at], self._slots[1][at]
        flat, width = rows.ravel(), rows.shape[1]
        by_group = np.argsort(group, kind="stable")  # each group's pairs in one ascending run
        bounds = np.searchsorted(group[by_group], np.arange(len(self.groups) + 1))
        for g, (fn, _, cols) in enumerate(self.groups):
            pairs = by_group[bounds[g]: bounds[g + 1]]
            for lo in range(0, len(pairs), _BLOCK):
                q = pairs[lo: lo + _BLOCK]
                start = which[q] * width  # where each pair's row starts in `flat`
                args = (flat.take(start + cols[slot[q], i]) for i in range(cols.shape[1]))
                out[q] = rule_values(fn, args, (len(q),), self.k,
                                     lambda i: self.region[at[q[i[0]]]])
        return out


def image_rows(sys: SymbolicSystem, index: dict, region: Sequence[Vertex],
               rows: np.ndarray) -> np.ndarray:
    """One update step of every row, on the region's cells (`StepPlan`)."""
    return StepPlan(sys, index, region).image(np.ascontiguousarray(rows.T), len(region)).T


def trajectory_rows(sys: SymbolicSystem, cone: LightCone, rows: np.ndarray) -> np.ndarray:
    """Window trajectories of every row, as an array (row, time, window cell)
    over the distinct window cells.  Row columns follow `cone.union`.

    Cells go in `cone.order`: the window leads, and step t, which needs
    only the cells within horizon - t of the window, images a prefix.  The
    steps run on the transpose (one row per cell, `StepPlan.image`), and
    the result is a transposed view of one (time, window cell, row) array.
    """
    cells, ends = cone.order, cone.sizes
    index, position = columns(cells), columns(cone.union)
    values = rows.T[[position[v] for v in cells]]
    traj = np.empty((cone.horizon + 1, ends[0], len(rows)),
                    dtype=np.result_type(rows.dtype, np.min_scalar_type(sys.alphabet.size - 1)))
    traj[0] = values[: ends[0]]
    plan = StepPlan(sys, index, cells[: ends[cone.horizon - 1] if cone.horizon else 0])
    for t in range(1, cone.horizon + 1):
        values = plan.image(values, ends[cone.horizon - t])
        traj[t] = values[: ends[0]]
    return traj.transpose(2, 0, 1)
