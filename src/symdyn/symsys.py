"""Symbolic dynamical systems over countable digraphs.

A system is a finite alphabet, a digraph, and one local rule per vertex whose
input list matches the vertex's in-neighbors (`kernel`).  Everything here
evaluates on finite windows only: panoramas / window certificates exactly
over the pattern space restricted to the cone, by elimination when the cone
is linear and by exhaustive enumeration otherwise.

Panoramas and window checks share one entry: the cone, its allowed-symbol
check and the pattern cap, then the *linear* engine.  When the k = p^m
symbols, read as base-p digit vectors, make every rule the cone applies
GF(p)-affine and every allowed set a subspace, a cell is determined exactly
when its coordinate functionals lie in the span of the observation
functionals, pulled back through the rules' linear coefficients, and one
incremental elimination decides the whole cone.  Where it declines, one
enumeration engine, the only one a window check's target narrows, composes
each window cell's value at each time step into a lookup table over the
cells it reads, then groups the cone's patterns by observed trajectory in
one of two ways, chosen by what each allocates: *count* packs each pattern's
trajectory into an integer key and walks the patterns in vectorized chunks,
keeping one representative per key, and is used when the patterns overflow
one chunk and the keys do not outnumber them; *sort* otherwise builds the
observation matrix (one row per pattern) and ranks its rows.  Both then
compare every pattern's tracked digits with those of a representative of its
trajectory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cache
from typing import Iterable, Optional, Sequence

import numpy as np

# evaluate and propagation are unused here: perfbench reads and traces them as symsys's
from .kernel import (TABLE_MAX, Alphabet, EnumerationCapError, LocalRule, PatternSpace,
                     StepPlan, SymbolicSystem, check_allowed, columns, evaluate, light_cone,
                     pattern_count, patterns, propagation, radix_index, rule_values,
                     trajectory_rows)
from .netgraph import (Digraph, Subisometry, SymdynError, UniverseExhaustionError, Vertex,
                       graph_from_descriptor, offset_lattice, read_fields, read_form,
                       sort_vertices, unit_shift_graph, unit_shift_graph_z)


class NotEquicontinuousError(SymdynError):
    """A window failed envelope certification within the probe horizon."""


DEFAULT_PATTERN_CAP = 2**24
_CHUNK = 2**18  # inner vector length of the count grouping; L2/L3 friendly


@dataclass(frozen=True)
class PanoramaResult:
    """Determined-cell layers of a window under repeated observation.

    `engine` is "linear" when the cone is GF(p)-linear and elimination
    decided the layers.  Otherwise it names the grouping enumeration picked
    by pattern count and key space: "count" (one pass over packed
    trajectory keys), "sort" (ranked rows of the observation matrix), or
    "count+sort" when layers differed; a layer with no cell left to check
    names its pick without running it.  `declined` is the reason the
    linear engine did not apply, or None when it ran.
    """

    window: tuple
    horizon: int
    layers: tuple  # layers[t] = cells determined by observations 0..t
    cone: tuple
    pattern_count: int
    engine: str
    declined: Optional[str]


# -- exhaustive panorama enumeration -----------------------------------------



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
    cone, count, declined, dets = _layers(sys, space, window, horizon, max_patterns)
    dets = list(dets)
    return PanoramaResult(
        window=cone.window,
        horizon=horizon,
        layers=tuple(sort_vertices(det) for det, _ in dets),
        cone=cone.union,
        pattern_count=count,
        engine="+".join(sorted({engine for _, engine in dets})),
        declined=declined,
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
    *_, dets = _layers(sys, space, window, t_max, max_patterns, target)
    for t, (det, _) in enumerate(dets):
        if target <= det:
            return {"covered": True, "first_t": t, "missing": ()}
    return {"covered": False, "first_t": None, "missing": sort_vertices(target - det)}


def _layers(sys, space, window, horizon, max_patterns, target=None):
    """The window's cone, its pattern count within the cap (an allowed symbol
    outside the alphabet raises ValueError first), why the linear engine
    declined (None if it ran), and the (determined cells, engine) stream per
    horizon: of the whole cone, or of `target` when enumeration runs."""
    cone = light_cone(sys, window, horizon)
    check_allowed(space, cone.union, sys.alphabet.size)
    count = pattern_count(space, cone.union, max_patterns)
    layers = _linear_layers(sys, space, cone)
    if isinstance(layers, str):
        return cone, count, layers, _determined_layers(sys, space, cone, target)
    return cone, count, None, layers


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
        patterns = pattern_count(space, cells)
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
    runs once on its inputs' tables gathered over its domain (`rule_values`).
    Tables are kept in `memo` by (time, cell), so calls sharing it reuse them.
    """
    memo = {} if memo is None else memo

    def build(t, v):
        got = memo.get((t, v))
        if got is not None:
            return got
        if t == 0:
            got = (v,), np.array(space.allowed(v), dtype=np.int64)
        else:
            rule = sys.rule(v)
            subs = [build(t - 1, u) for u in rule.inputs]
            dom = sort_vertices(set().union(*(d for d, _ in subs)))
            cols = (arr[radix_index(dom, space, _strides(d, space))] for d, arr in subs)
            got = dom, rule_values(rule.fn, cols, (pattern_count(space, dom),),
                                   sys.alphabet.size, lambda at: v)
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
    return radix_index(cells, space, {v: 1 << s for v, (s, _) in fields.items()})


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
        (arr[radix_index(cells, space, _strides(dom, space))] for dom, arr in tables),
        sys.alphabet.size,
        pattern_count(space, cells),
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
        while j < len(tables) and pattern_count(space, dom | set(tables[j][0])) <= cap:
            dom |= set(tables[j][0])
            j += 1
        dom = sort_vertices(dom)
        packed = np.zeros(pattern_count(space, dom), dtype=np.int64)
        for m, (sub_dom, arr) in enumerate(tables[i:j], i):
            weight = np.int64(radix) ** (len(tables) - 1 - m)
            packed += arr[radix_index(dom, space, _strides(sub_dom, space))] * weight
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
        (radix_index(inner_cells, space, _strides(dom, space)),
         radix_index(outer_cells, space, _strides(dom, space)).tolist(),
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

def _linear_layers(sys, space, cone):
    """`_determined_layers` of the whole cone by elimination, or why it does not apply.

    It applies when k = p^m with p prime, every rule the cone applies is
    GF(p)-affine on its full table of at most TABLE_MAX entries,
    and every allowed set is a subspace.  Then the observations through t
    are affine in the coordinates of the pattern over a basis of the
    allowed subspaces, and a cell is determined exactly when each of its
    coordinate functionals lies in the span of the observation functionals.
    Each rule (fn, arity) that `StepPlan` groups cells by gives one block of
    linear coefficients, and each distinct allowed tuple one basis.
    """
    k = sys.alphabet.size
    p = next(d for d in range(2, k + 1) if k % d == 0)
    m = next(m for m in range(1, k) if p**m >= k)
    if p**m != k:
        return f"alphabet of {k} symbols is not a prime power"
    # groups come in order of their first cell, so the first failing cell is named
    plan = StepPlan(sys, columns(cone.order),
                    cone.order[: cone.sizes[cone.horizon - 1] if cone.horizon else 0])
    blocks, full = [], PatternSpace.full(sys.alphabet)
    for fn, js, cols in plan.groups:
        v = cone.order[js[0]]
        try:
            rows = patterns(full, range(cols.shape[1]), TABLE_MAX)
        except EnumerationCapError as e:
            return f"rule at vertex {v!r} has {e.required} table entries, over {e.cap}"
        values = rule_values(fn, rows.T, (len(rows),), k, lambda at: v)
        blocks.append(_is_affine(rows, values, k, p, m))
        if blocks[-1] is None:
            return f"nonlinear rule at vertex {v!r}"
    basis, bases = cache(lambda allowed: _subspace_basis(allowed, p, m)), {}
    for v in cone.union:
        bases[v] = basis(space.allowed(v))  # computed once per distinct allowed tuple
        if bases[v] is None:
            return f"allowed set at vertex {v!r} is not a subspace"
    return _eliminated_layers(plan, blocks, cone, [bases[v] for v in cone.order], p, m)


def _digits(symbols, p: int, m: int) -> np.ndarray:
    """Base-p digit vectors of symbols, along a new last axis of length m."""
    return np.asarray(symbols, dtype=np.int64)[..., None] // p ** np.arange(m) % p


def _is_affine(rows, values, k, p, m):
    """f's linear block (row i * m + j: the output digits at unit digit j of
    input i) if f(x) - f(0) is the sum of its one-input restrictions, each
    linear in its input's digits, else None.  Reads f's `values` on the
    `rows` of its full table, in row-major order."""
    total, arity = rows.shape
    out = _digits(values, p, m)
    # the outputs at the digit unit vectors of each input give the linear part
    units = [p**j * k ** (arity - 1 - i) for i in range(arity) for j in range(m)]
    linear = (out[units] - out[0]) % p
    inputs = _digits(rows, p, m).reshape(total, arity * m)
    return linear if np.array_equal(inputs @ linear % p, (out - out[0]) % p) else None


def _subspace_basis(symbols, p, m):
    """A basis of the symbols as a GF(p) subspace, None if they are not one."""
    basis, span, spanned = [], np.zeros(1, dtype=np.int64), {0}
    for s in sorted(symbols):
        if s not in spanned:
            basis.append(s)
            steps = np.arange(p)[:, None] * _digits(s, p, m)
            span = ((_digits(span, p, m)[:, None] + steps) % p @ p ** np.arange(m)).ravel()
            spanned = set(span.tolist())
    return basis if spanned == set(symbols) else None  # the span holds them all


def _eliminated_layers(plan, blocks, cone, bases, p, m):
    """Per horizon, the determined cells of the horizon's cone and "linear".
    Coordinate i * m + d is digit d of cell `cone.order[i]`; up to a
    constant, each observed digit at time t is its unit functional r_0
    pulled back t steps, r_t = r_(t-1) A, along A's edges from each output
    digit of a `plan` cell to its inputs' digits (a repeated input adds both
    coefficients).  Read on the `bases`, the functionals join one reduced
    echelon matrix: a cell is determined when each of its basis coordinates
    is a pivot whose row has no other nonzero."""
    n, w = len(cone.order), len(cone.window) * m
    edges = [np.zeros((3, 0), dtype=np.intp)]  # rows: source, destination, coefficient
    for (_, js, cols), block in zip(plan.groups, blocks):
        at, d = block.nonzero()  # a nonzero coefficient: input digit `at` -> output digit d
        edges.append(np.array([(js[:, None] * m + d).ravel(),
                               (cols[:, at // m] * m + at % m).ravel(),
                               np.tile(block[at, d], len(js))]))
    src, dst, coef = np.concatenate(edges, axis=1)
    flat = (np.arange(w)[:, None] * (n * m) + dst).ravel()
    # basis coordinate q: basis vector `vectors[q]` of the cell at position cell_of[q]
    cell_of = np.repeat(np.arange(n), [len(b) for b in bases])
    vectors = _digits([s for b in bases for s in b], p, m).reshape(len(cell_of), m)

    rows = np.eye(w, n * m, dtype=np.int64)  # the window leads cone.order
    echelon = np.zeros((w * (cone.horizon + 1), len(cell_of)), dtype=np.int64)
    pivots, r = np.zeros(len(echelon), dtype=np.intp), 0
    det: frozenset = frozenset()
    for t, size in enumerate(cone.sizes):
        if t:  # float64 sums, exact: each is below p^2 times the edges into a coordinate
            rows = np.bincount(flat, (rows[:, src] * coef).ravel(), w * n * m)
            rows = rows.reshape(w, n * m).astype(np.int64) % p
        width = np.searchsorted(cell_of, size)  # the functionals through t are zero past it
        functionals = rows.reshape(w, n, m)[:, cell_of[:width]] * vectors[:width]
        for row in functionals.sum(axis=2) % p:
            done = echelon[:r, :width]
            row = (row - row[pivots[:r]] @ done) % p
            nonzero = row.nonzero()[0]
            if len(nonzero):  # a new pivot: scale its row to 1 there, and clear its column
                c = nonzero[0]
                row = row * pow(int(row[c]), -1, p) % p
                done -= done[:, c, None] * row
                done %= p
                echelon[r, :width], pivots[r], r = row, c, r + 1
        units = pivots[:r][(echelon[:r, :width] != 0).sum(axis=1) == 1]
        open_coords = np.bincount(cell_of[:width], minlength=size) - np.bincount(
            cell_of[units], minlength=size)
        det |= {cone.order[i] for i in (open_coords == 0).nonzero()[0]}
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


def _envelope(sys, space, window, horizon, r_cap, max_patterns):
    """The window's cone at `horizon`, the in-distance of its farthest cell
    (None beyond r_cap), why it is no envelope ("" when it is one), and for
    an envelope alone the trajectories of every pattern on it within the cap
    and each distinct one's first pattern (None, None otherwise)."""
    cone = light_cone(sys, window, horizon)
    stabilized = cone.sizes[horizon // 2] == cone.sizes[horizon]  # sizes never shrink
    reach = cone.sizes.index(cone.sizes[-1])  # in-distance of the farthest cone cell
    reach = reach if reach <= r_cap else None
    reason = ("cone still growing" if not stabilized
              else "cone beyond reach cap" if reach is None else "")
    if reason:
        return cone, reach, reason, None, None
    check_allowed(space, cone.union, sys.alphabet.size)
    traj = trajectory_rows(sys, cone, patterns(space, cone.union, max_patterns))
    first, _ = _group_rows(traj.reshape(len(traj), -1).T, sys.alphabet.size, len(traj))
    return cone, reach, reason, traj, first


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
    cone, reach, reason, _, first = _envelope(
        sys, PatternSpace.full(sys.alphabet), window, t_probe, r_cap, max_patterns)
    return EnvelopeReport(
        certified=not reason,
        envelope=None if reason else cone.union,
        certified_horizon=t_probe,
        reach=reach,
        cone_sizes=cone.sizes,
        trajectory_count=None if reason else len(first),
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
    results = []
    for w in prepared:
        cone, _, reason, traj, trajs = _envelope(
            sys, space, w, horizon, horizon + len(w) + 1, max_patterns)
        if reason:
            raise NotEquicontinuousError(f"window {w} has no certified envelope")
        count = len(traj)
        # rank heads (steps 0..T-1) and tails (steps 1..T) in one pool
        pool = np.concatenate([traj[:, :-1], traj[:, 1:]]).reshape(2 * count, -1)
        _, ranks = _group_rows(pool.T, sys.alphabet.size, 2 * count)
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


def check_proper(rule: LocalRule, alphabet: Alphabet) -> dict:
    """Exhaustively test that every input coordinate is essential.

    For each coordinate the report carries either a witness pair of input
    tuples differing only there with different outputs, or marks it
    inessential.  The witness is the first input tuple in row-major order
    with such a partner, and its least partner symbol.  A value that is not
    a symbol raises ValueError, which names the rule's inputs for a vertex.
    """
    k = alphabet.size
    arity = len(rule.inputs)
    grid = patterns(PatternSpace.full(alphabet), range(arity), TABLE_MAX)
    values = rule_values(rule.fn, grid.T, (len(grid),), k, lambda at: rule.inputs)
    rows, symbols = np.arange(len(values)), np.arange(k)[:, None]
    witnesses: dict = {}
    inessential = []
    for i in range(arity):
        # outs[s, j]: the value at the j-th input tuple with coordinate i set
        # to s, a row of the same row-major table
        outs = values[rows + (symbols - grid[:, i]) * k ** (arity - 1 - i)]
        differs = outs != values
        hits = np.flatnonzero(differs.any(axis=0))
        if len(hits):
            args = tuple(grid[hits[0]].tolist())
            s = int(np.argmax(differs[:, hits[0]]))
            witnesses[i] = (args, args[:i] + (s,) + args[i + 1 :])
        else:
            inessential.append(i)
    return {"proper": not inessential, "witnesses": witnesses, "inessential": inessential}


def subsymmetry_check(
    sys: SymbolicSystem, tau: Subisometry, probe: Iterable[Vertex], space: PatternSpace
) -> dict:
    """Finite evidence that tau is a subsymmetry of the system on a probe set.

    Checks (i) injectivity and edge preservation on the probe set, (ii) that
    the pattern space looks the same along tau, and (iii) that the update
    map commutes with the induced shift at each probe vertex v.  That
    depends only on the cells U_v = tau(inputs(v)) | inputs(tau(v)), so it
    is decided on every allowed pattern on U_v; a violation's witness is the
    first of them (in mixed-radix order) that breaks it.  A vertex with more
    than TABLE_MAX patterns on U_v is unchecked, and the check fails.  A
    probe vertex or image that fails the graph's membership test raises
    ValueError before any rule is fetched.
    """
    probe = sort_vertices(set(probe))
    if not probe:
        raise ValueError("probe must be nonempty")
    contains = sys.graph.contains or (lambda v: True)
    for v in probe:
        if not contains(v):
            raise ValueError(f"vertex {v!r} is not a vertex of this graph")
    images = [tau(v) for v in probe]
    for v, w in zip(probe, images):
        if not contains(w):
            raise ValueError(
                f"vertex {w!r}, the image of probe vertex {v!r}, is not a vertex of this graph")
    injective = len(set(images)) == len(images)
    ins = {u: set(sys.graph.in_neighbors(u)) for u in dict.fromkeys((*probe, *images))}
    image = dict(zip(probe, images))
    edge_violations = [(v, w) for v in probe for w in probe
                       if (v in ins[w]) != (image[v] in ins[image[w]])]
    space_violations = [
        v for v, w in zip(probe, images) if set(space.allowed(v)) != set(space.allowed(w))
    ]
    k = sys.alphabet.size
    # Phi(x o tau) at v reads tau(inputs(v)), and Phi(x) at tau(v) inputs(tau(v))
    reads = [([tau(u) for u in sys.rule(v).inputs], sys.rule(w).inputs)
             for v, w in zip(probe, images)]
    cells_of = [sort_vertices({*ours, *theirs}) for ours, theirs in reads]
    check_allowed(space, sort_vertices(set().union(*cells_of)), k)
    commute_violations, unchecked = [], []
    for v, w, (ours, theirs), cells in zip(probe, images, reads, cells_of):
        try:
            rows = patterns(space, cells, TABLE_MAX)
        except EnumerationCapError:
            unchecked.append(v)
            continue
        col, n = columns(cells), (len(rows),)
        # both sides on every pattern at once
        differ = np.flatnonzero(
            rule_values(sys.rule(v).fn, [rows[:, col[u]] for u in ours], n, k, lambda at: v)
            != rule_values(sys.rule(w).fn, [rows[:, col[u]] for u in theirs], n, k, lambda at: w))
        if len(differ):
            pattern = dict(zip(cells, rows[differ[0]].tolist()))
            commute_violations.append({"vertex": v, "pattern": pattern})
    return {
        "passed": injective and not (
            edge_violations or space_violations or commute_violations or unchecked),
        "injective": injective,
        "edge_violations": edge_violations,
        "space_violations": space_violations,
        "commute_violations": commute_violations,
        "unchecked": unchecked,
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
    graph = offset_lattice(offsets, 0, {"family": "ca_zd", "D": d, "offsets": offsets})

    def rule_at(v):
        return replace(proto, inputs=graph.in_neighbors(v))

    sys = SymbolicSystem(alphabet, graph, rule_at, label=f"ca_z{d}")
    return sys, PatternSpace.full(alphabet)


def shift_extension(base_sys: SymbolicSystem, base_space: PatternSpace, psi):
    """Stack copies of a system along an extra integer level.

    The state at (v, n) updates to psi(base update of level n at v, current
    value at (v, n+1)); the level shift (v, n) -> (v, n+1) commutes with the
    update by construction.  Base vertices must be plain integers; the
    vertices are the pairs (v, n) of a base vertex v and an int n.
    """

    def ins(vn):
        v, n = vn
        base_inputs = base_sys.rule(v).inputs
        return [(u, n) for u in base_inputs] + [(v, n + 1)]

    def contains(vn):
        base = base_sys.graph.contains
        return (isinstance(vn, tuple) and len(vn) == 2 and type(vn[1]) is int
                and (base is None or base(vn[0])))

    graph = Digraph(
        ins, None, universe={"family": "shift_extension", "base": base_sys.label},
        contains=contains,
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
