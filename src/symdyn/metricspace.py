"""Based Cantor metrics on pattern spaces, with interval-honest distances.

A metric is a weighted sum, over an ordered estuary enumeration, of
agreement-radius pseudometrics lambda^(-R).  Configurations are finite, so
every distance comes back as a [lo, hi] interval: exact when a disagreement
is visible inside the covered radius, and a tail-bounded bracket otherwise.

Distances are one kernel over pairs on a shared domain.  A pair enters
only through the first BFS shell of each estuary vertex on which it
disagrees, the least `depth` (`_depths`) of its (row, column)
disagreements (`_intervals`).  `dist` passes the differing columns of its
one pair, and `pseudo_dist` is the one-vertex metric of coefficient 1.
One-step images come from the rule kernel (`kernel.StepPlan`, one
elementwise call per rule function).  The Lipschitz and Hölder reports
share one sampled sweep (`_sweep`), which samples a chunk of pairs, then
measures them together, with one int(rng.random() * n) per pick of n items
read in bulk through the sampling kernel (`kernel.words`, `pick`,
and a `RowPlan` of the domain for symbols).  A pair differs at one planted
cell c, so only c and its readers are worked on, and x is drawn only on the
cells R(c) they read: c, the other inputs of c's readers in the image
region and the inputs of the cells too wide to check up front, in column
order.  Each sample takes W + 4 values, W the largest |R(c)| (1 for the
identity): x's symbols at R(c), then the anchor, radius, cell and new
symbol.  No other cell enters a pair's intervals, so the reports keep their
law.  Pre-image intervals are a per-column table, and the step images both
rows only at the readers, whose differing images are the pair's
disagreements; `holder_report(None, ...)` measures the identity from a
second table.

Dimension estimation uses cylinder-cover counts in closed form rather than
any covering search.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .netgraph import (Digraph, SymdynError, Vertex, graph_vertex, ols_slope, read_fields,
                       sort_vertices)
from .kernel import (TABLE_MAX, Configuration, InsufficientDomainError, PatternSpace, RowPlan,
                     StepPlan, SymbolicSystem, check_symbol, check_values, columns, image_rows,
                     patterns, pick, word_uniforms, words)
from .entropydim import pattern_log_count


class DomainMismatchError(SymdynError):
    """Distance requested between configurations on different domains."""


class ToleranceUnreachableError(SymdynError):
    """The coefficient tail or the configuration domain cannot reach the
    requested tolerance."""


def _check_eps_grid(eps_grid: Sequence[float]) -> None:
    """Reject an empty or non-decreasing grid, or an eps not finite and > 0."""
    if not eps_grid:
        raise ValueError("eps grid must be nonempty")
    for eps in eps_grid:
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be finite and positive, got {eps}")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid must decrease")


@dataclass(frozen=True)
class DistanceBound:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo < -1e-15 or self.hi < self.lo - 1e-15:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def exact(self) -> bool:
        return self.hi == self.lo


class CoefficientScheme:
    """Positive summable coefficients along an ordered estuary enumeration.

    Stores a finite prefix of the enumeration plus an analytic bound on the
    mass of everything beyond it (zero for finitely supported schemes).
    """

    def __init__(
        self,
        vertices: Sequence[Vertex],
        coeffs: Sequence[float],
        kind: str = "custom",
        tail_bound: float = 0.0,
    ):
        if len(vertices) != len(coeffs):
            raise ValueError("vertices and coeffs must align")
        for c in coeffs:
            if not (math.isfinite(c) and c > 0):
                raise ValueError(f"coefficients must be finite and positive, got {c}")
        if not (math.isfinite(tail_bound) and tail_bound >= 0):
            raise ValueError(f"tail bound must be finite and nonnegative, got {tail_bound}")
        self.vertices = tuple(vertices)
        self.coeffs = tuple(float(c) for c in coeffs)
        self.kind = kind
        self.tail_bound = float(tail_bound)

    @classmethod
    def finite(cls, vertices: Sequence[Vertex], coeffs: Sequence[float]):
        return cls(vertices, coeffs, kind="finite", tail_bound=0.0)

    @classmethod
    def single(cls, v: Vertex):
        return cls([v], [1.0], kind="finite")

    @classmethod
    def double_exponential(cls, vertices: Iterable[Vertex], tol: float = 1e-12):
        """c_j = exp(-e^j) * e^j along the given enumeration, truncated once
        the tail bound falls below the tolerance (or c_j underflows).  As
        f(x) = e^x exp(-e^x) decreases for x >= 0, the mass from position J
        on is at most c_J plus the integral of f from J: (e^J + 1) exp(-e^J)."""
        vs, cs, tail = [], [], 2 * math.exp(-1.0)  # the bound at J = 0
        for j, v in enumerate(vertices):
            c = math.exp(-math.exp(j)) * math.exp(j)
            if c <= 0.0 or tail < tol:
                break
            vs.append(v)
            cs.append(c)
            tail = (math.exp(j + 1) + 1) * math.exp(-math.exp(j + 1))
        return cls(vs, cs, kind="doubleexp", tail_bound=tail)

    @property
    def total_mass(self) -> float:
        """Upper bound on the full coefficient sum."""
        return sum(self.coeffs) + self.tail_bound

    def tail_after(self, j: int) -> float:
        """Upper bound on the mass strictly beyond enumeration position j."""
        return sum(self.coeffs[j + 1 :]) + self.tail_bound

    def prefix_length(self, eps: float) -> int:
        """Least J with tail mass beyond J below eps/2."""
        for j in range(-1, len(self.coeffs)):
            if self.tail_after(j) < eps / 2:
                return j + 1
        raise ToleranceUnreachableError(
            f"stored prefix cannot push the tail below {eps / 2}"
        )

    def precipitous_report(
        self, eps_grid: Optional[Sequence[float]] = None
    ) -> dict:
        """Growth check of the tail-cutoff index on a log-spaced grid.

        The flag is finite evidence only: the cutoff growth ratios
        ln J(eps) / ln |ln eps| must be small and non-increasing across the
        tail of the grid.
        """
        if eps_grid is None:
            eps_grid = [2.0 ** (-k) for k in range(4, 44, 4)]
        _check_eps_grid(eps_grid)
        if eps_grid[0] >= math.exp(-1):  # ln |ln eps| must be positive
            raise ValueError(f"eps must be below 1/e, got {eps_grid[0]}")
        points = []
        for eps in eps_grid:
            j = self.prefix_length(eps)
            ratio = math.log(max(j, 1)) / math.log(abs(math.log(eps)))
            points.append({"eps": eps, "cutoff": j, "ratio": ratio})
        tail = [p["ratio"] for p in points[len(points) // 2 :]]
        flag = tail[-1] < 0.5 and all(
            b <= a + 1e-12 for a, b in zip(tail, tail[1:])
        )
        return {"points": points, "precipitous": flag}


@dataclass(frozen=True)
class BasedMetric:
    """d(x, y) = sum over the estuary of c_u * lambda^(-agreement radius)."""

    scheme: CoefficientScheme
    lam: float
    graph: Digraph

    def __post_init__(self):
        if not self.scheme.vertices:
            raise ValueError("estuary must be nonempty")
        if not (math.isfinite(self.lam) and self.lam > 1):
            raise ValueError(f"lambda must be finite and exceed 1, got {self.lam}")


def single_estuary_metric(graph: Digraph, v: Vertex, lam: float) -> BasedMetric:
    return BasedMetric(scheme=CoefficientScheme.single(v), lam=lam, graph=graph)


def metric_from_descriptor(desc, graph: Digraph) -> BasedMetric:
    """Build a metric from its JSON form:
    {"estuary": [...], "lambda": 2, "scheme": "finite"|"doubleexp",
     "coeffs": [...]}.  Omitted coefficients default to the halving sequence.
    """
    estuary, lam, kind, coeffs = read_fields(desc, "metric", ["estuary"], **{"lambda": 2.0},
                                             scheme="finite", coeffs=None)
    estuary = [graph_vertex(graph, v) for v in estuary]
    if kind == "doubleexp":
        scheme = CoefficientScheme.double_exponential(estuary)
    elif kind == "finite":
        if coeffs is None:
            coeffs = [2.0 ** (-j) for j in range(len(estuary))]
        scheme = CoefficientScheme.finite(estuary, coeffs)
    else:
        raise ValueError(f"unknown scheme kind: {kind!r}")
    return BasedMetric(scheme=scheme, lam=lam, graph=graph)


# -- batched kernels ---------------------------------------------------------
# Distances and images work on the rows of symbol matrices over one shared
# domain, one column per domain cell (`index` maps each cell to its column).

_SWEEP_ROWS = 512  # sampled pairs per batch: keeps a sweep's memory flat


def _depths(metric: BasedMetric, index: dict, r_cap=None):
    """The distance kernel's tables over a domain's columns (`index`): the
    metric's tail bound, and per estuary vertex u its coefficient c, a
    `depth` array over the columns and bounds (lo, hi) by depth.

    u's covered radius is the largest r with B(u, r) inside the domain, at
    most r_cap; a ball that closes inside the domain counts as covered up to
    r_cap (or, without a cap, up to its closing radius).  depth[col] is the
    BFS shell of u that holds col within that radius, else len(lo) - 1.  A
    pair first disagreeing on shell s > 0 agrees on B(u, s - 1): its value is
    exact, and 1 when u itself differs.  A pair agreeing on every covered
    shell is only bounded by lambda^(-covered radius), and by 1 when u is
    outside the domain.
    """
    terms = []
    for u, c in zip(metric.scheme.vertices, metric.scheme.coeffs):
        # u outside the domain has no shells, so its bounds are 0 and lambda^0
        sizes, cols, cap = ([1], [index[u]], 0) if u in index else ([], [], 0)
        while sizes and (r_cap is None or cap < r_cap):
            shell = metric.graph.shells(frozenset([u]), cap + 1)[cap + 1]
            shell = [index.get(w, -1) for w in shell]
            if not shell:  # ball closed
                cap = cap if r_cap is None else r_cap
                break
            if -1 in shell:
                break
            sizes.append(len(shell))
            cols += shell
            cap += 1
        depth = np.full(len(index), len(sizes), np.intp)
        depth[cols] = np.repeat(np.arange(len(sizes)), sizes)
        exact = [metric.lam ** -max(s - 1, 0) for s in range(len(sizes))]
        terms.append((c, depth, *(np.array(exact + [end], float)
                                  for end in (0.0, metric.lam ** -cap))))
    return metric.scheme.tail_bound, terms


def _intervals(depths, n: int, rows: np.ndarray, cols: np.ndarray):
    """Based-distance intervals, as (lo, hi) arrays over n rows of pairs,
    from the `_depths` of their domain and their disagreements, row rows[i]
    at column cols[i] (repeats allowed).  Each row's depth per estuary
    vertex is the least of its disagreements; vertices are summed in
    enumeration order, so each row gets the floats of a one-pair sum."""
    tail, terms = depths
    lo, hi = np.zeros(n), np.full(n, tail)
    for c, depth, d_lo, d_hi in terms:
        first = np.full(n, len(d_lo) - 1)
        np.minimum.at(first, rows, depth[cols])
        lo += c * d_lo[first]
        hi += c * d_hi[first]
    return lo, hi


def _disagreements(x: Configuration, y: Configuration):
    """The (rows, cols) disagreements of one pair, as row 0 of `_intervals`."""
    cols = [i for i, (v, s) in enumerate(x.values.items()) if y.values[v] != s]
    return np.zeros(len(cols), np.intp), np.array(cols, np.intp)


def _padded(lists: Sequence[Sequence[int]], fill: int = 0):
    """A table with one row per list, padded with `fill` to at least one
    column, and the lists' lengths."""
    sizes = np.array([len(a) for a in lists], dtype=np.intp)
    table = np.full((len(lists), max(1, sizes.max(initial=0))), fill, dtype=np.intp)
    table[np.arange(table.shape[1]) < sizes[:, None]] = [s for a in lists for s in a]
    return table, sizes


def _planted_pairs(rng, metric, plan, domain, radii, samples, reads):
    """Sample pairs that differ at one planted cell, a chunk at a time.

    reads[c] lists the columns that a pair planted at column c is measured
    on, c first; W is the longest list.  Each sample takes W + 4 values u of
    `rng.random()`, each the pick int(u * n) of n items (`pick`): x's
    symbols at the columns reads[c] in order (through the domain's `RowPlan`
    `plan`; the values past len(reads[c]) are never read), then an anchor, a
    radius below `radii`, a cell c of that BFS shell inside the domain, and
    another allowed symbol there (`RowPlan.other_places`).  A chunk's values
    are read at once (`words`).  Yields (sample numbers, planted columns,
    x rows, new symbols) per chunk, x zero off the columns read; samples
    whose shell or symbol choice came up empty are left out, though they
    take all their values.
    """
    index, m = columns(domain), len(domain)
    shells, shell_sizes = _padded([  # row a * radii + r: shell r of anchor a
        [index[c] for c in sort_vertices(s) if c in index]
        for u in metric.scheme.vertices
        for s in (metric.graph.shells(frozenset([u]), radii - 1) + [()] * radii)[:radii]])
    reads, widths = _padded(reads)
    width = reads.shape[1]
    # a padded slot reads slot 0, the planted column and its value, so that
    # x gets one symbol per column
    slots = np.where(np.arange(width) < widths[:, None], np.arange(width), 0)
    reads = np.take_along_axis(reads, slots, 1)

    def plant(start, n):
        u = word_uniforms(words(rng, n * (width + 4))).reshape(n, width + 4)
        u_anchor, u_radius, u_cell, u_symbol = u[:, width:].T
        shell = pick(u_anchor, len(metric.scheme.vertices)) * radii + pick(u_radius, radii)
        live = np.flatnonzero(shell_sizes[shell] > 0)
        cols = shells[shell[live], pick(u_cell[live], shell_sizes[shell[live]])]
        read = reads[cols]
        # x's symbols, as places in `plan.symbols`
        picks = plan.places(u[live[:, None], slots[cols]], read)
        new, other = plan.other_places(cols, picks[:, 0], u_symbol[live])
        keep = np.flatnonzero(other)
        x = np.zeros((len(keep), m), plan.symbols.dtype)
        np.put(x, read[keep] + m * np.arange(len(keep))[:, None], plan.symbols[picks[keep]])
        return start + live[keep], cols[keep], x, plan.symbols[new[keep]]

    for start in range(0, samples, _SWEEP_ROWS):  # holds no chunk while drawing the next
        yield plant(start, min(_SWEEP_ROWS, samples - start))


# -- distances and images -----------------------------------------------------


def pseudo_dist(
    metric: BasedMetric,
    v: Vertex,
    x: Configuration,
    y: Configuration,
    r_cap: Optional[int] = None,
) -> DistanceBound:
    """Agreement-radius pseudometric lambda^(-R) around one vertex.

    R is the largest radius whose ball the two configurations agree on.  A
    disagreement visible within the covered radius gives an exact value
    (capped at 1 when the centers themselves differ); full agreement only
    bounds the distance by lambda^(-covered radius).
    """
    if x.domain != y.domain:
        raise DomainMismatchError("configurations must share a domain")
    one = single_estuary_metric(metric.graph, v, metric.lam)
    lo, hi = _intervals(_depths(one, columns(x.values), r_cap), 1, *_disagreements(x, y))
    return DistanceBound(float(lo[0]), float(hi[0]))


def dist(
    metric: BasedMetric,
    x: Configuration,
    y: Configuration,
    tol: Optional[float] = None,
) -> DistanceBound:
    """Full based distance as an interval over the stored estuary prefix.

    Estuary vertices whose zero-radius ball already leaves the domain
    contribute only to the upper bound, as does the coefficient tail.  With
    a tolerance, an interval wider than it raises instead of returning.
    """
    if x.domain != y.domain:
        raise DomainMismatchError("configurations must share a domain")
    lo, hi = _intervals(_depths(metric, columns(x.values)), 1, *_disagreements(x, y))
    bound = DistanceBound(float(lo[0]), float(hi[0]))
    if tol is not None and bound.width > tol:
        raise ToleranceUnreachableError(
            f"interval width {bound.width} exceeds tolerance {tol}"
        )
    return bound


def image_configuration(
    sys: SymbolicSystem, x: Configuration, region: Iterable[Vertex]
) -> Configuration:
    """One update step of a configuration on a region; the configuration
    must cover the region's rule inputs, and the error names those missing."""
    region = tuple(region)
    missing = {u for w in region for u in sys.rule(w).inputs} - x.domain
    if missing:
        raise InsufficientDomainError(sort_vertices(missing))
    row = np.array([list(x.values.values())], dtype=np.int64).reshape(1, len(x.values))
    image = image_rows(sys, columns(x.values), region, row)
    return Configuration(dict(zip(region, image[0].tolist())))


# -- sampled Lipschitz and Holder checks ----------------------------------------


def _check_count(name: str, value) -> None:
    """Reject a sample count or radius cap that is not an int of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _unchecked_cells(sys, space, region) -> list:
    """Evaluate each region cell's rule on every allowed pattern of its
    distinct inputs (`patterns`; a repeated input reads its cell), one call
    per rule function, input layout and allowed sets, and raise ValueError
    naming a cell whose rule gives a value that is not a symbol.  Returns the
    positions of the cells past TABLE_MAX patterns, which are not checked."""
    groups, wide = {}, []
    for j, w in enumerate(region):
        rule = sys.rule(w)
        cells = tuple(dict.fromkeys(rule.inputs))
        sets = tuple(space.allowed(u) for u in cells)
        if math.prod(map(len, sets)) > TABLE_MAX:
            wide.append(j)
            continue
        layout = tuple(cells.index(u) for u in rule.inputs)
        groups.setdefault(sets, {}).setdefault((rule.fn, layout), (w, cells))
    for rules in groups.values():  # the patterns of one tuple of allowed sets at a time
        rows = patterns(space, next(iter(rules.values()))[1], TABLE_MAX).astype(np.int64)
        for (fn, layout), (w, _) in rules.items():
            values = np.broadcast_to(fn(tuple(rows[:, layout].T)), (len(rows),))
            check_values(values, sys.alphabet.size, lambda i, w=w: w)
    return wide


def _sweep(sys, metric_from, metric_to, space, domain, image_region, radii, samples, seed):
    """The chunks of `_planted_pairs`, each as the sample numbers, planted
    columns, and pre-image and image (lo, hi) arrays of its pairs whose
    pre-image interval clears zero; chunks that keep none are left out.

    A pair differs at its planted cell c alone, so only c and its readers
    are worked on.  Pre-image intervals, and for the identity (`sys` None)
    image intervals, are per-column tables: `_intervals` of each column
    against itself.  Otherwise the map is one step of `sys` on the image
    region, planned once: x and y are imaged in one call at c's readers, from
    x's symbols at their inputs, and the readers whose images differ are the
    pair's disagreements.  Every rule value is checked before anything is
    drawn (`_unchecked_cells`) but those of a cell with too many input
    patterns, imaged on x at every kept pair instead.  So x is drawn on the
    columns R(c) (`_planted_pairs`' `reads`): c, then the other inputs of
    c's readers and of those unchecked cells, sorted, so that which value
    lands on which cell never follows set order.  An allowed symbol
    outside the system's alphabet (checked once per distinct allowed tuple,
    naming its first cell), or an input of an image cell outside the domain
    (InsufficientDomainError, naming them), raises first.
    """
    index, every = columns(domain), np.arange(len(domain))
    pre_lo, pre_hi = _intervals(_depths(metric_from, index), len(domain), every, every)
    post = _depths(metric_to, columns(image_region))
    plan = RowPlan([space.allowed(v) for v in domain])
    reads = [[c] for c in range(len(domain))]
    if sys is None:
        post_lo, post_hi = _intervals(post, len(domain), every, every)
    else:
        for a, c in zip(plan.sets, np.unique(plan.base, return_index=True)[1]):
            for s in (min(a), max(a)):
                check_symbol(s, sys.alphabet.size, f"allowed symbol at vertex {domain[c]!r} is")
        missing = {u for w in image_region for u in sys.rule(w).inputs}.difference(index)
        if missing:
            raise InsufficientDomainError(sort_vertices(missing))
        inputs = [{index[u] for u in sys.rule(w).inputs} for w in image_region]
        wide = _unchecked_cells(sys, space, image_region)
        readers = [[] for _ in domain]
        for j, cols in enumerate(inputs):
            for c in cols:
                readers[c].append(j)
        always = set().union(*(inputs[j] for j in wide))
        reads = [[c, *sorted(always.union(*(inputs[j] for j in js)) - {c})]
                 for c, js in enumerate(readers)]
        step = StepPlan(sys, index, image_region)
        readers, wide = _padded(readers, -1)[0], np.array(wide, dtype=np.intp)

    def measure(chunk):
        """The kept pairs' arrays, or None when no pair is kept.  Nothing else
        outlives the call, so a chunk is freed before the next is drawn."""
        used, cols, x, news = chunk
        rows = np.flatnonzero(pre_lo[cols] > 0.0)
        if not len(rows):
            return None
        used, cols = used[rows], cols[rows]
        if sys is None:
            return used, cols, pre_lo[cols], pre_hi[cols], post_lo[cols], post_hi[cols]
        n = len(rows)
        which, slot = np.nonzero(readers[cols] >= 0)
        at = readers[cols[which], slot]
        pairs = x[np.concatenate([rows, rows])]  # x's rows, then y's
        pairs[n + np.arange(n), cols] = news[rows]
        values = step.image_at(  # x and y at the readers, then x at the unchecked cells
            pairs, np.concatenate([which, which + n, np.repeat(np.arange(n), len(wide))]),
            np.concatenate([at, at, np.tile(wide, n)]))
        moved = values[:len(at)] != values[len(at): 2 * len(at)]
        return (used, cols, pre_lo[cols], pre_hi[cols],
                *_intervals(post, n, which[moved], at[moved]))

    chunks = _planted_pairs(random.Random(seed), metric_from, plan, domain, radii, samples,
                            reads)
    return filter(None, map(measure, chunks))


def lipschitz_report(
    sys: SymbolicSystem,
    metric: BasedMetric,
    space: PatternSpace,
    samples: int,
    seed: int = 0,
    r_cap: int = 6,
) -> dict:
    """Worst observed one-step expansion ratio of the metric under the map.

    Pairs are sampled with a planted first disagreement at a known radius,
    so the pre-image distance is exact; the image distance is measured on
    the one-smaller ball.  Pairs whose pre-image distance interval touches
    zero are skipped and counted.  The pairs and their intervals come from
    the shared sweep (`_sweep`): each sample takes W + 4 values of
    `rng.random()`, W the most cells that a planted cell's readers read
    (`_planted_pairs`), and returns the report of sampling and measuring
    one pair at a time from that stream.
    """
    _check_count("samples", samples)
    _check_count("r_cap", r_cap)
    anchors = metric.scheme.vertices
    domain = sort_vertices(metric.graph.ball_members(anchors, r_cap + 1))
    image_region = sort_vertices(metric.graph.ball_members(anchors, r_cap))
    max_ratio = 0.0
    worst = None
    flagged = []
    measured = 0
    for used, cols, pre_lo, pre_hi, post_lo, post_hi in _sweep(
            sys, metric, metric, space, domain, image_region, max(1, r_cap - 1), samples, seed):
        ratio = post_hi / pre_lo
        best = int(np.argmax(ratio))  # the first of the chunk's largest
        if ratio[best] > max_ratio:
            max_ratio = float(ratio[best])
            worst = {"sample": int(used[best]), "cell": domain[cols[best]],
                     "pre": (float(pre_lo[best]), float(pre_hi[best])),
                     "post": (float(post_lo[best]), float(post_hi[best]))}
        for j in np.flatnonzero(ratio > metric.lam * (1 + 1e-9)):
            flagged.append({"sample": int(used[j]), "ratio_hi": float(ratio[j])})
        measured += len(used)
    return {
        "samples": samples,
        "skipped": samples - measured,
        "max_ratio_hi": max_ratio,
        "worst": worst,
        "flagged": flagged,
        "lambda": metric.lam,
        "within_lambda": not flagged,
    }


def holder_report(
    sys: Optional[SymbolicSystem],
    metric_from: BasedMetric,
    metric_to: BasedMetric,
    eta: float,
    lam_const: float,
    space: PatternSpace,
    domain: Iterable[Vertex],
    samples: int,
    seed: int = 0,
) -> dict:
    """Sampled check of d'(Tx, Ty) <= lam * d(x, y)^eta, interval-safe.

    T is one step of `sys` on the domain cells whose inputs lie in the
    domain, or the identity when `sys` is None.  A sample certifies the
    inequality only when the image interval sits below the bound computed
    from the pre-image's lower end; it certifies a violation only the other
    way around.  Everything else is inconclusive.  Pairs are sampled and
    measured by the sweep of `lipschitz_report` (`_sweep`), W + 4 values of
    `rng.random()` a sample; W is 1 for the identity.
    """
    for name, value in (("eta", eta), ("constant", lam_const)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    _check_count("samples", samples)
    cells = frozenset(domain)
    domain = sort_vertices(cells)
    image_region = domain if sys is None else [
        w for w in domain if cells.issuperset(sys.rule(w).inputs)]
    # plant no deeper than the deepest radius at which an anchor's shell
    # meets the domain, so that every sampled radius can plant a cell
    reach = max((r for u in metric_from.scheme.vertices
                 for r, shell in enumerate(metric_from.graph.shells(frozenset([u]), 7))
                 if not cells.isdisjoint(shell)), default=0)
    holds = violations = 0
    worst, worst_excess = None, 0.0
    for chunk in _sweep(sys, metric_from, metric_to, space, domain, image_region,
                        1 + reach, samples, seed):
        for i, col, d_lo, d_hi, p_lo, p_hi in zip(*(a.tolist() for a in chunk)):
            bound_lo = lam_const * d_lo**eta
            bound_hi = lam_const * d_hi**eta
            if p_hi <= bound_lo * (1 + 1e-9):
                holds += 1
            elif p_lo > bound_hi * (1 + 1e-9):
                violations += 1
                excess = p_lo / bound_hi
                if excess > worst_excess:
                    worst_excess = excess
                    worst = {"sample": i, "cell": domain[col], "pre": (d_lo, d_hi),
                             "post": (p_lo, p_hi)}
    return {
        "holds": holds,
        "violations": violations,
        "inconclusive": samples - holds - violations,
        "passed": violations == 0 and holds > 0,
        "worst": worst,
    }


def metric_dim_estimate(
    space: PatternSpace, metric: BasedMetric, eps_grid: Sequence[float]
) -> dict:
    """Cylinder-cover bracket on the double-log cover-count exponent.

    Per epsilon: the separation region (per-anchor balls of radius
    floor(log_lam(c_u / eps))) lower-bounds log2 of the minimal cover size,
    and the union cover region (tail-cutoff anchors, common radius
    ceil(log_lam(2S / eps))) upper-bounds it.  Slopes are least squares of
    ln(log2 count) against ln(-log_lam eps) over the rows where both counts
    and the scale -log_lam eps are positive, None when fewer than two are.
    """
    _check_eps_grid(eps_grid)
    lam = metric.lam
    scheme = metric.scheme
    rows = []
    for eps in eps_grid:
        active = [
            (u, c) for u, c in zip(scheme.vertices, scheme.coeffs) if c > eps
        ]
        lower_region: set = set()
        for u, c in active:
            r_u = math.floor(math.log(c / eps, lam))
            lower_region |= metric.graph.ball_members([u], r_u)
        lower = pattern_log_count(space, lower_region)
        cutoff = scheme.prefix_length(eps)
        r_eps = math.ceil(math.log(2 * scheme.total_mass / eps, lam))
        upper_region: set = set()
        for u in scheme.vertices[: max(cutoff, 1)]:
            upper_region |= metric.graph.ball_members([u], r_eps)
        upper = pattern_log_count(space, upper_region)
        rows.append(
            {
                "eps": eps,
                "scale": -math.log(eps, lam),
                "log2_cover_lower": lower,
                "log2_cover_upper": upper,
                "lower_region_size": len(lower_region),
                "upper_region_size": len(upper_region),
            }
        )
    usable = [r for r in rows
              if r["scale"] > 0 and r["log2_cover_lower"] > 0 and r["log2_cover_upper"] > 0]
    if len(usable) < 2:  # one point fits no slope
        return {"rows": rows, "lower_slope": None, "upper_slope": None}
    xs = [math.log(r["scale"]) for r in usable]
    lower_slope = ols_slope(xs, [math.log(r["log2_cover_lower"]) for r in usable])
    upper_slope = ols_slope(xs, [math.log(r["log2_cover_upper"]) for r in usable])
    return {"rows": rows, "lower_slope": lower_slope, "upper_slope": upper_slope}


def uniform_dim_profile(
    g: Digraph, base: Iterable[Vertex], r_grid: Sequence[int]
) -> list:
    """Per-radius worst growth exponent over a finite vertex set."""
    base = sort_vertices(base)
    if any(r < 2 for r in r_grid):
        raise ValueError("radii must be >= 2")
    sizes = [g.ball_sizes([u], max(r_grid, default=0)) for u in base]
    return [
        {"r": r, "sup_exponent": max(math.log(s[r]) / math.log(r) for s in sizes)}
        for r in r_grid
    ]
