"""Based Cantor metrics on pattern spaces, with interval-honest distances.

A metric is a weighted sum, over an ordered estuary enumeration, of
agreement-radius pseudometrics lambda^(-R).  Configurations are finite, so
every distance comes back as a [lo, hi] interval: exact when a disagreement
is visible inside the covered radius, and a tail-bounded bracket otherwise.

Distances are a batch kernel over the rows of symbol matrices that share
one domain: first-disagreement radii come from the cached BFS shells of each
estuary vertex.  One-step images come from the rule-application kernel of
`symsys` (`_StepPlan`, one elementwise call per rule function).
`pseudo_dist`, `dist` and `image_configuration` are one-row calls of these
kernels.  The Lipschitz and Hölder sweeps sample a chunk of pairs, then
evaluate their images and distances together; they consume the same random
stream as sampling and measuring one pair at a time, with one
int(rng.random() * n) per pick of n items, but read it in bulk
(`symsys._uniforms`) and pick by table lookups.  The Lipschitz sweep plans
its step, readers and shells once, and images the perturbed row only at the
readers of its planted cell.

Dimension estimation uses cylinder-cover counts in closed form rather than
any covering search.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .netgraph import Digraph, Vertex, _ols_slope, graph_vertex, read_fields, sort_vertices
from .symsys import (Configuration, InsufficientDomainError, PatternSpace, SymbolicSystem,
                     _columns, _image_rows, _RowPlan, _StepPlan, _uniforms)
from .entropydim import pattern_log_count


class DomainMismatchError(Exception):
    """Distance requested between configurations on different domains."""


class ToleranceUnreachableError(Exception):
    """The coefficient tail or the configuration domain cannot reach the
    requested tolerance."""


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
    if not estuary:
        raise ValueError("estuary must be nonempty")
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


def _anchor_shells(graph: Digraph, v: Vertex, index: dict, r_cap=None):
    """Covered radius of v in a domain, and the columns of its BFS shells up
    to that radius.

    The covered radius is the largest r with B(v, r) inside the domain, at
    most r_cap; a ball that closes inside the domain counts as covered up to
    r_cap (or, without a cap, up to its closing radius); -1 if v is missing.
    """
    if v not in index:
        return -1, []
    center = frozenset([v])
    cols = [np.array([index[v]])]
    r = 0
    while r_cap is None or r < r_cap:
        shell = graph._shells(center, r + 1)[r + 1]
        if any(u not in index for u in shell):
            return r, cols
        if not shell:
            return (r if r_cap is None else r_cap), cols  # ball closed
        cols.append(np.array([index[u] for u in shell]))
        r += 1
    return r, cols


def _pseudo_rows(lam: float, covered: tuple, diff: np.ndarray):
    """lambda^(-R) intervals around a vertex, as (lo, hi) arrays over the
    rows of a disagreement matrix, from the vertex's `_anchor_shells`.

    A row first disagreeing on shell s > 0 agrees on B(v, s - 1): the value
    is exact, and 1 when the center itself differs.  A row agreeing on every
    covered shell is only bounded by lambda^(-covered radius).
    """
    n = len(diff)
    cap, shells = covered
    if cap < 0:
        return np.zeros(n), np.ones(n)  # vertex not covered: only the trivial bound
    lo = np.zeros(n)
    hi = np.full(n, lam ** -cap)
    open_rows = np.ones(n, dtype=bool)
    for s, cols in enumerate(shells):
        hit = open_rows & diff[:, cols].any(axis=1)
        lo[hit] = hi[hit] = lam ** -max(s - 1, 0)
        open_rows &= ~hit
    return lo, hi


def _estuary_shells(metric: BasedMetric, index: dict) -> list:
    """`_anchor_shells` of each stored estuary vertex in a domain."""
    return [_anchor_shells(metric.graph, u, index) for u in metric.scheme.vertices]


def _dist_rows(metric: BasedMetric, shells: list, diff: np.ndarray):
    """Based-distance intervals, as (lo, hi) arrays over the rows of a
    disagreement matrix, from the `_estuary_shells` of its domain.  Estuary
    vertices are summed in enumeration order, so each row gets the floats of
    a one-pair sum; uncovered vertices and the coefficient tail contribute
    only to the upper bound."""
    lo = np.zeros(len(diff))
    hi = np.full(len(diff), metric.scheme.tail_bound)
    for c, covered in zip(metric.scheme.coeffs, shells):
        plo, phi = _pseudo_rows(metric.lam, covered, diff)
        lo += c * plo
        hi += c * phi
    return lo, hi


def _diff_rows(pairs: list, index: dict) -> np.ndarray:
    """Disagreement matrix of configuration pairs over the indexed cells."""
    rows = [[x.values[v] != y.values[v] for v in index] for x, y in pairs]
    return np.array(rows, dtype=bool).reshape(len(pairs), len(index))


def _padded(lists: Sequence[Sequence[int]], fill: int = 0):
    """A table with one row per list, padded with `fill` to at least one
    column, and the lists' lengths."""
    sizes = np.array([len(a) for a in lists], dtype=np.intp)
    table = np.full((len(lists), max(1, sizes.max(initial=0))), fill, dtype=np.intp)
    table[np.arange(table.shape[1]) < sizes[:, None]] = [s for a in lists for s in a]
    return table, sizes


def _pick(u: np.ndarray, n) -> np.ndarray:
    """Item int(u * n) of n items, for each uniform u (n may be an array)."""
    return (u * n).astype(np.intp)


def _planted_pairs(rng, graph, anchors, space, domain, radii, samples):
    """Sample pairs that differ at one planted cell, a chunk at a time.

    Each sample takes len(domain) + 4 values u of `rng.random()`, each the
    pick int(u * n) of n items: a symbol per domain cell (in domain order,
    as `PatternSpace.random_configuration` draws them), an anchor, a radius
    below `radii`, a cell of that BFS shell inside the domain, and another
    allowed symbol there (of the allowed symbols other than the current
    one).  A chunk's values are read at once (`_uniforms`) and its picks are
    lookups in two padded tables: the shell columns of each (anchor, radius)
    and the allowed symbols of each column.  Yields (sample numbers, pairs,
    planted columns) per chunk, where pairs[0] and pairs[1] hold the x and y
    rows; samples whose shell or symbol choice came up empty are left out,
    though they take all their values.
    """
    index = _columns(domain)
    allowed = [space.allowed(v) for v in domain]
    dtype = np.min_scalar_type(max((max(a) for a in allowed), default=0))
    shells, shell_sizes = _padded([  # row a * radii + r: shell r of anchor a
        [index[c] for c in sort_vertices(s) if c in index]
        for u in anchors
        for s in (graph._shells(frozenset([u]), radii - 1) + [()] * radii)[:radii]])
    symbols, symbol_sizes = _padded(allowed)
    plan, m = _RowPlan(allowed, dtype), len(domain)

    def plant(start, uniforms):  # the chunk's draws are freed before the next read
        u_anchor, u_radius, u_cell, u_symbol = uniforms[:, m:].T
        x = plan.rows(uniforms[:, :m])
        shell = _pick(u_anchor, len(anchors)) * radii + _pick(u_radius, radii)
        live = np.flatnonzero(shell_sizes[shell] > 0)
        cols = shells[shell[live], _pick(u_cell[live], shell_sizes[shell[live]])]
        options = symbols[cols]
        choices = ((np.arange(options.shape[1]) < symbol_sizes[cols, None])
                   & (options != x[live, cols, None]))
        count = choices.sum(axis=1)
        nth = np.cumsum(choices, axis=1) > _pick(u_symbol[live], count)[:, None]
        news = options[np.arange(len(live)), nth.argmax(axis=1)]
        keep = count > 0
        used, cols = live[keep], cols[keep]
        pairs = np.stack([x[used]] * 2)
        pairs[1, np.arange(len(used)), cols] = news[keep]
        return start + used, pairs, cols

    for start in range(0, samples, _SWEEP_ROWS):  # holds no chunk while drawing the next
        yield plant(start, _uniforms(rng, min(_SWEEP_ROWS, samples - start), m + 4))


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
    index = _columns(x.values)
    lo, hi = _pseudo_rows(metric.lam, _anchor_shells(metric.graph, v, index, r_cap),
                          _diff_rows([(x, y)], index))
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
    index = _columns(x.values)
    lo, hi = _dist_rows(metric, _estuary_shells(metric, index), _diff_rows([(x, y)], index))
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
    image = _image_rows(sys, _columns(x.values), region, row)
    return Configuration(dict(zip(region, image[0].tolist())))


# -- sampled Lipschitz and Holder checks ----------------------------------------


def _check_count(name: str, value) -> None:
    """Reject a sample count or radius cap that is not an int of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


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
    zero are skipped and counted.

    The sweep plans once: the update step on the image region, the image
    cells that read each domain cell, and the anchor shells of both domains.
    It samples a chunk of pairs, then evaluates their images and distances
    together.  A pair differs at its planted cell only, so x is imaged in
    full and y only at the readers of that cell; elsewhere y's image is x's.
    It consumes the same random stream as sampling and measuring one pair at
    a time, and returns the same report.
    """
    _check_count("samples", samples)
    _check_count("r_cap", r_cap)
    rng = random.Random(seed)
    anchors = metric.scheme.vertices
    domain = sort_vertices(metric.graph.ball_members(anchors, r_cap + 1))
    image_region = sort_vertices(metric.graph.ball_members(anchors, r_cap))
    index = _columns(domain)
    plan = _StepPlan(sys, index, image_region)
    readers = [[] for _ in domain]
    for j, w in enumerate(image_region):
        for c in {index[u] for u in sys.rule(w).inputs}:
            readers[c].append(j)
    readers = _padded(readers, -1)[0]
    pre_shells = _estuary_shells(metric, index)
    post_shells = _estuary_shells(metric, _columns(image_region))

    def measure(used, pairs, cols):
        """Sample numbers, planted columns, and pre-image and image intervals
        of the chunk's pairs whose pre-image interval clears zero.  Nothing
        else outlives the call, so a chunk is freed before the next is drawn."""
        pre_lo, pre_hi = _dist_rows(metric, pre_shells, pairs[0] != pairs[1])
        rows = np.flatnonzero(pre_lo > 0.0)
        if not len(rows):
            return (rows,) * 6  # nothing measured: six empty arrays
        x, y = pairs[:, rows]
        image = plan.image(x, len(image_region))
        which, slot = np.nonzero(readers[cols[rows]] >= 0)
        at = readers[cols[rows[which]], slot]
        diff = np.zeros(image.shape, dtype=bool)
        diff[which, at] = plan.image_at(y, which, at) != image[which, at]
        return (used[rows], cols[rows], pre_lo[rows], pre_hi[rows],
                *_dist_rows(metric, post_shells, diff))

    max_ratio = 0.0
    worst = None
    flagged = []
    measured = 0
    chunks = _planted_pairs(rng, metric.graph, anchors, space, domain,
                            max(1, r_cap - 1), samples)
    for used, cols, pre_lo, pre_hi, post_lo, post_hi in itertools.starmap(measure, chunks):
        if not len(used):
            continue
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
    transform: Callable[[Configuration], Configuration],
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

    A sample certifies the inequality only when the image interval sits
    below the bound computed from the pre-image's lower end; it certifies a
    violation only the other way around.  Everything else is inconclusive.
    Pairs are sampled a chunk at a time as in `lipschitz_report`; the
    transform runs per configuration, and the distances of a chunk are
    evaluated together.
    """
    for name, value in (("eta", eta), ("constant", lam_const)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    _check_count("samples", samples)
    rng = random.Random(seed)
    domain = sort_vertices(domain)
    index = _columns(domain)
    pre_shells = _estuary_shells(metric_from, index)
    holds = violations = 0
    worst = None
    worst_excess = 0.0
    # plant no deeper than the deepest radius at which an anchor's shell
    # meets the domain, so that every sampled radius can plant a cell
    graph, anchors = metric_from.graph, metric_from.scheme.vertices
    reach = max((r for u in anchors
                 for r, shell in enumerate(graph._shells(frozenset([u]), 7))
                 if any(c in index for c in shell)), default=0)
    chunks = _planted_pairs(rng, graph, anchors, space, domain, min(8, 1 + reach), samples)
    for used, pairs, cols in chunks:
        pre_lo, pre_hi = _dist_rows(metric_from, pre_shells, pairs[0] != pairs[1])
        groups: dict = {}  # image domain -> (sample rows, image pairs)
        for k, (xr, yr) in enumerate(zip(*pairs.tolist())):
            tx = transform(Configuration(dict(zip(domain, xr))))
            ty = transform(Configuration(dict(zip(domain, yr))))
            if tx.domain != ty.domain:
                raise DomainMismatchError("configurations must share a domain")
            rows, images = groups.setdefault(tx.domain, ([], []))
            rows.append(k)
            images.append((tx, ty))
        post_lo = np.empty(len(used))
        post_hi = np.empty(len(used))
        for image_domain, (rows, images) in groups.items():
            image_index = _columns(image_domain)
            post_lo[rows], post_hi[rows] = _dist_rows(
                metric_to, _estuary_shells(metric_to, image_index),
                _diff_rows(images, image_index))
        for i, col, d_lo, d_hi, p_lo, p_hi in zip(
            used.tolist(), cols.tolist(), pre_lo.tolist(), pre_hi.tolist(),
            post_lo.tolist(), post_hi.tolist(),
        ):
            if d_lo <= 0.0:
                continue
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
    are positive, None when fewer than two are.
    """
    if not eps_grid:
        raise ValueError("eps grid must be nonempty")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid must decrease")
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
    usable = [r for r in rows if r["log2_cover_lower"] > 0 and r["log2_cover_upper"] > 0]
    if len(usable) < 2:  # one point fits no slope
        return {"rows": rows, "lower_slope": None, "upper_slope": None}
    xs = [math.log(r["scale"]) for r in usable]
    lower_slope = _ols_slope(xs, [math.log(r["log2_cover_lower"]) for r in usable])
    upper_slope = _ols_slope(xs, [math.log(r["log2_cover_upper"]) for r in usable])
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
