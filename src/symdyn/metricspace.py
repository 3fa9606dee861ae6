"""Based Cantor metrics on pattern spaces, with interval-honest distances.

A metric is a weighted sum, over an ordered estuary enumeration, of
agreement-radius pseudometrics lambda^(-R).  Configurations are finite, so
every distance comes back as a [lo, hi] interval: exact when a disagreement
is visible inside the covered radius, and a tail-bounded bracket otherwise.
Dimension estimation uses cylinder-cover counts in closed form rather than
any covering search.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .netgraph import Digraph, Vertex, _ols_slope, sort_vertices
from .symsys import Configuration, PatternSpace, SymbolicSystem
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
        if any(c <= 0 for c in coeffs):
            raise ValueError("coefficients must be positive")
        if tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")
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
        the analytic tail bound exp(-e^(J+1)) underflows the tolerance."""
        vs = []
        cs = []
        j = 0
        for v in vertices:
            c = math.exp(-math.exp(j)) * math.exp(j)
            if c <= 0.0:
                break
            vs.append(v)
            cs.append(c)
            j += 1
            if math.exp(-math.exp(j)) < tol:
                break
        tail = math.exp(-math.exp(j))
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
        if self.lam <= 1:
            raise ValueError("lambda must exceed 1")


def single_estuary_metric(graph: Digraph, v: Vertex, lam: float) -> BasedMetric:
    return BasedMetric(scheme=CoefficientScheme.single(v), lam=lam, graph=graph)


def metric_from_descriptor(desc: dict, graph: Digraph) -> BasedMetric:
    """Build a metric from its JSON form:
    {"estuary": [...], "lambda": 2, "scheme": "finite"|"doubleexp",
     "coeffs": [...]}.  Omitted coefficients default to the halving sequence.
    """
    estuary = [tuple(v) if isinstance(v, list) else v for v in desc["estuary"]]
    lam = float(desc.get("lambda", 2.0))
    kind = desc.get("scheme", "finite")
    if kind == "doubleexp":
        scheme = CoefficientScheme.double_exponential(estuary)
    elif kind == "finite":
        coeffs = desc.get("coeffs")
        if coeffs is None:
            coeffs = [2.0 ** (-j) for j in range(len(estuary))]
        scheme = CoefficientScheme.finite(estuary, [float(c) for c in coeffs])
    else:
        raise ValueError(f"unknown scheme kind: {kind!r}")
    return BasedMetric(scheme=scheme, lam=lam, graph=graph)


def _covered_radius(graph: Digraph, v: Vertex, domain: frozenset, r_cap=None) -> int:
    """Largest r with B(v, r) inside the domain; -1 if even v is missing."""
    if v not in domain:
        return -1
    r = 0
    while r_cap is None or r < r_cap:
        members = graph.ball_members([v], r + 1)
        if not members <= domain:
            return r
        if len(members) == len(graph.ball_members([v], r)):
            return r_cap if r_cap is not None else r  # ball closed
        r += 1
    return r


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
    cap = _covered_radius(metric.graph, v, x.domain, r_cap)
    if cap < 0:
        return DistanceBound(0.0, 1.0)  # vertex not covered: only the trivial bound
    if x.values[v] != y.values[v]:
        return DistanceBound(1.0, 1.0)
    r = 0
    while r < cap:
        shell = metric.graph.ball_members([v], r + 1) - metric.graph.ball_members(
            [v], r
        )
        if any(x.values[u] != y.values[u] for u in shell):
            val = metric.lam ** (-r)
            return DistanceBound(val, val)
        r += 1
    return DistanceBound(0.0, metric.lam ** (-cap))


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
    lo = 0.0
    hi = metric.scheme.tail_bound
    for u, c in zip(metric.scheme.vertices, metric.scheme.coeffs):
        if u not in x.domain:
            hi += c
            continue
        b = pseudo_dist(metric, u, x, y)
        lo += c * b.lo
        hi += c * b.hi
    bound = DistanceBound(lo, hi)
    if tol is not None and bound.width > tol:
        raise ToleranceUnreachableError(
            f"interval width {bound.width} exceeds tolerance {tol}"
        )
    return bound


def image_configuration(
    sys: SymbolicSystem, x: Configuration, region: Iterable[Vertex]
) -> Configuration:
    """One update step of a configuration, restricted to a region whose
    rule inputs the configuration covers."""
    out = {}
    for w in region:
        rule = sys.rule(w)
        out[w] = rule.fn(tuple(x.values[u] for u in rule.inputs))
    return Configuration(out)


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
    """
    rng = random.Random(seed)
    anchors = metric.scheme.vertices
    domain = set()
    for u in anchors:
        domain |= metric.graph.ball_members([u], r_cap + 1)
    domain = sort_vertices(domain)
    image_region = set()
    for u in anchors:
        image_region |= metric.graph.ball_members([u], r_cap)
    image_region = sort_vertices(image_region)

    max_ratio = 0.0
    worst = None
    flagged = []
    skipped = 0
    for i in range(samples):
        x = space.random_configuration(domain, rng)
        u = anchors[rng.randrange(len(anchors))]
        radius = rng.randrange(0, max(1, r_cap - 1))
        shell = metric.graph.ball_members([u], radius)
        if radius > 0:
            shell = shell - metric.graph.ball_members([u], radius - 1)
        if not shell:
            skipped += 1
            continue
        cell = sort_vertices(shell)[rng.randrange(len(shell))]
        choices = [s for s in space.allowed(cell) if s != x.values[cell]]
        if not choices:
            skipped += 1
            continue
        y_values = dict(x.values)
        y_values[cell] = rng.choice(choices)
        y = Configuration(y_values)
        d_pre = dist(metric, x, y)
        if d_pre.lo <= 0.0:
            skipped += 1
            continue
        fx = image_configuration(sys, x, image_region)
        fy = image_configuration(sys, y, image_region)
        d_post = dist(metric, fx, fy)
        ratio_hi = d_post.hi / d_pre.lo
        if ratio_hi > max_ratio:
            max_ratio = ratio_hi
            worst = {"sample": i, "cell": cell, "pre": (d_pre.lo, d_pre.hi),
                     "post": (d_post.lo, d_post.hi)}
        if ratio_hi > metric.lam * (1 + 1e-9):
            flagged.append({"sample": i, "ratio_hi": ratio_hi})
    return {
        "samples": samples,
        "skipped": skipped,
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
    """
    if eta <= 0 or lam_const <= 0:
        raise ValueError("eta and the constant must be positive")
    rng = random.Random(seed)
    domain = sort_vertices(domain)
    anchors = metric_from.scheme.vertices
    holds = violations = inconclusive = 0
    worst = None
    worst_excess = 0.0
    for i in range(samples):
        x = space.random_configuration(domain, rng)
        u = anchors[rng.randrange(len(anchors))]
        radius = rng.randrange(0, 8)
        shell = metric_from.graph.ball_members([u], radius)
        if radius > 0:
            shell = shell - metric_from.graph.ball_members([u], radius - 1)
        shell = [c for c in sort_vertices(shell) if c in set(domain)]
        if not shell:
            inconclusive += 1
            continue
        cell = shell[rng.randrange(len(shell))]
        choices = [s for s in space.allowed(cell) if s != x.values[cell]]
        if not choices:
            inconclusive += 1
            continue
        y_values = dict(x.values)
        y_values[cell] = rng.choice(choices)
        y = Configuration(y_values)
        d_pre = dist(metric_from, x, y)
        d_post = dist(metric_to, transform(x), transform(y))
        if d_pre.lo <= 0.0:
            inconclusive += 1
            continue
        bound_lo = lam_const * d_pre.lo**eta
        bound_hi = lam_const * d_pre.hi**eta
        if d_post.hi <= bound_lo * (1 + 1e-9):
            holds += 1
        elif d_post.lo > bound_hi * (1 + 1e-9):
            violations += 1
            excess = d_post.lo / bound_hi
            if excess > worst_excess:
                worst_excess = excess
                worst = {"sample": i, "cell": cell, "pre": (d_pre.lo, d_pre.hi),
                         "post": (d_post.lo, d_post.hi)}
        else:
            inconclusive += 1
    return {
        "holds": holds,
        "violations": violations,
        "inconclusive": inconclusive,
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
    ln(log2 count) against ln(-log_lam eps).
    """
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
    xs = [math.log(r["scale"]) for r in usable]
    lower_slope = _ols_slope(xs, [math.log(r["log2_cover_lower"]) for r in usable])
    upper_slope = _ols_slope(xs, [math.log(r["log2_cover_upper"]) for r in usable])
    return {"rows": rows, "lower_slope": lower_slope, "upper_slope": upper_slope}


def uniform_dim_profile(
    g: Digraph, base: Iterable[Vertex], r_grid: Sequence[int]
) -> list:
    """Per-radius worst growth exponent over a finite vertex set."""
    base = sort_vertices(base)
    out = []
    for r in r_grid:
        if r < 2:
            raise ValueError("radii must be >= 2")
        worst = max(
            math.log(len(g.ball_members([u], r))) / math.log(r) for u in base
        )
        out.append({"r": r, "sup_exponent": worst})
    return out
