"""Pattern-count entropy over graph balls and along subisometry orbits.

Everything here is exact for product pattern spaces: the number of patterns
on a finite region is the product of the per-cell allowed counts, so log
counts are sums, correctly rounded (`math.fsum`); on a space whose cells
share one alphabet of k symbols, the sum is the cell count times log2 k,
read from shell sizes alone.  All inf/sup-style quantities are finite-window
proxies computed over the probe the caller supplies, never limits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .netgraph import Ball, Digraph, Subisometry, SymdynError, Vertex, sort_vertices
from .kernel import PatternSpace


class NonDisjointBallsError(SymdynError):
    """A weak-independence family contained overlapping balls."""


@dataclass(frozen=True)
class EntropyEstimate:
    """Per-radius pattern-density report around one vertex.

    ratios[i] = log2(pattern count on B(v, radii[i])) / |B(v, radii[i])|;
    the proxies are the min/max ratio over the upper half of the window.
    """

    center: Vertex
    radii: tuple
    log2_counts: tuple
    ball_sizes: tuple
    ratios: tuple
    lower_proxy: float
    upper_proxy: float


def _log_count(space: PatternSpace, cells: Collection[Vertex]) -> float:
    """log2 of the pattern count on distinct cells, correctly rounded: the
    cell count times log2 k on a space with one alphabet of k symbols (the
    value `fsum` would give), else an `fsum` over the cells."""
    if space.symbols is not None:
        return len(cells) * math.log2(len(space.symbols))
    return math.fsum(math.log2(len(space.allowed(v))) for v in cells)


def pattern_log_count(space: PatternSpace, region: Iterable[Vertex]) -> float:
    """log2 of the number of patterns on a finite region (exact, product form)."""
    return _log_count(space, set(region))


def ball_entropy(
    space: PatternSpace, g: Digraph, v: Vertex, r_min: int, r_max: int
) -> EntropyEstimate:
    if not (2 <= r_min < r_max):
        raise ValueError("need 2 <= r_min < r_max")
    radii = tuple(range(r_min, r_max + 1))
    shells = g.shells(frozenset([v]), r_max)[: r_max + 1]
    # len() of a lattice shell reads its codes: one alphabet decodes no shell
    logs = list(itertools.accumulate(_log_count(space, s) for s in shells))
    logs += logs[-1:] * (r_max + 1 - len(logs))  # a closed ball stops growing
    log2_counts = logs[r_min:]
    ball_sizes = g.ball_sizes([v], r_max)[r_min:]
    ratios = tuple(c / s for c, s in zip(log2_counts, ball_sizes))
    tail = ratios[len(ratios) // 2 :]
    return EntropyEstimate(
        center=v,
        radii=radii,
        log2_counts=tuple(log2_counts),
        ball_sizes=tuple(ball_sizes),
        ratios=ratios,
        lower_proxy=min(tail),
        upper_proxy=max(tail),
    )


def weak_independence_report(
    space: PatternSpace, g: Digraph, ball_families: Sequence[Sequence[Ball]]
) -> dict:
    """Pattern-count additivity over families of pairwise disjoint balls.

    For each family the ratio compares the joint log count on the union
    against the sum of per-ball log counts; product spaces are exactly
    additive, so the ratio is 1 whenever the sum is nonzero.  The report's
    epsilon is the minimum ratio over all families.
    """
    per_family = []
    for fam in ball_families:
        seen: set = set()
        for ball in fam:
            members = set(ball.members)
            if seen & members:
                raise NonDisjointBallsError(
                    f"balls overlap at {sort_vertices(seen & members)[:4]}"
                )
            seen |= members
        joint = pattern_log_count(space, seen)
        # the balls are disjoint: one correctly rounded sum over all their cells
        parts = _log_count(space, [v for b in fam for v in b.members])
        ratio = joint / parts if parts > 0 else 1.0
        per_family.append(
            {
                "balls": len(fam),
                "joint_log2": joint,
                "sum_log2": parts,
                "ratio": ratio,
                "additive": math.isclose(joint, parts, rel_tol=0, abs_tol=1e-9),
            }
        )
    epsilon = min((f["ratio"] for f in per_family), default=1.0)
    return {"families": per_family, "epsilon": epsilon}


def tau_entropy_profile(
    space: PatternSpace, tau: Subisometry, base: Iterable[Vertex], n_max: int
) -> dict:
    """Per-N pattern growth along a subisometry orbit of a finite base set.

    values[N-1] = log2 |patterns on union of tau^0..tau^N images| / N; the
    log counts themselves are also reported since their increments carry the
    bits-per-step reading.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    base = sort_vertices(base)
    if not base:
        raise ValueError("base must be nonempty")
    region = set(base)
    current = set(base)
    ns = []
    log2_counts = []
    values = []
    region_sizes = []
    for n in range(1, n_max + 1):
        current = {tau(v) for v in current}
        region |= current
        c = pattern_log_count(space, region)
        ns.append(n)
        log2_counts.append(c)
        values.append(c / n)
        region_sizes.append(len(region))
    return {
        "n": ns,
        "log2_counts": log2_counts,
        "values": values,
        "region_sizes": region_sizes,
    }
