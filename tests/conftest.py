"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from symdyn import counterexample as cx
from symdyn import kernel as kn
from symdyn import netgraph as ng
from symdyn.entropydim import pattern_log_count


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


def fresh_ball(g, centers, radius):
    """B(centers, radius) by a frontier BFS of its own, outside the graph's
    shell cache."""
    members = set(centers)
    frontier = set(centers)
    for _ in range(radius):
        new = {u for x in frontier for u in g.in_neighbors(x)} - members
        if not new:
            break
        members |= new
        frontier = new
    return members


def upstream_oracle(g, v, w, cap):
    """Directed reachability v -> w within cap, by its own frontier loop:
    True, False once the closure of w is complete, None when the cap runs
    out first."""
    if v == w:
        return True
    members = {w}
    frontier = {w}
    for _ in range(cap):
        new = set()
        for x in frontier:
            for u in g.in_neighbors(x):
                if u not in members:
                    new.add(u)
        if v in new:
            return True
        if not new:
            return False
        members |= new
        frontier = new
    return None


def log_count_oracle(space, region):
    """log2 of the pattern count on a region: a correctly rounded sum over
    its distinct cells of log2 of their allowed-set sizes, each set read
    through the space's own allowed function."""
    return math.fsum(math.log2(len(tuple(space._allowed(v)))) for v in set(region))


def ball_entropy_oracle(space, g, v, r_min, r_max):
    """(ball size, log2 pattern count) per radius, the ball rebuilt at
    every radius."""
    out = []
    for r in range(r_min, r_max + 1):
        members = fresh_ball(g, [v], r)
        out.append((len(members), pattern_log_count(space, members)))
    return out


def metric_dim_estimate_oracle(space, metric, eps_grid):
    """`metric_dim_estimate` by set unions: every region is the union of
    per-anchor balls, each rebuilt by a BFS of its own (`fresh_ball`, a
    ball of negative radius empty), and counted by `log_count_oracle`."""
    lam, scheme = metric.lam, metric.scheme

    def union(balls):
        return set().union(*(fresh_ball(metric.graph, [u], r) for u, r in balls if r >= 0))

    rows = []
    for eps in eps_grid:
        lower_region = union((u, math.floor(math.log(c / eps, lam)))
                             for u, c in zip(scheme.vertices, scheme.coeffs) if c > eps)
        cutoff = scheme.prefix_length(eps)
        r_eps = math.ceil(math.log(2 * scheme.total_mass / eps, lam))
        upper_region = union((u, r_eps) for u in scheme.vertices[: max(cutoff, 1)])
        rows.append({
            "eps": eps,
            "scale": -math.log(eps, lam),
            "log2_cover_lower": log_count_oracle(space, lower_region),
            "log2_cover_upper": log_count_oracle(space, upper_region),
            "lower_region_size": len(lower_region),
            "upper_region_size": len(upper_region),
        })
    usable = [r for r in rows
              if r["scale"] > 0 and r["log2_cover_lower"] > 0 and r["log2_cover_upper"] > 0]
    if len(usable) < 2:
        return {"rows": rows, "lower_slope": None, "upper_slope": None}
    xs = [math.log(r["scale"]) for r in usable]
    return {"rows": rows,
            "lower_slope": ng.ols_slope(xs, [math.log(r["log2_cover_lower"]) for r in usable]),
            "upper_slope": ng.ols_slope(xs, [math.log(r["log2_cover_upper"]) for r in usable])}


def cone_layers_oracle(sys_, window, horizon):
    """Layers of the window's light cone by backward composition of rule
    inputs: layer t is the exact input set of the t-fold composition.  Walks
    the rules, not the graph's BFS that `light_cone` reads."""
    layers = [set(window)]
    for _ in range(horizon):
        layers.append({u for v in layers[-1] for u in sys_.rule(v).inputs})
    return layers


def cone_cells_oracle(sys_, window, horizon):
    """The cells of the window's light cone, sorted."""
    return ng.sort_vertices(set().union(*cone_layers_oracle(sys_, window, horizon)))


def cone_order_oracle(sys_, window, horizon):
    """Cells in order of first appearance in the layers (each layer sorted),
    and the cumulative cell count per horizon."""
    order: dict = {}
    sizes = []
    for layer in cone_layers_oracle(sys_, window, horizon):
        order.update(dict.fromkeys(ng.sort_vertices(layer)))
        sizes.append(len(order))
    return tuple(order), tuple(sizes)


def propagation_oracle(sys_, v, horizon):
    """Cumulative cone sizes at one vertex, each cumulative cone checked
    against a freshly built ball of the same radius."""
    sizes = []
    seen: set = set()
    for t, layer in enumerate(cone_layers_oracle(sys_, [v], horizon)):
        seen.update(layer)
        sizes.append(len(seen))
        assert seen <= fresh_ball(sys_.graph, [v], t), f"cone escaped ball at t={t}"
    return sizes


def sensitivity_oracle(sys_, v, radius, t_max):
    """The first layer of v's cone with a cell outside a freshly built
    B(v, radius), and that layer's least such cell; None if none escapes."""
    ball = fresh_ball(sys_.graph, [v], radius)
    for t, layer in enumerate(cone_layers_oracle(sys_, [v], t_max)):
        escaped = ng.sort_vertices(layer - ball)
        if escaped:
            return {"t": t, "witness": escaped[0]}
    return None


def envelope_oracle(sys_, window, t_probe, r_cap):
    """(cone sizes, reach, certified, reason) of the envelope search: the
    cumulative cone must stop growing over the second half of the probe
    and lie within B(window, reach) for a reach of at most r_cap."""
    cum: set = set()
    sizes = []
    for layer in cone_layers_oracle(sys_, window, t_probe):
        cum.update(layer)
        sizes.append(len(cum))
    stabilized = all(sizes[t] == sizes[t_probe] for t in range(t_probe // 2, t_probe + 1))
    reach = None
    for r in range(r_cap + 1):
        if cum <= fresh_ball(sys_.graph, window, r):
            reach = r
            break
    certified = stabilized and reach is not None
    reason = "" if certified else (
        "cone still growing" if not stabilized else "cone beyond reach cap")
    return tuple(sizes), reach, certified, reason


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


def evaluate_oracle(sys_, x, window, horizon):
    """Trajectory of one configuration, one rule call per cell and step: the
    cells each step reads are the layers 0..horizon-t of the cone."""
    w = ng.sort_vertices(window)
    layers = cone_layers_oracle(sys_, w, horizon)
    values = {v: x.values[v] for v in set().union(*layers)}
    traj = [{u: values[u] for u in w}]
    for t in range(1, horizon + 1):
        cells = set().union(*layers[: horizon - t + 1])
        new_values = {}
        for v in cells:
            rule = sys_.rule(v)
            new_values[v] = rule.fn(tuple(values[u] for u in rule.inputs))
        values = new_values
        traj.append({u: values[u] for u in w})
    return traj


def trajectory_set_oracle(sys_, space, window, horizon):
    """Observed trajectories of every pattern on the window's cone, each
    computed by `evaluate_oracle` on its own configuration."""
    w = ng.sort_vertices(window)
    cells = cone_cells_oracle(sys_, w, horizon)
    out = set()
    for pattern in itertools.product(*[space.allowed(v) for v in cells]):
        x = kn.Configuration(dict(zip(cells, pattern)))
        traj = evaluate_oracle(sys_, x, w, horizon)
        out.add(tuple(tuple(step[u] for u in w) for step in traj))
    return out


def determined_oracle(sys_, space, window, horizon, tracked):
    """Reference dict engine: materialize every pattern on the horizon's
    cone, group by trajectory, and keep the tracked cells every group agrees
    on."""
    w = ng.sort_vertices(window)
    cells = cone_cells_oracle(sys_, w, horizon)
    pos = {v: i for i, v in enumerate(cells)}
    tracked = [v for v in tracked if v in pos]
    groups: dict = {}
    for pattern in itertools.product(*[space.allowed(v) for v in cells]):
        x = kn.Configuration(dict(zip(cells, pattern)))
        traj = evaluate_oracle(sys_, x, w, horizon)
        obs = tuple(tuple(step[u] for u in w) for step in traj)
        ref = groups.setdefault(obs, pattern)
        tracked = [v for v in tracked if pattern[pos[v]] == ref[pos[v]]]
    return set(tracked)


def forward_linear_layers_oracle(sys_, space, cone, target=None):
    """Per horizon, the determined cells (of `target`, default all) of a
    GF(p)-linear cone, by forward simulation: the zero pattern and one
    pattern per basis vector of the allowed subspaces run through the whole
    cone (`kernel.trajectory_rows`), and their differences give each
    observed digit as a functional over the basis.  A cell is determined
    once each of its coordinates is a pivot of the functionals' reduced
    echelon form whose row has no other nonzero; rows join one at a time.
    The caller checks that the cone is linear."""
    k = sys_.alphabet.size
    p = min(d for d in range(2, k + 1) if k % d == 0)
    m = round(math.log(k, p))

    def digits(s):
        return [s // p**j % p for j in range(m)]

    def symbol(ds):
        return sum(d % p * p**j for j, d in enumerate(ds))

    basis = []  # (cell, symbol) of each basis vector, greedily from the smallest symbols
    for v in cone.union:
        span = {0}
        for s in sorted(space.allowed(v)):
            if s not in span:
                basis.append((v, s))
                span = {symbol([a + c * b for a, b in zip(digits(x), digits(s))])
                        for x in span for c in range(p)}
    rows = np.zeros((len(basis) + 1, len(cone.union)), dtype=np.int64)
    position = {v: i for i, v in enumerate(cone.union)}
    coords: dict = {v: [] for v in cone.union}
    for j, (v, s) in enumerate(basis):
        rows[j + 1, position[v]] = s
        coords[v].append(j)
    traj = kn.trajectory_rows(sys_, cone, rows).astype(np.int64)[..., None] // p ** np.arange(m) % p
    functionals = ((traj[1:] - traj[0]) % p).transpose(1, 2, 3, 0).reshape(
        cone.horizon + 1, len(cone.window) * m, len(basis))
    pivots: dict = {}  # pivot column -> its row
    det: set = set()
    layers = []
    for t, size in enumerate(cone.sizes):
        for row in functionals[t]:
            for c, pivot_row in pivots.items():
                row = (row - row[c] * pivot_row) % p
            if row.any():
                c = int(np.flatnonzero(row)[0])
                row = row * pow(int(row[c]), -1, p) % p
                for c2, pivot_row in pivots.items():
                    pivots[c2] = (pivot_row - pivot_row[c] * row) % p
                pivots[c] = row
        cells = set(cone.order[:size]) if target is None else target & set(cone.order[:size])
        det |= {v for v in cells if all(
            j in pivots and np.count_nonzero(pivots[j]) == 1 for j in coords[v])}
        layers.append(frozenset(det))
    return layers


def panorama_layers_oracle(sys_, space, window, horizon):
    """Panorama layers by the reference dict engine."""
    cum: set = set()
    layers = []
    for t, layer in enumerate(cone_layers_oracle(sys_, window, horizon)):
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


def covered_radius_oracle(graph, v, domain, r_cap=None):
    """Largest r with B(v, r) inside the domain, from fresh ball unions at
    every radius; -1 if v is missing.  A ball that closes inside the domain
    counts as covered up to r_cap (or its closing radius without a cap)."""
    if v not in domain:
        return -1
    r = 0
    while r_cap is None or r < r_cap:
        members = graph.ball_members([v], r + 1)
        if not members <= domain:
            return r
        if len(members) == len(graph.ball_members([v], r)):
            return r_cap if r_cap is not None else r
        r += 1
    return r


def pseudo_dist_oracle(metric, v, x, y, r_cap=None):
    """(lo, hi) of lambda^(-R) around v, one shell and one cell at a time."""
    cap = covered_radius_oracle(metric.graph, v, frozenset(x.values), r_cap)
    if cap < 0:
        return 0.0, 1.0
    if x.values[v] != y.values[v]:
        return 1.0, 1.0
    for r in range(cap):
        shell = metric.graph.ball_members([v], r + 1) - metric.graph.ball_members([v], r)
        if any(x.values[u] != y.values[u] for u in shell):
            val = metric.lam ** (-r)
            return val, val
    return 0.0, metric.lam ** (-cap)


def dist_oracle(metric, x, y):
    """(lo, hi) of the based distance, summed one estuary vertex at a time."""
    lo = 0.0
    hi = metric.scheme.tail_bound
    for u, c in zip(metric.scheme.vertices, metric.scheme.coeffs):
        if u not in x.values:
            hi += c
            continue
        b_lo, b_hi = pseudo_dist_oracle(metric, u, x, y)
        lo += c * b_lo
        hi += c * b_hi
    return lo, hi


def rank_oracle(rows) -> int:
    """Rank of integer rows by Gaussian elimination over the rationals."""
    rows = [[Fraction(a) for a in r] for r in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[j]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            factor = r[j] / pivot[j]
            r[:] = [a - factor * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def check_proper_oracle(rule, alphabet):
    """Properness report by scalar rule calls: for each coordinate, the first
    input tuple in row-major order with a partner differing only there whose
    output differs, and the least such partner symbol."""
    k = alphabet.size
    arity = len(rule.inputs)
    witnesses: dict = {}
    inessential = []
    for i in range(arity):
        found = None
        for args in itertools.product(range(k), repeat=arity):
            base = rule.fn(args)
            for s in range(k):
                if s == args[i]:
                    continue
                other = args[:i] + (s,) + args[i + 1 :]
                if rule.fn(other) != base:
                    found = (args, other)
                    break
            if found:
                break
        if found:
            witnesses[i] = found
        else:
            inessential.append(i)
    return {"proper": not inessential, "witnesses": witnesses, "inessential": inessential}


def decode_trace_oracle(trace, depth):
    """Initial data from a trace of cell 0, by unwinding its b-history one
    junction level at a time: the b-bit of junction j at time t is junction
    j - 1's b-bit at time t + 1 minus the a-bit that junction j held at time
    t, which is the a-observation at time t + m_j (all mod 2)."""
    horizon = cx.junction_index(depth)
    a_row = tuple(a for a, _ in trace.observations[: horizon + 1])
    b_hist = [b for _, b in trace.observations[: horizon + 1]]  # entry t: b-bit at time t
    b_junctions = [b_hist[0]]
    for j in range(1, depth + 1):
        mj = cx.junction_index(j)
        b_hist = [b_hist[t + 1] ^ a_row[t + mj] for t in range(horizon - mj + 1)]
        b_junctions.append(b_hist[0])
    return cx.DecodeResult(depth=depth, a_row=a_row, b_junctions=tuple(b_junctions))


def image_configuration_oracle(sys_, x, region):
    """One update step on a region, one rule call per cell."""
    out = {}
    for w in region:
        rule = sys_.rule(w)
        out[w] = rule.fn(tuple(x.values[u] for u in rule.inputs))
    return kn.Configuration(out)


def read_cells_oracle(sys_, space, domain, region):
    """The cells each pair of the sampled sweeps reads x on, by domain cell
    c: c, then in domain order the other inputs of the region cells that
    read c, and the inputs of every region cell whose distinct inputs have
    more than 2^16 allowed patterns; just c for the identity (`sys_` None).
    Built from the rules one cell at a time."""
    domain = ng.sort_vertices(domain)
    if sys_ is None:
        return {c: [c] for c in domain}
    wide = set()
    for w in region:
        inputs = set(sys_.rule(w).inputs)
        if math.prod(len(space.allowed(u)) for u in inputs) > 2**16:
            wide |= inputs
    reads = {}
    for c in domain:
        cells = set(wide)
        for w in region:
            if c in sys_.rule(w).inputs:
                cells.update(sys_.rule(w).inputs)
        reads[c] = [c] + [v for v in domain if v in cells and v != c]
    return reads


def planted_pair_oracle(metric, space, reads, radii, rng):
    """One pair of the sampled sweeps, one `rng.random()` per pick, over the
    domain and read cells `reads` of `read_cells_oracle`: a symbol for each
    of the W cells of the longest read list, then an anchor, a radius below
    `radii`, a cell c of that shell inside the domain and another allowed
    symbol there.  x takes the first len(reads[c]) symbols at reads[c], in
    order, and each other cell's smallest allowed symbol.  Returns (x, c, y),
    or None when the shell or the symbol choice is empty."""
    anchors = metric.scheme.vertices
    draws = [rng.random() for _ in range(max(map(len, reads.values())))]
    u = anchors[int(rng.random() * len(anchors))]
    radius = int(rng.random() * radii)
    cell_draw, symbol_draw = rng.random(), rng.random()
    shell = metric.graph.ball_members([u], radius)
    if radius > 0:
        shell = shell - metric.graph.ball_members([u], radius - 1)
    shell = shell & set(reads)
    if not shell:
        return None
    cell = ng.sort_vertices(shell)[int(cell_draw * len(shell))]
    x_values = {v: min(space.allowed(v)) for v in reads}
    for v, draw in zip(reads[cell], draws):
        allowed = space.allowed(v)
        x_values[v] = allowed[int(draw * len(allowed))]
    choices = [s for s in space.allowed(cell) if s != x_values[cell]]
    if not choices:
        return None
    y_values = dict(x_values)
    y_values[cell] = choices[int(symbol_draw * len(choices))]
    return kn.Configuration(x_values), cell, kn.Configuration(y_values)


def lipschitz_report_oracle(sys_, metric, space, samples, seed=0, r_cap=6):
    """The Lipschitz sweep one pair at a time, on the oracles above."""
    rng = random.Random(seed)
    anchors = metric.scheme.vertices
    domain = set()
    image_region = set()
    for u in anchors:
        domain |= metric.graph.ball_members([u], r_cap + 1)
        image_region |= metric.graph.ball_members([u], r_cap)
    domain = ng.sort_vertices(domain)
    image_region = ng.sort_vertices(image_region)
    max_ratio = 0.0
    worst = None
    flagged = []
    skipped = 0
    reads = read_cells_oracle(sys_, space, domain, image_region)
    for i in range(samples):
        pair = planted_pair_oracle(metric, space, reads, max(1, r_cap - 1), rng)
        if pair is None:
            skipped += 1
            continue
        x, cell, y = pair
        pre = dist_oracle(metric, x, y)
        if pre[0] <= 0.0:
            skipped += 1
            continue
        post = dist_oracle(
            metric,
            image_configuration_oracle(sys_, x, image_region),
            image_configuration_oracle(sys_, y, image_region),
        )
        ratio_hi = post[1] / pre[0]
        if ratio_hi > max_ratio:
            max_ratio = ratio_hi
            worst = {"sample": i, "cell": cell, "pre": pre, "post": post}
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


def holder_report_oracle(sys_, metric_from, metric_to, eta, lam_const, space, domain,
                         samples, seed=0):
    """The Hölder sweep one pair at a time, on the oracles above.  The map is
    one step of `sys_` on the domain cells whose inputs lie in the domain, or
    the identity when `sys_` is None.  Radii are drawn up to the deepest
    radius below 8 at which an anchor's shell meets the domain."""
    rng = random.Random(seed)
    domain = ng.sort_vertices(domain)
    cells = set(domain)
    region = None if sys_ is None else [w for w in domain
                                        if set(sys_.rule(w).inputs) <= cells]
    graph = metric_from.graph
    reach = 0
    for u in metric_from.scheme.vertices:
        for r in range(8):
            shell = graph.ball_members([u], r)
            if r > 0:
                shell = shell - graph.ball_members([u], r - 1)
            if shell & cells:
                reach = max(reach, r)
    holds = violations = 0
    worst = None
    worst_excess = 0.0
    reads = read_cells_oracle(sys_, space, domain, region)
    for i in range(samples):
        pair = planted_pair_oracle(metric_from, space, reads, reach + 1, rng)
        if pair is None:
            continue
        x, cell, y = pair
        d_lo, d_hi = dist_oracle(metric_from, x, y)
        if d_lo <= 0.0:
            continue
        if region is not None:
            x = image_configuration_oracle(sys_, x, region)
            y = image_configuration_oracle(sys_, y, region)
        p_lo, p_hi = dist_oracle(metric_to, x, y)
        bound_lo = lam_const * d_lo**eta
        bound_hi = lam_const * d_hi**eta
        if p_hi <= bound_lo * (1 + 1e-9):
            holds += 1
        elif p_lo > bound_hi * (1 + 1e-9):
            violations += 1
            if p_lo / bound_hi > worst_excess:
                worst_excess = p_lo / bound_hi
                worst = {"sample": i, "cell": cell, "pre": (d_lo, d_hi),
                         "post": (p_lo, p_hi)}
    return {
        "holds": holds,
        "violations": violations,
        "inconclusive": samples - holds - violations,
        "passed": violations == 0 and holds > 0,
        "worst": worst,
    }


def uniforms_per_call(rng, n, m):
    """n * m calls of `rng.random()`, as an (n, m) array."""
    return np.array([[rng.random() for _ in range(m)] for _ in range(n)]).reshape(n, m)


def words_per_call(rng, count):
    """`kn.words` as `count` calls of `rng.random()`: each value u is
    (a * 2^26 + b) / 2^53, given back by the words a << 5 and b << 6."""
    values = [int(rng.random() * 2.0**53) for _ in range(count)]
    return np.array([[v >> 26 << 5, (v & (2**26 - 1)) << 6] for v in values],
                   dtype="<u4").reshape(2 * count)


def choice_per_cell(space, domain, rng):
    """`PatternSpace.random_configuration` as one `rng.random()` per cell,
    which picks symbol int(u * n) of the cell's n allowed symbols."""
    values = {}
    for v in ng.sort_vertices(domain):
        allowed = space.allowed(v)
        values[v] = allowed[int(rng.random() * len(allowed))]
    return kn.Configuration(values)


def commutes_oracle(sys_, tau, v, x):
    """Whether Phi(x o tau) at v equals Phi(x) at tau(v), for a pattern x
    (a dict) that covers tau(inputs(v)) and inputs(tau(v)): two scalar rule
    calls."""
    rule, image_rule = sys_.rule(v), sys_.rule(tau(v))
    ours = rule.fn(tuple(x[tau(u)] for u in rule.inputs))
    return int(ours) == int(image_rule.fn(tuple(x[u] for u in image_rule.inputs)))


def commutation_oracle(sys_, tau, probe, space):
    """The commutation part of `subsymmetry_check`, one pattern at a time:
    (violations, unchecked).  For each probe vertex v every allowed pattern
    on U_v = tau(inputs(v)) | inputs(tau(v)) is tried in `itertools.product`
    order (first cell of U_v most significant), and the first that breaks
    commutation is v's witness; past `TABLE_MAX` patterns v is unchecked."""
    violations, unchecked = [], []
    for v in ng.sort_vertices(set(probe)):
        cells = ng.sort_vertices({tau(u) for u in sys_.rule(v).inputs}
                                 | set(sys_.rule(tau(v)).inputs))
        if math.prod(len(space.allowed(c)) for c in cells) > kn.TABLE_MAX:
            unchecked.append(v)
            continue
        for values in itertools.product(*(space.allowed(c) for c in cells)):
            x = dict(zip(cells, values))
            if not commutes_oracle(sys_, tau, v, x):
                violations.append({"vertex": v, "pattern": x})
                break
    return violations, unchecked


def sampled_commutation_oracle(sys_, tau, probe, space, samples, seed=0):
    """The probe vertices at which commutation failed on `samples` sampled
    configurations, as `subsymmetry_check` sampled them before it decided
    commutation exactly: each sample is one `rng.random()` per cell of the
    union of every U_v, in vertex order (`choice_per_cell`)."""
    probe = ng.sort_vertices(set(probe))
    domain = {tau(u) for v in probe for u in sys_.rule(v).inputs}
    domain |= {u for v in probe for u in sys_.rule(tau(v)).inputs}
    rng = random.Random(seed)
    flagged = set()
    for _ in range(samples):
        x = choice_per_cell(space, domain, rng).values
        flagged |= {v for v in probe if not commutes_oracle(sys_, tau, v, x)}
    return flagged
