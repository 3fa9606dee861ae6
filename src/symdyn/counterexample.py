"""A positively expansive system on a quadratic-growth network.

Cells sit on a half-line; the cells indexed by m_k = k(k+1) ("junction"
cells) each listen to the next cell on the line and to the next junction,
while every other cell ("chain" cell) just copies its successor.  States are
bit pairs (a, b), with b pinned to 0 on chain cells.  Observing only cell 0
reconstructs the whole initial state: the a-bits march down the line one
step per tick, and the b-bit of junction j is the parity of j + 1
observations, the last one at time m_j.

Symbols encode (a, b) as a | (b << 1), so the alphabet is {0, 1, 2, 3} and
chain cells are restricted to {0, 1}.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .netgraph import Digraph, SymdynError, is_cell_of_n
from .kernel import (
    Alphabet,
    Configuration,
    LocalRule,
    PatternSpace,
    SymbolicSystem,
    RowPlan,
    trajectory_rows,
    uniform_blocks,
    evaluate,
    light_cone,
    propagation,
)


class HorizonTooShortError(SymdynError):
    """A trace is shorter than the decode depth requires."""


def junction_index(k: int) -> int:
    """Index of the k-th junction cell: 0, 2, 6, 12, 20, ..."""
    return k * (k + 1)


def junction_rank(n: int) -> Optional[int]:
    """k with junction_index(k) == n, or None for chain cells."""
    if n < 0:
        return None
    k = (math.isqrt(4 * n + 1) - 1) // 2  # largest k with k(k+1) <= n
    return k if junction_index(k) == n else None


def pack(a: int, b: int) -> int:
    return (a & 1) | ((b & 1) << 1)


def unpack(sym: int) -> tuple:
    return sym & 1, (sym >> 1) & 1


def cex_network() -> Digraph:
    """In-neighbors: chain cell n listens to n+1; junction m_k listens to
    m_k + 1 and to the next junction m_{k+1}.  No self-loops."""

    def ins(n):
        k = junction_rank(n)
        if k is None:
            return [n + 1]
        return [n + 1, junction_index(k + 1)]

    def outs(n):
        out = []
        if n >= 1:
            out.append(n - 1)  # n = (n-1)+1 feeds its predecessor
        k = junction_rank(n)
        if k is not None and k >= 1:
            out.append(junction_index(k - 1))
        return out

    return Digraph(ins, outs, universe={"family": "counterexample"}, contains=is_cell_of_n)


def cex_space() -> PatternSpace:
    return PatternSpace(
        lambda n: (0, 1, 2, 3) if junction_rank(n) is not None else (0, 1),
        label="counterexample",
    )


def cex_rules() -> SymbolicSystem:
    """The system itself: chain cells copy the a-bit of their successor and
    write b = 0; junction m_k outputs (a of cell m_k + 1, a + b of junction
    m_{k+1} mod 2)."""
    alphabet = Alphabet(4)
    graph = cex_network()

    def rule_at(n):
        k = junction_rank(n)
        if k is None:
            return LocalRule(inputs=(n + 1,), fn=_chain, label="chain")
        return LocalRule(
            inputs=(n + 1, junction_index(k + 1)), fn=_junction, label=f"junction[{k}]"
        )

    return SymbolicSystem(alphabet, graph, rule_at, label="counterexample")


def _chain(args):
    return args[0] & 1


def _junction(args):
    a_next, _ = unpack(args[0])
    a_j, b_j = unpack(args[1])
    return pack(a_next, a_j ^ b_j)


@dataclass(frozen=True)
class Trace:
    """Observations of cell 0: (a, b) pairs for t = 0..horizon."""

    horizon: int
    observations: tuple  # tuple of (a, b)

    def __post_init__(self):
        if len(self.observations) != self.horizon + 1:
            raise ValueError("trace length must be horizon + 1")


@dataclass(frozen=True)
class DecodeResult:
    """Initial data recovered from a trace: the a-row 0..m_J and the b-bits
    of junctions 0..J."""

    depth: int
    a_row: tuple
    b_junctions: tuple


def decode_window(depth: int) -> tuple:
    """Cells whose initial state a depth-J trace pins down: everything up to
    junction J (a-bits everywhere, b-bits at the junctions)."""
    return tuple(range(junction_index(depth) + 1))


def simulate_trace(x0: Configuration, depth: int) -> Trace:
    """Run the system from x0, recording cell 0 through horizon
    junction_index(depth)."""
    horizon = junction_index(depth)
    sys = cex_rules()
    traj = evaluate(sys, x0, [0], horizon)
    return Trace(horizon, tuple(unpack(step[0]) for step in traj))


def decode_observations(obs: np.ndarray, depth: int) -> tuple:
    """Invert rows of cell 0's symbols, obs[:, t] at time t, back to the
    initial data (sums mod 2): the a-rows 0..m_J and the junction b-bits.

    a(n, t) = a(n + t, 0), since every cell takes its successor's a-bit, so
    a0[n] is the a-observation at time n.  Junction k adds junction k + 1's
    bits into its b-bit: b(m_k, t + 1) = a(m_{k+1}, t) + b(m_{k+1}, t).
    Unwinding that j times from b(0, j) gives b_j = b(m_j, 0) = b(0, j) +
    the sum of a0[m_i + j - i] over i = 1..j: j + 1 observations, the last
    at m_j, read with one column gather per junction.
    """
    horizon = junction_index(depth)
    if obs.shape[1] <= horizon:
        raise HorizonTooShortError(f"depth {depth} needs horizon {horizon}, "
                                   f"trace has {obs.shape[1] - 1}")
    a_rows = obs[:, : horizon + 1] & 1
    gathers = [[junction_index(i) + j - i for i in range(1, j + 1)] for j in range(depth + 1)]
    b_bits = np.stack([(obs[:, j] >> 1) + a_rows[:, cols].sum(axis=1)
                       for j, cols in enumerate(gathers)], axis=1) & 1
    return a_rows, b_bits


def decode_trace(trace: Trace, depth: int) -> DecodeResult:
    """`decode_observations` on the one row of a trace."""
    a_rows, b_bits = decode_observations(np.array([[pack(*ab) for ab in trace.observations]]), depth)
    return DecodeResult(depth, tuple(a_rows[0].tolist()), tuple(b_bits[0].tolist()))


def random_initial(depth: int, rng: random.Random) -> Configuration:
    """Random valid configuration on the cone of cell 0 at horizon m_J."""
    sys = cex_rules()
    space = cex_space()
    cone = light_cone(sys, [0], junction_index(depth))
    return space.random_configuration(cone.union, rng)


def trial_seed(seed: int, trial: int) -> int:
    """Seed of the random stream that draws one round trip's initial data."""
    return seed * 1_000_003 + trial


def cex_roundtrip(depth: int, trials: int, seed: int = 0) -> dict:
    """Simulate-then-decode round trips from random initial data.

    Each trial draws its own row of initial data from its own stream, read
    and converted a block of trials at a time (`uniform_blocks`); all
    trials are simulated in one batch, then decoded and compared as arrays.
    Passes only if every trial recovers the a-row and junction b-bits
    exactly; failures carry their per-trial seed for replay.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    sys = cex_rules()
    space = cex_space()
    cone = light_cone(sys, [0], junction_index(depth))
    plan = RowPlan([space.allowed(v) for v in cone.union])
    streams = (random.Random(trial_seed(seed, t)) for t in range(trials))
    rows = np.vstack([plan.rows(u) for u in uniform_blocks(streams, len(cone.union))])
    observed = trajectory_rows(sys, cone, rows)[:, :, 0]
    # cone.union is sorted and holds cells 0..m_J, so they lead each row
    failures = [{"trial": trial, "seed": trial_seed(seed, trial), "mismatches": mismatches}
                for trial, mismatches in _mismatches(rows, observed, depth).items()]
    return {"passed": not failures, "trials": trials, "failures": failures}


def roundtrip_mismatches(x0: Configuration, depth: int) -> list:
    """Compare decode(simulate(x0)) against x0; empty list means exact."""
    observed = [[pack(*ab) for ab in simulate_trace(x0, depth).observations]]
    initial = [[x0.values[n] for n in range(junction_index(depth) + 1)]]
    return _mismatches(np.array(initial), np.array(observed), depth).get(0, [])


def _mismatches(initial: np.ndarray, observed: np.ndarray, depth: int) -> dict:
    """Mismatches by row, for the rows whose decoded observations of cell 0
    disagree with their initial symbols at cells 0..m_J, the leading columns
    of `initial`: the a-cells in ascending order, then the b-junctions."""
    a_rows, b_bits = decode_observations(observed, depth)
    junctions = [junction_index(j) for j in range(depth + 1)]
    fields = [("a", range(junctions[-1] + 1), initial[:, : junctions[-1] + 1] & 1, a_rows),
              ("b", junctions, initial[:, junctions] >> 1 & 1, b_bits)]
    failing = np.hstack([got != true for _, _, true, got in fields]).any(axis=1)
    return {r: [{"cell": cells[i], "field": field, "expected": int(true[r, i]),
                 "decoded": int(got[r, i])}
                for field, cells, true, got in fields
                for i in np.flatnonzero(got[r] != true[r]).tolist()]
            for r in np.flatnonzero(failing).tolist()}


def guaranteed_cone_cells(horizon: int) -> set:
    """Cells provably inside the cone of cell 0 at the given horizon.

    Junction k sits at cone depth k, and each junction's successor chain
    walks in one cell per tick, so junctions 0..T plus the chain cells
    junction_index(t)+s for t in [1..T], s in [1..T-t] are all reached.
    The same cell can arise from several junction chains, so the floor is
    the size of this set, not the sum of the family sizes.
    """
    cells = {junction_index(k) for k in range(horizon + 1)}
    for t in range(1, horizon + 1):
        for s in range(1, horizon - t + 1):
            cells.add(junction_index(t) + s)
    return cells


def cex_propagation_profile(horizon: int) -> dict:
    """Exact cone growth at cell 0 against its quadratic floor.

    `floors` counts the guaranteed cone cells (deduplicated); the naive
    arithmetic (T+1) + T(T-1)/2 ignores chain-cell collisions, overcounts
    from T = 6 on, and is reported separately for reference.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    sys = cex_rules()
    rho = propagation(sys, 0, horizon)
    cells, floors = set(), []  # guaranteed_cone_cells(t), grown one horizon at a time
    for t in range(horizon + 1):  # junction t, and the t - u-th chain cell after junction u
        cells.update([junction_index(t)] + [junction_index(u) + t - u for u in range(1, t)])
        floors.append(len(cells))
    naive_floors = [(t + 1) + t * (t - 1) // 2 for t in range(horizon + 1)]
    ok = all(r >= f for r, f in zip(rho, floors))
    naive_ok = all(r >= f for r, f in zip(rho, naive_floors))
    return {
        "rho": rho,
        "floors": floors,
        "naive_floors": naive_floors,
        "lower_bound_ok": ok,
        "naive_bound_ok": naive_ok,
    }
