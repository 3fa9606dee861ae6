"""The expansive quadratic-network system: simulate, decode, round-trip."""

from __future__ import annotations

import itertools
import random
import re
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symdyn import counterexample as cx
from symdyn import kernel as kn
from symdyn import netgraph as ng
from symdyn import symsys as ss

from conftest import decode_trace_oracle


def _independent_step(values):
    """Forward oracle written directly from the cell wiring, bypassing the
    library's evaluator: chain cells copy the next a-bit, junction k adds
    the next junction's a and b bits mod 2."""
    out = {}
    for n in values:
        k = cx.junction_rank(n)
        if k is None:
            src = values.get(n + 1)
            if src is not None:
                out[n] = src & 1
        else:
            s1 = values.get(n + 1)
            s2 = values.get(cx.junction_index(k + 1))
            if s1 is not None and s2 is not None:
                a = s1 & 1
                b = (s2 & 1) ^ ((s2 >> 1) & 1)
                out[n] = a | (b << 1)
    return out


def _independent_trace(x0, depth):
    horizon = cx.junction_index(depth)
    values = dict(x0.values)
    obs = [cx.unpack(values[0])]
    for _ in range(horizon):
        values = _independent_step(values)
        obs.append(cx.unpack(values[0]))
    return obs


# -- network and rules -----------------------------------------------------------


def test_junction_sequence():
    assert [cx.junction_index(k) for k in range(6)] == [0, 2, 6, 12, 20, 30]
    assert [n for n in range(31) if cx.junction_rank(n) is not None] == [0, 2, 6, 12, 20, 30]
    assert cx.junction_rank(12) == 3
    assert cx.junction_rank(13) is None
    assert cx.junction_rank(-1) is None


def test_network_wiring():
    g = cx.cex_network()
    assert g.in_neighbors(0) == (1, 2)
    assert g.in_neighbors(4) == (5,)
    assert g.in_neighbors(6) == (7, 12)
    for n in range(25):
        assert n not in g.in_neighbors(n)  # no self-loops


def test_rule_values():
    sysx = cx.cex_rules()
    box = sysx.rule(0)
    assert cx.unpack(box.fn((cx.pack(1, 0), cx.pack(1, 1)))) == (1, 0)
    assert box.fn((0, 0)) == 0
    chain = sysx.rule(4)
    assert cx.unpack(chain.fn((cx.pack(1, 1),))) == (1, 0)


def test_space_pins_chain_b_bits():
    space = cx.cex_space()
    assert space.allowed(0) == (0, 1, 2, 3)
    assert space.allowed(1) == (0, 1)
    assert space.allowed(12) == (0, 1, 2, 3)


# -- simulation -------------------------------------------------------------------


def test_all_zero_trace_is_zero():
    cone = kn.light_cone(cx.cex_rules(), [0], cx.junction_index(3))
    x0 = kn.Configuration({v: 0 for v in cone.union})
    tr = cx.simulate_trace(x0, 3)
    assert all(obs == (0, 0) for obs in tr.observations)


def test_all_ones_a_alternates_b():
    cone = kn.light_cone(cx.cex_rules(), [0], cx.junction_index(2))
    x0 = kn.Configuration({v: 1 for v in cone.union})
    tr = cx.simulate_trace(x0, 2)
    assert [obs[0] for obs in tr.observations] == [1] * 7
    assert [obs[1] for obs in tr.observations] == [0, 1, 0, 1, 0, 1, 0]


def test_simulation_matches_independent_oracle():
    rng = random.Random(17)
    for depth in (1, 2, 3):
        for _ in range(10):
            x0 = cx.random_initial(depth, rng)
            tr = cx.simulate_trace(x0, depth)
            assert list(tr.observations) == _independent_trace(x0, depth)


def test_golden_trace_depth1_seed42():
    x0 = cx.random_initial(1, random.Random(42))
    assert dict(sorted(x0.values.items())) == {0: 2, 1: 0, 2: 1, 3: 0, 6: 2}
    tr = cx.simulate_trace(x0, 1)
    assert tr.observations == ((0, 1), (0, 1), (1, 1))


# -- decoding ---------------------------------------------------------------------


def test_decode_all_zero():
    tr = cx.Trace(horizon=6, observations=((0, 0),) * 7)
    res = cx.decode_trace(tr, 2)
    assert res.a_row == (0,) * 7
    assert res.b_junctions == (0, 0, 0)


def test_decode_golden_depth2_seed7():
    x0 = cx.random_initial(2, random.Random(7))
    tr = cx.simulate_trace(x0, 2)
    assert tr.observations == (
        (1, 0), (0, 1), (0, 0), (0, 0), (1, 0), (0, 1), (0, 0)
    )
    res = cx.decode_trace(tr, 2)
    assert res.a_row == (1, 0, 0, 0, 1, 0, 0)
    assert res.b_junctions == (0, 1, 0)


def test_decode_rejects_short_trace():
    tr = cx.Trace(horizon=3, observations=((0, 0),) * 4)
    with pytest.raises(cx.HorizonTooShortError):
        cx.decode_trace(tr, 2)


@st.composite
def _traces(draw):
    """A decode depth 1..7 and a random trace at least m_J long."""
    depth = draw(st.integers(1, 7))
    extra = draw(st.integers(0, 6))
    bit = st.integers(0, 1)
    horizon = cx.junction_index(depth) + extra
    obs = draw(st.lists(st.tuples(bit, bit), min_size=horizon + 1, max_size=horizon + 1))
    return depth, cx.Trace(horizon, tuple(obs))


def _cycling_trace(depth, extra):
    """A decode depth and a trace m_J + extra long that cycles through the
    four (a, b) pairs."""
    horizon = cx.junction_index(depth) + extra
    return depth, cx.Trace(horizon, tuple((t & 1, t >> 1 & 1) for t in range(horizon + 1)))


def test_decode_matches_unwinding_oracle():
    """The closed-form decoder equals the level-by-level unwinding of the
    b-history on random traces, some longer than the depth needs."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_traces())
    def check(case):
        depth, trace = case
        assert cx.decode_trace(trace, depth) == decode_trace_oracle(trace, depth)
        seen.add(("exact", "longer")[trace.horizon > cx.junction_index(depth)])
        seen.add(depth)

    for depth in range(1, 8):  # every depth is reached; the odd ones run longer
        check = example(_cycling_trace(depth, depth % 2))(check)
    check()
    assert seen == {"exact", "longer", *range(1, 8)}


@st.composite
def _observation_matrices(draw):
    """A decode depth 1..7 and rows of cell-0 symbols 0..3, at least m_J + 1
    of them per row, as uint8 (the round trip's) or int64."""
    depth = draw(st.integers(1, 7))
    width = cx.junction_index(depth) + 1 + draw(st.integers(0, 6))
    row = st.lists(st.integers(0, 3), min_size=width, max_size=width)
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    return depth, np.array(draw(st.lists(row, min_size=1, max_size=6)), dtype=dtype)


def test_decode_observations_matches_unwinding_oracle():
    """Every row of the array decoder equals the oracle's unwinding of that
    row read as a trace."""
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_observation_matrices())
    def check(case):
        depth, obs = case
        a_rows, b_bits = cx.decode_observations(obs, depth)
        assert a_rows.shape == (len(obs), cx.junction_index(depth) + 1)
        assert b_bits.shape == (len(obs), depth + 1)
        for row, a, b in zip(obs.tolist(), a_rows.tolist(), b_bits.tolist()):
            trace = cx.Trace(len(row) - 1, tuple(map(cx.unpack, row)))
            assert cx.DecodeResult(depth, tuple(a), tuple(b)) == decode_trace_oracle(trace, depth)

    check()


@pytest.mark.parametrize("depth", [1, 4])
def test_decode_observations_rejects_short_matrix(depth):
    horizon = cx.junction_index(depth)
    obs = np.zeros((3, horizon), dtype=np.uint8)  # one column short of m_J + 1
    message = f"depth {depth} needs horizon {horizon}, trace has {horizon - 1}"
    with pytest.raises(cx.HorizonTooShortError, match=f"^{re.escape(message)}$"):
        cx.decode_observations(obs, depth)


def test_roundtrip_exhaustive_depth1():
    sysx = cx.cex_rules()
    space = cx.cex_space()
    cone = kn.light_cone(sysx, [0], cx.junction_index(1)).union
    for pattern in itertools.product(*[space.allowed(v) for v in cone]):
        x0 = kn.Configuration(dict(zip(cone, pattern)))
        assert cx.roundtrip_mismatches(x0, 1) == []


def test_roundtrip_basis_depth2():
    """The update and the decoder are both mod-2 linear, so exactness on the
    zero pattern plus every single-bit pattern spans all initial data (the
    linearity itself is checked separately)."""
    sysx = cx.cex_rules()
    space = cx.cex_space()
    cone = kn.light_cone(sysx, [0], cx.junction_index(2)).union
    zero = {v: 0 for v in cone}
    assert cx.roundtrip_mismatches(kn.Configuration(zero), 2) == []
    for v in cone:
        for sym in space.allowed(v):
            if sym == 0:
                continue
            x0 = dict(zero)
            x0[v] = sym
            assert cx.roundtrip_mismatches(kn.Configuration(x0), 2) == []


def test_roundtrip_randomized_depths():
    for depth in (3, 4, 5, 6):
        rep = cx.cex_roundtrip(depth, trials=25, seed=depth)
        assert rep["passed"], rep["failures"][:1]


def test_roundtrip_deep_cone():
    """Depth 15 simulates a cone of 19,521 cells over 240 steps, each step
    a prefix of one planned update step."""
    cone = kn.light_cone(cx.cex_rules(), [0], cx.junction_index(15))
    assert (cone.horizon, len(cone.union)) == (240, 19521)
    rep = cx.cex_roundtrip(15, trials=2)
    assert rep["passed"], rep["failures"][:1]


@pytest.mark.parametrize("trials", [0, -5])
def test_roundtrip_rejects_vacuous_trial_counts(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        cx.cex_roundtrip(2, trials)


@pytest.mark.parametrize("call,message", [
    (lambda: cx.Trace(2, ((0, 0),) * 2), "trace length must be horizon + 1"),
    (lambda: cx.cex_roundtrip(0, 5), "depth must be >= 1"),
    (lambda: cx.cex_propagation_profile(0), "horizon must be >= 1"),
])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_roundtrip_failures_match_per_trial_mismatches(monkeypatch):
    """With a decoder that flips the a-bit of cell 1 and every b-bit past
    junction 0, the batched round trip reports, trial by trial, what
    `roundtrip_mismatches` finds on the same initial data."""
    decode = cx.decode_observations

    def faulty(obs, depth):
        a_rows, b_bits = decode(obs, depth)
        a_rows[:, 1] ^= 1
        b_bits[:, 1:] ^= 1
        return a_rows, b_bits

    monkeypatch.setattr(cx, "decode_observations", faulty)
    depth, trials, seed = 3, 8, 5
    rep = cx.cex_roundtrip(depth, trials, seed)
    expected = []
    for trial in range(trials):
        x0 = cx.random_initial(depth, random.Random(cx.trial_seed(seed, trial)))
        expected.append({"trial": trial, "seed": cx.trial_seed(seed, trial),
                         "mismatches": cx.roundtrip_mismatches(x0, depth)})
    assert rep == {"passed": False, "trials": trials, "failures": expected}
    assert all(len(f["mismatches"]) == 1 + depth for f in expected)


def test_roundtrip_trial_draws_its_own_initial_data(monkeypatch):
    """Trial t of `cex_roundtrip` runs on `random_initial(J, Random(
    trial_seed(seed, t)))`: with a decoder that zeroes every bit, a trial's
    mismatches are exactly the a- and b-bits set in that initial data."""
    def zero(obs, depth):
        return (np.zeros((len(obs), cx.junction_index(depth) + 1), dtype=np.uint8),
                np.zeros((len(obs), depth + 1), dtype=np.uint8))

    monkeypatch.setattr(cx, "decode_observations", zero)
    depth, trials, seed = 4, 10, 3
    expected = []
    for trial in range(trials):
        x0 = cx.random_initial(depth, random.Random(cx.trial_seed(seed, trial))).values
        set_bits = [(n, "a") for n in range(cx.junction_index(depth) + 1)
                    if cx.unpack(x0[n])[0]]
        set_bits += [(n, "b") for n in map(cx.junction_index, range(depth + 1))
                     if cx.unpack(x0[n])[1]]
        expected.append({"trial": trial, "seed": cx.trial_seed(seed, trial), "mismatches": [
            {"cell": n, "field": field, "expected": 1, "decoded": 0} for n, field in set_bits]})
    assert cx.cex_roundtrip(depth, trials, seed) == {
        "passed": False, "trials": trials, "failures": expected}


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_roundtrip_blocks_keep_each_trials_stream(monkeypatch, depth):
    """`cex_roundtrip` reads each trial's m values from its own stream and
    converts them a block of trials at a time: with reads cut to 2, 7, m,
    2m + 1 and 4m + 2 words, and one trial, one block or one block plus
    one, it simulates the rows that `random_initial` draws trial by trial,
    reads no more than _DRAW_WORDS words at once, converts once per block,
    and leaves each stream where m calls of `random()` leave it."""
    seed = 11
    cone = kn.light_cone(cx.cex_rules(), [0], cx.junction_index(depth)).union
    m = len(cone)
    reads, streams, simulated, converted = [], [], [], []

    class Counted(random.Random):
        def __init__(self, x):
            super().__init__(x)
            streams.append(self)

        def getrandbits(self, k):
            reads.append(k)
            return super().getrandbits(k)

    def spy(sys, cone, rows):
        simulated.append(rows.copy())
        return trajectory_rows(sys, cone, rows)

    def convert(words):
        converted.append(len(words))
        return word_uniforms(words)

    trajectory_rows, word_uniforms = cx.trajectory_rows, kn.word_uniforms
    monkeypatch.setattr(cx, "trajectory_rows", spy)
    monkeypatch.setattr(kn, "word_uniforms", convert)
    monkeypatch.setattr(cx, "random", types.SimpleNamespace(Random=Counted))
    for words in (2, 7, m, 2 * m + 1, 4 * m + 2):
        monkeypatch.setattr(kn, "_DRAW_WORDS", words)
        block = max(words // 2 // m, 1)
        for trials in sorted({1, block, block + 1}):
            for seen in (reads, streams, simulated, converted):
                seen.clear()
            assert cx.cex_roundtrip(depth, trials, seed)["passed"]
            assert max(reads) <= 32 * words and sum(reads) == 64 * m * trials
            assert converted == [2 * m * min(block, trials - lo) for lo in range(0, trials, block)]
            expected = []
            for trial in range(trials):
                ref = random.Random(cx.trial_seed(seed, trial))
                x0 = cx.random_initial(depth, ref).values
                expected.append([x0[v] for v in cone])
                assert streams[trial].getstate() == ref.getstate()
            assert len(simulated) == 1 and simulated[0].tolist() == expected


def test_decoder_is_mod2_linear():
    rng = random.Random(23)
    for depth in (2, 3):
        horizon = cx.junction_index(depth)
        for _ in range(10):
            obs_a = tuple(
                (rng.randrange(2), rng.randrange(2)) for _ in range(horizon + 1)
            )
            obs_b = tuple(
                (rng.randrange(2), rng.randrange(2)) for _ in range(horizon + 1)
            )
            ta, tb = cx.Trace(horizon, obs_a), cx.Trace(horizon, obs_b)
            xor = cx.Trace(horizon, tuple((p[0] ^ q[0], p[1] ^ q[1])
                                          for p, q in zip(obs_a, obs_b)))
            direct = cx.decode_trace(xor, depth)
            da, db = cx.decode_trace(ta, depth), cx.decode_trace(tb, depth)
            assert direct.a_row == tuple(
                a ^ b for a, b in zip(da.a_row, db.a_row)
            )
            assert direct.b_junctions == tuple(
                a ^ b for a, b in zip(da.b_junctions, db.b_junctions)
            )


def test_corrupted_trace_is_detected():
    # the time-0 readout consumes b-observations up to time `depth`, so a
    # flip inside that range must surface as a junction-bit mismatch
    x0 = cx.random_initial(3, random.Random(5))
    tr = cx.simulate_trace(x0, 3)
    good = cx.decode_trace(tr, 3)
    for t in (1, 2, 3):
        flipped = list(tr.observations)
        flipped[t] = (flipped[t][0], flipped[t][1] ^ 1)
        bad = cx.decode_trace(cx.Trace(tr.horizon, tuple(flipped)), 3)
        mism = [
            j
            for j, (x, y) in enumerate(zip(bad.b_junctions, good.b_junctions))
            if x != y
        ]
        assert mism == [t]  # unwinding pins the flip to its own junction
    # an a-observation flip lands directly in the recovered a-row
    flipped = list(tr.observations)
    flipped[5] = (flipped[5][0] ^ 1, flipped[5][1])
    bad = cx.decode_trace(cx.Trace(tr.horizon, tuple(flipped)), 3)
    assert bad.a_row[5] != good.a_row[5]


# -- propagation profile -------------------------------------------------------------


def test_propagation_exact_small_horizons():
    rep = cx.cex_propagation_profile(2)
    assert rep["rho"] == [1, 3, 5]


def test_propagation_floor_holds():
    rep = cx.cex_propagation_profile(40)
    assert rep["lower_bound_ok"]
    assert all(r >= f for r, f in zip(rep["rho"], rep["floors"]))


def test_guaranteed_cells_really_in_cone():
    sysx = cx.cex_rules()
    for horizon in (4, 7, 10):
        cone = set(kn.light_cone(sysx, [0], horizon).union)
        assert cx.guaranteed_cone_cells(horizon) <= cone


def test_naive_floor_overcounts():
    # the arithmetic (T+1) + T(T-1)/2 double-counts colliding chain cells
    rep = cx.cex_propagation_profile(12)
    assert not rep["naive_bound_ok"]
    assert rep["rho"][10] == 48
    assert rep["naive_floors"][10] == 56
    assert rep["floors"][10] == 47


def test_profile_floors_count_guaranteed_cells():
    """The floors, grown in one pass over the horizons, count the cells of
    `guaranteed_cone_cells` at each horizon."""
    for horizon in range(1, 41):
        floors = cx.cex_propagation_profile(horizon)["floors"]
        assert floors == [len(cx.guaranteed_cone_cells(t)) for t in range(horizon + 1)]


def test_window_coverage_matches_decoder_depth1():
    """Independent cross-check of the decoder: exhaustive panorama coverage
    of the cells the depth-1 decode recovers, at the decode horizon."""
    sysx = cx.cex_rules()
    space = cx.cex_space()
    res = ss.posexpansive_window_check(
        sysx, space, [0], cx.junction_index(1), cx.decode_window(1)
    )
    assert res["covered"]
    assert res["first_t"] == 2
