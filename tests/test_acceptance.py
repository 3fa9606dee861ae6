"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints a pass/fail line (visible under pytest -s).  Criterion
2's closed-form floor is asserted exactly as stated even though the exact
cone growth sits provably below it from horizon 6 on (overlapping junction
chains are counted twice by the arithmetic); that check is expected to stay
red, with the deduplicated floor and the slope asserted separately.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest

from symdyn import counterexample as cx
from symdyn import entropydim as ed
from symdyn import metricspace as ms
from symdyn import netgraph as ng
from symdyn import symsys as ss
from conftest import disjoint_ball_families


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


def _ols(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def test_criterion_1_roundtrip_decoding():
    with criterion(1, "depth-4 trace decoding, 200 random trials, exact"):
        start = time.perf_counter()
        report = cx.cex_roundtrip(depth=4, trials=200, seed=1)
        elapsed = time.perf_counter() - start
        assert report["passed"], report["failures"][:2]
        assert report["trials"] == 200
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_quadratic_floor_as_stated():
    with criterion(2, "stated arithmetic floor (T+1)+T(T-1)/2 on exact cone growth"):
        start = time.perf_counter()
        profile = cx.cex_propagation_profile(40)
        elapsed = time.perf_counter() - start
        rho = profile["rho"]
        stated = [(t + 1) + t * (t - 1) // 2 for t in range(41)]
        violations = [
            (t, rho[t], stated[t]) for t in range(41) if rho[t] < stated[t]
        ]
        assert not violations, (
            "exact cone growth sits below the arithmetic floor at "
            f"{violations[:3]}...; the floor double-counts chain cells shared "
            "between junction fans (see the deduplicated floor test)"
        )
        assert elapsed < 1.0


def test_criterion_2_slope_and_deduplicated_floor():
    with criterion(2, "quadratic growth: slope in [1.8, 2.1], dedup floor holds"):
        start = time.perf_counter()
        profile = cx.cex_propagation_profile(40)
        elapsed = time.perf_counter() - start
        rho = profile["rho"]
        assert profile["lower_bound_ok"]
        assert all(r >= f for r, f in zip(rho, profile["floors"]))
        slope = _ols(
            [math.log(t) for t in range(10, 41)],
            [math.log(rho[t]) for t in range(10, 41)],
        )
        assert 1.8 <= slope <= 2.1, slope
        assert elapsed < 1.0


def test_criterion_3_network_dimensions():
    with criterion(3, "grid growth exponents 1/2/3, flat odometer, quadratic chain"):
        start = time.perf_counter()
        for d in (1, 2, 3):
            origin = tuple([0] * d)
            est = ng.dim_estimate(ng.cayley_zd(d), origin, 16, 64)
            assert abs(est.fit_slope - d) <= 0.15, (d, est.fit_slope)
        # flat growth: low odometer cells stay within exponent 0.25 at r=64,
        # and the log-log fit is exactly flat at any cell
        odo = ng.odometer_graph()
        for v in (0, 1):
            size = odo.ball_sizes([v], 64)[64]
            exponent = math.log(size) / math.log(64)
            assert exponent <= 0.25, (v, exponent)
        assert ng.dim_estimate(odo, 9, 2, 50).fit_slope == pytest.approx(0.0)
        est = ng.dim_estimate(ng.counterexample_graph(), 0, 8, 40)
        assert 1.7 <= est.fit_slope <= 2.2, est.fit_slope
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_panorama_suite():
    with criterion(4, "panoramas: shift ladder, odometer stuck, chain covered"):
        start = time.perf_counter()
        fs, fsp = ss.full_shift(2)
        result = ss.panorama(fs, fsp, [0], 6)
        for t in range(7):
            assert result.layers[t] == tuple(range(t + 1))
        osys, ospace = ss.odometer_system([2])
        result = ss.panorama(osys, ospace, [0], 10)
        assert all(layer == (0,) for layer in result.layers)
        sysx, spx = cx.cex_rules(), cx.cex_space()
        res = ss.posexpansive_window_check(
            sysx, spx, [0], 6, list(range(7)), max_patterns=2**28
        )
        assert res["covered"]
        assert res["first_t"] == 6
        # the same check by enumerating the 2^28 patterns, as nonlinear cones
        # are decided (the check above runs the linear engine)
        target = set(range(7))
        dets = ss._determined_layers(sysx, spx, ss.light_cone(sysx, [0], 6), target)
        assert [target <= det for det, _ in dets] == [False] * 6 + [True]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_5_equicontinuity_and_bundle():
    with criterion(5, "odometer envelopes and cyclic factor chain"):
        start = time.perf_counter()
        sys_, space = ss.odometer_system([2])
        windows = [[0], [0, 1], [0, 1, 2]]
        for n, window in enumerate(windows):
            horizon = 2 ** (n + 2)
            rep = ss.equicontinuity_envelope(sys_, window, horizon, 8)
            assert rep.certified
            assert rep.envelope == tuple(window)
            chain = ss.odometer_factor_chain(sys_, space, [window], horizon)
            assert chain[0]["trajectory_count"] == 2 ** (n + 1)
            assert chain[0]["shift_is_permutation"]
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_6_speed():
    with criterion(6, "unit speed on the grid, collapsed speed with shortcuts"):
        start = time.perf_counter()
        rep = ng.speed_estimate(
            ng.cayley_zd(2), ng.shift_tau((1, 0)), (0, 0), 8, 20
        )
        assert rep["inf_proxy"] == 1.0
        assert rep["values"] == [1.0] * 8
        tau = ng.Subisometry(map=lambda v: (v[0] + 1, v[1]), label="base_shift")
        rep = ng.speed_estimate(ng.shortcut_graph(), tau, (0, 0), 16, 12)
        assert rep["values"][15] is not None
        assert rep["values"][15] <= 9 / 16
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_7_lipschitz_bound():
    with criterion(7, "10^4 sampled pairs stay within expansion factor 2"):
        start = time.perf_counter()
        offsets = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
        table = [sum(bits) % 2 for bits in itertools.product((0, 1), repeat=5)]
        ca, space = ss.ca_on_zd(2, offsets, table)
        metric = ms.single_estuary_metric(ng.cayley_zd(2), (0, 0), 2.0)
        rep = ms.lipschitz_report(ca, metric, space, samples=10_000, seed=1,
                                  r_cap=6)
        assert rep["within_lambda"], rep["flagged"][:3]
        assert rep["max_ratio_hi"] <= 2.0 + 1e-9
        assert rep["samples"] - rep["skipped"] >= 9_000
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_8_metric_dimension():
    with criterion(8, "cylinder-cover slopes: grid near 2, half-line near 1"):
        start = time.perf_counter()
        eps_grid = [2.0 ** (-k) for k in range(8, 33, 2)]
        space = ss.PatternSpace.full(ss.Alphabet(2))
        grid_metric = ms.single_estuary_metric(ng.cayley_zd(2), (0, 0), 2.0)
        rep = ms.metric_dim_estimate(space, grid_metric, eps_grid)
        assert 1.8 <= rep["lower_slope"] <= 2.1, rep["lower_slope"]
        assert 1.8 <= rep["upper_slope"] <= 2.1, rep["upper_slope"]
        line_metric = ms.single_estuary_metric(ng.unit_shift_graph(), 0, 2.0)
        rep = ms.metric_dim_estimate(space, line_metric, eps_grid)
        assert 0.9 <= rep["lower_slope"] <= 1.1, rep["lower_slope"]
        assert 0.9 <= rep["upper_slope"] <= 1.1, rep["upper_slope"]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_9_weak_independence_and_orbit_growth():
    with criterion(9, "exact ball additivity; orbit log-counts grow past 4 bits/step"):
        start = time.perf_counter()
        g = ng.cayley_zd(2)
        space = ss.PatternSpace.full(ss.Alphabet(2))
        rng = random.Random(77)
        families = disjoint_ball_families(g, rng, 100)
        rep = ed.weak_independence_report(space, g, families)
        assert rep["epsilon"] == 1.0
        assert all(f["additive"] for f in rep["families"])
        base = g.ball_members([(0, 0)], 2)
        prof = ed.tau_entropy_profile(space, ng.shift_tau((1, 0)), base, 20)
        counts = prof["log2_counts"]
        assert all(b > a for a, b in zip(counts, counts[1:]))
        increments = [b - a for a, b in zip(counts, counts[1:])]
        assert all(inc > 4.0 for inc in increments)  # 5 bits per step
        assert prof["values"][-1] == pytest.approx(113 / 20)
        assert prof["values"][-1] > 4.0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
