"""Metamorphic relations of panoramas: changes of a question that must not
change its answer, checked without an oracle.

- Renaming the symbols by a permutation sigma, in the rule and in the
  allowed sets alike, leaves the layers unchanged.  A sigma that is not
  affine takes a GF(p)-linear rule off the linear engine, so the relation
  compares elimination with enumeration on one question.
- Translating the window of a lattice automaton translates its layers.
"""

from __future__ import annotations

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symdyn import kernel as kn
from symdyn import netgraph as ng
from symdyn import symsys as ss

OFFSETS_1D = [(-1,), (0,), (1,)]


def _table_rule(k, arity, fn):
    """The row-major table of fn over every input tuple of 0..k-1."""
    return [fn(args) for args in itertools.product(range(k), repeat=arity)]


@st.composite
def conjugation_cases(draw):
    """A 1-D automaton (a random table, or a linear one mod a prime k), a
    product space that restricts some cells to one allowed tuple ((0,), or
    any), a window and horizon with a small cone, and a permutation of the
    symbols (on 5 symbols most are not affine)."""
    k = draw(st.sampled_from([2, 3, 4, 5]))
    offsets = draw(st.lists(st.sampled_from(OFFSETS_1D), min_size=1, max_size=3, unique=True))
    if k in (2, 3, 5) and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, k - 1), min_size=len(offsets),
                               max_size=len(offsets)))
        table = _table_rule(k, len(offsets), lambda a: sum(c * s for c, s in zip(coeffs, a)) % k)
    else:
        table = draw(st.lists(st.integers(0, k - 1), min_size=k ** len(offsets),
                              max_size=k ** len(offsets)))
    restricted = draw(st.sets(st.integers(-2, 2), max_size=2))
    symbols = draw(st.one_of(st.just((0,)), st.builds(
        lambda a: tuple(sorted(a)), st.sets(st.integers(0, k - 1), min_size=1))))
    window = draw(st.sampled_from([[(0,)], [(0,), (1,)]]))
    horizon = draw(st.integers(1, 2))
    sigma = draw(st.permutations(range(k)))
    return k, offsets, table, restricted, symbols, window, horizon, sigma


def test_conjugating_by_a_symbol_permutation_keeps_the_layers():
    engines = set()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(conjugation_cases())
    def check(case):
        k, offsets, table, restricted, symbols, window, horizon, sigma = case
        inverse = [sigma.index(s) for s in range(k)]
        # sigma . f . sigma^-1: the entry at sigma(a) is sigma of the entry at a
        conjugate = _table_rule(k, len(offsets), lambda a: sigma[table[sum(
            inverse[s] * k ** (len(a) - 1 - i) for i, s in enumerate(a))]])
        renamed = tuple(sorted(sigma[s] for s in symbols))
        full = tuple(range(k))
        results = []
        for rule, allowed in ((table, symbols), (conjugate, renamed)):
            sys_ = ss.ca_on_zd(k, offsets, rule)[0]
            space = kn.PatternSpace(
                lambda v, allowed=allowed: allowed if v[0] in restricted else full)
            results.append(ss.panorama(sys_, space, window, horizon))
        assert results[0].layers == results[1].layers
        assert results[0].cone == results[1].cone
        engines.add((results[0].engine == "linear", results[1].engine == "linear"))

    check()
    assert (True, False) in engines  # elimination against enumeration
    assert (False, False) in engines


@st.composite
def translation_cases(draw):
    """An automaton on Z^d (d = 1 or 2) with small offsets, a window, a
    horizon and a translation, with at most 2^12 patterns on the cone."""
    d = draw(st.integers(1, 2))
    k = draw(st.integers(2, 3))
    cell = st.tuples(*[st.integers(-1, 1)] * d)
    offsets = draw(st.lists(cell, min_size=1, max_size=3, unique=True))
    table = draw(st.lists(st.integers(0, k - 1), min_size=k ** len(offsets),
                          max_size=k ** len(offsets)))
    window = draw(st.lists(cell, min_size=1, max_size=2, unique=True))
    horizon = draw(st.integers(0, 2))
    shift = draw(st.tuples(*[st.integers(-5, 5)] * d))
    return k, offsets, table, window, horizon, shift


def test_translating_the_window_translates_the_layers():
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(translation_cases())
    def check(case):
        k, offsets, table, window, horizon, shift = case
        sys_, space = ss.ca_on_zd(k, offsets, table)

        def move(v):
            return tuple(a + b for a, b in zip(v, shift))

        assume(k ** len(kn.light_cone(sys_, window, horizon).union) <= 2**12)
        here = ss.panorama(sys_, space, window, horizon)
        there = ss.panorama(sys_, space, [move(v) for v in window], horizon)
        assert there.layers == tuple(ng.sort_vertices(map(move, layer)) for layer in here.layers)
        assert (there.engine, there.pattern_count) == (here.engine, here.pattern_count)

    check()
