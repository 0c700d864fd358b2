"""Partial bijection core: canonical form, algebra laws, enumeration counts.

Enumeration counts are checked three ways: against an independent
itertools-based enumeration, against the closed form sum_k C(n,k)^2 k!,
and against frozen literals.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, strategies as st
from reference_scans import least_unextended_by_unions

from modeloids.codes import _code, _extended_at, _least_unextended
from modeloids.errors import BoundExceededError, InputError
from modeloids.partial_bijections import (
    Carrier,
    PartialBijection,
    empty_map,
    enumerate_all,
    identity_map,
    partial_identity,
)

# Frozen: 2, 7, 34, 209, 1546 computed by the oracle below before freezing.
EXPECTED_COUNTS = {1: 2, 2: 7, 3: 34, 4: 209, 5: 1546}


def oracle_all_partial_bijections(n: int) -> set[tuple[tuple[int, int], ...]]:
    """Independent enumeration: every (domain, image, bijection) triple."""
    found = set()
    universe = range(n)
    for k in range(n + 1):
        for dom in combinations(universe, k):
            for img in combinations(universe, k):
                for perm in permutations(img):
                    found.add(tuple(sorted(zip(dom, perm))))
    return found


def closed_form_count(n: int) -> int:
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


@st.composite
def partial_bijections(draw, max_carrier: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_carrier))
    carrier = Carrier(n)
    sources = sorted(draw(st.sets(st.integers(0, n - 1))))
    targets = draw(
        st.lists(
            st.integers(0, n - 1),
            min_size=len(sources),
            max_size=len(sources),
            unique=True,
        )
    )
    return PartialBijection.from_pairs(carrier, zip(sources, targets))


@st.composite
def same_carrier_triples(draw, max_carrier: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_carrier))
    pool = sorted(enumerate_all(Carrier(n)), key=lambda f: f.pairs)
    picks = draw(st.tuples(*[st.integers(0, len(pool) - 1)] * 3))
    return tuple(pool[i] for i in picks)


class TestCanonicalForm:
    def test_pairs_sorted_and_deduplicated(self):
        f = PartialBijection.from_pairs(Carrier(3), [(2, 0), (0, 2), (2, 0)])
        assert f.pairs == ((0, 2), (2, 0))

    def test_rejects_non_functional(self):
        with pytest.raises(InputError):
            PartialBijection.from_pairs(Carrier(3), [(0, 1), (0, 2)])

    def test_rejects_non_injective(self):
        with pytest.raises(InputError):
            PartialBijection.from_pairs(Carrier(3), [(0, 1), (2, 1)])

    def test_rejects_out_of_carrier(self):
        with pytest.raises(InputError):
            PartialBijection.from_pairs(Carrier(2), [(0, 2)])

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(InputError):
            PartialBijection(Carrier(3), ((2, 0), (0, 2)))

    def test_carrier_requires_positive_size(self):
        with pytest.raises(InputError):
            Carrier(0)

    def test_equality_is_pair_set_equality(self):
        c = Carrier(3)
        assert PartialBijection.from_pairs(c, [(1, 1), (0, 0)]) == partial_identity(c, [0, 1])


class TestComposition:
    def test_spec_order_second_argument_applies_first(self):
        c = Carrier(3)
        f = PartialBijection.from_pairs(c, [(1, 2)])
        g = PartialBijection.from_pairs(c, [(0, 1)])
        assert f.compose(g).pairs == ((0, 2),)
        assert g.compose(f).pairs == ()

    def test_domain_of_composite(self):
        c = Carrier(4)
        f = PartialBijection.from_pairs(c, [(1, 2), (3, 0)])
        g = PartialBijection.from_pairs(c, [(0, 1), (2, 2)])
        # g sends 0 to 1 (in dom f) and 2 to 2 (not in dom f).
        assert f.compose(g).pairs == ((0, 2),)

    def test_carrier_mismatch_rejected(self):
        with pytest.raises(InputError):
            identity_map(Carrier(2)).compose(identity_map(Carrier(3)))

    def test_associativity_exhaustive_small(self):
        for n in (1, 2, 3):
            pool = enumerate_all(Carrier(n))
            for f in pool:
                for g in pool:
                    fg = f.compose(g)
                    for h in pool:
                        assert fg.compose(h) == f.compose(g.compose(h))

    @given(same_carrier_triples())
    def test_associativity_random(self, triple):
        f, g, h = triple
        assert f.compose(g).compose(h) == f.compose(g.compose(h))

    @given(partial_bijections())
    def test_regular_identity(self, f):
        assert f.compose(f.inverse()).compose(f) == f

    @given(partial_bijections())
    def test_double_inverse(self, f):
        assert f.inverse().inverse() == f

    def test_inverse_swaps_domain_and_codomain(self):
        f = PartialBijection.from_pairs(Carrier(3), [(0, 2), (1, 0)])
        assert f.inverse().pairs == ((0, 1), (2, 0))


class TestRestriction:
    def test_restrict_keeps_sources(self):
        c = Carrier(3)
        f = PartialBijection.from_pairs(c, [(0, 1), (1, 2), (2, 0)])
        assert f.restrict([0, 2]).pairs == ((0, 1), (2, 0))

    def test_restrict_outside_domain_is_harmless(self):
        c = Carrier(3)
        f = PartialBijection.from_pairs(c, [(0, 1)])
        assert f.restrict([0, 2]) == f

    def test_restrict_out_of_carrier_rejected(self):
        with pytest.raises(InputError):
            identity_map(Carrier(2)).restrict([2])

    @given(partial_bijections(), st.sets(st.integers(0, 3)))
    def test_restriction_is_smaller(self, f, subset):
        subset = {x for x in subset if x in f.carrier}
        assert f.restrict(subset) <= f

    def test_partial_identities_commute(self):
        c = Carrier(4)
        subsets = [frozenset(s) for k in range(5) for s in combinations(range(4), k)]
        for A in subsets:
            for B in subsets:
                ia, ib = partial_identity(c, A), partial_identity(c, B)
                both = partial_identity(c, A & B)
                assert ia.compose(ib) == both
                assert ib.compose(ia) == both

    def test_subset_order_means_agreeing_restriction(self):
        c = Carrier(3)
        f = PartialBijection.from_pairs(c, [(0, 1), (1, 2)])
        g = PartialBijection.from_pairs(c, [(0, 1)])
        h = PartialBijection.from_pairs(c, [(0, 2)])
        assert g <= f
        assert not f <= g
        assert not h <= f


class TestIdempotents:
    def test_partial_identities_are_idempotent(self):
        c = Carrier(3)
        assert empty_map(c).is_idempotent()
        assert identity_map(c).is_idempotent()
        assert partial_identity(c, [1]).is_idempotent()

    def test_non_identity_is_not_idempotent(self):
        f = PartialBijection.from_pairs(Carrier(3), [(0, 1)])
        assert not f.is_idempotent()

    def test_idempotent_means_partial_identity(self):
        for f in enumerate_all(Carrier(3)):
            assert f.is_idempotent() == all(a == b for a, b in f.pairs)

    def test_atom_idempotents_are_singleton_identities(self):
        for n in (1, 2, 3, 4):
            pool = enumerate_all(Carrier(n))
            atoms = {f for f in pool if f.is_atom_idempotent()}
            assert atoms == {partial_identity(Carrier(n), [x]) for x in range(n)}


class TestEnumeration:
    def test_counts_frozen_closed_form_and_oracle(self):
        for n, expected in EXPECTED_COUNTS.items():
            assert closed_form_count(n) == expected
            oracle = oracle_all_partial_bijections(n)
            assert len(oracle) == expected
            ours = enumerate_all(Carrier(n))
            assert len(ours) == expected
            assert {f.pairs for f in ours} == oracle

    def test_default_bound_covers_size_six(self):
        assert len(enumerate_all(Carrier(6))) == 13327

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceededError):
            enumerate_all(Carrier(7))
        # An explicit bound lifts the refusal.
        assert len(enumerate_all(Carrier(3), max_size=3)) == 34

    def test_closure_properties_of_full_set(self):
        pool = enumerate_all(Carrier(2))
        assert identity_map(Carrier(2)) in pool
        for f in pool:
            assert f.inverse() in pool
            for g in pool:
                assert f.compose(g) in pool


def maps_between(sources: int, targets: int) -> list[tuple[tuple[int, int], ...]]:
    """Every partial bijection from {0..sources-1} to {0..targets-1}, in
    sorted pair form."""
    return [
        tuple(zip(domain, image))
        for k in range(min(sources, targets) + 1)
        for domain in combinations(range(sources), k)
        for image in permutations(range(targets), k)
    ]


@st.composite
def levels_and_maps(draw):
    """Universe sizes s and t, equal or not, a family of maps between them
    that need not be closed under restriction, and a map f that may or may
    not be in the family."""
    sources, targets = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pool = maps_between(sources, targets)
    family = draw(st.sets(st.sampled_from(pool), max_size=40))
    inside = draw(st.booleans()) and family
    f = draw(st.sampled_from(sorted(family) if inside else pool))
    return sources, targets, family, f


def index_of(family, sources, targets):
    """``_extended_at`` of a family of maps in sorted pair form."""
    return _extended_at([_code(g, targets) for g in family], sources, targets)


class TestOnePointIndex:
    """``_least_unextended`` read from ``_extended_at``, both on maps coded
    by ``_code``, names the same (a, b) as a literal scan over frozenset
    unions."""

    @given(levels_and_maps())
    @example((3, 2, set(), ()))  # the empty family
    @example((2, 3, {((0, 1),), ((1, 0),)}, ()))  # f = (), not a member
    @example((2, 3, {(), ((0, 1),), ((1, 0),)}, ()))  # f = (), a member
    @example((2, 2, {((0, 1), (1, 0))}, ((0, 1), (1, 0))))  # a total f, a member
    @example((2, 2, {((0, 0), (1, 1))}, ((0, 1), (1, 0))))  # a total f, outside
    @example((3, 3, {((0, 0), (1, 1))}, ((0, 0),)))  # f outside, its extension in
    def test_matches_the_scan_over_unions(self, drawn):
        sources, targets, family, f = drawn
        at = index_of(family, sources, targets)
        assert _least_unextended(_code(f, targets), at, sources, targets) == least_unextended_by_unions(
            f, family, sources, targets
        )

    def test_one_index_serves_every_map(self):
        # all of Part({0,1,2}, {0,1,2,3}) but the map (0,0), queried for
        # every map of it from one index: (0,0) itself misses its own
        # source and target, while () still reaches 0 through (0,1)
        pool = maps_between(3, 4)
        family = set(pool) - {((0, 0),)}
        at = index_of(family, 3, 4)
        for f in pool:
            assert _least_unextended(_code(f, 4), at, 3, 4) == least_unextended_by_unions(
                f, family, 3, 4
            )
        assert _least_unextended(_code((), 4), at, 3, 4) == (None, None)
        assert _least_unextended(_code(((0, 0),), 4), at, 3, 4) == (0, 0)

    def test_code_sets_one_bit_per_pair(self):
        # bit a·targets + b for each pair (a, b): distinct maps, distinct codes
        assert _code((), 4) == 0
        assert _code(((0, 0),), 4) == 1
        assert _code(((1, 2), (2, 0)), 4) == 1 << 6 | 1 << 8
        pool = maps_between(3, 4)
        assert len({_code(f, 4) for f in pool}) == len(pool)
