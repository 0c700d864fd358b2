"""Cayley-table inverse semigroups: axioms, characterization, embedding.

The hand-built negative tables (left zero, right zero, a non-regular
monoid) and the brute-force transport checks double as the independent
oracles for the derived expectations frozen here.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache
from itertools import product

import pytest
from dense_ambient import dense_table
from generated import structure_pairs
from hypothesis import given
from hypothesis import strategies as st
from reference_scans import (
    check_semimodeloid_by_pairs,
    cubic_associativity_witness,
    inverse_laws_by_pairs,
    semimodeloid_derivative_by_reach,
)

from modeloids import inverse_semigroups
from modeloids.categorical import CategoricalModeloid, endoset_as_semimodeloid
from modeloids.ef_games import build_category_D, derivative_levels
from modeloids.errors import InputError
from modeloids.free_categories import objects
from modeloids.inverse_semigroups import (
    CharacterizationReport,
    InverseSemigroupTable,
    Semimodeloid,
    _check_semimodeloid,
    associativity_witness,
    atoms,
    characterize,
    find_neutral,
    find_zero,
    from_partial_bijections,
    generators,
    idempotent_atoms,
    idempotents,
    inverse_laws,
    inverses_of,
    natural_leq,
    partners,
    resolve_inverses,
    semimodeloid_derivative,
    top_down,
    verify_inverse_semigroup,
    verify_semimodeloid,
    wagner_preston,
)
from modeloids.modeloid import derivative, full_modeloid, modeloid_closure
from modeloids.partial_bijections import (
    Carrier,
    PartialBijection,
    empty_map,
    enumerate_all,
    identity_map,
    partial_identity,
)
from modeloids.structures import Structure, Vocabulary

# --- small fixed tables -----------------------------------------------------

SEMILATTICE = InverseSemigroupTable.from_rows(
    [[0, 1], [1, 1]], [0, 1], neutral=0, zero=1
)
Z2 = InverseSemigroupTable.from_rows([[0, 1], [1, 0]], [0, 1], neutral=0)
LEFT_ZERO = InverseSemigroupTable.from_rows([[0, 0], [1, 1]], [0, 1])
RIGHT_ZERO = InverseSemigroupTable.from_rows([[0, 1], [0, 1]], [0, 1])
# 1, x, 0 with x*x = 0: x has no inverse at all.
NON_REGULAR = InverseSemigroupTable.from_rows(
    [[0, 1, 2], [1, 2, 2], [2, 2, 2]], [0, 1, 2], neutral=0, zero=2
)


def table_of_all_maps(n: int):
    return from_partial_bijections(enumerate_all(Carrier(n)))


class TestVerify:
    def test_semilattice_and_group(self):
        assert verify_inverse_semigroup(SEMILATTICE).ok
        assert verify_inverse_semigroup(Z2).ok

    def test_full_map_tables(self):
        for n in (1, 2, 3):
            table, _ = table_of_all_maps(n)
            assert verify_inverse_semigroup(table).ok

    def test_left_zero_fails_idempotent_commutation(self):
        result = verify_inverse_semigroup(LEFT_ZERO)
        assert not result.ok
        assert result.axiom == "idempotent-commutation"

    def test_non_regular_fails(self):
        result = verify_inverse_semigroup(NON_REGULAR)
        assert not result.ok
        assert result.axiom == "regularity"

    def test_single_mutation_of_valid_table_fails(self):
        # Frozen via the verifier itself: redirecting empty*empty in the
        # 7-element full-map table breaks associativity at (0, 0, 3).
        table, _ = table_of_all_maps(2)
        rows = [list(r) for r in table.mul]
        rows[0][0] = 1
        mutated = InverseSemigroupTable.from_rows(rows, table.inv)
        result = verify_inverse_semigroup(mutated)
        assert not result.ok
        assert result.axiom == "associativity"

    def test_declared_neutral_and_zero_checked(self):
        wrong_neutral = InverseSemigroupTable.from_rows(
            [[0, 1], [1, 1]], [0, 1], neutral=1
        )
        result = verify_inverse_semigroup(wrong_neutral)
        assert not result.ok and result.axiom == "neutral"
        wrong_zero = InverseSemigroupTable.from_rows(
            [[0, 1], [1, 1]], [0, 1], zero=0
        )
        result = verify_inverse_semigroup(wrong_zero)
        assert not result.ok and result.axiom == "zero"

    def test_malformed_tables_rejected(self):
        with pytest.raises(InputError):
            InverseSemigroupTable.from_rows([[0, 1]], [0])
        with pytest.raises(InputError):
            InverseSemigroupTable.from_rows([[0, 2], [1, 0]], [0, 1])
        with pytest.raises(InputError):
            InverseSemigroupTable.from_rows([[0, 1], [1, 0]], [0, 1], neutral=5)


class TestInversesAndCharacterization:
    def test_every_element_inverts_every_element_in_left_zero(self):
        assert inverses_of(LEFT_ZERO, 0) == {0, 1}
        assert inverses_of(LEFT_ZERO, 1) == {0, 1}

    def test_unique_inverses_in_full_map_table(self):
        table, elements = table_of_all_maps(2)
        for i, f in enumerate(elements):
            assert inverses_of(table, i) == {elements.index(f.inverse())}

    def test_characterize_positive(self):
        for table in (SEMILATTICE, Z2, table_of_all_maps(2)[0], table_of_all_maps(3)[0]):
            report = characterize(table.mul)
            assert report.as_tuple() == (True, True, True)
            assert report.all_agree()

    def test_characterize_negative(self):
        assert characterize(LEFT_ZERO.mul).as_tuple() == (False, False, False)
        assert characterize(RIGHT_ZERO.mul).as_tuple() == (False, False, False)
        assert characterize(NON_REGULAR.mul).as_tuple() == (False, False, False)

    def test_characterize_requires_associativity(self):
        with pytest.raises(InputError):
            characterize([[1, 1], [0, 0]])

    def test_resolve_reports_associativity_before_regularity(self):
        # 0*0 = 1 and 1*0 = 1: neither element has a generalized inverse,
        # and (0*0)*0 = 1 differs from 0*(0*0) = 0
        table, verdict = resolve_inverses([[1, 0], [1, 0]])
        assert table is None
        assert (verdict.axiom, verdict.witness) == ("associativity", (0, 0, 0))
        table, verdict = resolve_inverses([[1, 0], [1, 0]], neutral=5)
        assert table is None and verdict.axiom == "associativity"

    @given(
        st.integers(1, 3).flatmap(
            lambda k: st.lists(st.tuples(*[st.integers(0, k - 1)] * k), min_size=1, max_size=3)
        )
    )
    def test_several_partners_force_noncommuting_idempotents(self, gens):
        # the closure of full transformations of at most 3 points is
        # associative, so the verdict names the first element without
        # exactly one partner: none is regularity, several force two
        # idempotents that do not commute
        after = lambda f, g: tuple(f[x] for x in g)
        elements = sorted(right_closure(after, gens))
        index = {f: i for i, f in enumerate(elements)}
        mul = tuple(tuple(index[after(f, g)] for g in elements) for f in elements)
        counts = [len(partners(mul, x)) for x in range(len(mul))]
        stuck = next((x for x, k in enumerate(counts) if k != 1), None)
        table, verdict = resolve_inverses(mul)
        if stuck is None:
            assert table is not None
        elif counts[stuck] == 0:
            assert (table, verdict.axiom, verdict.witness) == (None, "regularity", (stuck,))
        else:
            assert (table, verdict.axiom) == (None, "idempotent-commutation")

    def test_report_shape(self):
        report = CharacterizationReport(True, True, True)
        assert report.all_agree()
        assert not CharacterizationReport(True, False, True).all_agree()


class TestOrderAndAtoms:
    def test_natural_order_matches_restriction_order(self):
        # Transport: on the table of all maps over n <= 3, s <= x in the
        # table iff the map of s is a restriction of the map of x.
        for n in (1, 2, 3):
            table, elements = table_of_all_maps(n)
            for i, f in enumerate(elements):
                for j, g in enumerate(elements):
                    assert natural_leq(table, i, j) == f.is_restriction_of(g)

    def test_neutral_and_zero_detection(self):
        table, elements = table_of_all_maps(2)
        assert elements[find_neutral(table)] == identity_map(Carrier(2))
        assert elements[find_zero(table)] == empty_map(Carrier(2))
        assert find_zero(Z2) is None
        assert find_neutral(LEFT_ZERO) is None

    def test_atoms_of_full_map_table_are_singleton_identities(self):
        for n in (2, 3):
            table, elements = table_of_all_maps(n)
            expected = {
                elements.index(partial_identity(Carrier(n), [x])) for x in range(n)
            }
            assert set(idempotent_atoms(table)) == expected
            # Non-idempotent atoms exist too: all one-pair maps.
            assert atoms(table) == {
                i for i, f in enumerate(elements) if len(f.pairs) == 1
            }

    def test_atoms_require_zero(self):
        with pytest.raises(InputError):
            atoms(Z2)

    def test_idempotents(self):
        table, elements = table_of_all_maps(2)
        assert set(idempotents(table)) == {
            i for i, f in enumerate(elements) if f.is_idempotent()
        }


def right_closure(compose, gens):
    """Every left-to-right product of one or more of ``gens``."""
    reached, frontier = set(gens), list(gens)
    while frontier:
        a = frontier.pop()
        for g in gens:
            p = compose(a, g)
            if p not in reached:
                reached.add(p)
                frontier.append(p)
    return reached


def rows_of(mul):
    return lambda x, y: mul[x][y]


class TestGenerators:
    def test_right_closure_is_every_element(self):
        tables = [SEMILATTICE, Z2] + [table_of_all_maps(n)[0] for n in (1, 2, 3, 4)]
        for table in tables:
            gens = generators(rows_of(table.mul), range(table.order))
            assert right_closure(rows_of(table.mul), gens) == set(range(table.order))
        # the rook monoid on 4 points: far fewer generators than elements
        assert len(gens) < table.order // 10

    def test_each_reached_element_meets_each_generator_once(self):
        table, _ = table_of_all_maps(4)
        calls = []

        def compose(x, y):
            calls.append((x, y))
            return table.mul[x][y]

        gens = generators(compose, range(table.order))
        assert sorted(calls) == sorted(product(range(table.order), gens))

    def test_members_of_a_modeloid(self):
        members = sorted(enumerate_all(Carrier(3)), key=lambda f: f.pairs)
        gens = generators(PartialBijection.compose, members)
        assert right_closure(PartialBijection.compose, gens) == set(members)

    def test_product_leaving_the_set(self):
        assert generators(lambda x, y: (x + y) % 5, [0, 1, 2]) is None
        # only an element reached before a generator, times that generator
        assert generators(lambda x, y: 5 if (x, y) == (0, 1) else x, [0, 1]) is None
        c = Carrier(2)
        swap = PartialBijection.from_pairs(c, [(0, 1), (1, 0)])
        shift = PartialBijection.from_pairs(c, [(0, 1)])
        assert generators(PartialBijection.compose, [identity_map(c), swap]) is not None
        # shift after shift is the empty map, which is not listed
        assert generators(PartialBijection.compose, [identity_map(c), shift]) is None

    def test_null_semigroup_needs_every_element(self):
        for n in (1, 2, 7):
            assert generators(lambda x, y: 0, range(n)) == list(range(n))


class TestTopDown:
    def test_rows_with_more_distinct_entries_first_ties_in_index_order(self):
        table, _ = table_of_all_maps(3)
        width = {x: len(set(table.mul[x])) for x in range(table.order)}
        expected = sorted(range(table.order), key=lambda x: (-width[x], x))
        assert top_down(table.mul, range(table.order)) == expected
        # ties keep the given order, not index order
        full = [x for x in range(table.order) if width[x] == table.order]
        assert top_down(table.mul, [0] + full[::-1]) == full[::-1] + [0]

    def test_rook_monoid_from_the_top(self):
        # the identity, three transpositions that generate the symmetric
        # group, and one map of rank 3 that reaches every smaller rank;
        # in index order the scan keeps fourteen
        table, elements = table_of_all_maps(4)
        compose = rows_of(table.mul)
        gens = generators(compose, top_down(table.mul, range(table.order)))
        assert [len(elements[g].pairs) for g in gens] == [4, 4, 4, 4, 3]
        assert right_closure(compose, gens) == set(range(table.order))
        assert len(generators(compose, range(table.order))) == 14


def mutations(mul, rng, count):
    """``count`` copies of the table, each with one entry changed."""
    n = len(mul)
    for _ in range(count):
        rows = [list(r) for r in mul]
        x, y = rng.randrange(n), rng.randrange(n)
        rows[x][y] = rng.choice([v for v in range(n) if v != mul[x][y]])
        yield tuple(tuple(r) for r in rows)


class TestAssociativityMatchesScan:
    """Light's test decides, the cubic scan names the first witness."""

    def test_every_table_up_to_order_3(self):
        count = 0
        for n in (1, 2, 3):
            for entries in product(range(n), repeat=n * n):
                mul = tuple(entries[i * n:(i + 1) * n] for i in range(n))
                assert associativity_witness(mul) == cubic_associativity_witness(mul)
                count += 1
        assert count == 1 + 16 + 19683

    def test_mutated_rook_monoid(self):
        table, _ = table_of_all_maps(4)
        assert associativity_witness(table.mul) is None
        for mul in mutations(table.mul, random.Random(7), 4):
            assert associativity_witness(mul) == cubic_associativity_witness(mul)

    def test_mutated_category_table(self):
        E = Vocabulary(relations=(("E", 2),))
        C4 = Structure.build("C4", 4, E, {"E": [(0, 1), (1, 2), (2, 3), (3, 0)]})
        P4 = Structure.build("P4", 4, E, {"E": [(0, 1), (1, 2), (2, 3)]})
        comp = dense_table(build_category_D(C4, P4).ambient).comp
        assert associativity_witness(comp) is None
        for mul in mutations(comp, random.Random(11), 4):
            assert associativity_witness(mul) == cubic_associativity_witness(mul)


def mutated_idempotent_products(table, rng, count):
    """``count`` copies of the table with e*f changed for two distinct
    idempotents e, f: regularity and involution still hold there."""
    idem = idempotents(table)
    for _ in range(count):
        e, f = rng.sample(idem, 2)
        rows = [list(r) for r in table.mul]
        rows[e][f] = rng.choice([x for x in range(table.order) if x != rows[e][f]])
        yield tuple(tuple(r) for r in rows)


class TestIdempotentCommutationMatchesPairs:
    """The distinct x*x' decide, the scan over all pairs names the first witness."""

    def test_left_zero_band(self):
        assert inverse_laws(LEFT_ZERO.mul, LEFT_ZERO.inv) == inverse_laws_by_pairs(
            LEFT_ZERO.mul, LEFT_ZERO.inv
        )
        assert inverse_laws(LEFT_ZERO.mul, LEFT_ZERO.inv).witness == (0, 1)

    def test_mutated_rook_monoid(self):
        table, _ = table_of_all_maps(4)
        rng = random.Random(3)
        tables = [*mutations(table.mul, rng, 20), *mutated_idempotent_products(table, rng, 20)]
        axioms = Counter()
        for mul in tables:
            # the declared inverses, and an involution that swaps two of them
            swapped = list(table.inv)
            x, y = rng.sample(range(table.order), 2)
            swapped[x], swapped[y], swapped[table.inv[x]], swapped[table.inv[y]] = (
                table.inv[y], table.inv[x], y, x,
            )
            for inv in (table.inv, tuple(swapped)):
                verdict = inverse_laws(mul, inv)
                assert verdict == inverse_laws_by_pairs(mul, inv)
                axioms[verdict.axiom] += 1
        assert axioms["idempotent-commutation"] >= 20
        assert axioms[None] > 0 and axioms["regularity"] > 0


class TestSemimodeloidClosureMatchesPairs:
    """Generators decide closure, the pair scan names the first witness."""

    def test_every_single_drop_up_to_order_34(self):
        for n in (1, 2, 3):
            table, _ = table_of_all_maps(n)
            everything = frozenset(range(table.order))
            for dropped in [[]] + [[x] for x in range(table.order)]:
                sm = Semimodeloid(table, everything - set(dropped))
                assert verify_semimodeloid(sm) == check_semimodeloid_by_pairs(sm)

    def test_drops_from_closures_in_the_rook_monoid(self):
        rng = random.Random(5)
        table, elements = table_of_all_maps(4)
        index = {f: i for i, f in enumerate(elements)}
        pool = sorted(enumerate_all(Carrier(4)), key=lambda f: f.pairs)
        axioms = Counter()
        for _ in range(12):
            M = modeloid_closure([rng.choice(pool) for _ in range(2)], Carrier(4))
            members = frozenset(index[f] for f in M.members)
            for dropped in [()] + [rng.sample(sorted(members), k) for k in (1, 1, 2)]:
                sm = Semimodeloid(table, members - set(dropped))
                verdict = verify_semimodeloid(sm)
                assert verdict == check_semimodeloid_by_pairs(sm)
                axioms[verdict.axiom] += 1
        assert axioms[None] == 12 and axioms["composition"] > 0


class TestFromPartialBijections:
    def test_dictionary_round_trip(self):
        table, elements = table_of_all_maps(2)
        assert table.order == 7
        for i, f in enumerate(elements):
            for j, g in enumerate(elements):
                assert elements[table.mul[i][j]] == f.compose(g)
            assert elements[table.inv[i]] == f.inverse()

    def test_not_closed_under_composition(self):
        c = Carrier(3)
        f = PartialBijection.from_pairs(c, [(0, 1)])
        h = PartialBijection.from_pairs(c, [(1, 2)])
        with pytest.raises(InputError):
            from_partial_bijections([f, h, f.inverse(), h.inverse()])

    def test_not_closed_under_inverse(self):
        c = Carrier(2)
        f = PartialBijection.from_pairs(c, [(0, 1)])
        with pytest.raises(InputError):
            from_partial_bijections([f, empty_map(c), partial_identity(c, [0]),
                                     partial_identity(c, [1])])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            from_partial_bijections([])


class TestWagnerPreston:
    def corpus(self):
        tables = [SEMILATTICE, Z2, table_of_all_maps(2)[0], table_of_all_maps(3)[0]]
        rng = random.Random(13)
        pool = sorted(enumerate_all(Carrier(3)), key=lambda f: f.pairs)
        for _ in range(6):
            seeds = [rng.choice(pool) for _ in range(2)]
            closed = closure_under_compose_inverse(seeds)
            tables.append(from_partial_bijections(closed)[0])
        return [t for t in tables if t.order <= 40]

    def test_embedding_properties(self):
        for table in self.corpus():
            assert verify_inverse_semigroup(table).ok
            omega = wagner_preston(table)
            n = table.order
            # Injective.
            assert len(set(omega)) == n
            # Multiplicative for the composition convention used here.
            for a in range(n):
                for b in range(n):
                    assert omega[table.mul[a][b]] == omega[a].compose(omega[b])
            # Order-faithful.
            for a in range(n):
                for b in range(n):
                    assert natural_leq(table, a, b) == omega[a].is_restriction_of(
                        omega[b]
                    )

    def test_group_embeds_as_translations(self):
        omega = wagner_preston(Z2)
        assert omega[0] == identity_map(Carrier(2))
        assert omega[1].pairs == ((0, 1), (1, 0))

    def test_semilattice_embedding_frozen(self):
        omega = wagner_preston(SEMILATTICE)
        assert omega[0] == identity_map(Carrier(2))
        assert omega[1] == PartialBijection.from_pairs(Carrier(2), [(1, 1)])

    def test_rejects_invalid_table(self):
        with pytest.raises(InputError):
            wagner_preston(LEFT_ZERO)


def closure_under_compose_inverse(seeds):
    """Close under compose and inverse only (no restrictions, no identity);
    the result is an inverse subsemigroup of the full map semigroup."""
    current = set(seeds)
    while True:
        fresh = set()
        for f in current:
            if f.inverse() not in current:
                fresh.add(f.inverse())
            for g in current:
                for h in (f.compose(g), g.compose(f)):
                    if h not in current:
                        fresh.add(h)
        if not fresh:
            return current
        current |= fresh


class TestClosedSubsetsCharacterize:
    def test_random_closed_subsets_are_inverse_semigroups(self):
        rng = random.Random(4)
        pool = sorted(enumerate_all(Carrier(3)), key=lambda f: f.pairs)
        for _ in range(20):
            seeds = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            closed = closure_under_compose_inverse(seeds)
            table, _ = from_partial_bijections(closed)
            assert verify_inverse_semigroup(table).ok
            assert characterize(table.mul).as_tuple() == (True, True, True)


class TestSemimodeloid:
    def modeloid_as_semimodeloid(self, M):
        table, elements = from_partial_bijections(M.members)
        return Semimodeloid(table, frozenset(range(table.order))), elements

    def test_full_modeloid_image_verifies(self):
        for n in (1, 2, 3):
            sm, _ = self.modeloid_as_semimodeloid(full_modeloid(Carrier(n)))
            assert verify_semimodeloid(sm).ok

    def test_ambient_must_be_monoid_with_zero(self):
        with pytest.raises(InputError):
            verify_semimodeloid(Semimodeloid(Z2, frozenset({0})))  # no zero
        no_neutral = InverseSemigroupTable.from_rows([[0]], [0])
        # Order-1 table: its single element is both neutral and zero.
        assert verify_semimodeloid(Semimodeloid(no_neutral, frozenset({0}))).ok

    def test_missing_neutral_member(self):
        table, elements = table_of_all_maps(2)
        members = frozenset(
            i for i, f in enumerate(elements) if f.is_idempotent() and len(f.pairs) < 2
        )
        result = verify_semimodeloid(Semimodeloid(table, members))
        assert not result.ok
        # The one-point identities compose to the empty map (present), are
        # self-inverse and downward closed, so the neutral axiom is the
        # first to fail.
        assert result.axiom == "neutral"

    def test_downward_closure_violation(self):
        table, elements = table_of_all_maps(2)
        members = frozenset(
            i for i, f in enumerate(elements) if len(f.pairs) in (0, 2)
        )
        result = verify_semimodeloid(Semimodeloid(table, members))
        assert not result.ok
        assert result.axiom == "downward"

    def test_derivative_matches_modeloid_derivative(self):
        # The transport of the derivative: indices surviving in the table
        # world are exactly the maps surviving in the map world.
        rng = random.Random(11)
        pool = sorted(enumerate_all(Carrier(3)), key=lambda f: f.pairs)
        for _ in range(10):
            seeds = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            M = modeloid_closure(seeds, Carrier(3))
            table, elements = from_partial_bijections(M.members)
            sm = Semimodeloid(table, frozenset(range(table.order)))
            derived = semimodeloid_derivative(sm)
            transported = {elements[i] for i in derived.members}
            assert transported == derivative(M).members

    def test_no_idempotent_atoms_means_no_change(self):
        # Order-1 monoid: zero equals neutral, there are no atoms.
        trivial = InverseSemigroupTable.from_rows([[0]], [0])
        sm = Semimodeloid(trivial, frozenset({0}))
        assert semimodeloid_derivative(sm).members == sm.members

    def test_atoms_found_once_per_table(self, monkeypatch):
        # the idempotent atoms are a fact of the table that every level shares
        found = []
        scan = inverse_semigroups.atoms

        def counting(table):
            found.append(table)
            return scan(table)

        monkeypatch.setattr(inverse_semigroups, "atoms", counting)
        table, elements = table_of_all_maps(2)
        swap = PartialBijection.from_pairs(Carrier(2), [(0, 1)])
        closure = modeloid_closure([swap], Carrier(2)).members
        sm = Semimodeloid.from_members(table, (i for i, f in enumerate(elements) if f in closure))
        level = sm
        for _ in range(3):
            level = semimodeloid_derivative(level)
        assert level != sm and found == [table]

    def test_derivative_requires_valid_semimodeloid(self):
        table, elements = table_of_all_maps(2)
        members = frozenset(
            i for i, f in enumerate(elements) if len(f.pairs) in (0, 2)
        )
        with pytest.raises(InputError):
            semimodeloid_derivative(Semimodeloid(table, members))


@cache
def rook_monoid(n: int):
    table, elements = table_of_all_maps(n)
    return table, elements, {f: i for i, f in enumerate(elements)}


@st.composite
def rook_semimodeloids(draw):
    """A semimodeloid inside a rook monoid R1..R4: the closure of one to
    three maps of at most two pairs or, when it verifies, the down-closure
    of a few of its members, their inverses and the neutral element."""
    n = draw(st.integers(1, 4))
    table, elements, index = rook_monoid(n)
    # small non-idempotent seeds: larger ones close to most of R4, and
    # idempotents alone to a semilattice that the derivative keeps
    pool = [f for f in elements if len(f.pairs) <= 2 and not f.is_idempotent()] or elements
    seeds = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    closure = frozenset(index[f] for f in modeloid_closure(seeds, Carrier(n)).members)
    if draw(st.booleans()):
        picked = draw(st.sets(st.sampled_from(sorted(closure)), min_size=1, max_size=3))
        tops = {find_neutral(table)} | picked | {table.inv[x] for x in picked}
        down = Semimodeloid.from_members(
            table, (s for x in tops for s in range(table.order) if natural_leq(table, s, x))
        )
        if verify_semimodeloid(down).ok:
            return down
    return Semimodeloid(table, closure)


@st.composite
def collapsed_endosets(draw):
    """The collapse of a member endoset of category D at one of its first
    derivative levels."""
    D = build_category_D(*draw(structure_pairs()))
    members = derivative_levels(D, draw(st.integers(0, 2)))[-1]
    X = draw(st.sampled_from(objects(D.ambient)))
    return endoset_as_semimodeloid(CategoricalModeloid(D.ambient, members), X)[0]


class TestDerivativeMatchesReach:
    """The semimodeloid derivative, the categorical cover step on one
    object, against the per-atom reach reference, down its chain.  Each
    derived level carries its input's verdict, so the closure theorem is
    checked afresh: every level passes the uncached check."""

    @staticmethod
    def assert_chain_matches(sm):
        while True:
            derived = semimodeloid_derivative(sm)
            assert derived.members == semimodeloid_derivative_by_reach(sm)
            assert _check_semimodeloid(derived).ok
            if derived.members == sm.members:
                return
            sm = derived

    @given(rook_semimodeloids())
    def test_inside_rook_monoids(self, sm):
        self.assert_chain_matches(sm)

    @given(collapsed_endosets())
    def test_collapsed_endosets_of_d(self, sm):
        self.assert_chain_matches(sm)
