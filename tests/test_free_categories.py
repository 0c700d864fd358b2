"""Morphism-table categories: axiom checks, inverse verifiers, the
natural order, and the one-object correspondence with tables."""

import gc
import importlib.util
import random
import sys
import weakref
from functools import cache
from pathlib import Path

import pytest
from dense_ambient import dense_table
from generated import structure_pairs
from hypothesis import given, settings
from records import replace
from reference_scans import check_category_by_pairs

from modeloids import fileformats, free_categories, verdict as v
from modeloids.ef_games import build_category_D
from modeloids.errors import InputError
from modeloids.free_categories import (
    FreeCategory,
    below,
    endoset,
    has_all_zeros,
    homset,
    is_atom,
    is_object,
    kleene_eq,
    natural_leq,
    objects,
    one_object_to_semigroup,
    semigroup_to_one_object_category,
    skolem_inverses,
    verify_category,
    verify_inverse_category_equational,
    verify_inverse_category_unique,
    zero_of_endoset,
)
from modeloids.inverse_semigroups import (
    InverseSemigroupTable,
    from_partial_bijections,
    natural_leq as table_leq,
    partners,
    verify_inverse_semigroup,
)
from modeloids.partial_bijections import Carrier, PartialBijection, enumerate_all
from modeloids.structures import Structure, Vocabulary

SEMILATTICE = InverseSemigroupTable.from_rows(
    [[0, 1], [1, 1]], [0, 1], neutral=0, zero=1
)
Z2 = InverseSemigroupTable.from_rows([[0, 1], [1, 0]], [0, 1], neutral=0)

# two objects, no morphisms between them
DISCRETE = FreeCategory(
    3, 2, (0, 1, 2), (0, 1, 2), ((0, 2, 2), (2, 1, 2), (2, 2, 2)), (0, 1, 2)
)


def f_table(n):
    return from_partial_bijections(enumerate_all(Carrier(n)))


def mutate_comp(c, f, g, val):
    rows = [list(r) for r in c.comp]
    rows[f][g] = val
    return replace(c, comp=tuple(tuple(r) for r in rows))


class TestConstruction:
    def test_star_must_be_detached(self):
        with pytest.raises(InputError):
            FreeCategory(2, 1, (0, 0), (0, 1), ((0, 1), (1, 1)), None)

    def test_entry_out_of_range(self):
        with pytest.raises(InputError):
            FreeCategory(2, 1, (0, 1), (0, 1), ((0, 2), (1, 1)), None)

    def test_kleene_equality(self):
        c = DISCRETE
        assert kleene_eq(c, c.star, c.star)
        assert not kleene_eq(c, 0, c.star)
        assert kleene_eq(c, 1, 1)
        assert not kleene_eq(c, 0, 1)


class TestVerifyCategory:
    def test_discrete_two_objects(self):
        assert verify_category(DISCRETE).ok

    @pytest.mark.parametrize("table", [SEMILATTICE, Z2])
    def test_one_object_views(self, table):
        assert verify_category(semigroup_to_one_object_category(table)).ok

    def test_symmetric_inverse_monoid_view(self):
        table, _ = f_table(2)
        assert verify_category(semigroup_to_one_object_category(table)).ok

    def test_composability_violation(self):
        table, _ = f_table(2)
        c = semigroup_to_one_object_category(table)
        broken = mutate_comp(c, 2, 2, c.star)
        report = verify_category(broken)
        assert not report.ok
        assert report.axiom == "composability"
        assert report.witness == (2, 2)

    def test_single_entry_mutation_breaks_associativity(self):
        table, _ = f_table(2)
        c = semigroup_to_one_object_category(table)
        report = verify_category(mutate_comp(c, 0, 0, 1))
        assert report.axiom == "associativity"
        assert report.witness == (0, 0, 3)


def c3_p3_category() -> FreeCategory:
    """The table of all of D for the 3-cycle and the 3-path: 72 morphisms
    over two objects, with star."""
    E = Vocabulary(relations=(("E", 2),))
    C3 = Structure.build("C3", 3, E, {"E": [(0, 1), (1, 2), (2, 0)]})
    P3 = Structure.build("P3", 3, E, {"E": [(0, 1), (1, 2)]})
    return dense_table(build_category_D(C3, P3).ambient)


class TestComposabilityMatchesPairs:
    """Rows against the morphisms listed per codomain decide, the scan
    over all pairs names the first witness."""

    def test_mutated_category_tables(self):
        c = c3_p3_category()
        n, star = c.morphism_count, c.star
        rng = random.Random(17)
        broken = []
        for _ in range(30):
            f, g = rng.randrange(n), rng.randrange(n)
            # an entry to or from star, or between existing morphisms
            val = star if c.comp[f][g] != star else rng.randrange(n - 1)
            broken.append(mutate_comp(c, f, g, val))
            broken.append(mutate_comp(c, f, g, rng.choice([x for x in range(n) if x != star])))
        for _ in range(10):
            m = rng.choice([m for m in range(n) if m != star])
            for side in ("dom", "cod"):
                table = list(getattr(c, side))
                table[m] = rng.choice([x for x in set(c.dom) if x != table[m]])
                broken.append(replace(c, **{side: tuple(table)}))
        axioms = {verify_category(c).axiom}
        for d in broken:
            verdict = verify_category(d)
            assert verdict == check_category_by_pairs(d)
            axioms.add(verdict.axiom)
        assert axioms == {None, "composability", "associativity"}

    @staticmethod
    def composability_by_listed_positions(c):
        """The composability scan as first written: each row's positions
        other than star, listed, against the morphisms listed per
        codomain; the first row that differs names the first witness."""
        n, star, dom, cod, comp = c.morphism_count, c.star, c.dom, c.cod, c.comp
        by_cod = {}
        for g in range(n):
            if g != star:
                by_cod.setdefault(cod[g], []).append(g)
        for f in range(n):
            expected = by_cod.get(dom[f], []) if f != star else []
            if [g for g in range(n) if comp[f][g] != star] != expected:
                g = next(g for g in range(n) if (comp[f][g] != star) != (g in expected))
                return v.violated("composability", (f, g))
        return None

    @staticmethod
    def table(name):
        if name == "rook-2":
            return semigroup_to_one_object_category(f_table(2)[0])
        if name == "c3-p3":
            return c3_p3_category()
        games = perfbench_games()
        text = games.category_file(
            games.cycle("C4", 4), games.path("P4", 4), random.Random(5), "category",
            with_inv=False,
        )
        return fileformats.parse_category_file(text)

    @pytest.mark.parametrize("name", ["rook-2", "c3-p3", "c4-p4"])
    def test_one_flipped_composite_matches_the_listed_positions(self, name):
        # one composite flipped from star to a morphism or from a morphism
        # to star, in every cell of the rook monoid's one-object view and
        # in 150 drawn cells of each larger table; the count of entries
        # other than star and the read at the expected positions give the
        # first scan's verdict and witness
        c = self.table(name)
        n, star = c.morphism_count, c.star
        assert verify_category(c).ok
        rng = random.Random(29)
        cells = [(f, g) for f in range(n) for g in range(n)]
        if len(cells) > 150:
            cells = rng.sample(cells, 150) + [(star, 0), (0, star), (star, star)]
        for f, g in cells:
            val = star if c.comp[f][g] != star else rng.choice([x for x in range(n) if x != star])
            d = mutate_comp(c, f, g, val)
            expected = self.composability_by_listed_positions(d)
            assert expected == v.violated("composability", (f, g))
            assert free_categories._check_category(d) == expected

    @pytest.mark.parametrize("name", ["rook-2", "c3-p3", "c4-p4"])
    def test_one_moved_composite_matches_the_listed_positions(self, name):
        # a composite set to star and a star entry of the same row set to
        # a morphism: the row keeps its count of entries other than star,
        # so only the read at the expected positions finds it
        c = self.table(name)
        n, star = c.morphism_count, c.star
        rng = random.Random(31)
        moved = 0
        for f in rng.sample(range(n), min(n, 40)):
            row = c.comp[f]
            present = [g for g in range(n) if row[g] != star]
            absent = [g for g in range(n) if row[g] == star]
            if not (present and absent):
                continue
            g, h = rng.choice(present), rng.choice(absent)
            d = mutate_comp(mutate_comp(c, f, g, star), f, h, row[g])
            expected = self.composability_by_listed_positions(d)
            assert expected == v.violated("composability", (f, min(g, h)))
            assert free_categories._check_category(d) == expected
            moved += 1
        assert moved >= 3

    def test_star_row_and_column(self):
        c = c3_p3_category()
        for f, g in ((c.star, 0), (0, c.star), (c.star, c.star)):
            d = mutate_comp(c, f, g, 0)
            assert verify_category(d) == check_category_by_pairs(d)
            assert verify_category(d).witness == (f, g)
        # a morphism whose cod is star composes with nothing, so star's
        # row stays composable and a later axiom fails instead
        m = 5
        rows = tuple(row[:m] + (c.star,) + row[m + 1:] for row in c.comp)
        cod = c.cod[:m] + (c.star,) + c.cod[m + 1:]
        d = replace(c, cod=cod, comp=rows)
        assert verify_category(d) == check_category_by_pairs(d)
        assert verify_category(d).axiom == "associativity"


class TestObjectsAndHomsets:
    def test_objects_of_discrete(self):
        assert objects(DISCRETE) == (0, 1)
        assert is_object(DISCRETE, 0)
        assert is_object(DISCRETE, 1)

    def test_star_counts_as_its_own_object_but_is_not_listed(self):
        assert is_object(DISCRETE, DISCRETE.star)
        assert DISCRETE.star not in objects(DISCRETE)
        assert homset(DISCRETE, DISCRETE.star, DISCRETE.star) == (DISCRETE.star,)

    def test_one_object_homset_is_everything(self):
        table, _ = f_table(2)
        c = semigroup_to_one_object_category(table)
        obj = objects(c)
        assert obj == (table.neutral,)
        assert len(endoset(c, obj[0])) == table.order

    def test_cross_homsets_of_discrete_are_empty(self):
        assert homset(DISCRETE, 0, 1) == ()
        assert endoset(DISCRETE, 0) == (0,)


class TestInverseVerifiers:
    def test_corpus_passes_both(self):
        for table in (SEMILATTICE, Z2, f_table(2)[0]):
            c = semigroup_to_one_object_category(table)
            assert verify_inverse_category_unique(c).ok
            assert verify_inverse_category_equational(c).ok
        assert verify_inverse_category_unique(DISCRETE).ok
        assert verify_inverse_category_equational(DISCRETE).ok

    def test_equational_requires_declared_inverses(self):
        c = replace(DISCRETE, inv=None)
        with pytest.raises(InputError):
            verify_inverse_category_equational(c)
        assert verify_inverse_category_unique(c).ok

    def test_inverse_strictness(self):
        c = replace(DISCRETE, inv=(0, 2, 2))
        report = verify_inverse_category_equational(c)
        assert report.axiom == "inverse-strictness"

    def test_skolem_fills_the_unique_inverses(self):
        table, _ = f_table(2)
        c = semigroup_to_one_object_category(table)
        stripped = replace(c, inv=None)
        assert skolem_inverses(stripped).inv == c.inv

    def test_verifiers_agree_on_seeded_mutations(self):
        table, _ = f_table(2)
        c = semigroup_to_one_object_category(table)
        rng = random.Random(405)
        for _ in range(25):
            f = rng.randrange(c.morphism_count - 1)
            g = rng.randrange(c.morphism_count - 1)
            val = rng.randrange(c.morphism_count)
            broken = mutate_comp(c, f, g, val)
            assert (
                verify_inverse_category_unique(broken).ok
                == verify_inverse_category_equational(broken).ok
            )

    def test_partners_found_once_for_check_and_fill(self, monkeypatch):
        c = replace(c3_p3_category(), inv=None)
        reads = []

        class Row(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return tuple.__getitem__(self, i)

        counted = replace(c, comp=tuple(Row(row) for row in c.comp))
        assert verify_inverse_category_unique(counted).ok
        assert reads
        reads.clear()
        filled = skolem_inverses(counted)
        assert reads == []  # the partners and the category verdict are kept
        assert filled.inv == skolem_inverses(c).inv
        # the category verdict does not read inv and carries over
        monkeypatch.setattr(free_categories, "_check_category", None)
        assert verify_category(filled).ok

    def test_existing_morphisms_have_existing_inverses(self):
        # a consequence of strictness: no existing morphism inverts to star
        for table in (SEMILATTICE, Z2, f_table(2)[0]):
            c = semigroup_to_one_object_category(table)
            assert verify_inverse_category_unique(c).ok
            filled = skolem_inverses(replace(c, inv=None))
            for m in range(c.morphism_count):
                assert (filled.inv[m] == c.star) == (m == c.star)


class TestNaturalOrder:
    def test_matches_restriction_order_on_maps(self):
        table, elems = f_table(2)
        c = semigroup_to_one_object_category(table)
        for i, f in enumerate(elems):
            for j, g in enumerate(elems):
                assert natural_leq(c, i, j) == f.is_restriction_of(g)
                assert natural_leq(c, i, j) == table_leq(table, i, j)

    def test_below_is_the_down_set(self):
        table, _ = f_table(2)
        c = semigroup_to_one_object_category(table)
        for t in range(table.order):
            assert below(c, t) == frozenset(
                s for s in range(table.order) if natural_leq(c, s, t)
            )

    def test_cross_homset_comparison_rejected(self):
        with pytest.raises(InputError):
            natural_leq(DISCRETE, 0, 1)

    def test_star_below_star(self):
        assert natural_leq(DISCRETE, DISCRETE.star, DISCRETE.star)


class TestFactsLiveOnTheInstance:
    """Derived facts are kept on the category itself, so they neither keep
    a dropped category alive nor mix up categories with equal content."""

    @staticmethod
    def chain_category():
        # the five-element chain under min is an inverse monoid, 4 neutral
        rows = [[min(i, j) for j in range(5)] for i in range(5)]
        table = InverseSemigroupTable.from_rows(rows, list(range(5)))
        return semigroup_to_one_object_category(table)

    def test_dropped_category_is_freed(self):
        c = self.chain_category()
        assert verify_category(c)
        assert below(c, 3) == {0, 1, 2, 3}
        assert natural_leq(c, 1, 3)
        ref = weakref.ref(c)
        del c
        gc.collect()
        assert ref() is None

    def test_equal_categories_agree(self):
        c, d = self.chain_category(), self.chain_category()
        assert c == d and c is not d
        for t in range(c.morphism_count):
            assert below(c, t) == below(d, t)


class TestZerosAndAtoms:
    def test_zero_of_symmetric_inverse_monoid_is_empty_map(self):
        table, elems = f_table(2)
        c = semigroup_to_one_object_category(table)
        z = zero_of_endoset(c, table.neutral)
        assert elems[z].pairs == ()
        assert has_all_zeros(c)

    def test_atoms_are_the_one_pair_maps(self):
        table, elems = f_table(2)
        c = semigroup_to_one_object_category(table)
        obj = table.neutral
        atoms = {m for m in range(table.order) if is_atom(c, m, obj)}
        assert atoms == {i for i, e in enumerate(elems) if len(e.pairs) == 1}

    def test_zero_and_star_are_not_atoms(self):
        table, _ = f_table(2)
        c = semigroup_to_one_object_category(table)
        assert not is_atom(c, table.zero, table.neutral)

    def test_group_endoset_has_no_zero(self):
        c = semigroup_to_one_object_category(Z2)
        assert zero_of_endoset(c, 0) is None
        assert not has_all_zeros(c)
        with pytest.raises(InputError):
            is_atom(c, 1, 0)

    def test_atom_of_non_object_rejected(self):
        with pytest.raises(InputError):
            is_atom(DISCRETE, 0, 1)

    def test_discrete_identity_is_its_own_zero(self):
        assert zero_of_endoset(DISCRETE, 0) == 0
        assert not is_atom(DISCRETE, 0, 0)


class TestOneObjectRoundTrip:
    @pytest.mark.parametrize("table", [SEMILATTICE, Z2])
    def test_collapse_inverts_the_view(self, table):
        back = one_object_to_semigroup(semigroup_to_one_object_category(table))
        assert back.mul == table.mul
        assert back.inv == table.inv
        assert back.neutral == table.neutral
        assert back.zero == table.zero

    def test_symmetric_inverse_monoid_round_trip(self):
        table, _ = f_table(2)
        back = one_object_to_semigroup(semigroup_to_one_object_category(table))
        assert back == table
        assert verify_inverse_semigroup(back).ok

    def test_collapse_needs_one_object(self):
        with pytest.raises(InputError):
            one_object_to_semigroup(DISCRETE)

    def test_view_needs_a_neutral_element(self):
        no_neutral = InverseSemigroupTable.from_rows([[0]], [0])
        assert semigroup_to_one_object_category(no_neutral).morphism_count == 2
        headless = InverseSemigroupTable.from_rows(
            [[0, 0], [0, 0]], [0, 1]
        )
        with pytest.raises(InputError):
            semigroup_to_one_object_category(headless)


class TestSharedLaws:
    """The one-object category of a monoid fails the laws it shares with
    the monoid's table first at the same axiom and witness."""

    SHARED = {"associativity", "regularity", "involution", "idempotent-commutation"}

    @staticmethod
    def mutations(table, rng, count):
        # single entries off the neutral row and column, so the identity
        # law of the category keeps holding
        n, e = table.order, table.neutral
        for _ in range(count):
            mul = [list(row) for row in table.mul]
            inv = list(table.inv)
            if rng.random() < 0.5:
                x = rng.randrange(n)
                inv[x] = rng.choice([y for y in range(n) if y != inv[x]] or [inv[x]])
            else:
                f, g = rng.choice([(f, g) for f in range(n) for g in range(n) if e not in (f, g)])
                mul[f][g] = rng.choice([y for y in range(n) if y != mul[f][g]])
            yield InverseSemigroupTable.from_rows(mul, inv, e, table.zero)

    def test_first_failing_law_agrees(self):
        from test_acceptance import corpus_tables

        # a left-zero band with an identity adjoined: regular and
        # involutive, but its idempotents 1 and 2 do not commute
        band = InverseSemigroupTable.from_rows(
            [[0, 1, 2], [1, 1, 1], [2, 2, 2]], [0, 1, 2], neutral=0
        )
        rng = random.Random(4)
        seen = set()
        for base in corpus_tables() + [band]:
            if base.neutral is None:
                continue
            tables = [base]
            if base.order > 1:
                tables += self.mutations(base, rng, 6)
            for t in tables:
                by_table = verify_inverse_semigroup(t)
                if by_table.axiom not in self.SHARED:
                    by_table = verify_inverse_semigroup(replace(t, zero=None))
                by_category = verify_inverse_category_equational(
                    semigroup_to_one_object_category(t)
                )
                assert by_category == by_table
                seen.add(by_table.axiom)
        assert seen == {None} | self.SHARED


@cache
def perfbench_games():
    """The benchmark's generator of table files, which imports no modeloids."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "games.py"
    spec = importlib.util.spec_from_file_location("perfbench_games", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


class TestPartnersPerHomset:
    """The partner search reads only Hom(cod s, dom s) and finds what the
    scan over every morphism finds."""

    @staticmethod
    def agrees_with_the_full_scan(c):
        assert verify_category(c).ok
        assert free_categories._partners(c) == tuple(
            partners(c.comp, s) for s in range(c.morphism_count)
        )

    @settings(max_examples=30)
    @given(structure_pairs())
    def test_generated_categories(self, pair):
        self.agrees_with_the_full_scan(dense_table(build_category_D(*pair).ambient))

    def test_rook_monoid_on_two_points(self):
        self.agrees_with_the_full_scan(semigroup_to_one_object_category(f_table(2)[0]))

    def test_several_partners_in_one_homset(self):
        # a left-zero band with an identity adjoined: 1 and 2 are each
        # other's partners and their own
        band = InverseSemigroupTable.from_rows(
            [[0, 1, 2], [1, 1, 1], [2, 2, 2]], [0, 1, 2], neutral=0
        )
        c = semigroup_to_one_object_category(band)
        self.agrees_with_the_full_scan(c)
        assert free_categories._partners(c)[1] == [1, 2]

    @pytest.mark.parametrize("with_inv", [True, False])
    def test_c4_p4_category_file(self, with_inv):
        games = perfbench_games()
        text = games.category_file(
            games.cycle("C4", 4), games.path("P4", 4), random.Random(5), "category",
            with_inv=with_inv,
        )
        c = fileformats.parse_category_file(text)
        assert c.morphism_count == 213
        self.agrees_with_the_full_scan(c)
        assert verify_inverse_category_unique(c).ok
