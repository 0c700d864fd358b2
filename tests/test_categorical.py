"""Categorical modeloids over morphism tables: axioms, homset
derivatives, and agreement with the table-level derivative under the
one-object view."""

import random
from types import SimpleNamespace

import pytest
from dense_ambient import dense_table
from generated import structure_pairs
from hypothesis import given
from records import replace
from reference_scans import (
    atoms_by_definition,
    categorical_derivative_by_covers,
    category_leq,
    check_categorical_modeloid_by_pairs,
    table_leq,
)

from modeloids import categorical
from modeloids.categorical import (
    CategoricalModeloid,
    categorical_derivative,
    endoset_as_semimodeloid,
    homset_derivative,
    iterate_categorical,
    member_idempotent_atoms,
    verify_categorical_modeloid,
)
from modeloids.ef_games import PartialIsoAmbient, build_category_D
from modeloids.errors import InputError
from modeloids.free_categories import (
    FreeCategory,
    endoset,
    is_atom,
    objects,
    semigroup_to_one_object_category,
    zero_of_endoset,
)
from modeloids.inverse_semigroups import (
    Semimodeloid,
    atoms,
    find_zero,
    generators,
    from_partial_bijections,
    idempotent_atoms,
    idempotents,
    natural_leq,
    semimodeloid_derivative,
    table_from_rows,
    verify_semimodeloid,
)
from modeloids.modeloid import Modeloid, derivative, modeloid_closure
from modeloids.partial_bijections import Carrier, PartialBijection, enumerate_all
from modeloids.structures import Structure, Vocabulary

DISCRETE = FreeCategory(
    3, 2, (0, 1, 2), (0, 1, 2), ((0, 2, 2), (2, 1, 2), (2, 2, 2)), (0, 1, 2)
)


def one_object_setup(n):
    """The symmetric inverse monoid on n points, viewed as a category,
    with the map-to-index dictionary."""
    carrier = Carrier(n)
    table, elems = from_partial_bijections(enumerate_all(carrier))
    cat = semigroup_to_one_object_category(table)
    index = {e: i for i, e in enumerate(elems)}
    return carrier, table, elems, cat, index


def pb(carrier, pairs):
    return PartialBijection.from_pairs(carrier, pairs)


def random_modeloid(rng, carrier):
    seeds = []
    for _ in range(rng.randrange(4)):
        size = rng.randrange(carrier.size + 1)
        sources = rng.sample(range(carrier.size), size)
        targets = rng.sample(range(carrier.size), size)
        seeds.append(pb(carrier, zip(sources, targets)))
    return modeloid_closure(seeds, carrier)


class TestVerify:
    def test_everything_over_symmetric_inverse_monoid(self):
        _, _, _, cat, _ = one_object_setup(2)
        assert verify_categorical_modeloid(CategoricalModeloid.everything(cat)).ok

    def test_everything_over_discrete(self):
        assert verify_categorical_modeloid(CategoricalModeloid.everything(DISCRETE)).ok

    def test_transported_closure_verifies(self):
        carrier, _, _, cat, index = one_object_setup(2)
        M = modeloid_closure([pb(carrier, [(0, 1)])], carrier)
        members = frozenset(index[f] for f in M.members) | {cat.star}
        assert verify_categorical_modeloid(
            CategoricalModeloid.from_members(cat, members)
        ).ok

    def test_missing_composite(self):
        _, table, _, cat, index = one_object_setup(2)
        carrier = Carrier(2)
        f = index[pb(carrier, [(0, 1)])]
        bad = CategoricalModeloid.from_members(cat, {table.neutral, f, cat.star})
        report = verify_categorical_modeloid(bad)
        assert report.axiom == "composition"
        assert report.witness == (f, f)

    def test_missing_inverse(self):
        carrier, _, _, cat, index = one_object_setup(2)
        keep = [[], [(0, 0)], [(1, 1)], [(0, 0), (1, 1)], [(0, 1)]]
        members = {index[pb(carrier, p)] for p in keep} | {cat.star}
        report = verify_categorical_modeloid(
            CategoricalModeloid.from_members(cat, members)
        )
        assert report.axiom == "inverse"
        assert report.witness == (index[pb(carrier, [(0, 1)])],)

    def test_missing_restriction(self):
        carrier, _, _, cat, index = one_object_setup(2)
        members = {
            index[pb(carrier, [(0, 0), (1, 1)])],
            index[pb(carrier, [(0, 1), (1, 0)])],
            index[pb(carrier, [])],
            cat.star,
        }
        report = verify_categorical_modeloid(
            CategoricalModeloid.from_members(cat, members)
        )
        assert report.axiom == "downward"

    def test_missing_object(self):
        carrier, _, _, cat, index = one_object_setup(2)
        members = {index[pb(carrier, [])], index[pb(carrier, [(0, 0)])], cat.star}
        report = verify_categorical_modeloid(
            CategoricalModeloid.from_members(cat, members)
        )
        assert report.axiom == "objects"

    def test_multi_object_members_need_star(self):
        report = verify_categorical_modeloid(
            CategoricalModeloid.from_members(DISCRETE, {0, 1})
        )
        assert report.axiom == "composition"
        assert report.witness == (0, 1)

    def test_ambient_must_carry_inverses(self):
        stripped = replace(DISCRETE, inv=None)
        with pytest.raises(InputError):
            CategoricalModeloid.everything(stripped)


def c3_p3_ambient() -> PartialIsoAmbient:
    E = Vocabulary(relations=(("E", 2),))
    C3 = Structure.build("C3", 3, E, {"E": [(0, 1), (1, 2), (2, 0)]})
    P3 = Structure.build("P3", 3, E, {"E": [(0, 1), (1, 2)]})
    return build_category_D(C3, P3).whole.ambient


class TestClosureMatchesPairs:
    """Generators decide composition closure on an associative ambient,
    the pair scan names the first witness."""

    def test_every_single_drop_from_d(self):
        ambient = c3_p3_ambient()
        for c in (ambient, dense_table(ambient)):
            everything = frozenset(range(c.morphism_count))
            for dropped in [()] + [(m,) for m in range(c.morphism_count)]:
                M = CategoricalModeloid(c, everything - set(dropped))
                assert verify_categorical_modeloid(M) == check_categorical_modeloid_by_pairs(M)

    def test_drops_from_closures_over_the_rook_monoid(self):
        rng = random.Random(8)
        carrier, _, _, cat, index = one_object_setup(3)
        axioms = set()
        for _ in range(15):
            members = {index[f] for f in random_modeloid(rng, carrier).members} | {cat.star}
            for dropped in [()] + [rng.sample(sorted(members), k) for k in (1, 1, 2)]:
                M = CategoricalModeloid(cat, frozenset(members) - set(dropped))
                verdict = verify_categorical_modeloid(M)
                assert verdict == check_categorical_modeloid_by_pairs(M)
                axioms.add(verdict.axiom)
        assert {None, "composition", "objects"} <= axioms

    def test_other_ambients_keep_the_pair_scan(self):
        # composition of an unknown ambient may not associate, so every
        # pair of members is composed
        c = dense_table(c3_p3_ambient())
        calls = []

        def compose(f, g):
            calls.append((f, g))
            return c.compose(f, g)

        fields = ("morphism_count", "star", "dom", "cod", "inv", "below")
        other = SimpleNamespace(compose=compose, **{k: getattr(c, k) for k in fields})
        M = CategoricalModeloid.everything(other)
        assert verify_categorical_modeloid(M).ok
        assert set(calls) >= {(f, g) for f in M.members for g in M.members}


class TestClosureOnGeneratorsOfD:
    def test_compositions_grow_with_members_times_generators(self, monkeypatch):
        V = Vocabulary()
        c = build_category_D(Structure.build("A", 4, V), Structure.build("B", 4, V)).whole.ambient
        M = CategoricalModeloid.everything(c)
        top_down = sorted(M.members, key=lambda m: -len(c.below(m)))
        gens = generators(c.compose, top_down)
        calls = 0
        compose = PartialIsoAmbient.compose

        def counting(self, f, g):
            nonlocal calls
            calls += 1
            return compose(self, f, g)

        monkeypatch.setattr(PartialIsoAmbient, "compose", counting)
        assert verify_categorical_modeloid(M).ok
        # a scan over all pairs makes 837 * 837 = 700 569
        assert c.morphism_count == 837
        assert 0 < calls <= len(M.members) * (len(gens) + 1)


class TestAtoms:
    def test_atoms_of_everything_are_singleton_identities(self):
        _, _, elems, cat, _ = one_object_setup(2)
        M = CategoricalModeloid.everything(cat)
        atom_maps = {
            elems[a].pairs for a in member_idempotent_atoms(M, objects(cat)[0])
        }
        assert atom_maps == {((0, 0),), ((1, 1),)}

    def test_discrete_endosets_have_no_atoms(self):
        M = CategoricalModeloid.everything(DISCRETE)
        assert member_idempotent_atoms(M, 0) == ()
        assert member_idempotent_atoms(M, 1) == ()

    def test_atoms_respect_membership(self):
        # dropping {1→1} from the member set removes it from the atoms
        carrier, _, elems, cat, index = one_object_setup(2)
        M = modeloid_closure([pb(carrier, [(0, 0)])], carrier)
        members = frozenset(index[f] for f in M.members) | {cat.star}
        CM = CategoricalModeloid.from_members(cat, members)
        atom_maps = {elems[a].pairs for a in member_idempotent_atoms(CM, objects(cat)[0])}
        assert atom_maps == {((0, 0),), ((1, 1),)} & {
            elems[i].pairs for i in members if i != cat.star
        }


class TestAtomsByDefinition:
    """``atoms``, ``is_atom`` and ``member_idempotent_atoms`` against the
    atoms read from the definition of the natural order, each over its own
    element set: a table, an endoset, a member endoset."""

    def test_rook_monoids(self):
        for n in (1, 2, 3, 4):
            _, table, _, cat, _ = one_object_setup(n)
            expected = atoms_by_definition(range(table.order), table_leq(table), find_zero(table))
            assert atoms(table) == frozenset(expected)
            obj = objects(cat)[0]
            idempotent = tuple(a for a in expected if a in idempotents(table))
            everything = CategoricalModeloid.everything(cat)
            assert member_idempotent_atoms(everything, obj) == idempotent
            assert [a for a in endoset(cat, obj) if is_atom(cat, a, obj)] == expected

    @given(structure_pairs())
    def test_endosets_of_d(self, pair):
        c = build_category_D(*pair).whole.ambient
        everything = CategoricalModeloid.everything(c)
        leq = category_leq(c)
        for X in objects(c):
            endos = endoset(c, X)
            expected = atoms_by_definition(endos, leq, zero_of_endoset(c, X))
            assert [a for a in endos if is_atom(c, a, X)] == expected
            idempotent = tuple(a for a in expected if c.compose(a, a) == a)
            assert member_idempotent_atoms(everything, X) == idempotent

    def test_member_atoms_where_an_idempotent_is_missing(self):
        # members empty map and identity of R2, without {0->0} and {1->1}:
        # nothing lies between them among the members, so the identity is
        # a member atom, though no atom of the ambient endoset
        carrier, _, _, cat, index = one_object_setup(2)
        bottom, top = index[pb(carrier, [])], index[pb(carrier, [(0, 0), (1, 1)])]
        M = CategoricalModeloid.from_members(cat, {bottom, top, cat.star})
        obj = objects(cat)[0]
        expected = atoms_by_definition(sorted((bottom, top)), category_leq(cat), bottom)
        assert member_idempotent_atoms(M, obj) == tuple(expected) == (top,)
        assert not is_atom(cat, top, obj)


class TestDerivative:
    def test_everything_is_stable(self):
        for n in (2, 3):
            _, _, _, cat, _ = one_object_setup(n)
            M = CategoricalModeloid.everything(cat)
            assert categorical_derivative(M).members == M.members

    def test_discrete_everything_is_stable(self):
        M = CategoricalModeloid.everything(DISCRETE)
        assert sorted(categorical_derivative(M).members) == [0, 1, 2]

    def test_frozen_chain_for_asymmetric_closure(self):
        carrier, _, elems, cat, index = one_object_setup(2)
        M = modeloid_closure([pb(carrier, [(0, 1)])], carrier)
        members = frozenset(index[f] for f in M.members) | {cat.star}
        CM = CategoricalModeloid.from_members(cat, members)
        D = categorical_derivative(CM)
        survivors = {elems[i].pairs for i in D.members if i != cat.star}
        assert survivors == {(), ((0, 0),), ((1, 1),), ((0, 0), (1, 1))}
        chain, stabilized = iterate_categorical(CM, 3)
        assert [len(step.members) for step in chain] == [7, 5, 5, 5]
        assert stabilized == 1

    def test_agrees_with_table_derivative(self):
        carrier, table, elems, cat, index = one_object_setup(3)
        rng = random.Random(77)
        obj = objects(cat)[0]
        for _ in range(10):
            M = random_modeloid(rng, carrier)
            members = frozenset(index[f] for f in M.members)
            CM = CategoricalModeloid.from_members(cat, members | {cat.star})
            left = categorical_derivative(CM).members - {cat.star}
            sm = Semimodeloid(table, members)
            assert left == semimodeloid_derivative(sm).members
            by_maps = frozenset(elems[i] for i in left)
            assert by_maps == derivative(Modeloid(carrier, M.members)).members

    def test_homset_derivative_matches_whole_step(self):
        carrier, _, _, cat, index = one_object_setup(2)
        M = modeloid_closure([pb(carrier, [(0, 1)])], carrier)
        members = frozenset(index[f] for f in M.members) | {cat.star}
        CM = CategoricalModeloid.from_members(cat, members)
        obj = objects(cat)[0]
        assert homset_derivative(CM, obj, obj) | {cat.star} == categorical_derivative(
            CM
        ).members

    def test_derivative_checks_its_input(self):
        _, table, _, cat, index = one_object_setup(2)
        carrier = Carrier(2)
        f = index[pb(carrier, [(0, 1)])]
        bad = CategoricalModeloid.from_members(cat, {table.neutral, f, cat.star})
        with pytest.raises(InputError):
            categorical_derivative(bad)

    def test_homset_derivative_checks_its_input(self):
        # the zero, the identity and 0->1 of R2, with no inverse 1->0
        carrier, table, _, cat, index = one_object_setup(2)
        f = index[pb(carrier, [(0, 1)])]
        bad = CategoricalModeloid.from_members(
            cat, {index[pb(carrier, [])], table.neutral, f, cat.star}
        )
        assert verify_categorical_modeloid(bad).describe() == f"violation: inverse witness: ({f},)"
        obj = objects(cat)[0]
        with pytest.raises(InputError, match="not a categorical modeloid"):
            homset_derivative(bad, obj, obj)

    def test_derived_levels_carry_the_verdict(self, monkeypatch):
        # the closure theorem: a chain checks its input alone, and every
        # derived level passes the uncached check of the verdict it carries
        carrier, _, _, cat, index = one_object_setup(2)
        M = modeloid_closure([pb(carrier, [(0, 1)])], carrier)
        members = frozenset(index[f] for f in M.members) | {cat.star}
        CM = CategoricalModeloid.from_members(cat, members)
        checked = []
        check = categorical._check_categorical_modeloid

        def counting(N):
            checked.append(N)
            return check(N)

        monkeypatch.setattr(categorical, "_check_categorical_modeloid", counting)
        chain, stabilized = iterate_categorical(CM, 3)
        assert stabilized == 1 and len(checked) == 1 and checked[0] is CM
        assert all(verify_categorical_modeloid(N).ok and check(N).ok for N in chain)


def assert_chain_matches_reference(ambient):
    """At every level down to the fixpoint: the whole derivative equals
    the literal reference, and each homset derivative its restriction."""
    M = CategoricalModeloid.everything(ambient)
    levels = 0
    while True:
        expected = categorical_derivative_by_covers(M)
        assert categorical_derivative(M).members == expected
        for X in objects(ambient):
            for Y in objects(ambient):
                hom = {f for f in expected if ambient.dom[f] == X and ambient.cod[f] == Y}
                assert homset_derivative(M, X, Y) == hom
        levels += 1
        if expected == M.members:
            return levels
        M = CategoricalModeloid(ambient, expected)


class TestOneCoverPass:
    """The one-pass derivative on multi-object categories, against the
    reference that checks each member's atoms one by one."""

    @given(structure_pairs())
    def test_generated_pairs(self, pair):
        ambient = build_category_D(*pair).whole.ambient
        assert len(objects(ambient)) == 2
        assert_chain_matches_reference(ambient)

    def test_dense_cycle_and_path(self):
        E = Vocabulary(relations=(("E", 2),))
        C4 = Structure.build("C4", 4, E, {"E": [(0, 1), (1, 2), (2, 3), (3, 0)]})
        P4 = Structure.build("P4", 4, E, {"E": [(0, 1), (1, 2), (2, 3)]})
        table = dense_table(build_category_D(C4, P4).whole.ambient)
        assert assert_chain_matches_reference(table) > 1

    def test_atoms_found_once_per_end_object(self, monkeypatch):
        calls = []
        real = categorical.member_idempotent_atoms

        def counted(M, X):
            calls.append(X)
            return real(M, X)

        monkeypatch.setattr(categorical, "member_idempotent_atoms", counted)
        A, B = Structure.build("A", 2, Vocabulary()), Structure.build("B", 3, Vocabulary())
        D = build_category_D(A, B).whole
        categorical_derivative(CategoricalModeloid.everything(D.ambient))
        assert sorted(calls) == sorted([D.object_a, D.object_b, D.ambient.star])


class TestEndosetView:
    def test_collapse_is_a_semimodeloid(self):
        carrier, _, _, cat, index = one_object_setup(2)
        M = modeloid_closure([pb(carrier, [(0, 1)])], carrier)
        members = frozenset(index[f] for f in M.members) | {cat.star}
        CM = CategoricalModeloid.from_members(cat, members)
        sm, endos = endoset_as_semimodeloid(CM, objects(cat)[0])
        assert verify_semimodeloid(sm).ok
        assert sm.ambient.order == len(endos) == 6
        assert sm.members == frozenset(range(6))

    def test_collapse_of_everything(self):
        _, table, _, cat, _ = one_object_setup(2)
        CM = CategoricalModeloid.everything(cat)
        sm, endos = endoset_as_semimodeloid(CM, objects(cat)[0])
        assert verify_semimodeloid(sm).ok
        assert sm.ambient.mul == table.mul

    def test_collapsed_derivative_transports_back(self):
        carrier, _, elems, cat, index = one_object_setup(2)
        M = modeloid_closure([pb(carrier, [(0, 1)])], carrier)
        members = frozenset(index[f] for f in M.members) | {cat.star}
        CM = CategoricalModeloid.from_members(cat, members)
        obj = objects(cat)[0]
        sm, endos = endoset_as_semimodeloid(CM, obj)
        collapsed = semimodeloid_derivative(sm).members
        transported = frozenset(endos[i] for i in collapsed)
        assert transported == homset_derivative(CM, obj, obj)

    def test_needs_member_object(self):
        carrier, _, _, cat, index = one_object_setup(2)
        members = {index[pb(carrier, [])], cat.star}
        CM = CategoricalModeloid.from_members(cat, members)
        with pytest.raises(InputError):
            endoset_as_semimodeloid(CM, objects(cat)[0])


class TestTablesKeepTheDownSetWalk:
    """N5, the semilattice 0 < e < x < 1 and 0 < a < 1, as a full
    semimodeloid.  Its idempotents form no distributive lattice, so the
    members above e cannot be read from e's upper covers: the only one is
    x, and x does not cover the atom a, while 1 does.  Both derivatives
    on tables must keep e, which only the walk over down-sets finds."""

    ZERO, E, X, A, ONE = range(5)
    UP = {ZERO: {0, 1, 2, 3, 4}, E: {1, 2, 4}, X: {2, 4}, A: {3, 4}, ONE: {4}}

    def n5(self):
        def meet(p, q):  # the lower bound with the fewest elements above it
            lower = [r for r in range(5) if {p, q} <= self.UP[r]]
            return min(lower, key=lambda r: len(self.UP[r]))

        mul = tuple(tuple(meet(p, q) for q in range(5)) for p in range(5))
        return table_from_rows(mul, range(5))

    def by_upper_covers(self, table, members):
        """Keep f when every idempotent atom is covered by f itself or by
        an upper cover of f among the members: the one-point step of D."""
        atom_set = idempotent_atoms(table)

        def covers(h, alpha):
            return natural_leq(table, alpha, table.mul[table.inv[h]][h])

        def upper_covers(f):
            above = [h for h in members if h != f and natural_leq(table, f, h)]
            return [h for h in above if not any(g != h and natural_leq(table, g, h) for g in above)]

        return frozenset(
            f for f in members
            if all(any(covers(h, alpha) for h in [f, *upper_covers(f)]) for alpha in atom_set)
        )

    def test_n5_keeps_e(self):
        table = self.n5()
        sm = Semimodeloid(table, frozenset(range(5)))
        assert verify_semimodeloid(sm).ok
        assert idempotent_atoms(table) == (self.E, self.A)
        assert self.by_upper_covers(table, sm.members) == sm.members - {self.E}
        assert semimodeloid_derivative(sm).members == sm.members
        cat = semigroup_to_one_object_category(table)
        M = CategoricalModeloid.everything(cat)
        assert categorical_derivative(M).members == M.members
