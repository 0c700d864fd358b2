"""Equivalence of finite structures: the derivative route against the
game-tree oracle, plus back-and-forth certificates."""

import gc
import hashlib
import math
import random
import sys
import weakref
from itertools import combinations, product
from unittest import mock

import pytest
from dense_ambient import dense_table
from generated import agreeing_on_constants, relabel, structure_pairs, structures_over
from hypothesis import given
from hypothesis import strategies as st
from records import replace
from reference_scans import (
    reach_above_chain,
    verify_certificate_by_extensions,
    verify_certificate_by_one_point,
)

from modeloids import cli, ef_games, free_categories, structures
from modeloids.categorical import (
    CategoricalModeloid,
    categorical_derivative,
    verify_categorical_modeloid,
)
from modeloids.codes import _code
from modeloids.ef_games import (
    BackAndForthCertificate,
    build_category_D,
    derivative_levels,
    ef_equiv_derivative,
    ef_equiv_oracle,
    extract_certificate,
    format_certificate,
    homset_levels,
    surviving_maps,
    verify_certificate,
)
from modeloids.errors import BoundExceededError, InputError
from modeloids.free_categories import (
    has_all_zeros,
    objects,
    one_object_to_semigroup,
    verify_category,
    verify_inverse_category_unique,
    zero_of_endoset,
)
from modeloids.inverse_semigroups import verify_inverse_semigroup
from modeloids.structures import (
    PartialIso,
    Structure,
    Vocabulary,
    constant_pairs,
    enumerate_partial_isos,
    pairs_are_partial_iso,
    parse_structures,
)

EMPTY = Vocabulary()
ORDER = Vocabulary(relations=(("L", 2),))
DIGRAPH = Vocabulary(relations=(("E", 2),))
POINTED = Vocabulary(relations=(("E", 2),), constants=("c",))


def pure(name, n):
    return Structure.build(name, n, EMPTY)


def chain(name, n):
    tuples = [(i, j) for i in range(n) for j in range(n) if i < j]
    return Structure.build(name, n, ORDER, {"L": tuples})


def naive_win(A, B, position, k):
    """The game recursion spelled out once more, without memoization."""
    if k == 0:
        return pairs_are_partial_iso(A, B, position)
    return all(
        any(naive_win(A, B, position | {(a, b)}, k - 1) for b in range(B.universe_size))
        for a in range(A.universe_size)
    ) and all(
        any(naive_win(A, B, position | {(a, b)}, k - 1) for a in range(A.universe_size))
        for b in range(B.universe_size)
    )


def directed_cycle(name, labels):
    """The cycle labels[0] -> labels[1] -> ... -> labels[0]."""
    n = len(labels)
    edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    return Structure.build(name, n, DIGRAPH, {"E": edges})


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def part_count(p, q):
    return sum(
        math.comb(p, k) * math.comb(q, k) * math.factorial(k)
        for k in range(min(p, q) + 1)
    )


class TestBuild:
    def test_morphism_count_pure_one_one(self):
        cat = build_category_D(pure("A", 1), pure("B", 1))
        assert len(cat.morphisms) == 8
        assert cat.star == 8

    def test_block_sizes_pure_two_three(self):
        cat = build_category_D(pure("A", 2), pure("B", 3))
        expected = part_count(2, 2) + 2 * part_count(2, 3) + part_count(3, 3)
        assert len(cat.morphisms) == expected == 67

    def test_ambient_is_an_inverse_category_with_zeros(self):
        for A, B in [
            (pure("A", 2), pure("B", 3)),
            (chain("A", 2), chain("B", 3)),
            (
                Structure.build("A", 2, POINTED, {"E": [(0, 1)]}, {"c": 0}),
                Structure.build("B", 2, POINTED, {"E": [(1, 0)]}, {"c": 1}),
            ),
        ]:
            table = dense_table(build_category_D(A, B).ambient)
            assert verify_category(table).ok
            assert verify_inverse_category_unique(table).ok
            assert has_all_zeros(table)

    def test_zero_of_endoset_is_the_constants_only_identity(self):
        A = Structure.build("A", 3, POINTED, {"E": [(0, 1)]}, {"c": 1})
        B = Structure.build("B", 2, POINTED, constants={"c": 0})
        cat = build_category_D(A, B)
        z = zero_of_endoset(cat.ambient, cat.object_a)
        assert cat.morphisms[z] == ((1, 1),)
        z = zero_of_endoset(cat.ambient, cat.object_b)
        assert cat.morphisms[z] == ((0, 0),)

    def test_all_morphisms_form_a_categorical_modeloid(self):
        cat = build_category_D(pure("A", 2), pure("B", 2))
        assert verify_categorical_modeloid(
            CategoricalModeloid.everything(cat.ambient)
        ).ok

    def test_one_structure_gives_one_object(self):
        A = pure("A", 2)
        cat = build_category_D(A, A)
        assert objects(cat.ambient) == (cat.object_a,)
        assert cat.object_a == cat.object_b
        table = one_object_to_semigroup(dense_table(cat.ambient))
        assert table.order == 7
        assert verify_inverse_semigroup(table).ok

    def test_objects_are_the_full_identities(self):
        A, B = pure("A", 2), pure("B", 3)
        cat = build_category_D(A, B)
        assert cat.morphisms[cat.object_a] == ((0, 0), (1, 1))
        assert cat.morphisms[cat.object_b] == ((0, 0), (1, 1), (2, 2))
        assert len(cat.part(A, B)) == part_count(2, 3)

    def test_vocabulary_mismatch(self):
        with pytest.raises(InputError):
            build_category_D(pure("A", 1), chain("B", 2))

    def test_universe_bound(self):
        with pytest.raises(BoundExceededError):
            build_category_D(pure("A", 6), pure("B", 1))
        with pytest.raises(BoundExceededError):
            ef_equiv_oracle(pure("A", 6), pure("B", 1), 1)

    def test_the_pair_is_checked_once_per_call(self, monkeypatch):
        # a fresh build is checked by its enumeration alone, a return of
        # the kept D by one check, which still applies the bound
        calls = []
        real = structures._check_pair

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(structures, "_check_pair", counted)
        A, B = pure("A", 3), pure("B", 4)
        D = build_category_D(A, B)
        assert len(calls) == 1
        assert build_category_D(A, B) is D
        assert len(calls) == 2
        with pytest.raises(BoundExceededError):
            build_category_D(A, B, 3)


def random_pointed(rng, name):
    size = rng.randint(1, 3)
    tuples = {(a, b) for a in range(size) for b in range(size) if rng.random() < 0.4}
    return Structure.build(name, size, POINTED, {"E": tuples}, {"c": rng.randrange(size)})


class TestPartialIsoAmbient:
    """The on-demand composition and down-sets of D against composition
    of the maps themselves and against the materialised table."""

    @staticmethod
    def pairs(seed):
        rng = random.Random(seed)
        for _ in range(6):
            A, B = random_pointed(rng, "A"), random_pointed(rng, "B")
            yield A, B
            yield A, A

    def test_compose_is_map_composition(self):
        for A, B in self.pairs(31):
            cat = build_category_D(A, B)
            amb = cat.ambient
            # each pair tuple as the map between its two structures
            side = {cat.object_a: A, cat.object_b: B}
            maps = [
                PartialIso(side[amb.dom[i]], side[amb.cod[i]], p)
                for i, p in enumerate(cat.morphisms)
            ]
            where = {p: i for i, p in enumerate(maps)}
            for f in range(amb.morphism_count):
                for g in range(amb.morphism_count):
                    if amb.star in (f, g) or maps[g].right != maps[f].left:
                        expected = amb.star
                    else:
                        expected = where[maps[f].compose(maps[g])]
                    assert amb.compose(f, g) == expected

    def test_below_is_composition_with_idempotents(self):
        for A, B in self.pairs(32):
            amb = build_category_D(A, B).ambient
            table = dense_table(amb)
            n = table.morphism_count
            for t in range(n):
                X = table.dom[t]
                idempotents = [
                    e
                    for e in range(n)
                    if table.dom[e] == table.cod[e] == X and table.comp[e][e] == e
                ]
                assert amb.below(t) == {table.comp[t][e] for e in idempotents}

    def test_zero_scan_once_per_ambient(self, monkeypatch):
        scanned = []
        scan = free_categories.zero_of_endoset

        def counting(c, X):
            scanned.append(X)
            return scan(c, X)

        monkeypatch.setattr(free_categories, "zero_of_endoset", counting)
        cat = build_category_D(pure("A", 2), pure("B", 3))
        M = CategoricalModeloid.everything(cat.ambient)
        for _ in range(3):
            M = categorical_derivative(M)
        assert sorted(scanned) == sorted(objects(cat.ambient))

    def test_pure_five_versus_five_at_four_rounds(self):
        A, B = pure("A", 5), pure("B", 5)
        cat = build_category_D(A, B)
        assert ef_equiv_derivative(A, B, 4, category=cat)[0]
        assert ef_equiv_oracle(A, B, 4)
        cert = extract_certificate(A, B, 4, category=cat)
        assert cert is not None
        assert len(cert.levels) == 5
        assert verify_certificate(cert).ok


class TestFrozenAnswers:
    def test_pure_sets_two_versus_three(self):
        A, B = pure("A", 2), pure("B", 3)
        cat = build_category_D(A, B)
        for m, expected in [(0, True), (1, True), (2, True), (3, False), (4, False)]:
            assert ef_equiv_derivative(A, B, m, category=cat)[0] == expected
            assert ef_equiv_oracle(A, B, m) == expected

    def test_linear_orders_two_versus_three(self):
        A, B = chain("A", 2), chain("B", 3)
        cat = build_category_D(A, B)
        for m, expected in [(0, True), (1, True), (2, False)]:
            assert ef_equiv_derivative(A, B, m, category=cat)[0] == expected
            assert ef_equiv_oracle(A, B, m) == expected

    def test_round_zero_means_nonempty_part(self):
        A, B = pure("A", 1), pure("B", 3)
        assert ef_equiv_derivative(A, B, 0)[0]
        P = Vocabulary(relations=(("P", 1),), constants=("c",))
        A = Structure.build("A", 1, P, {"P": [(0,)]}, {"c": 0})
        B = Structure.build("B", 1, P, constants={"c": 0})
        assert enumerate_partial_isos(A, B) == frozenset()
        assert not ef_equiv_derivative(A, B, 0)[0]
        assert not ef_equiv_oracle(A, B, 0)

    def test_equal_pure_sets_always_equivalent(self):
        for n in (1, 2, 3):
            A, B = pure("A", n), pure("B", n)
            cat = build_category_D(A, B)
            for m in range(n + 2):
                assert ef_equiv_derivative(A, B, m, category=cat)[0]
                assert ef_equiv_oracle(A, B, m)

    def test_witness_is_a_surviving_partial_iso(self):
        A, B = pure("A", 2), pure("B", 3)
        equivalent, witness = ef_equiv_derivative(A, B, 1)
        assert equivalent
        assert pairs_are_partial_iso(A, B, witness.pairs)
        assert witness.pairs == ((1, 2),)

    def test_negative_rounds_rejected(self):
        with pytest.raises(InputError):
            ef_equiv_oracle(pure("A", 1), pure("B", 1), -1)
        with pytest.raises(InputError):
            ef_equiv_derivative(pure("A", 1), pure("B", 1), -1)


class TestOracle:
    def test_matches_naive_recursion(self):
        A = Structure.build("A", 2, POINTED, {"E": [(0, 1)]}, {"c": 0})
        B = Structure.build("B", 2, POINTED, {"E": [(0, 1), (1, 0)]}, {"c": 1})
        for m in range(3):
            assert ef_equiv_oracle(A, B, m) == naive_win(
                A, B, frozenset(constant_pairs(A, B)), m
            )

    def test_matches_naive_on_pure_sets(self):
        for p, q in [(1, 2), (2, 2), (2, 3)]:
            A, B = pure("A", p), pure("B", q)
            for m in range(3):
                assert ef_equiv_oracle(A, B, m) == naive_win(A, B, frozenset(), m)

    @pytest.fixture
    def checks(self, monkeypatch):
        """The stack depth and the position of every check the oracle
        makes: the full check of the constant base and the one-pair test
        of each further position, which reads the position from its code
        with the new pair in it."""
        checks = []
        check, one_pair_test = ef_games.pairs_are_partial_iso, ef_games._one_pair_test

        def base_check(A, B, pairs):
            checks.append((stack_depth(), _code(pairs, B.universe_size)))
            return check(A, B, pairs)

        def counting(A, B):
            test = one_pair_test(A, B)

            def counted(a, b, code):
                assert code & _code(((a, b),), B.universe_size)
                checks.append((stack_depth(), code))
                return test(a, b, code)

            return counted

        monkeypatch.setattr(ef_games, "pairs_are_partial_iso", base_check)
        monkeypatch.setattr(ef_games, "_one_pair_test", counting)
        return checks

    def test_each_position_is_checked_once(self, checks):
        A = directed_cycle("A", (0, 1, 2, 3, 4))
        B = directed_cycle("B", (2, 4, 1, 0, 3))
        assert ef_equiv_oracle(A, B, 10)
        positions = [position for _, position in checks]
        assert 1 < len(positions) == len(set(positions))

    def test_rounds_beyond_the_universe_add_no_work(self, checks):
        C3 = directed_cycle("C3", (0, 1, 2))
        seen = []
        for m in (3, 5000):
            checks.clear()
            assert ef_equiv_oracle(C3, C3, m)
            seen.append((len(checks), max(depth for depth, _ in checks)))
        assert seen[0][0] > 1
        assert seen[0] == seen[1]


class TestInvariants:
    def random_structure(self, rng, name):
        size = rng.randint(1, 3)
        tuples = {
            (a, b)
            for a in range(size)
            for b in range(size)
            if rng.random() < 0.4
        }
        return Structure.build(
            name, size, POINTED, {"E": tuples}, {"c": rng.randrange(size)}
        )

    def test_symmetry_reflexivity_monotonicity(self):
        rng = random.Random(1023)
        for _ in range(10):
            A = self.random_structure(rng, "A")
            B = self.random_structure(rng, "B")
            answers = []
            for m in range(4):
                left = ef_equiv_derivative(A, B, m)[0]
                assert left == ef_equiv_derivative(B, A, m)[0]
                assert ef_equiv_derivative(A, A, m)[0]
                answers.append(left)
            # once lost, equivalence stays lost at deeper rounds
            for earlier, later in zip(answers, answers[1:]):
                assert earlier or not later

    def test_levels_are_decreasing(self):
        cat = build_category_D(pure("A", 2), pure("B", 3))
        levels = derivative_levels(cat, 4)
        assert len(levels) == 5
        for bigger, smaller in zip(levels, levels[1:]):
            assert smaller <= bigger

    def test_general_survivor_query(self):
        A, B = pure("A", 2), pure("B", 3)
        cat = build_category_D(A, B)
        self_maps = surviving_maps(cat, 2, A, A)
        assert all(p.left == A and p.right == A for p in self_maps)
        assert any(p.pairs == ((0, 0), (1, 1)) for p in self_maps)
        cross = surviving_maps(cat, 3, A, B)
        assert cross == ()


class TestCertificates:
    def test_levels_are_derivative_intersections(self):
        A, B = pure("A", 2), pure("B", 2)
        cat = build_category_D(A, B)
        cert = extract_certificate(A, B, 2, category=cat)
        assert cert is not None
        levels = derivative_levels(cat, 2)
        part = cat.part(A, B)
        for j, level in enumerate(cert.levels):
            expected = {cat.morphisms[i] for i in part if i in levels[j]}
            assert level == frozenset(expected)
        assert len(cert.levels[0]) == part_count(2, 2)

    def test_extracted_certificates_verify(self):
        pairs = [
            (pure("A", 2), pure("B", 2), 2),
            (pure("A", 2), pure("B", 3), 2),
            (chain("A", 2), chain("B", 3), 1),
            (chain("A", 3), chain("B", 3), 3),
        ]
        for A, B, m in pairs:
            cert = extract_certificate(A, B, m)
            assert cert is not None
            assert verify_certificate(cert).ok

    def test_absent_when_not_equivalent(self):
        assert extract_certificate(chain("A", 2), chain("B", 3), 2) is None
        assert extract_certificate(pure("A", 2), pure("B", 3), 3) is None

    def test_identity_levels_verify_for_equal_structures(self):
        A = chain("A", 2)
        ident = ((0, 0), (1, 1))
        cert = BackAndForthCertificate(A, A, 3, tuple([frozenset({ident})] * 4))
        assert verify_certificate(cert).ok

    def test_equal_levels_build_one_cover(self, monkeypatch):
        # pure 3v3 is stable from level 0: five equal levels, one index
        # of I_0 that every lookup of the check reads
        sets = []
        real = ef_games._least_unextended

        def counted(code, maps, sources, targets):
            sets.append(maps)
            return real(code, maps, sources, targets)

        cert = extract_certificate(pure("A", 3), pure("B", 3), 4)
        monkeypatch.setattr(ef_games, "_least_unextended", counted)
        assert len(set(cert.levels)) == 1
        assert verify_certificate(cert).ok
        assert len({id(maps) for maps in sets}) == 1

    def test_repeated_level_pairs_are_scanned_once(self, monkeypatch):
        # pure 3v3 at m=4: four equal level pairs, one forth and back scan
        calls = []
        real = ef_games._least_unextended

        def counted(code, maps, sources, targets):
            calls.append(code)
            return real(code, maps, sources, targets)

        cert = extract_certificate(pure("A", 3), pure("B", 3), 4)
        monkeypatch.setattr(ef_games, "_least_unextended", counted)
        assert len(set(cert.levels)) == 1
        assert verify_certificate(cert).ok
        assert len(calls) == len(cert.levels[0])

    def test_one_index_per_distinct_level_pair(self, monkeypatch):
        # pure 3v3 at m=4 is stable from level 0: one index, of I_0, and
        # one lookup per member of I_1.  Levels I_0, I_1, I_1, I_1, {f} of
        # chain 3v3 scan three distinct level pairs but index two levels:
        # the pair (I_1, {f}) reads the index of (I_1, I_1)
        builds, lookups = [], []
        real_index, real_lookup = ef_games._extended_at, ef_games._least_unextended

        def index(codes, sources, targets):
            codes = list(codes)
            builds.append(len(codes))
            return real_index(codes, sources, targets)

        def lookup(code, at, sources, targets):
            lookups.append(code)
            return real_lookup(code, at, sources, targets)

        monkeypatch.setattr(ef_games, "_extended_at", index)
        monkeypatch.setattr(ef_games, "_least_unextended", lookup)
        cert = extract_certificate(pure("A", 3), pure("B", 3), 4)
        builds.clear()
        lookups.clear()
        assert verify_certificate(cert).ok
        assert builds == [len(cert.levels[0])]
        assert len(lookups) == len(cert.levels[1])

        A, B = chain("A", 3), chain("B", 3)
        cert = extract_certificate(A, B, 1)
        stable = cert.levels[1]
        levels = (cert.levels[0], stable, stable, stable, frozenset({max(stable)}))
        builds.clear()
        lookups.clear()
        assert verify_certificate(BackAndForthCertificate(A, B, 4, levels)).ok
        assert builds == [len(cert.levels[0]), len(stable)]
        assert len(lookups) == 2 * len(stable) + 1

    def test_each_chain_step_builds_one_index(self, monkeypatch):
        # directed C4 vs C5 shrinks 81 -> 21 -> 1 -> 0 maps, and a fourth
        # step finds the empty level stable; every step indexes the level
        # it steps once and looks each of its members up once
        builds, lookups = [], []
        real_index, real_lookup = ef_games._extended_at, ef_games._least_unextended

        def index(codes, sources, targets):
            at = real_index(list(codes), sources, targets)
            builds.append(at)
            return at

        def lookup(code, at, sources, targets):
            lookups.append(at)
            return real_lookup(code, at, sources, targets)

        monkeypatch.setattr(ef_games, "_extended_at", index)
        monkeypatch.setattr(ef_games, "_least_unextended", lookup)
        A, B = directed_cycle("A", range(4)), directed_cycle("B", range(5))
        category = build_category_D(A, B)
        levels = homset_levels(category, 6, A, B)
        stepped = [level for j, level in enumerate(levels) if j == 0 or levels[j - 1] != level]
        assert len(builds) == len(stepped) >= 3
        assert [sum(at is built for at in lookups) for built in builds] == list(map(len, stepped))

    @pytest.mark.parametrize("member", [
        PartialIso(pure("A", 2), pure("B", 2), ((0, 0),)),
        "ab",
        ((0,),),
        ((0, 0), (1, 1, 1)),
    ], ids=["partial-iso", "string", "one-tuple", "triple"])
    def test_member_of_another_shape_rejected(self, member):
        # a member that is no tuple of 2-tuples of ints is reported as a
        # membership violation, before any of its pairs is read
        A, B = pure("A", 2), pure("B", 2)
        cert = extract_certificate(A, B, 1)
        for j in (0, 1):
            levels = list(cert.levels)
            levels[j] = levels[j] | {member}
            report = verify_certificate(BackAndForthCertificate(A, B, 1, tuple(levels)))
            assert (report.axiom, report.witness) == ("membership", (j, member))

    def test_member_equal_to_a_checked_one_is_still_shape_tested(self):
        # ((0.0, 0),) equals the map ((0, 0),) of I_0 by value, but its
        # source is a float: it is rejected in I_1 as it would be in I_0
        A, B = pure("A", 2), pure("B", 3)
        cert = extract_certificate(A, B, 2)
        member = ((0.0, 0),)
        for j in (0, 1):
            levels = list(cert.levels)
            levels[j] = levels[j] - {((0, 0),)} | {member}
            assert len(set(levels)) == 3
            report = verify_certificate(BackAndForthCertificate(A, B, 2, tuple(levels)))
            assert (report.axiom, report.witness) == ("membership", (j, member))

    def test_members_below_a_checked_member_are_proven(self, monkeypatch):
        # pure 3v3: every one of the 34 maps is a restriction of one of
        # the 6 bijections, so only the bijections read the relations
        checked = []
        check = ef_games.pairs_are_partial_iso

        def counting(A, B, pairs):
            checked.append(pairs)
            return check(A, B, pairs)

        cert = extract_certificate(pure("A", 3), pure("B", 3), 1)
        monkeypatch.setattr(ef_games, "pairs_are_partial_iso", counting)
        assert len(cert.levels[0]) == 34
        assert verify_certificate(cert).ok
        assert sorted(checked) == sorted(f for f in cert.levels[0] if len(f) == 3)
        assert len(checked) == 6

    def test_dropping_a_constant_pair_proves_nothing(self):
        # c is 0 on both sides: ((1, 1),) is ((0, 0), (1, 1)) without the
        # constant pair, so it is checked, and fails, as any other member
        V = Vocabulary(constants=("c",))
        A = Structure.build("A", 2, V, constants={"c": 0})
        B = Structure.build("B", 2, V, constants={"c": 0})
        cert = extract_certificate(A, B, 1)
        assert cert.levels[0] == {((0, 0),), ((0, 0), (1, 1))}
        assert verify_certificate(cert).ok
        levels = (cert.levels[0] | {((1, 1),)}, cert.levels[1])
        mutated = BackAndForthCertificate(A, B, 1, levels)
        report = verify_certificate(mutated)
        assert (report.axiom, report.witness) == ("membership", (0, ((1, 1),)))
        assert report == verify_certificate_by_one_point(mutated)

    def test_repeated_levels_are_matched_by_identity(self):
        # the tail past the fixpoint repeats one level object, so a longer
        # tail costs no more set comparisons
        def comparisons(rounds):
            calls = 0

            class Counted(frozenset):
                __hash__ = frozenset.__hash__

                def __eq__(self, other):
                    nonlocal calls
                    calls += 1
                    return frozenset.__eq__(self, other)

            A, B = chain("A", 3), chain("B", 3)
            cert = extract_certificate(A, B, 1)
            first, stable = Counted(cert.levels[0]), Counted(cert.levels[1])
            assert first != stable
            levels = (first,) + (stable,) * rounds
            assert verify_certificate(BackAndForthCertificate(A, B, rounds, levels)).ok
            return calls

        assert comparisons(2) == comparisons(200) <= 2

    def test_empty_level_rejected(self):
        A = pure("A", 1)
        cert = BackAndForthCertificate(A, A, 1, (frozenset({((0, 0),)}), frozenset()))
        report = verify_certificate(cert)
        assert report.axiom == "non-empty"
        assert report.witness == 1

    def test_non_iso_member_rejected(self):
        P = Vocabulary(relations=(("P", 1),))
        A = Structure.build("A", 1, P, {"P": [(0,)]})
        B = Structure.build("B", 1, P)
        bogus = ((0, 0),)
        cert = BackAndForthCertificate(A, B, 0, (frozenset({bogus}),))
        report = verify_certificate(cert)
        assert report.axiom == "membership"

    def test_missing_extension_rejected(self):
        A, B = pure("A", 2), pure("B", 2)
        cert = extract_certificate(A, B, 1)
        # strip every proper extension of the empty map from level 0
        slim = frozenset({()})
        broken = BackAndForthCertificate(A, B, 1, (slim, cert.levels[1]))
        report = verify_certificate(broken)
        assert report.axiom in ("forth", "back")
        assert report.witness is not None

    def test_cover_must_come_from_extensions(self):
        # (1,1) covers element 1 but does not extend (0,0)
        A, B = pure("A", 2), pure("B", 2)
        low, other = ((0, 0),), ((1, 1),)
        cert = BackAndForthCertificate(A, B, 1, (frozenset({low, other}), frozenset({low})))
        report = verify_certificate(cert)
        assert report.axiom == "forth"
        assert report.witness == (0, 1, ((0, 0),))

    def test_extensions_are_one_point(self):
        # levels that are not closed under restriction: the identity above
        # the map covers A and B, but a one-point extension is missing
        # (for (0,0), the map itself); only the restriction-cover scan passes
        A, B = pure("A", 2), pure("B", 2)
        empty, low, ident = (), ((0, 0),), ((0, 0), (1, 1))
        for f in (empty, low):
            cert = BackAndForthCertificate(A, B, 1, (frozenset({empty, ident}), frozenset({f})))
            report = verify_certificate(cert)
            assert report == verify_certificate_by_one_point(cert)
            assert (report.axiom, report.witness) == ("forth", (0, 0, f))
            assert verify_certificate_by_extensions(cert).ok

    def test_back_names_the_least_missed_element(self):
        # (0,0) covers all of A but reaches neither 1 nor 2 in B
        A, B = pure("A", 1), pure("B", 3)
        f = ((0, 0),)
        cert = BackAndForthCertificate(A, B, 1, (frozenset({f}), frozenset({f})))
        report = verify_certificate(cert)
        assert report == verify_certificate_by_extensions(cert)
        assert (report.axiom, report.witness) == ("back", (0, 1, ((0, 0),)))

    @pytest.mark.parametrize("member", [
        ((1, 1), (0, 0)),  # unsorted
        ((0, 0), (0, 0)),  # a repeated pair
        ((0, 0), (2, 1)),  # a source outside A
        ((0, 0), (1, 2)),  # a target outside B
    ], ids=["unsorted", "repeated", "source", "target"])
    def test_malformed_member_rejected(self, member):
        # every member must be a strictly sorted tuple of pairs inside
        # the universes; the rest of the level is sound
        A, B = pure("A", 2), pure("B", 2)
        cert = extract_certificate(A, B, 1)
        for j in (0, 1):
            levels = list(cert.levels)
            levels[j] = levels[j] | {member}
            mutated = BackAndForthCertificate(A, B, 1, tuple(levels))
            report = verify_certificate(mutated)
            assert (report.axiom, report.witness) == ("membership", (j, member))
            assert report == verify_certificate_by_one_point(mutated)

    def test_mismatched_level_count(self):
        A = pure("A", 1)
        with pytest.raises(InputError):
            BackAndForthCertificate(A, A, 2, (frozenset(),))

    def test_format_is_deterministic(self):
        A, B = pure("A", 2), pure("B", 2)
        first = format_certificate(extract_certificate(A, B, 2))
        second = format_certificate(extract_certificate(A, B, 2))
        assert first == second
        assert first.startswith("certificate\nleft A\nright B\nrounds 2\n")
        assert "level 0" in first and "level 2" in first

    def test_format_renders_empty_map_bare(self):
        A, B = pure("A", 1), pure("B", 2)
        cert = extract_certificate(A, B, 0)
        assert "\n  map\n" in format_certificate(cert)

    def test_a_level_equal_to_the_one_before_is_checked_alone(self):
        # I_1 equals I_0 by value but is another object, and its map
        # ((0.0, 0),) has a float source: a membership violation at index
        # 1, as in a fresh check and in a check of that level alone
        A, B = pure("A", 1), pure("B", 1)
        levels = (frozenset({(), ((0, 0),)}), frozenset({(), ((0.0, 0),)}))
        assert levels[0] == levels[1]
        cert = BackAndForthCertificate(A, B, 1, levels)
        report = verify_certificate(cert)
        assert (report.axiom, report.witness) == ("membership", (1, ((0.0, 0),)))
        with mock.patch.object(ef_games, "_proved", None):
            assert verify_certificate(cert) == report
            alone = verify_certificate(BackAndForthCertificate(A, B, 0, levels[1:]))
        assert (alone.axiom, alone.witness) == ("membership", (0, ((0.0, 0),)))
        assert report == verify_certificate_by_one_point(cert)

    def test_a_level_equal_to_the_one_before_is_rendered_alone(self):
        # only the very object before a level shares its text
        A, B = pure("A", 1), pure("B", 1)
        levels = (frozenset({(), ((0, 0),)}), frozenset({(), ((0.0, 0),)}))
        text = format_certificate(BackAndForthCertificate(A, B, 1, levels))
        assert text.endswith("level 0\n  map\n  map (0,0)\nlevel 1\n  map\n  map (0.0,0)\n")


class TestCertificateReference:
    """verify_certificate against the literal one-point scan, on the levels
    D^j ∩ Part(A,B) of generated pairs with one map dropped from or added
    to each level: the same verdict, axiom and witness.  A dropped map is
    sometimes one that the next level keeps, so f in I_{j+1} is missing
    from I_j while its one-point extensions stay there.  An added map is
    a partial isomorphism, or a strictly sorted tuple of pairs inside the
    universes that is none, so members proven from a checked superset and
    members that fail both meet the scan.  A certificate that passes also
    passes the looser restriction-cover scan."""

    @given(st.data())
    def test_mutated_certificates_get_the_reference_verdict(self, data):
        A, B = data.draw(structure_pairs())
        m = data.draw(st.integers(0, 3))
        cat = build_category_D(A, B)
        part = cat.part(A, B)
        # with Part(A,B) empty, an added empty map fails membership
        pool = sorted(cat.morphisms[i] for i in part) or [()]
        # strictly sorted tuples of at most three pairs inside the
        # universes that are no partial isomorphisms: never proven
        grid = list(product(range(A.universe_size), range(B.universe_size)))
        others = [f for k in range(4) for f in combinations(grid, k)
                  if not pairs_are_partial_iso(A, B, f)]
        clean = [{cat.morphisms[i] for i in part if i in members}
                 for members in derivative_levels(cat, m)]
        levels = []
        for j, level in enumerate(clean):
            level = set(level)
            kept_next = sorted(level & clean[j + 1]) if j < m else []
            move = data.draw(st.sampled_from(("drop", "add", "drop-kept", "add-other")))
            if move == "drop-kept" and kept_next:
                level.remove(data.draw(st.sampled_from(kept_next)))
            elif move == "add-other" and others:
                level.add(data.draw(st.sampled_from(others)))
            elif move in ("drop", "drop-kept") and level:
                level.remove(data.draw(st.sampled_from(sorted(level))))
            else:
                level.add(data.draw(st.sampled_from(pool)))
            levels.append(frozenset(level))
        cert = BackAndForthCertificate(A, B, m, tuple(levels))
        report = verify_certificate(cert)
        assert report == verify_certificate_by_one_point(cert)
        if report.ok:
            assert verify_certificate_by_extensions(cert).ok


class TestCrossValidation:
    def test_seeded_pairs_agree(self):
        rng = random.Random(404)
        for _ in range(15):
            size_a, size_b = rng.randint(1, 3), rng.randint(1, 3)
            tuples_a = {
                (a, b)
                for a in range(size_a)
                for b in range(size_a)
                if rng.random() < 0.5
            }
            tuples_b = {
                (a, b)
                for a in range(size_b)
                for b in range(size_b)
                if rng.random() < 0.5
            }
            A = Structure.build("A", size_a, ORDER, {"L": tuples_a})
            B = Structure.build("B", size_b, ORDER, {"L": tuples_b})
            cat = build_category_D(A, B)
            for m in range(4):
                assert (
                    ef_equiv_derivative(A, B, m, category=cat)[0]
                    == ef_equiv_oracle(A, B, m)
                )


class TestGeneratedPairs:
    """Generated pairs with constants and relations of arity 1 to 3: the
    oracle, the naive recursion and the derivative agree, certificates
    verify, and relabelling or swapping the sides keeps the answer."""

    @given(structure_pairs(), st.integers(0, 3))
    def test_three_routes_agree(self, pair, m):
        A, B = pair
        expected = naive_win(A, B, frozenset(constant_pairs(A, B)), m)
        assert ef_equiv_oracle(A, B, m) == expected
        assert ef_equiv_derivative(A, B, m)[0] == expected

    @given(structure_pairs(), st.integers(0, 3))
    def test_extracted_certificates_verify(self, pair, m):
        A, B = pair
        cat = build_category_D(A, B)
        cert = extract_certificate(A, B, m, category=cat)
        assert (cert is not None) == ef_equiv_derivative(A, B, m, category=cat)[0]
        if cert is not None:
            assert verify_certificate(cert).ok

    @given(st.data())
    def test_relabelling_and_swapping_keep_the_answer(self, data):
        A, B = data.draw(structure_pairs())
        m = data.draw(st.integers(0, 3))
        A2 = relabel(A, data.draw(st.permutations(range(A.universe_size))), "A")
        B2 = relabel(B, data.draw(st.permutations(range(B.universe_size))), "B")
        answer = ef_equiv_oracle(A, B, m)
        for left, right in [(A2, B), (A, B2), (B, A)]:
            assert ef_equiv_oracle(left, right, m) == answer
            assert ef_equiv_derivative(left, right, m)[0] == answer


class TestUniverseFour:
    """Generated pairs of universe up to 4, where the naive recursion is
    too slow: each level D^j ∩ Part(A,B) equals the reference chain of
    ``reach_above`` on Part(A,B), and the oracle answers whether its last
    level is non-empty.  On every side pair, the chain started from one
    homset and the partial identities equals that homset's block of the
    chain on all of D."""

    @given(structure_pairs(max_universe=4), st.integers(0, 3))
    def test_levels_match_the_reach_above_chain(self, pair, m):
        A, B = pair
        cat = build_category_D(A, B)
        part = cat.part(A, B)
        full = derivative_levels(cat, m)
        levels = [
            frozenset(cat.morphisms[i] for i in part if i in members)
            for members in full
        ]
        reference = reach_above_chain(A, B, m)
        assert levels == reference
        assert ef_equiv_oracle(A, B, m) == bool(reference[-1])
        for X in (A, B):
            for Y in (A, B):
                block = frozenset(cat.part(X, Y))
                assert homset_levels(cat, m, X, Y) == tuple(
                    members & block for members in full
                )
                assert surviving_maps(cat, m, X, Y) == tuple(
                    PartialIso(X, Y, cat.morphisms[i]) for i in sorted(full[-1] & block)
                )


TERNARY = Vocabulary(relations=(("R", 3),), constants=("c",))


def directed_path(name, n):
    return Structure.build(name, n, DIGRAPH, {"E": [(i, i + 1) for i in range(n - 1)]})


class TestBeyondGeneratedSizes:
    """Universes of 4 and 5, which the generated pairs do not reach: on
    every side pair, each level of the homset chain, stepped by one-point
    extensions, is that homset's block of the paper's chain on all of D,
    level by level until both chains stop changing."""

    @pytest.mark.parametrize("pair", [
        (pure("S4", 4), pure("S5", 5)),
        (directed_cycle("C4", range(4)), directed_cycle("C5", range(5))),
        (directed_cycle("C5", range(5)), directed_path("P5", 5)),
        (
            Structure.build("T4", 4, TERNARY, {"R": [(0, 1, 2), (1, 2, 3), (3, 3, 1)]}, {"c": 0}),
            Structure.build(
                "T5", 5, TERNARY, {"R": [(0, 1, 2), (1, 2, 3), (2, 3, 4), (4, 4, 1)]}, {"c": 0}
            ),
        ),
    ], ids=["S4-S5", "C4-C5", "C5-P5", "ternary-4-5"])
    def test_homset_levels_are_blocks_of_the_whole_chain(self, pair):
        A, B = pair
        cat = build_category_D(A, B)
        m = A.universe_size + B.universe_size + 2
        full = derivative_levels(cat, m)
        assert full[-2] == full[-1]
        for X in (A, B):
            for Y in (A, B):
                block = frozenset(cat.part(X, Y))
                levels = homset_levels(cat, m, X, Y)
                assert levels[-2] == levels[-1]
                assert levels == tuple(members & block for members in full)


def readme_loop(A, B, rounds=4):
    """The README's library loop: the answer and the certificate for
    m = 0 .. rounds, each call building D from the structures alone."""
    return [
        (ef_equiv_derivative(A, B, m), extract_certificate(A, B, m))
        for m in range(rounds + 1)
    ]


class TestSharedCategory:
    """Repeated calls on the same two structure objects read one D and one
    homset chain per side pair, and give what a fresh D gives."""

    @given(structure_pairs())
    def test_loop_matches_fresh_categories(self, pair):
        A, B = pair
        for m, (answer, cert) in enumerate(readme_loop(A, B)):
            A2, B2 = replace(A), replace(B)
            fresh = build_category_D(A2, B2)
            assert ef_equiv_derivative(A2, B2, m, category=fresh) == answer
            assert extract_certificate(A2, B2, m, category=fresh) == cert

    @given(structure_pairs())
    def test_loop_enumerates_each_block_once(self, pair):
        A, B = pair
        calls = []
        real = ef_games.enumerate_partial_isos

        def counted(*args):
            calls.append(args[:2])
            return real(*args)

        with mock.patch.object(ef_games, "enumerate_partial_isos", counted):
            readme_loop(A, B)
            assert calls == [(A, B)]
            readme_loop(A, A)
            assert calls == [(A, B), (A, A)]

    def test_loop_reads_no_down_set_or_composition(self, monkeypatch):
        # the chains step by one-point extensions on pair tuples: the loop
        # calls no below, no compose and no categorical_derivative, on two
        # structures and on one structure against itself
        called = []
        for name in ("below", "compose"):
            monkeypatch.setattr(
                ef_games.PartialIsoAmbient, name,
                lambda self, *args, name=name: called.append(name),
            )
        monkeypatch.setattr(
            ef_games, "categorical_derivative",
            lambda *args, **kwargs: called.append("categorical_derivative"),
        )
        C = directed_cycle("C5", range(5))
        for A, B in [(chain("A", 3), chain("B", 4)), (pure("S3", 3), pure("S4", 4)), (C, C)]:
            for answer, cert in readme_loop(A, B):
                assert answer[0] == (cert is not None)
                assert cert is None or verify_certificate(cert).ok
        assert called == []

    def test_objects_found_without_comparing_maps(self, monkeypatch):
        # the identities are found by side and pairs, not by a linear
        # scan of PartialIso equality over the layout
        compared = []
        real = PartialIso.__eq__

        def counting(self, other):
            compared.append(other)
            return real(self, other)

        monkeypatch.setattr(PartialIso, "__eq__", counting)
        A, B = pure("S3", 3), pure("S4", 4)
        D = build_category_D(A, B)
        D.ambient  # builds all of D
        assert compared == []
        for S in (A, B):
            X = D.object_of(S)
            assert D.morphisms[X] == tuple((x, x) for x in range(S.universe_size))
            assert D.ambient.dom[X] == D.ambient.cod[X] == X

    @pytest.mark.parametrize("pair", [
        (pure("S3", 3), pure("S4", 4)),
        (directed_cycle("C5", range(5)), directed_path("P5", 5)),
    ], ids=["S3-S4", "C5-P5"])
    def test_maps_are_built_only_as_answers(self, pair, monkeypatch):
        # D holds codes, its chains indices and its certificates pair
        # tuples: the build, every chain, the table of D and a certificate
        # make no PartialIso, and the derivative makes one, its witness
        built, enumerated = [], []
        init, enumerate_isos = PartialIso.__init__, ef_games.enumerate_partial_isos

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        def counted(*args):
            found = enumerate_isos(*args)
            enumerated.append(len(found))
            return found

        monkeypatch.setattr(PartialIso, "__init__", counting)
        # Hom(A,B) is enumerated in the build, as codes
        monkeypatch.setattr(ef_games, "enumerate_partial_isos", counted)
        A, B = (replace(S) for S in pair)
        cat = build_category_D(A, B)
        for X in (A, B):
            for Y in (A, B):
                homset_levels(cat, 4, X, Y)
        cert = extract_certificate(A, B, 1, category=cat)
        assert cert is not None and verify_certificate(cert).ok
        cat.ambient
        assert built == [] and enumerated == [len(cat.forth)] and cat.forth
        equivalent, witness = ef_equiv_derivative(A, B, 1, category=cat)
        assert equivalent and built == [(A, B, witness.pairs)]

    def test_only_the_latest_category_is_kept(self):
        A, B = pure("A", 3), pure("B", 3)
        readme_loop(A, B)
        first = weakref.ref(build_category_D(A, B))
        assert build_category_D(A, B) is first()
        # equal copies are another pair: the first D is dropped before the
        # cross block of the new one is enumerated, so two are never alive
        alive = []
        real = ef_games.enumerate_partial_isos

        def watching(*args):
            gc.collect()
            alive.append(first() is not None)
            return real(*args)

        A2, B2 = replace(A), replace(B)
        with mock.patch.object(ef_games, "enumerate_partial_isos", watching):
            assert build_category_D(A2, B2).left is A2
        assert alive == [False]

    def test_homset_levels_in_any_order_match_a_fresh_category(self):
        # L4/L5 stabilizes at index 3, so (1, 2, 0, 9) resumes a chain
        # that is not yet stable and (6, 2, 9) slices and pads a stable one;
        # each answer is compared with a D built anew from equal copies
        for A, B in [(chain("A", 4), chain("B", 5)), (pure("A", 2), pure("B", 3))]:
            for order in [(6, 2, 9), (1, 2, 0, 9)]:
                cat = build_category_D(replace(A), replace(B))
                for m in order:
                    for X in (A, B):
                        for Y in (A, B):
                            fresh = build_category_D(replace(A), replace(B))
                            assert homset_levels(cat, m, X, Y) == homset_levels(
                                fresh, m, X, Y
                            )

    def test_chain_stops_at_its_fixpoint(self):
        C = directed_cycle("C3", [0, 1, 2])
        cat = build_category_D(C, C)
        levels = homset_levels(cat, 3000, C, C)
        assert len(levels) == 3001
        stabilized = next(j for j in range(3000) if levels[j] == levels[j + 1])
        assert len(ef_games._homset_chain(cat, C, C).levels) <= stabilized + 1

    def test_derivative_levels_step_one_chain_for_every_m(self):
        # m = 0..6 on all of D for L4/L5 reads one chain, stepped once per
        # level up to the first step that changes nothing
        A, B = chain("A", 4), chain("B", 5)
        cat = build_category_D(A, B)
        stepped = []
        real = ef_games.categorical_derivative

        def counted(M):
            stepped.append(M)
            return real(M)

        with mock.patch.object(ef_games, "categorical_derivative", counted):
            answers = [derivative_levels(cat, m) for m in range(7)]
        levels = answers[-1]
        stabilized = next(j for j in range(6) if levels[j] == levels[j + 1])
        assert len(stepped) <= stabilized + 1
        assert all(answer == levels[: m + 1] for m, answer in enumerate(answers))


POINTED_TERNARY = Vocabulary(relations=(("E", 2), ("T", 3)), constants=("c",))


@st.composite
def pointed_pairs(draw):
    A = draw(structures_over(POINTED_TERNARY, "A", max_universe=4))
    if draw(st.booleans()):
        return A, draw(agreeing_on_constants(A, "B", max_universe=4))
    return A, draw(structures_over(POINTED_TERNARY, "B", max_universe=4))


class TestBackIsForthInverted:
    @given(pointed_pairs(), st.integers(min_value=0, max_value=4))
    def test_hom_b_a_levels_are_the_inverted_hom_a_b_levels(self, pair, m):
        # the ef path builds no Hom(B,A): its chain is Hom(A,B)'s, inverted
        A, B = pair
        cat = build_category_D(A, B)
        forth = homset_levels(cat, m, A, B)
        back = homset_levels(cat, m, B, A)
        for there, here in zip(forth, back, strict=True):
            inverted = {tuple(sorted((b, a) for a, b in cat.morphisms[i])) for i in there}
            assert {cat.morphisms[i] for i in here} == inverted

    def test_derivative_on_the_category_of_the_reversed_pair(self):
        # in the D of (B, A), Hom(A,B) is the second block: the witness
        # is read from the block its chain steps on, not from forth
        A, B = directed_cycle("C3", (0, 1, 2)), directed_cycle("R3", (0, 2, 1))
        reversed_D = build_category_D(B, A)
        for m in range(4):
            answer = ef_equiv_derivative(A, B, m, category=reversed_D)
            assert answer == ef_equiv_derivative(A, B, m, category=build_category_D(A, B))
            assert answer[0]
            assert extract_certificate(A, B, m, category=reversed_D) == extract_certificate(A, B, m)


class TestHomsetBlocks:
    """D is its homsets laid end to end: each is read from its own block,
    with no table of D, and the table lays out the same blocks."""

    @pytest.fixture
    def enumerated(self, monkeypatch):
        # the build's Hom(A,B) and every endoset are grown by the one
        # growth loop: only the endosets (X is Y) are counted here
        found = []
        real = structures._partial_iso_codes

        def counting(X, Y):
            if X is Y:
                found.append((X.name, Y.name))
            return real(X, Y)

        def unread(category):
            raise AssertionError("the table of D was built")

        monkeypatch.setattr(structures, "_partial_iso_codes", counting)
        monkeypatch.setattr(ef_games, "_tables", unread)
        return found

    def test_hom_b_a_enumerates_nothing(self, enumerated):
        A, B = pure("S3", 3), pure("S4", 4)
        D = build_category_D(A, B)
        levels = homset_levels(D, 3, B, A)
        survivors = surviving_maps(D, 3, B, A)
        assert D.part(B, A) == tuple(range(len(D.forth), 2 * len(D.forth)))
        assert enumerated == []
        back = {tuple(sorted((b, a) for a, b in p)) for p in D.hom(A, B)[1]}
        assert set(D.hom(B, A)[1]) == back
        assert len(levels) == 4 and levels[0] == frozenset(D.part(B, A))
        assert all(f.pairs in back for f in survivors)

    def test_end_a_enumerates_one_endoset(self, enumerated):
        A, B = pure("S3", 3), pure("S4", 4)
        D = build_category_D(A, B)
        homset_levels(D, 3, A, A)
        surviving_maps(D, 3, A, A)
        start, maps = D.hom(A, A)
        assert D.part(A, A) == tuple(range(start, start + part_count(3, 3)))
        assert start == 2 * part_count(3, 4)
        assert maps[D.object_a - start] == ((0, 0), (1, 1), (2, 2))
        assert enumerated == [("S3", "S3")]

    @pytest.mark.parametrize("pair", [
        (pure("S3", 3), pure("S4", 4)),
        (
            Structure.build("A", 4, POINTED, {"E": [(0, 1), (1, 2), (2, 3)]}, {"c": 0}),
            Structure.build("B", 3, POINTED, {"E": [(2, 1), (1, 0)]}, {"c": 2}),
        ),
    ], ids=["S3-S4", "pointed"])
    def test_endosets_and_the_table_build_no_partial_iso(self, pair, monkeypatch):
        # Hom(A,B) is codes, End(A) and End(B) the growth loop's codes
        # decoded: neither the build nor the table of D makes a PartialIso
        built = []
        init = PartialIso.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        A, B = (replace(S) for S in pair)
        monkeypatch.setattr(PartialIso, "__init__", counting)
        D = build_category_D(A, B)
        assert built == [] and len(D.forth) > 0
        ends = D.hom(A, A)[1], D.hom(B, B)[1]
        D.ambient
        assert built == []
        assert all(len(maps) > 1 for maps in ends)

    @given(structure_pairs())
    def test_blocks_are_the_homsets_of_the_table(self, pair):
        A, B = pair
        for left, right in [(A, B), (A, A), (A, replace(A))]:
            D = build_category_D(left, right)
            sides = (right, left)  # End(right) first: its offset needs no table
            blocks = {(X, Y): D.hom(X, Y) for X in sides for Y in sides}
            for (X, Y), (start, maps) in blocks.items():
                indices = D.part(X, Y)
                assert indices == free_categories.homset(
                    D.ambient, D.object_of(X), D.object_of(Y)
                )
                assert indices == tuple(range(start, start + len(maps)))
                assert maps == tuple(D.morphisms[i] for i in indices)


SETS = "structure S3\n  universe 3\n\nstructure S4\n  universe 4\n"
CYCLE_AND_PATH = (
    "vocabulary\n  relation E 2\n\n"
    "structure C5\n  universe 5\n  relation E (0,1) (1,2) (2,3) (3,4) (4,0)\n\n"
    "structure P5\n  universe 5\n  relation E (0,1) (1,2) (2,3) (3,4)\n"
)
POINTED_PAIR = (
    "vocabulary\n  relation E 2\n  constant c\n\n"
    "structure Q\n  universe 4\n  constant c 0\n  relation E (0,1) (1,2) (2,3) (3,0) (0,2)\n\n"
    "structure R\n  universe 4\n  constant c 0\n  relation E (0,1) (1,2) (2,3) (3,0) (2,0)\n"
)
# (file, rounds, derivative answer, witness pairs, sha256 prefix of the
# certificate text), recorded from a build of D with all its tables
ANSWERS = [
    (SETS, 0, True, ((0, 3), (1, 2), (2, 1)), "baa220c63c087b5d"),
    (SETS, 1, True, ((1, 3), (2, 2)), "2cf5460218b3db61"),
    (SETS, 2, True, ((2, 3),), "1105e9579f998ee9"),
    (SETS, 3, True, (), "fd385cdfbf9a0d1b"),
    (SETS, 4, False, None, None),
    (CYCLE_AND_PATH, 0, True, ((1, 1), (2, 2), (3, 3), (4, 4)), "c4c167d5eefa445b"),
    (CYCLE_AND_PATH, 1, True, ((2, 1), (3, 2), (4, 3)), "5d1c1e0ac6a12f9a"),
    (CYCLE_AND_PATH, 2, False, None, None),
    (CYCLE_AND_PATH, 3, False, None, None),
    (POINTED_PAIR, 0, True, ((0, 0), (2, 1), (3, 2)), "f4ce822c112e7fee"),
    (POINTED_PAIR, 1, True, ((0, 0),), "0dd1c96c08ab7023"),
    (POINTED_PAIR, 2, False, None, None),
    (POINTED_PAIR, 3, False, None, None),
]
ANSWER_IDS = [f"{parse_structures(text)[1][0].name}-m{m}" for text, m, *_ in ANSWERS]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestNoTablesOnTheEfPath:
    """The answer, its witness and its certificate read only Hom(A,B), the
    codes of ``forth``: with D's table builder made to raise
    they come out as they did with every table built."""

    @pytest.fixture(autouse=True)
    def no_tables(self, monkeypatch):
        def unread(category):
            raise AssertionError("the tables of D were built")

        monkeypatch.setattr(ef_games, "_tables", unread)
        monkeypatch.setattr(ef_games, "_latest", None)

    @pytest.mark.parametrize("text, m, answer, witness, certificate", ANSWERS, ids=ANSWER_IDS)
    def test_library_answers(self, text, m, answer, witness, certificate):
        _, (A, B) = parse_structures(text)
        equivalent, iso = ef_equiv_derivative(A, B, m)
        assert (equivalent, None if iso is None else iso.pairs) == (answer, witness)
        cert = extract_certificate(A, B, m)
        if certificate is None:
            assert cert is None
        else:
            assert digest(format_certificate(cert).encode()) == certificate
            assert verify_certificate(cert).ok

    @pytest.mark.parametrize("text, m, answer, witness, certificate", ANSWERS, ids=ANSWER_IDS)
    def test_cli_answers(self, text, m, answer, witness, certificate, tmp_path, capsys):
        _, (A, B) = parse_structures(text)
        path, written = tmp_path / "pair.txt", tmp_path / "cert.txt"
        path.write_text(text)
        code = cli.main([
            "ef", str(path), "--left", A.name, "--right", B.name,
            "--rounds", str(m), "--certificate", str(written),
        ])
        out, err = capsys.readouterr()
        truth = "true" if answer else "false"
        assert code == (0 if answer else 1)
        assert out == (
            f"equivalent: {truth}\nrounds: {m}\nmethod: derivative\noracle-agrees: true\n"
        )
        if certificate is None:
            assert err == f"no certificate: not equivalent at {m} rounds\n"
            assert not written.exists()
        else:
            assert err == ""
            assert digest(written.read_bytes()) == certificate


class TestUnhashableMembers:
    """A member that cannot be hashed, in a level given as a list, is no
    pair tuple: it is a membership violation like any member of another
    shape, never an error, and the least by ``repr`` is reported, as the
    reference's own shape rule reports it."""

    @pytest.mark.parametrize("member", [
        [(1, 1), (0, 0)],  # unsorted
        [(0, 0), (0, 0)],  # a repeated pair
        [(0, 2)],  # a target outside B
        [(2, 0)],  # a source outside A
    ], ids=["unsorted", "repeated", "target", "source"])
    def test_the_reference_verdict(self, member):
        # the one-point scan rejects these by shape too
        A, B = pure("A", 2), pure("B", 2)
        cert = extract_certificate(A, B, 1)
        for j in (0, 1):
            levels = list(cert.levels)
            levels[j] = [member]
            mutated = BackAndForthCertificate(A, B, 1, tuple(levels))
            report = verify_certificate(mutated)
            assert (report.axiom, report.witness) == ("membership", (j, member))
            assert report == verify_certificate_by_one_point(mutated)

    @pytest.mark.parametrize("member", [
        [(0, 0)],  # the pairs of a map, as a list
        {(0, 0)},
        ((0, 0), [1, 1]),
        [[0, 0]],
    ], ids=["list", "set", "list-pair", "list-of-lists"])
    def test_reported_among_valid_members(self, member):
        # a list of a map's pairs, or a level that mixes lists and tuples:
        # the check and the reference both reject the shape
        A, B = pure("A", 2), pure("B", 2)
        cert = extract_certificate(A, B, 1)
        for j in (0, 1):
            levels = list(cert.levels)
            levels[j] = [*sorted(levels[j]), member]
            mutated = BackAndForthCertificate(A, B, 1, tuple(levels))
            report = verify_certificate(mutated)
            assert (report.axiom, report.witness) == ("membership", (j, member))
            assert report == verify_certificate_by_one_point(mutated)
        alone = BackAndForthCertificate(A, B, 0, ([member],))
        report = verify_certificate(alone)
        assert (report.axiom, report.witness) == ("membership", (0, member))
        assert report == verify_certificate_by_one_point(alone)

    def test_least_by_repr_with_the_misshapen(self):
        A, B = pure("A", 2), pure("B", 2)
        for level, least in (([[(0, 0)], "ab"], "ab"), ([[(0, 0)], ((0, 0, 0),)], ((0, 0, 0),))):
            cert = BackAndForthCertificate(A, B, 0, (level,))
            report = verify_certificate(cert)
            assert (report.axiom, report.witness) == ("membership", (0, least))
            assert report == verify_certificate_by_one_point(cert)


def mutations(cert, data, others):
    """The certificate with one map of I_j that I_{j+1} keeps deleted
    from I_j, with a member that is no partial isomorphism added to a
    level, or with two neighbouring levels swapped; every level it does
    not change is the extracted object itself."""
    levels, m = list(cert.levels), cert.rounds
    move = data.draw(st.sampled_from(("drop-pivotal", "add-non-iso", "swap")))
    if move == "drop-pivotal" and m:
        j = data.draw(st.integers(0, m - 1))
        levels[j] = levels[j] - {data.draw(st.sampled_from(sorted(levels[j + 1])))}
    elif move == "add-non-iso" and others:
        j = data.draw(st.integers(0, m))
        levels[j] = levels[j] | {data.draw(st.sampled_from(others))}
    elif move == "swap" and m:
        j = data.draw(st.integers(0, m - 1))
        levels[j], levels[j + 1] = levels[j + 1], levels[j]
    return BackAndForthCertificate(cert.left, cert.right, m, tuple(levels))


def value_copy(cert, data):
    """The certificate with every level a new frozenset of new tuples,
    equal by value to the extracted one, so that the check meets no level
    by identity.  In one drawn level, if any, the least pair of one
    member may get a float source, which keeps the copy equal by value
    but makes that member misshapen."""
    spoiled = data.draw(st.one_of(st.none(), st.integers(0, cert.rounds)))
    levels = []
    for j, level in enumerate(cert.levels):
        members = [tuple([tuple([a, b]) for a, b in f]) for f in level]
        nonempty = sorted(f for f in members if f)
        if j == spoiled and nonempty:
            f = data.draw(st.sampled_from(nonempty))
            (a, b), *rest = f
            members[members.index(f)] = ((float(a), b), *rest)
        levels.append(frozenset(members))
    return BackAndForthCertificate(cert.left, cert.right, cert.rounds, tuple(levels))


class TestCheckAcrossCalls:
    """``verify_certificate`` keeps what it proved about its latest pair:
    in the distinguishing-depth loop every verdict is a fresh check's,
    the loop does the work of one check at its largest m, and only the
    latest certificate's levels are held."""

    @given(st.data())
    def test_loop_verdicts_are_fresh_verdicts(self, data):
        A, B = data.draw(structure_pairs())
        grid = list(product(range(A.universe_size), range(B.universe_size)))
        others = [f for k in range(4) for f in combinations(grid, k)
                  if not pairs_are_partial_iso(A, B, f)]
        for m in range(data.draw(st.integers(0, 3)) + 1):
            cert = extract_certificate(A, B, m)
            if cert is None:
                break
            # the certificate as extracted first, so that its levels and
            # level pairs are held when the mutated ones meet them
            for checked in [cert] + [mutations(cert, data, others)
                                     for _ in range(data.draw(st.integers(1, 3)))]:
                report = verify_certificate(checked)
                with mock.patch.object(ef_games, "_proved", None):
                    assert report == verify_certificate(checked)
                assert report == verify_certificate_by_one_point(checked)

    @given(st.data())
    def test_value_equal_copies_get_fresh_verdicts(self, data):
        # no level of a copy is met by identity, so every member of every
        # level is shape-tested and looked up by value; the codes kept
        # stay at most one per map of Part(A,B)
        A, B = data.draw(structure_pairs())
        with mock.patch.object(ef_games, "_proved", None):
            for m in range(data.draw(st.integers(0, 3)) + 1):
                cert = extract_certificate(A, B, m)
                if cert is None:
                    break
                for _ in range(2):
                    copy = value_copy(cert, data)
                    report = verify_certificate(copy)
                    with mock.patch.object(ef_games, "_proved", None):
                        assert report == verify_certificate(copy)
                    assert report == verify_certificate_by_one_point(copy)
            proved = ef_games._proved
            assert proved is None or len(proved.valid) <= len(build_category_D(A, B).forth)

    @pytest.mark.parametrize("A, B", [
        (pure("A", 4), pure("B", 5)),
        (chain("A", 3), chain("B", 3)),
        (directed_cycle("A", range(5)), directed_cycle("B", (2, 4, 1, 0, 3))),
    ], ids=["pure-4v5", "chain-3v3", "cycles"])
    def test_the_loop_does_one_check_of_work(self, A, B, monkeypatch):
        # the chain steps index their levels too: only the checks count
        calls = {"pairs_are_partial_iso": 0, "_extended_at": 0}

        def counted(name):
            real = getattr(ef_games, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(ef_games, name, call)

        def checked(certs):
            before = dict(calls)
            for cert in certs:
                assert verify_certificate(cert).ok
            return {name: calls[name] - before[name] for name in calls}

        for name in calls:
            counted(name)
        monkeypatch.setattr(ef_games, "_proved", None)
        looped = [checked([extract_certificate(A, B, m)]) for m in range(5)]
        monkeypatch.setattr(ef_games, "_proved", None)
        fresh = checked([extract_certificate(A, B, 4)])
        assert {name: sum(step[name] for step in looped) for name in calls} == fresh
        assert fresh["_extended_at"] >= 1 and fresh["pairs_are_partial_iso"] >= 1

    def test_a_failed_check_costs_no_work_afterwards(self, monkeypatch):
        # pure 3v4: a copy of the m=1 certificate whose I_0 lacks the
        # largest map of I_1 fails forth between m=1 and m=2, and the check
        # of m=2 then does what it does straight after m=1
        calls = {"pairs_are_partial_iso": 0, "_extended_at": 0}

        def counted(name):
            real = getattr(ef_games, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(ef_games, name, call)

        def checked(cert):
            before = dict(calls)
            report = verify_certificate(cert)
            return report, {name: calls[name] - before[name] for name in calls}

        for name in calls:
            counted(name)
        A, B = pure("A", 3), pure("B", 4)
        first, second = extract_certificate(A, B, 1), extract_certificate(A, B, 2)
        dropped = (first.levels[0] - {max(first.levels[1])}, first.levels[1])
        monkeypatch.setattr(ef_games, "_proved", None)
        assert verify_certificate(first).ok
        report, _ = checked(BackAndForthCertificate(A, B, 1, dropped))
        assert report.axiom == "forth"
        after_failure = checked(second)
        monkeypatch.setattr(ef_games, "_proved", None)
        assert verify_certificate(first).ok
        straight = checked(second)
        assert after_failure == straight
        assert straight[0].ok and straight[1]["_extended_at"] == 1

    def test_no_member_is_hashed(self):
        # each level rebuilt as a tuple, which is not held by identity, of
        # members that raise when hashed: every member is read and proven
        # by its code, with the verdict of the extracted certificate, and
        # so is a copy with a member of I_1 dropped from I_0
        class Member(tuple):
            def __hash__(self):
                raise AssertionError("a member was hashed")

        def rebuilt(cert, levels):
            levels = tuple(tuple(Member(f) for f in sorted(level)) for level in levels)
            return BackAndForthCertificate(cert.left, cert.right, cert.rounds, levels)

        image = (1, 2, 0)
        A = Structure.build("A", 3, POINTED, {"E": [(i, (i + 1) % 3) for i in range(3)]}, {"c": 0})
        B = Structure.build("B", 3, POINTED, {"E": [(image[i], image[(i + 1) % 3]) for i in range(3)]},
                            {"c": image[0]})
        for m in range(3):
            cert = extract_certificate(A, B, m)
            variants = [cert.levels]
            if m:
                dropped = cert.levels[0] - {max(cert.levels[1])}
                variants.append((dropped, *cert.levels[1:]))
            for levels in variants:
                with mock.patch.object(ef_games, "_proved", None):
                    expected = verify_certificate(BackAndForthCertificate(A, B, m, levels))
                    assert verify_certificate(rebuilt(cert, levels)) == expected
            assert verify_certificate(rebuilt(cert, cert.levels)).ok

    def test_certificates_of_one_pair_share_their_levels(self):
        A, B = pure("A", 3), pure("B", 4)
        short, long = extract_certificate(A, B, 2), extract_certificate(A, B, 3)
        assert all(a is b for a, b in zip(short.levels, long.levels))

    def test_only_the_latest_levels_are_held(self, monkeypatch):
        # levels are looked up by identity: one that hashes raises
        class Level(frozenset):
            def __hash__(self):
                raise AssertionError("a level was hashed")

        def copied(cert):
            # new level objects, a repeated level still one object
            new = {id(level): Level(level) for level in cert.levels}
            levels = tuple(new[id(level)] for level in cert.levels)
            return BackAndForthCertificate(cert.left, cert.right, cert.rounds, levels)

        def alive(refs):
            gc.collect()
            return [r for r in refs if r() is not None]

        monkeypatch.setattr(ef_games, "_proved", None)
        A, B = pure("A", 3), pure("B", 4)
        first = copied(extract_certificate(A, B, 3))
        assert verify_certificate(first).ok
        old = [weakref.ref(level) for level in first.levels]
        del first
        assert len(alive(old)) == 4  # the check holds them
        second = copied(extract_certificate(A, B, 3))
        assert verify_certificate(second).ok
        assert alive(old) == []
        new = [weakref.ref(level) for level in second.levels]
        del second
        assert verify_certificate(extract_certificate(pure("A", 2), pure("B", 2), 1)).ok
        assert alive(new) == []
