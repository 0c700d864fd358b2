"""Relational structures, the text format, and partial isomorphisms."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from generated import directed_graphs, structure_pairs, structures_over

from modeloids import ef_games, structures
from modeloids.codes import _code, _decoded
from modeloids.ef_games import ef_equiv_oracle
from modeloids.errors import BoundExceededError, InputError, ParseError
from modeloids.partial_bijections import Carrier, enumerate_all
from modeloids.structures import (
    PartialIso,
    Structure,
    Vocabulary,
    constant_pairs,
    constants_only_iso,
    enumerate_partial_isos,
    format_structures,
    identity_iso,
    is_partial_iso,
    pairs_are_partial_iso,
    parse_structures,
)

EMPTY = Vocabulary()
GRAPH = Vocabulary(relations=(("E", 2),), constants=("c",))

GOLDEN = """\
# a vocabulary and two structures
vocabulary
  relation E 2
  constant c

structure A
  universe 3
  constant c 0
  relation E (0,1) (1,2)

structure B
  universe 2
  constant c 1
  relation E (1,0)
"""


def oracle_partial_isos(A, B):
    """Literal enumeration: every injective partial map, filtered by a
    from-scratch preservation check."""
    found = set()
    elems_a, elems_b = range(A.universe_size), range(B.universe_size)
    const = set(zip(A.constants, B.constants))
    for size in range(min(A.universe_size, B.universe_size) + 1):
        for sources in itertools.combinations(elems_a, size):
            for targets in itertools.permutations(elems_b, size):
                pairs = set(zip(sources, targets))
                if not const <= pairs:
                    continue
                fwd = dict(pairs)
                ok = True
                for (name, arity), ra, rb in zip(
                    A.vocabulary.relations, A.relations, B.relations
                ):
                    for combo in itertools.product(sources, repeat=arity):
                        if (combo in ra) != (tuple(fwd[x] for x in combo) in rb):
                            ok = False
                if ok:
                    found.add(frozenset(pairs))
    return found


class TestVocabulary:
    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            Vocabulary(relations=(("R", 1),), constants=("R",))

    def test_zero_arity_rejected(self):
        with pytest.raises(InputError):
            Vocabulary(relations=(("R", 0),))

    def test_lookup(self):
        assert GRAPH.relation_index("E") == 0
        assert GRAPH.constant_index("c") == 0
        with pytest.raises(InputError):
            GRAPH.relation_index("F")


class TestStructure:
    def test_build(self):
        A = Structure.build("A", 3, GRAPH, {"E": [(0, 1)]}, {"c": 2})
        assert A.relation("E") == frozenset({(0, 1)})
        assert A.constant("c") == 2

    def test_wrong_arity(self):
        with pytest.raises(InputError):
            Structure.build("A", 3, GRAPH, {"E": [(0, 1, 2)]}, {"c": 0})

    def test_tuple_out_of_range(self):
        with pytest.raises(InputError):
            Structure.build("A", 2, GRAPH, {"E": [(0, 2)]}, {"c": 0})

    def test_missing_constant(self):
        with pytest.raises(InputError):
            Structure.build("A", 2, GRAPH, {"E": []})

    def test_constant_out_of_range(self):
        with pytest.raises(InputError):
            Structure.build("A", 2, GRAPH, constants={"c": 5})

    def test_empty_universe_rejected(self):
        with pytest.raises(InputError):
            Structure.build("A", 0, EMPTY)


class TestParsing:
    def test_golden_file(self):
        vocabulary, structures = parse_structures(GOLDEN)
        assert vocabulary == GRAPH
        A, B = structures
        assert A.name == "A" and A.universe_size == 3
        assert A.relation("E") == frozenset({(0, 1), (1, 2)})
        assert A.constant("c") == 0
        assert B.constant("c") == 1

    def test_no_vocabulary_block(self):
        vocabulary, (A,) = parse_structures("structure A\n  universe 2\n")
        assert vocabulary == EMPTY
        assert A.universe_size == 2

    def test_round_trip_of_golden(self):
        vocabulary, structures = parse_structures(GOLDEN)
        printed = format_structures(vocabulary, structures)
        assert parse_structures(printed) == (vocabulary, structures)

    def test_uninterpreted_constant(self):
        text = "vocabulary\n constant c\nstructure A\n universe 1\n"
        with pytest.raises(ParseError) as err:
            parse_structures(text)
        assert "uninterpreted" in str(err.value)
        assert "c" in str(err.value)

    def test_unknown_relation_carries_position(self):
        text = "structure A\n universe 2\n relation E (0,1)\n"
        with pytest.raises(ParseError) as err:
            parse_structures(text)
        assert err.value.line == 3
        assert "unknown relation" in str(err.value)

    def test_bad_tuple_reports_column(self):
        text = "vocabulary\n relation E 2\nstructure A\n universe 2\n relation E (0;1)\n"
        with pytest.raises(ParseError) as err:
            parse_structures(text)
        assert err.value.line == 5
        assert err.value.column is not None

    def test_arity_mismatch(self):
        text = "vocabulary\n relation E 2\nstructure A\n universe 2\n relation E (0,1,0)\n"
        with pytest.raises(ParseError) as err:
            parse_structures(text)
        assert "arity" in str(err.value)

    def test_duplicate_structure_name(self):
        text = "structure A\n universe 1\nstructure A\n universe 1\n"
        with pytest.raises(ParseError) as err:
            parse_structures(text)
        assert "duplicate" in str(err.value)

    def test_vocabulary_after_structures_rejected(self):
        text = "structure A\n universe 1\nvocabulary\n"
        with pytest.raises(ParseError):
            parse_structures(text)

    def test_element_outside_universe(self):
        text = "vocabulary\n constant c\nstructure A\n universe 2\n constant c 5\n"
        with pytest.raises(ParseError) as err:
            parse_structures(text)
        assert err.value.line == 5

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# lead\nstructure A # trailing\n\n  universe 1\n#tail\n"
        _, (A,) = parse_structures(text)
        assert A.name == "A"


class TestFormatRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_parse_inverts_format(self, data):
        vocabulary = data.draw(
            st.sampled_from(
                [
                    EMPTY,
                    GRAPH,
                    Vocabulary(relations=(("P", 1), ("E", 2))),
                    Vocabulary(constants=("c", "d")),
                ]
            )
        )
        A = data.draw(structures_over(vocabulary, "A"))
        B = data.draw(structures_over(vocabulary, "B"))
        printed = format_structures(vocabulary, (A, B))
        assert parse_structures(printed) == (vocabulary, (A, B))


class TestPartialIsoChecks:
    def test_constants_only_map_between_agreeing_structures(self):
        A = Structure.build("A", 2, GRAPH, {"E": [(0, 0)]}, {"c": 0})
        B = Structure.build("B", 2, GRAPH, {"E": [(1, 1)]}, {"c": 1})
        assert is_partial_iso(constants_only_iso(A, B))

    def test_unary_fact_mismatch(self):
        P = Vocabulary(relations=(("P", 1),))
        A = Structure.build("A", 1, P, {"P": [(0,)]})
        B = Structure.build("B", 1, P)
        assert not is_partial_iso(PartialIso.from_pairs(A, B, [(0, 0)]))

    def test_repeated_target_is_not_injective(self):
        A = Structure.build("A", 2, EMPTY)
        B = Structure.build("B", 2, EMPTY)
        assert not pairs_are_partial_iso(A, B, {(0, 0), (1, 0)})

    def test_repeated_source_is_not_functional(self):
        A = Structure.build("A", 2, EMPTY)
        B = Structure.build("B", 2, EMPTY)
        assert not pairs_are_partial_iso(A, B, {(0, 0), (0, 1)})

    def test_missing_constant_pair_fails(self):
        A = Structure.build("A", 2, GRAPH, constants={"c": 0})
        B = Structure.build("B", 2, GRAPH, constants={"c": 0})
        assert not pairs_are_partial_iso(A, B, {(1, 1)})

    def test_identity_is_always_a_partial_iso(self):
        A = Structure.build("A", 3, GRAPH, {"E": [(0, 1), (2, 2)]}, {"c": 1})
        assert is_partial_iso(identity_iso(A))

    def test_candidate_construction_is_permissive(self):
        # ill-behaved pair sets are representable; the check rejects them
        A = Structure.build("A", 2, EMPTY)
        B = Structure.build("B", 2, EMPTY)
        candidate = PartialIso(A, B, ((0, 0), (1, 0)))
        assert not is_partial_iso(candidate)

    def test_vocabulary_mismatch_rejected(self):
        A = Structure.build("A", 1, EMPTY)
        B = Structure.build("B", 1, GRAPH, constants={"c": 0})
        with pytest.raises(InputError):
            PartialIso.from_pairs(A, B, [])

    def test_pairs_outside_the_universes_fail(self):
        # PartialIso rejects these pairs at construction, and the check on
        # raw pairs agrees; a relation that the pair would preserve inside
        # the universes changes nothing
        A, B = Structure.build("A", 2, EMPTY), Structure.build("B", 2, EMPTY)
        R = Vocabulary(relations=(("R", 1),))
        A1, B1 = (Structure.build(name, 2, R, {"R": [(0,)]}) for name in "AB")
        for left, right, pairs in [
            (A, B, [(9, 0)]), (A, B, [(-1, 5)]), (A, B, [(0, 2)]), (A1, B1, [(9, 1)]),
        ]:
            assert not pairs_are_partial_iso(left, right, pairs)
            with pytest.raises(InputError, match="leaves the"):
                PartialIso.from_pairs(left, right, pairs)
        assert pairs_are_partial_iso(A1, B1, [(1, 1)])


class TestEnumeration:
    def test_empty_vocabulary_one_versus_two(self):
        A = Structure.build("A", 1, EMPTY)
        B = Structure.build("B", 2, EMPTY)
        assert len(enumerate_partial_isos(A, B)) == 3

    def test_self_enumeration_matches_partial_bijections(self):
        # the paper's full modeloid on n points is Part(P, P) for the
        # n-point structure P with no relations
        for n in range(1, 6):
            P = Structure.build("P", n, EMPTY)
            part = enumerate_partial_isos(P, P)
            bijections = {f.pairs for f in enumerate_all(Carrier(n))}
            assert {p.pairs for p in part} == bijections

    def test_vocabulary_is_checked_before_the_bound(self):
        A = Structure.build("A", 8, EMPTY)
        B = Structure.build("B", 1, GRAPH, constants={"c": 0})
        with pytest.raises(InputError, match="share one vocabulary"):
            enumerate_partial_isos(A, B)

    def test_constants_clash_gives_nothing(self):
        P = Vocabulary(relations=(("P", 1),), constants=("c",))
        A = Structure.build("A", 1, P, {"P": [(0,)]}, {"c": 0})
        B = Structure.build("B", 1, P, constants={"c": 0})
        assert enumerate_partial_isos(A, B) == frozenset()

    def test_against_literal_oracle(self):
        A = Structure.build("A", 3, GRAPH, {"E": [(0, 1), (1, 2)]}, {"c": 0})
        B = Structure.build("B", 3, GRAPH, {"E": [(1, 0), (0, 2)]}, {"c": 1})
        got = {frozenset(p.pairs) for p in enumerate_partial_isos(A, B)}
        assert got == oracle_partial_isos(A, B)

    @given(structure_pairs())
    def test_generated_pairs_against_literal_oracle(self, pair):
        self.check_against_literal_oracle(*pair)

    @given(structure_pairs(max_universe=4))
    def test_four_element_pairs_against_literal_oracle(self, pair):
        self.check_against_literal_oracle(*pair)

    @staticmethod
    def check_against_literal_oracle(A, B):
        literal = oracle_partial_isos(A, B)
        assert {frozenset(p.pairs) for p in enumerate_partial_isos(A, B)} == literal
        for size in range(min(A.universe_size, B.universe_size) + 1):
            for sources in itertools.combinations(range(A.universe_size), size):
                for targets in itertools.permutations(range(B.universe_size), size):
                    pairs = frozenset(zip(sources, targets))
                    assert pairs_are_partial_iso(A, B, pairs) == (pairs in literal)
        # the one-pair test, for every literal partial isomorphism f and
        # every fresh pair (a, b), answers as the check of f ∪ {(a, b)}
        for f in literal:
            forward, backward = dict(f), {b: a for a, b in f}
            test = structures._one_pair_test(A, B, forward, backward)
            for a, b in itertools.product(range(A.universe_size), range(B.universe_size)):
                if a not in forward and b not in backward:
                    forward[a], backward[b] = b, a
                    extended = pairs_are_partial_iso(A, B, f | {(a, b)})
                    assert test(a, b, _code(f, B.universe_size)) == extended
                    del forward[a], backward[b]

    @given(directed_graphs("A"), directed_graphs("B"))
    def test_one_pair_test_on_directed_graphs(self, A, B):
        # every one-pair extension of every partial isomorphism of two
        # digraphs on 3 to 5 vertices: the pair-clash table reads both
        # directions of each edge, and loops
        n = B.universe_size
        for f in enumerate_partial_isos(A, B):
            forward, backward = dict(f.pairs), {b: a for a, b in f.pairs}
            test, code = structures._one_pair_test(A, B, forward, backward), _code(f.pairs, n)
            for a, b in itertools.product(range(A.universe_size), range(n)):
                if a not in forward and b not in backward:
                    forward[a], backward[b] = b, a
                    assert test(a, b, code) == pairs_are_partial_iso(A, B, f.pairs + ((a, b),))
                    del forward[a], backward[b]

    @given(structure_pairs())
    def test_codes_decode_to_the_sorted_pair_tuples(self, pair):
        # the growth loop hands over codes in the sorted order of their
        # pair tuples, constants too: they decode to the literal oracle's
        # maps, sorted, and to those of enumerate_partial_isos; the ef
        # build's enumeration returns the same codes
        A, B = pair
        codes = structures._partial_iso_codes(A, B)
        decoded = list(_decoded(codes, B.universe_size))
        assert decoded == sorted(tuple(sorted(p)) for p in oracle_partial_isos(A, B))
        assert decoded == sorted(p.pairs for p in enumerate_partial_isos(A, B))
        assert codes == [_code(p, B.universe_size) for p in decoded]
        assert ef_games.enumerate_partial_isos(A, B, 3) == codes

    def test_oracle_agreement_on_pure_sets(self):
        A = Structure.build("A", 3, EMPTY)
        B = Structure.build("B", 2, EMPTY)
        got = {frozenset(p.pairs) for p in enumerate_partial_isos(A, B)}
        assert got == oracle_partial_isos(A, B)

    def test_every_member_really_checks_out(self):
        A = Structure.build("A", 3, GRAPH, {"E": [(0, 1)]}, {"c": 2})
        for p in enumerate_partial_isos(A, A):
            assert is_partial_iso(p)

    def test_restrictions_stay_partial_isos(self):
        A = Structure.build("A", 3, GRAPH, {"E": [(0, 1), (1, 2)]}, {"c": 0})
        base = set(constant_pairs(A, A))
        for p in enumerate_partial_isos(A, A):
            extra = [pair for pair in p.pairs if pair not in base]
            for keep in range(len(extra) + 1):
                restricted = base | set(extra[:keep])
                assert pairs_are_partial_iso(A, A, restricted)

    def test_tuple_index_is_built_once_per_structure(self, monkeypatch):
        # the growth loop and the game oracle both read the pair-clash
        # table of the pair, built once, and each structure's index of the
        # tuples of its ternary relations that mention each element
        vocabulary = Vocabulary(relations=(("E", 2), ("T", 3)), constants=("c",))
        A = Structure.build("A", 3, vocabulary, {"E": [(0, 1)], "T": [(0, 1, 2)]}, {"c": 0})
        B = Structure.build("B", 3, vocabulary, {"E": [(1, 0)], "T": [(1, 2, 0)]}, {"c": 1})
        read = {"_by_element": [], "_clashes": []}
        for name, found in read.items():
            def recording(*args, real=getattr(structures, name), found=found):
                found.append(real(*args))
                return found[-1]

            monkeypatch.setattr(structures, name, recording)
        for _ in range(2):
            enumerate_partial_isos(A, B)
            ef_equiv_oracle(A, B, 2)
        assert len(read["_by_element"]) == 8
        assert len({id(at) for at in read["_by_element"]}) == 2
        assert all(len(at) == 1 for at in read["_by_element"])
        assert len(read["_clashes"]) == 4
        assert len({id(table) for table in read["_clashes"]}) == 1

    def test_universe_bound(self):
        A = Structure.build("A", 8, EMPTY)
        B = Structure.build("B", 1, EMPTY)
        with pytest.raises(BoundExceededError):
            enumerate_partial_isos(A, B)
        assert enumerate_partial_isos(A, B, max_universe=8)
