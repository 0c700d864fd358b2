"""Table file formats: round trips and parse diagnostics."""

import pytest

from modeloids.categorical import CategoricalModeloid
from modeloids.errors import InputError, ParseError
from modeloids.fileformats import (
    format_categorical_modeloid_file,
    format_category_file,
    format_modeloid_file,
    format_semigroup_file,
    format_semimodeloid_file,
    parse_categorical_modeloid_file,
    parse_category_file,
    parse_modeloid_file,
    parse_semigroup_file,
    parse_semimodeloid_file,
)
from modeloids.free_categories import semigroup_to_one_object_category
from modeloids.inverse_semigroups import (
    InverseSemigroupTable,
    Semimodeloid,
    from_partial_bijections,
    resolve_inverses,
)
from modeloids.modeloid import full_modeloid, modeloid_closure
from modeloids.partial_bijections import Carrier, PartialBijection, enumerate_all

SEMILATTICE = InverseSemigroupTable.from_rows(
    [[0, 1], [1, 1]], [0, 1], neutral=0, zero=1
)


class TestSemigroupFiles:
    def test_round_trip_with_claims(self):
        text = format_semigroup_file(SEMILATTICE)
        sf = parse_semigroup_file(text)
        assert sf.to_table() == SEMILATTICE

    def test_round_trip_of_symmetric_inverse_monoid(self):
        table, _ = from_partial_bijections(enumerate_all(Carrier(2)))
        assert parse_semigroup_file(format_semigroup_file(table)).to_table() == table

    def test_bare_multiplication_parses_without_inverse(self):
        sf = parse_semigroup_file("semigroup\norder 2\nmul 0 1\nmul 1 0\n")
        assert sf.inv is None
        with pytest.raises(InputError):
            sf.to_table()
        table, verdict = resolve_inverses(sf.mul)
        assert verdict.ok
        assert table.inv == (0, 1)

    def test_comments_and_blanks(self):
        text = "# heading\nsemigroup\n\norder 1 # one element\nmul 0\n"
        assert parse_semigroup_file(text).order == 1

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("order 1\nmul 0\n", "header"),
            ("modeloid\ncarrier 1\n", "header"),
            ("semigroup\nmul 0\n", "order must come before"),
            ("semigroup\norder 1\n", "expected 1 mul rows"),
            ("semigroup\norder 1\nmul 0 0\n", "needs 1 entries"),
            ("semigroup\norder 1\nmul 0\nmul 0\n", "more than 1"),
            ("semigroup\norder 1\norder 1\nmul 0\n", "twice"),
            ("semigroup\norder x\n", "integer"),
            ("semigroup\norder 1\nmul 0\nwibble 3\n", "unexpected directive"),
            ("semigroup\norder 1\nmul 0\nmembers 0\n", "unexpected directive"),
        ],
    )
    def test_diagnostics(self, text, needle):
        with pytest.raises(ParseError) as err:
            parse_semigroup_file(text)
        assert needle in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_semigroup_file("semigroup\norder 2\nmul 0 1\nmul x 0\n")
        assert err.value.line == 4

    def test_range_checks_are_deferred_to_construction(self):
        # parsing is purely lexical; entry 9 only trips the table constructor
        sf = parse_semigroup_file("semigroup\norder 2\nmul 0 9\nmul 1 0\ninv 0 1\n")
        with pytest.raises(InputError):
            sf.to_table()


class TestSemimodeloidFiles:
    def test_round_trip(self):
        table, _ = from_partial_bijections(enumerate_all(Carrier(2)))
        sm = Semimodeloid(table, frozenset({0, 1, 2, 6}))
        text = format_semimodeloid_file(sm)
        sf = parse_semimodeloid_file(text)
        assert sf.to_table() == table
        assert sf.members == (0, 1, 2, 6)

    def test_members_required(self):
        with pytest.raises(ParseError) as err:
            parse_semimodeloid_file("semimodeloid\norder 1\nmul 0\n")
        assert "members" in str(err.value)

    def test_members_deduplicated_and_sorted(self):
        sf = parse_semimodeloid_file(
            "semimodeloid\norder 2\nmul 0 1\nmul 1 1\nmembers 1 0 1\n"
        )
        assert sf.members == (0, 1)


class TestModeloidFiles:
    def test_round_trip_full(self):
        M = full_modeloid(Carrier(3))
        assert parse_modeloid_file(format_modeloid_file(M)) == M

    def test_round_trip_closure(self):
        carrier = Carrier(2)
        M = modeloid_closure(
            [PartialBijection.from_pairs(carrier, [(0, 1)])], carrier
        )
        assert parse_modeloid_file(format_modeloid_file(M)) == M

    def test_bare_map_is_the_empty_map(self):
        M = parse_modeloid_file("modeloid\ncarrier 2\nmap\n")
        (f,) = M.members
        assert f.pairs == ()

    def test_bad_pair_token(self):
        with pytest.raises(ParseError) as err:
            parse_modeloid_file("modeloid\ncarrier 2\nmap (0:1)\n")
        assert err.value.line == 3

    def test_out_of_carrier_pair(self):
        with pytest.raises(ParseError) as err:
            parse_modeloid_file("modeloid\ncarrier 2\nmap (0,5)\n")
        assert err.value.line == 3

    def test_non_injective_map_rejected(self):
        with pytest.raises(ParseError):
            parse_modeloid_file("modeloid\ncarrier 2\nmap (0,0) (1,0)\n")

    def test_duplicate_maps_collapse(self):
        M = parse_modeloid_file("modeloid\ncarrier 1\nmap (0,0)\nmap (0,0)\n")
        assert len(M.members) == 1


class TestCategoryFiles:
    def test_round_trip(self):
        c = semigroup_to_one_object_category(SEMILATTICE)
        assert parse_category_file(format_category_file(c)) == c

    def test_round_trip_without_inverses(self):
        import dataclasses

        c = dataclasses.replace(
            semigroup_to_one_object_category(SEMILATTICE), inv=None
        )
        parsed = parse_category_file(format_category_file(c))
        assert parsed.inv is None
        assert parsed.comp == c.comp

    def test_categorical_modeloid_round_trip(self):
        c = semigroup_to_one_object_category(SEMILATTICE)
        M = CategoricalModeloid.everything(c)
        text = format_categorical_modeloid_file(M)
        category, members = parse_categorical_modeloid_file(text)
        assert category == c
        assert frozenset(members) == M.members

    def test_star_constraint_enforced_on_build(self):
        text = (
            "category\nmorphisms 2\nstar 1\ndom 0 0\ncod 0 1\n"
            "comp 0 1\ncomp 1 1\n"
        )
        with pytest.raises(InputError):
            parse_category_file(text)

    @pytest.mark.parametrize(
        "drop,needle",
        [
            ("morphisms", "one entry per morphism"),
            ("star", "missing star"),
            ("dom", "missing dom"),
            ("cod", "missing cod"),
            ("comp", "expected 1 comp rows"),
        ],
    )
    def test_missing_sections(self, drop, needle):
        lines = {
            "morphisms": "morphisms 1",
            "star": "star 0",
            "dom": "dom 0",
            "cod": "cod 0",
            "comp": "comp 0",
        }
        text = "category\n" + "\n".join(
            line for key, line in lines.items() if key != drop
        )
        with pytest.raises(ParseError) as err:
            parse_category_file(text + "\n")
        assert needle in str(err.value)

    def test_row_length_checked(self):
        text = "category\nmorphisms 2\nstar 1\ndom 0\n"
        with pytest.raises(ParseError) as err:
            parse_category_file(text)
        assert "one entry per morphism" in str(err.value)
