"""Table file formats: round trips and parse diagnostics."""

import pytest
from records import replace
from reference_scans import int_row_by_int

from modeloids import fileformats

from modeloids.categorical import CategoricalModeloid
from modeloids.errors import InputError, ParseError
from modeloids.fileformats import (
    SemigroupFile,
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

    def test_range_errors_name_their_line(self):
        # the parse names the row with entry 9; the constructor still checks
        with pytest.raises(ParseError) as err:
            parse_semigroup_file("semigroup\norder 2\nmul 0 9\nmul 1 0\ninv 0 1\n")
        assert str(err.value) == "line 3: multiplication entry out of range"
        sf = SemigroupFile(2, ((0, 9), (1, 0)), (0, 1))
        with pytest.raises(InputError, match="multiplication entry out of range"):
            sf.to_table()


S = "semigroup\norder 1\nmul 0\n"
SM = "semimodeloid\norder 1\nmul 0\nmembers 0\n"
C = "category\nmorphisms 1\nstar 0\ndom 0\ncod 0\ncomp 0\n"
CM = "categorical-modeloid\nmorphisms 1\nstar 0\ndom 0\ncod 0\ncomp 0\nmembers 0\n"

# (parser, text, message, line) for every diagnostic of both table layouts
DIAGNOSTICS = [
    (parse_semigroup_file, "", "empty file", 1),
    (parse_semigroup_file, "# nothing\n\n", "empty file", 1),
    (parse_semigroup_file, "\norder 1\n", "expected header 'semigroup', got 'order 1'", 2),
    (parse_category_file, S, "expected header 'category', got 'semigroup'", 1),
    (parse_semimodeloid_file, C, "expected header 'semimodeloid', got 'category'", 1),
    (parse_categorical_modeloid_file, "category\n", "expected header "
     "'categorical-modeloid', got 'category'", 1),
    (parse_semigroup_file, "semigroup\norder 1\norder 1\n", "order declared twice", 3),
    (parse_semigroup_file, "semigroup\norder 1 2\n", "order needs exactly one value", 2),
    (parse_semigroup_file, "semigroup\norder\n", "order needs exactly one value", 2),
    (parse_semigroup_file, "semigroup\norder x\n", "order must be an integer, got 'x'", 2),
    (parse_semigroup_file, "semigroup\norder 0\n", "order must be at least 1", 2),
    (parse_semigroup_file, "semigroup\nmul 0\n", "order must come before mul rows", 2),
    (parse_semigroup_file, S + "mul 0\n", "more than 1 mul rows", 4),
    (parse_semigroup_file, "semigroup\norder 2\nmul 0 1\nmul x 0\n",
     "mul entry must be an integer, got 'x'", 4),
    (parse_semigroup_file, "semigroup\norder 1\nmul 0 0\n", "mul row needs 1 entries", 3),
    (parse_semigroup_file, S + "inv 0\ninv 0\n", "inv declared twice", 5),
    (parse_semigroup_file, S + "inv y\n", "inv entry must be an integer, got 'y'", 4),
    (parse_semigroup_file, "semigroup\ninv 0\n", "inv row must list one entry per element", 2),
    (parse_semigroup_file, S + "inv 0 0\n", "inv row must list one entry per element", 4),
    (parse_semigroup_file, S + "neutral 0\nneutral 0\n", "neutral declared twice", 5),
    (parse_semigroup_file, S + "neutral 0 0\n", "neutral needs exactly one value", 4),
    (parse_semigroup_file, S + "neutral n\n", "neutral must be an integer, got 'n'", 4),
    (parse_semigroup_file, S + "zero 0\nzero 0\n", "zero declared twice", 5),
    (parse_semigroup_file, S + "zero\n", "zero needs exactly one value", 4),
    (parse_semigroup_file, S + "zero z\n", "zero must be an integer, got 'z'", 4),
    (parse_semigroup_file, S + "members 0\n",
     "unexpected directive 'members' in semigroup file", 4),
    (parse_semigroup_file, S + "star 0\n", "unexpected directive 'star' in semigroup file", 4),
    (parse_semigroup_file, "semigroup\nneutral 0\n", "missing order line", 1),
    (parse_semigroup_file, "semigroup\norder 2\nmul 0 1\n", "expected 2 mul rows, found 1", 1),
    (parse_semimodeloid_file, SM + "members 0\n", "members declared twice", 5),
    (parse_semimodeloid_file, "semimodeloid\norder 1\nmul 0\nmembers 0 q\n",
     "member must be an integer, got 'q'", 4),
    (parse_semimodeloid_file, SM + "comp 0\n",
     "unexpected directive 'comp' in semimodeloid file", 5),
    (parse_semimodeloid_file, "semimodeloid\nmembers 0\n", "missing order line", 1),
    (parse_semimodeloid_file, "semimodeloid\norder 1\n", "expected 1 mul rows, found 0", 1),
    (parse_semimodeloid_file, "semimodeloid\norder 1\nmul 0\n", "missing members line", 1),
    (parse_category_file, C + "morphisms 1\n", "morphisms declared twice", 7),
    (parse_category_file, "category\nmorphisms\n", "morphisms needs exactly one value", 2),
    (parse_category_file, "category\nmorphisms m\n",
     "morphisms must be an integer, got 'm'", 2),
    (parse_category_file, "category\nmorphisms 0\n",
     "need at least the non-existing morphism", 2),
    (parse_category_file, "category\ncomp 0\n", "morphisms must come before comp rows", 2),
    (parse_category_file, C + "comp 0\n", "more than 1 comp rows", 7),
    (parse_category_file, "category\nmorphisms 1\ncomp c\n",
     "comp entry must be an integer, got 'c'", 3),
    (parse_category_file, "category\nmorphisms 1\ncomp 0 0\n", "comp row needs 1 entries", 3),
    (parse_category_file, C + "star 0\n", "star declared twice", 7),
    (parse_category_file, "category\nstar\n", "star needs exactly one value", 2),
    (parse_category_file, "category\nstar s\n", "star must be an integer, got 's'", 2),
    (parse_category_file, C + "dom 0\n", "dom declared twice", 7),
    (parse_category_file, C + "cod 0\n", "cod declared twice", 7),
    (parse_category_file, C + "inv 0\ninv 0\n", "inv declared twice", 8),
    (parse_category_file, "category\nmorphisms 1\ndom d\n",
     "dom entry must be an integer, got 'd'", 3),
    (parse_category_file, "category\nmorphisms 1\ncod 0 e\n",
     "cod entry must be an integer, got 'e'", 3),
    (parse_category_file, C + "inv i\n", "inv entry must be an integer, got 'i'", 7),
    (parse_category_file, "category\ndom 0\n", "dom must list one entry per morphism", 2),
    (parse_category_file, C.replace("cod 0", "cod 0 0"),
     "cod must list one entry per morphism", 5),
    (parse_category_file, C + "inv\n", "inv must list one entry per morphism", 7),
    (parse_category_file, C + "members 0\n",
     "unexpected directive 'members' in category file", 7),
    (parse_category_file, C + "order 1\n", "unexpected directive 'order' in category file", 7),
    (parse_category_file, "category\nstar 0\n", "missing morphisms line", 1),
    (parse_category_file, "category\nmorphisms 1\ndom 0\n", "missing star line", 1),
    (parse_category_file, "category\nmorphisms 1\nstar 0\ncod 0\n", "missing dom line", 1),
    (parse_category_file, "category\nmorphisms 1\nstar 0\ndom 0\n", "missing cod line", 1),
    (parse_category_file, C.replace("comp 0\n", ""), "expected 1 comp rows, found 0", 1),
    (parse_categorical_modeloid_file, CM + "members 0\n", "members declared twice", 8),
    (parse_categorical_modeloid_file, CM.replace("members 0", "members 0 -"),
     "member must be an integer, got '-'", 7),
    (parse_categorical_modeloid_file, CM + "mul 0\n",
     "unexpected directive 'mul' in categorical-modeloid file", 8),
    (parse_categorical_modeloid_file, CM.replace("members 0\n", ""),
     "missing members line", 1),
    # entries out of range name their line, also when the size comes later
    (parse_semigroup_file, "semigroup\norder 2\nmul 0 9\nmul 1 0\n",
     "multiplication entry out of range", 3),
    (parse_semigroup_file, "semigroup\norder 2\nmul 0 1\nmul -1 0\n",
     "multiplication entry out of range", 4),
    (parse_semigroup_file, S + "inv 1\n",
     "inverse table must list one in-range element per element", 4),
    (parse_semigroup_file, S + "neutral 7\n", "declared neutral/zero out of range", 4),
    (parse_semigroup_file, S + "zero -1\n", "declared neutral/zero out of range", 4),
    (parse_semigroup_file, "semigroup\nneutral 7\norder 1\nmul 0\n",
     "declared neutral/zero out of range", 2),
    (parse_semimodeloid_file, SM.replace("members 0", "members 0 99"),
     "member index out of range", 4),
    (parse_category_file, C.replace("star 0", "star 9"), "star index out of range", 3),
    (parse_category_file, C.replace("dom 0", "dom 1"),
     "dom table must list one in-range morphism each", 4),
    (parse_category_file, C.replace("cod 0", "cod -1"),
     "cod table must list one in-range morphism each", 5),
    (parse_category_file, C.replace("comp 0", "comp 3"), "composition entry out of range", 6),
    (parse_category_file, C + "inv 2\n",
     "inverse table must list one in-range morphism each", 7),
    (parse_category_file, "category\nstar 9\nmorphisms 1\ndom 0\ncod 0\ncomp 0\n",
     "star index out of range", 2),
    (parse_categorical_modeloid_file, CM.replace("members 0", "members 4"),
     "member index out of range", 7),
    # star must be its own dom and cod, also when star's line comes later
    (parse_category_file,
     "category\nmorphisms 2\ndom 0 0\ncod 0 1\ncomp 0 1\ncomp 1 1\nstar 1\n",
     "the non-existing morphism must be its own dom and cod", 3),
    (parse_categorical_modeloid_file,
     "categorical-modeloid\nmorphisms 2\nstar 1\ndom 0 1\ncod 1 0\n"
     "comp 0 1\ncomp 1 1\nmembers 0\n",
     "the non-existing morphism must be its own dom and cod", 5),
]


@pytest.mark.parametrize(
    "parse,text,message,line",
    DIAGNOSTICS,
    ids=[f"{parse.__name__}-{message}" for parse, _, message, _ in DIAGNOSTICS],
)
def test_diagnostic_text_and_line(parse, text, message, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def test_equal_entries_share_one_object():
    # above 256 CPython makes a new int per conversion, so only the parse
    # can keep the 90 000 entries of this table at 300 objects
    n = 300
    rows = "".join(
        "mul " + " ".join(str((i + j) % n) for j in range(n)) + "\n" for i in range(n)
    )
    sf = parse_semigroup_file(f"semigroup\norder {n}\n{rows}")
    entries = [x for row in sf.mul for x in row]
    assert sf.mul[0][299] == sf.mul[1][298] == 299
    assert len({id(x) for x in entries}) == len(set(entries)) == n


def cyclic_rows(directive: str, n: int) -> list[str]:
    return [f"{directive} " + " ".join(str((i + j) % n) for j in range(n)) for i in range(n)]


# files of size 12 with room for one odd token, in every kind of row
ODD_TOKEN_FILES = {
    parse_semigroup_file: ["semigroup", "order 12", *cyclic_rows("mul", 12),
                           "inv " + " ".join(str(x) for x in range(12))],
    parse_semimodeloid_file: ["semimodeloid", "order 12", *cyclic_rows("mul", 12),
                              "members 0 3 5"],
    parse_category_file: ["category", "morphisms 12", "star 11",
                          "dom " + " ".join(str(x) for x in range(12)),
                          "cod " + " ".join(str(x) for x in range(12)),
                          *cyclic_rows("comp", 12)],
    parse_categorical_modeloid_file: ["categorical-modeloid", "morphisms 12", "star 11",
                                      "dom " + " ".join(str(x) for x in range(12)),
                                      "cod " + " ".join(str(x) for x in range(12)),
                                      *cyclic_rows("comp", 12), "members 11 2"],
}


class TestParseByLookup:
    """Rows are read by looking tokens up in the numerals 0..size-1, and
    by ``int`` when that fails: the same fields, or the same error on the
    same line, as reading every token with ``int``."""

    ODD = ("007", "+1", "1_0", "-1", "x", "12", "99", "0x1", "٣")

    @staticmethod
    def outcome(parse, text):
        try:
            return "parsed", parse(text)
        except (ParseError, InputError) as err:
            return "rejected", type(err), str(err)

    @pytest.mark.parametrize("parse", list(ODD_TOKEN_FILES), ids=lambda p: p.__name__)
    def test_odd_tokens_in_every_row(self, parse, monkeypatch):
        lines = ODD_TOKEN_FILES[parse]
        cases = []
        for at in range(1, len(lines)):
            head, *tokens = lines[at].split()
            if len(tokens) < 2:
                continue
            for token in self.ODD:
                for spot in (0, len(tokens) - 1):
                    edited = tokens[:spot] + [token] + tokens[spot + 1:]
                    cases.append("\n".join(lines[:at] + [" ".join([head, *edited])]
                                           + lines[at + 1:]) + "\n")
        by_lookup = [self.outcome(parse, text) for text in cases]
        monkeypatch.setattr(fileformats, "_int_row", int_row_by_int)
        by_int = [self.outcome(parse, text) for text in cases]
        assert by_lookup == by_int
        assert {result[0] for result in by_lookup} == {"parsed", "rejected"}

    def test_odd_numerals_give_the_same_table(self):
        text = "semigroup\norder 12\n" + "\n".join(cyclic_rows("mul", 12)) + "\n"
        odd = text.replace("mul 0 1 2 ", "mul 000 +1 2 ", 1).replace(" 10 11\n", " 1_0 11\n", 1)
        assert odd != text
        assert parse_semigroup_file(odd) == parse_semigroup_file(text)


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
        c = replace(semigroup_to_one_object_category(SEMILATTICE), inv=None)
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
