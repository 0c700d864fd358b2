"""Command-line interface: output contracts and exit codes."""

import io
import json
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeloids import (
    categorical,
    cli,
    ef_games,
    fileformats,
    free_categories,
    inverse_semigroups,
    modeloid,
)
from modeloids.categorical import CategoricalModeloid, iterate_categorical
from modeloids.ef_games import extract_certificate, format_certificate
from modeloids.errors import InputError
from modeloids.fileformats import (
    format_categorical_modeloid_file,
    format_category_file,
    format_modeloid_file,
    format_semigroup_file,
    format_semimodeloid_file,
)
from modeloids.free_categories import semigroup_to_one_object_category
from modeloids.inverse_semigroups import Semimodeloid, from_partial_bijections
from modeloids.modeloid import full_modeloid, iterate_derivative, modeloid_closure
from modeloids.partial_bijections import Carrier, PartialBijection, enumerate_all
from modeloids.structures import parse_structures
from modeloids.verdict import Verdict

PURE_SETS = """structure P2
  universe 2

structure P3
  universe 3
"""

GRAPHS = """vocabulary
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

# closure of {0 -> 1}; loses both non-idempotent maps after one derivative
SHRINKING_MODELOID = """modeloid
carrier 2
map
map (0,0)
map (1,1)
map (0,0) (1,1)
map (0,1)
map (1,0)
"""

LEFT_ZERO = "semigroup\norder 2\nmul 0 0\nmul 1 1\n"
BARE_SEMILATTICE = "semigroup\norder 2\nmul 0 1\nmul 1 1\n"
SEMILATTICE = "semigroup\norder 2\nmul 0 1\nmul 1 1\ninv 0 1\nneutral 0\nzero 1\n"

# a one-object table with a declared inv row that is no category:
# (1*1)*1 = 3 but 1*(1*1) = 0
NON_ASSOCIATIVE_CATMOD = (
    "categorical-modeloid\nmorphisms 5\nstar 4\ndom 0 0 0 0 4\ncod 0 0 0 0 4\n"
    "comp 0 1 2 3 4\ncomp 1 2 3 3 4\ncomp 2 0 3 3 4\ncomp 3 3 3 3 4\n"
    "comp 4 4 4 4 4\ninv 0 1 2 3 4\nmembers 0 1 2 3\n"
)

# one-object category on the monoid {1, a, a^2} with a^3 = a^2: a is not
# regular, so this is a category but not an inverse category
MONOID_CATEGORY = (
    "category\nmorphisms 4\nstar 3\ndom 0 0 0 3\ncod 0 0 0 3\n"
    "comp 0 1 2 3\ncomp 1 2 2 3\ncomp 2 2 2 3\ncomp 3 3 3 3\n"
)


# the rook monoid on two points as from_partial_bijections numbers it:
# 0 the empty map, 2 the identity, 3 is 0 -> 1 and 5 its inverse 1 -> 0
ROOK_2_ROWS = (
    "mul 0 0 0 0 0 0 0\nmul 0 1 1 0 5 5 0\nmul 0 1 2 3 4 5 6\nmul 0 3 3 0 6 6 0\n"
    "mul 0 3 4 1 2 6 5\nmul 0 0 5 1 1 0 5\nmul 0 0 6 3 3 0 6\n"
)
# {empty, identity, 0 -> 1} is closed under products but not under inverses
PRODUCT_CLOSED_SEMIMODELOID = (
    "semimodeloid\norder 7\n" + ROOK_2_ROWS + "inv 0 1 2 5 4 3 6\nmembers 0 2 3\n"
)
# the one-object view of the rook monoid, with 3 declared as its own inverse
WRONG_INV_CATEGORY = (
    "category\nmorphisms 8\nstar 7\ndom 2 2 2 2 2 2 2 7\ncod 2 2 2 2 2 2 2 7\n"
    + ROOK_2_ROWS.replace("mul", "comp").replace("\n", " 7\n")
    + "comp 7 7 7 7 7 7 7 7\ninv 0 1 2 3 4 3 6 7\n"
)
# a semilattice with two incomparable idempotents: an inverse semigroup
# with a zero but no neutral element
NO_NEUTRAL_SEMIMODELOID = (
    "semimodeloid\norder 3\nmul 0 0 0\nmul 0 1 0\nmul 0 0 2\ninv 0 1 2\nmembers 0 1 2\n"
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    table2, elems = from_partial_bijections(enumerate_all(Carrier(2)))
    cat = semigroup_to_one_object_category(table2)
    catmod = format_categorical_modeloid_file(CategoricalModeloid.everything(cat))
    # the closure of {0 -> 1} again, as table indices (star is 7)
    closure = modeloid_closure(
        [PartialBijection.from_pairs(Carrier(2), [(0, 1)])], Carrier(2)
    )
    shrinking = frozenset(i for i, f in enumerate(elems) if f in closure.members)

    texts = {
        "sets.txt": PURE_SETS,
        "graphs.txt": GRAPHS,
        "shrink.txt": SHRINKING_MODELOID,
        "leftzero.txt": LEFT_ZERO,
        "bare.txt": BARE_SEMILATTICE,
        "semilattice.txt": SEMILATTICE,
        "monoidcat.txt": MONOID_CATEGORY,
        "catmod-nonassoc.txt": NON_ASSOCIATIVE_CATMOD,
        "broken.txt": "structure\n",
        "badmod.txt": "modeloid\ncarrier 2\nmap (0,1)\n",
        "f2.txt": format_semigroup_file(table2),
        "f2-noinv.txt": "".join(
            line
            for line in format_semigroup_file(table2).splitlines(keepends=True)
            if not line.startswith("inv ")
        ),
        "f2cat.txt": format_category_file(cat),
        "semi.txt": format_semimodeloid_file(Semimodeloid(table2, frozenset(range(7)))),
        "semibad.txt": "semimodeloid\norder 2\nmul 0 1\nmul 1 1\ninv 0 1\nmembers 1\n",
        "semileft.txt": "semimodeloid\norder 2\nmul 0 0\nmul 1 1\nmembers 0 1\n",
        "catmod.txt": catmod,
        "catmod-noinv.txt": "\n".join(
            line for line in catmod.splitlines() if not line.startswith("inv ")
        )
        + "\n",
        "catmod-bad.txt": "\n".join(
            "members 0 1" if line.startswith("members") else line
            for line in catmod.splitlines()
        )
        + "\n",
        "mod3.txt": format_modeloid_file(full_modeloid(Carrier(3))),
        "semimodeloid-shrink.txt": format_semimodeloid_file(
            Semimodeloid(table2, shrinking)
        ),
        "categorical-modeloid-shrink.txt": format_categorical_modeloid_file(
            CategoricalModeloid.from_members(cat, shrinking | {cat.star})
        ),
    }
    paths = {}
    for name, text in texts.items():
        p = d / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_machine_output(self, files, capsys):
        code, out, _ = run(capsys, "validate", files["sets.txt"], "--format", "machine")
        assert code == 0
        assert out == "constants: none\nok: true\nrelations: none\nstructures: P2 P3\n"

    def test_text_keeps_presentation_order(self, files, capsys):
        code, out, _ = run(capsys, "validate", files["graphs.txt"])
        assert code == 0
        assert out.splitlines() == [
            "ok: true",
            "structures: A B",
            "relations: E/2",
            "constants: c",
        ]

    def test_parse_error_exits_2(self, files, capsys):
        code, out, err = run(capsys, "validate", files["broken.txt"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_unreadable_file_exits_3(self, files, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "missing.txt"))
        assert code == 3
        assert err.startswith("error:")


class TestEf:
    def test_equivalent_pair_exits_0(self, files, capsys):
        code, out, _ = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "2",
        )
        assert code == 0
        assert "equivalent: true" in out
        assert "oracle-agrees: true" in out

    def test_distinguished_pair_exits_1(self, files, capsys):
        code, out, _ = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "3",
        )
        assert code == 1
        assert "equivalent: false" in out

    def test_machine_output_with_seed(self, files, capsys):
        code, out, _ = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "3",
            "--format", "machine",
        )
        assert code == 1
        assert out == (
            "equivalent: false\nmethod: derivative\n"
            "oracle-agrees: true\nrounds: 3\n"
        )

    def test_unknown_structure_name_exits_2(self, files, capsys):
        code, _, err = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "nope", "--rounds", "1",
        )
        assert code == 2
        assert "no structure named nope" in err

    def test_universe_bound_enforced(self, files, capsys):
        code, _, err = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "1",
            "--max-universe", "2",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_negative_rounds_exit_2(self, files, capsys):
        code, _, err = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "-1",
        )
        assert code == 2
        assert "--rounds" in err

    def test_nonpositive_universe_bound_exits_2(self, files, capsys):
        code, out, err = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "1", "--max-universe", "0",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --max-universe must be positive\n"
        assert "Traceback" not in err

    def test_certificate_matches_library_rendering(self, files, capsys, tmp_path):
        cert_path = tmp_path / "cert.txt"
        code, _, err = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "2",
            "--certificate", str(cert_path),
        )
        assert code == 0 and err == ""
        _, structures = parse_structures(PURE_SETS)
        cert = extract_certificate(structures[0], structures[1], 2)
        assert cert_path.read_text(encoding="utf-8") == format_certificate(cert)

    @pytest.mark.parametrize(
        "text, left, right, rounds",
        [
            # stable from the start, so 50 rounds are a long repeated tail
            (
                "vocabulary\n  relation E 2\n"
                "structure A\n  universe 3\n  relation E (0,1) (1,2) (2,0)\n"
                "structure B\n  universe 3\n  relation E (1,2) (2,0) (0,1)\n",
                "A", "B", 50,
            ),
            ("structure S4\n  universe 4\nstructure T4\n  universe 4\n", "S4", "T4", 3),
        ],
    )
    def test_certificate_file_is_the_library_rendering(
        self, capsys, tmp_path, text, left, right, rounds
    ):
        source, cert_path = tmp_path / "pair.txt", tmp_path / "cert.txt"
        source.write_text(text, encoding="utf-8")
        code, _, err = run(
            capsys, "ef", str(source), "--left", left, "--right", right,
            "--rounds", str(rounds), "--certificate", str(cert_path),
        )
        assert code == 0 and err == ""
        A, B = parse_structures(text)[1]
        cert = extract_certificate(A, B, rounds)
        assert len(cert.levels) == rounds + 1
        assert cert_path.read_bytes() == format_certificate(cert).encode("utf-8")
        assert "".join(ef_games.certificate_lines(cert)) == format_certificate(cert)

    def test_certificate_refused_when_not_equivalent(self, files, capsys, tmp_path):
        cert_path = tmp_path / "cert.txt"
        code, _, err = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "3",
            "--certificate", str(cert_path),
        )
        assert code == 1
        assert "no certificate" in err
        assert not cert_path.exists()

    def test_unwritable_certificate_gives_no_answer(self, files, capsys, tmp_path):
        # the certificate is written before the answer
        cert_path = tmp_path / "missing" / "c.txt"
        code, out, err = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "2",
            "--certificate", str(cert_path),
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(cert_path) in err

    def test_unwritable_certificate_path_is_unused_when_not_equivalent(
        self, files, capsys, tmp_path
    ):
        cert_path = tmp_path / "missing" / "c.txt"
        code, out, err = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "3",
            "--certificate", str(cert_path),
        )
        assert code == 1
        assert "equivalent: false" in out
        assert err == "no certificate: not equivalent at 3 rounds\n"
        assert not cert_path.parent.exists()

    def test_method_disagreement_is_loud(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ef_equiv_oracle", lambda *a, **k: True)
        code, out, err = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "3",
        )
        assert code == 4
        assert "oracle-agrees: false" in out
        assert "invariant breach" in err

    def test_table_name_patched_before_use_is_called(self, files, capsys, monkeypatch):
        # cli binds its library names on first use and must keep one
        # already bound, so the patch, not the library, decides
        failing = Verdict(False, "closure", ((0, 1),))
        monkeypatch.setattr(cli, "verify_modeloid", lambda M: failing)
        code, out, err = run(capsys, "verify", "modeloid", files["shrink.txt"])
        assert code == 1
        assert out == "ok: false\naxiom: closure\nwitness: ((0, 1),)\n"
        assert err == ""

    def test_high_arity_relation_answers(self, capsys, tmp_path):
        # the one 9-ary tuple of A spans all five elements: four picks
        # cannot see it, five can
        path = tmp_path / "nine.txt"
        path.write_text(
            "vocabulary\n  relation R 9\n"
            "structure A\n  universe 5\n  relation R (0,1,2,3,4,0,1,2,3)\n"
            "structure B\n  universe 5\n",
            encoding="utf-8",
        )
        for rounds, expected_code, answer in [("4", 0, "true"), ("5", 1, "false")]:
            code, out, _ = run(
                capsys, "ef", str(path), "--left", "A", "--right", "B", "--rounds", rounds
            )
            assert code == expected_code
            assert f"equivalent: {answer}" in out
            assert "oracle-agrees: true" in out


class TestVerify:
    def test_semigroup_ok(self, files, capsys):
        code, out, _ = run(capsys, "verify", "semigroup", files["f2.txt"])
        assert code == 0
        assert out == "ok: true\n"

    def test_semigroup_without_inverse_rows(self, files, capsys):
        code, out, _ = run(capsys, "verify", "semigroup", files["bare.txt"])
        assert code == 0
        assert out == "ok: true\n"

    def test_left_zero_band_rejected(self, files, capsys):
        code, out, _ = run(capsys, "verify", "semigroup", files["leftzero.txt"])
        assert code == 1
        assert out.splitlines() == [
            "ok: false",
            "axiom: idempotent-commutation",
            "witness: (0, 1)",
        ]

    def test_category_ok(self, files, capsys):
        code, out, _ = run(capsys, "verify", "category", files["monoidcat.txt"])
        assert code == 0
        assert out == "ok: true\n"

    def test_non_inverse_category_rejected(self, files, capsys):
        code, out, _ = run(capsys, "verify", "inverse-category", files["monoidcat.txt"])
        assert code == 1
        assert out.startswith("ok: false\n")

    def test_inverse_category_ok(self, files, capsys):
        code, out, _ = run(capsys, "verify", "inverse-category", files["f2cat.txt"])
        assert code == 0

    def test_modeloid_ok_and_bad(self, files, capsys):
        assert run(capsys, "verify", "modeloid", files["shrink.txt"])[0] == 0
        code, out, _ = run(capsys, "verify", "modeloid", files["badmod.txt"])
        assert code == 1
        assert "axiom:" in out

    def test_semimodeloid_ok_and_bad(self, files, capsys):
        assert run(capsys, "verify", "semimodeloid", files["semi.txt"])[0] == 0
        code, out, _ = run(capsys, "verify", "semimodeloid", files["semibad.txt"])
        assert code == 1
        assert "ok: false" in out

    def test_categorical_modeloid_ok(self, files, capsys):
        code, out, _ = run(
            capsys, "verify", "categorical-modeloid", files["catmod.txt"]
        )
        assert code == 0
        assert out == "ok: true\n"

    def test_categorical_modeloid_without_inverse_rows(self, files, capsys):
        code, out, _ = run(
            capsys, "verify", "categorical-modeloid", files["catmod-noinv.txt"]
        )
        assert code == 0
        assert out == "ok: true\n"

    def test_categorical_modeloid_missing_object(self, files, capsys):
        code, out, _ = run(
            capsys, "verify", "categorical-modeloid", files["catmod-bad.txt"]
        )
        assert code == 1
        assert "ok: false" in out

    @pytest.mark.parametrize("command", [("verify",), ("derive", "--rounds", "2")])
    def test_categorical_modeloid_with_inverse_rows_checks_the_category(
        self, files, capsys, command
    ):
        verb, *rest = command
        path = files["catmod-nonassoc.txt"]
        code, out, _ = run(capsys, verb, "categorical-modeloid", path, *rest)
        assert code == 1
        assert out == "ok: false\naxiom: associativity\nwitness: (1, 1, 1)\n"

    @pytest.mark.parametrize(
        "argv,text,message",
        [
            (["verify", "category"], MONOID_CATEGORY.replace("star 3", "star 9"),
             "line 3: star index out of range"),
            (["verify", "semigroup"], "semigroup\norder 2\nmul 0 9\nmul 1 1\n",
             "line 3: multiplication entry out of range"),
            (["embed"], "semigroup\norder 2\nmul 0 9\nmul 1 1\n",
             "line 3: multiplication entry out of range"),
            (["verify", "semigroup"], SEMILATTICE.replace("neutral 0", "neutral 7"),
             "line 6: declared neutral/zero out of range"),
            (["verify", "semimodeloid"], "semimodeloid\norder 1\nmul 0\nmembers 0 99\n",
             "line 4: member index out of range"),
        ],
        ids=["star", "mul", "embed-mul", "neutral", "members"],
    )
    def test_range_errors_name_their_line(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "table.txt"
        path.write_text(text, encoding="utf-8")
        assert run(capsys, *argv, str(path)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("inv", ["", "inv 0 0\n"], ids=["resolved", "declared"])
    def test_null_semigroup_names_regularity_alike(self, capsys, tmp_path, inv):
        # every product is 0, so 1 has no partner; with or without an inv
        # row the witness has the shape inverse_laws gives it
        path = tmp_path / "null.txt"
        path.write_text("semigroup\norder 2\nmul 0 0\nmul 0 0\n" + inv, encoding="utf-8")
        assert run(capsys, "verify", "semigroup", str(path)) == (
            1, "ok: false\naxiom: regularity\nwitness: (1,)\n", ""
        )


GRAPH_VOCABULARY = "vocabulary\n  relation E 2\n  constant c\n"


class TestErrorPaths:
    """Input errors and verdicts on paths that no other test reaches: the
    exit code, stdout and the exact stderr line."""

    @pytest.mark.parametrize(
        "argv,text,expected",
        [
            (["validate"], "vocabulary\n  relation E 2\n  relation E 1\n",
             (2, "", "error: line 3, column 12: duplicate name E\n")),
            (["validate"], "vocabulary\n  relation E 2\n  constant E\n",
             (2, "", "error: line 3, column 12: duplicate name E\n")),
            (["validate"], "vocabulary\n  relation E 0\n",
             (2, "", "error: line 2, column 14: arity must be at least 1\n")),
            (["validate"], "structure A\n  universe 0\n",
             (2, "", "error: line 2, column 12: universe size must be at least 1\n")),
            (["validate"], GRAPH_VOCABULARY + "structure A\n  constant c 0\n  universe 1\n",
             (2, "", "error: line 5, column 3: universe must come before interpretations\n")),
            (["validate"], GRAPH_VOCABULARY + "structure A\n  relation E (0,0)\n  universe 1\n",
             (2, "", "error: line 5, column 3: universe must come before interpretations\n")),
            (["validate"],
             GRAPH_VOCABULARY + "structure A\n  universe 2\n  constant c 0\n  constant c 1\n",
             (2, "", "error: line 7, column 12: constant c interpreted twice\n")),
            (["validate"], GRAPH_VOCABULARY + "structure A\n  universe 2\n  relation\n",
             (2, "", "error: line 6, column 3: relation needs a name\n")),
            (["validate"], GRAPH_VOCABULARY + "structure A\n  universe 2\n  relation E ()\n",
             (2, "", "error: line 6, column 14: empty tuple\n")),
            (["validate"], GRAPH_VOCABULARY + "structure A\n  universe 2\n  relation E 0\n",
             (2, "", "error: line 6, column 14: expected a tuple like (0,1), got '0'\n")),
            (["validate"],
             GRAPH_VOCABULARY + "structure A\n  universe 2\n  relation E (0,1) (1,2)\n",
             (2, "", "error: line 6, column 20: tuple (1,2) leaves the universe\n")),
            (["verify", "modeloid"], "modeloid\ncarrier 0\n",
             (2, "", "error: line 2: carrier must be at least 1\n")),
            (["verify", "modeloid"], "modeloid\n",
             (2, "", "error: line 1: missing carrier line\n")),
            (["verify", "semimodeloid"], NO_NEUTRAL_SEMIMODELOID,
             (2, "", "error: ambient has no neutral element\n")),
            (["verify", "semimodeloid"], PRODUCT_CLOSED_SEMIMODELOID,
             (1, "ok: false\naxiom: inverse\nwitness: (3,)\n", "")),
            (["verify", "inverse-category"], WRONG_INV_CATEGORY,
             (1, "ok: false\naxiom: inverse-mismatch\nwitness: (3, 3, 5)\n", "")),
        ],
        ids=[
            "duplicate-relation", "duplicate-constant", "arity-0", "universe-0",
            "constant-before-universe", "relation-before-universe", "constant-twice",
            "relation-without-name", "empty-tuple", "not-a-tuple", "tuple-outside",
            "carrier-0", "header-only", "no-neutral", "not-inverse-closed", "inverse-mismatch",
        ],
    )
    def test_exit_code_and_stderr(self, capsys, tmp_path, argv, text, expected):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        assert run(capsys, *argv, str(path)) == expected

    @pytest.mark.parametrize("command, extra", [
        (["validate"], []),
        (["ef"], ["--left", "A", "--right", "A", "--rounds", "1"]),
        (["verify", "semigroup"], []),
        (["derive", "modeloid"], ["--rounds", "1"]),
        (["embed"], []),
    ], ids=["validate", "ef", "verify", "derive", "embed"])
    def test_input_that_is_not_utf8_exits_2(self, capsys, tmp_path, command, extra):
        # a byte that does not decode is a fault of the input, not of the program
        path = tmp_path / "input.txt"
        path.write_bytes(b"structure A\n  universe 2\n\xff\n")
        code, out, err = run(capsys, *command, str(path), *extra)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text at byte 25\n"  # one line, no Traceback

    @pytest.mark.parametrize("certified", [True, False], ids=["ef-certificate", "derive"])
    def test_more_rounds_than_a_list_holds_exit_2(
        self, files, capsys, monkeypatch, tmp_path, certified
    ):
        # both list rounds + 1 levels: the request is refused before its
        # input is read, so nothing is built
        def unread(args):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "_read", unread)
        certificate = tmp_path / "cert.txt"
        if certified:
            argv = ["ef", files["sets.txt"], "--left", "P2", "--right", "P2",
                    "--certificate", str(certificate)]
        else:
            argv = ["derive", "modeloid", files["shrink.txt"]]
        code, out, err = run(capsys, *argv, "--rounds", "99999999999999999999")
        assert (code, out) == (2, "")
        assert err == f"error: --rounds must be below {sys.maxsize} to list its levels\n"
        assert not certificate.exists()

    def test_more_rounds_than_a_list_holds_still_answer_ef(self, files, capsys):
        rounds = "99999999999999999999"
        code, out, err = run(
            capsys, "ef", files["sets.txt"], "--left", "P2", "--right", "P2", "--rounds", rounds
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["equivalent: true", f"rounds: {rounds}"]


class TestDerive:
    def test_modeloid_machine_dump(self, files, capsys):
        code, out, _ = run(
            capsys, "derive", "modeloid", files["shrink.txt"],
            "--rounds", "3", "--format", "machine",
        )
        assert code == 0
        assert out == (
            "level-0: - 0>0 0>0,1>1 0>1 1>0 1>1\n"
            "level-1: - 0>0 0>0,1>1 1>1\n"
            "level-2: - 0>0 0>0,1>1 1>1\n"
            "level-3: - 0>0 0>0,1>1 1>1\n"
            "sizes: 6 4 4 4\n"
            "stabilized: 1\n"
        )

    def test_long_machine_dump_stays_in_key_order(self, files, capsys):
        # more lines than one write takes, each level key zero-padded
        rounds = 3 * cli.EMIT_CHUNK
        code, out, _ = run(
            capsys, "derive", "modeloid", files["shrink.txt"],
            "--rounds", str(rounds), "--format", "machine",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines == sorted(lines) and len(lines) == rounds + 3
        width = len(str(rounds))
        assert lines[0] == f"level-{0:0{width}d}: - 0>0 0>0,1>1 0>1 1>0 1>1"
        assert lines[1:-2] == [
            f"level-{j:0{width}d}: - 0>0 0>0,1>1 1>1" for j in range(1, rounds + 1)
        ]
        assert lines[-2:] == [f"sizes: 6 {' '.join(['4'] * rounds)}", "stabilized: 1"]

    def test_output_follows_a_redirected_stdout(self, files, capsys):
        argv = ["derive", "modeloid", files["shrink.txt"], "--rounds", "3", "--format", "machine"]
        _, expected, _ = run(capsys, *argv)
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue() == expected
        assert capsys.readouterr().out == ""

    def test_modeloid_text_is_sizes_only(self, files, capsys):
        code, out, _ = run(
            capsys, "derive", "modeloid", files["shrink.txt"], "--rounds", "3"
        )
        assert code == 0
        assert out == "sizes: 6 4 4 4\nstabilized: 1\n"

    def test_stable_modeloid(self, files, capsys):
        code, out, _ = run(
            capsys, "derive", "modeloid", files["mod3.txt"], "--rounds", "2"
        )
        assert code == 0
        assert out == "sizes: 34 34 34\nstabilized: 0\n"

    def test_semimodeloid_machine_dump(self, files, capsys):
        code, out, _ = run(
            capsys, "derive", "semimodeloid", files["semi.txt"],
            "--rounds", "1", "--format", "machine",
        )
        assert code == 0
        assert out == (
            "level-0: 0 1 2 3 4 5 6\n"
            "level-1: 0 1 2 3 4 5 6\n"
            "sizes: 7 7\n"
            "stabilized: 0\n"
        )

    def test_categorical_modeloid_chain(self, files, capsys):
        code, out, _ = run(
            capsys, "derive", "categorical-modeloid", files["catmod.txt"],
            "--rounds", "3",
        )
        assert code == 0
        assert out == "sizes: 8 8 8 8\nstabilized: 0\n"

    @pytest.mark.parametrize(
        "kind, first, rest",
        [
            ("semimodeloid", "0 1 2 3 5 6", "0 1 2 6"),
            ("categorical-modeloid", "0 1 2 3 5 6 7", "0 1 2 6 7"),
        ],
    )
    @pytest.mark.parametrize(
        "rounds, stabilized", [(0, "none"), (1, "none"), (2, "1"), (3, "1")]
    )
    def test_shrinking_chain(self, files, capsys, kind, first, rest, rounds, stabilized):
        code, out, _ = run(
            capsys, "derive", kind, files[f"{kind}-shrink.txt"],
            "--rounds", str(rounds), "--format", "machine",
        )
        assert code == 0
        levels = [first] + [rest] * rounds
        assert out.splitlines() == [
            *(f"level-{j}: {level}" for j, level in enumerate(levels)),
            "sizes: " + " ".join(str(len(level.split())) for level in levels),
            f"stabilized: {stabilized}",
        ]

    def test_broken_input_reports_verdict_instead(self, files, capsys):
        code, out, _ = run(
            capsys, "derive", "semimodeloid", files["semileft.txt"], "--rounds", "2"
        )
        assert code == 1
        assert "ok: false" in out
        assert "sizes" not in out

    def test_negative_rounds_exit_2(self, files, capsys):
        for kind, name in (
            ("modeloid", "shrink.txt"),
            ("semimodeloid", "semimodeloid-shrink.txt"),
            ("categorical-modeloid", "categorical-modeloid-shrink.txt"),
        ):
            code, out, err = run(capsys, "derive", kind, files[name], "--rounds", "-2")
            assert code == 2
            assert out == ""
            assert err == "error: --rounds must be non-negative\n"


class TestVerifyOncePerRequest:
    """A request checks the axioms of each table instance once, however
    many library calls ask for the verdict; a derived level carries its
    input's verdict and is not checked at all."""

    CHECKERS = (
        (free_categories, "_check_category"),
        (inverse_semigroups, "_check_inverse_semigroup"),
        (inverse_semigroups, "_check_semimodeloid"),
        (modeloid, "_check_modeloid"),
        (categorical, "_check_categorical_modeloid"),
    )

    DERIVE_REQUESTS = [
        ("derive", "modeloid", "shrink.txt", "--rounds", "3"),
        ("derive", "semimodeloid", "semimodeloid-shrink.txt", "--rounds", "3"),
        ("derive", "categorical-modeloid", "catmod-noinv.txt", "--rounds", "3"),
    ]

    def run_counting(self, files, capsys, monkeypatch, args) -> tuple[list, str]:
        """Every instance the checkers see in one request, and its stdout."""
        checked = []
        for module, name in self.CHECKERS:

            def counting(instance, check=getattr(module, name)):
                checked.append(instance)
                return check(instance)

            monkeypatch.setattr(module, name, counting)
        argv = [files.get(a, a) for a in args]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return checked, out

    @pytest.mark.parametrize(
        "args",
        DERIVE_REQUESTS
        + [
            ("verify", "semimodeloid", "semi.txt"),
            ("verify", "categorical-modeloid", "catmod-noinv.txt"),
            ("embed", "f2.txt"),
        ],
    )
    def test_each_instance_checked_once(self, files, capsys, monkeypatch, args):
        checked, _ = self.run_counting(files, capsys, monkeypatch, args)
        assert checked
        assert set(Counter(map(id, checked)).values()) == {1}

    @pytest.mark.parametrize("args", DERIVE_REQUESTS)
    def test_derive_checks_the_input_alone(self, files, capsys, monkeypatch, args):
        # of the levels, only the parsed one (level 0) meets a checker
        checked, out = self.run_counting(files, capsys, monkeypatch, args)
        levels = [x for x in checked if hasattr(x, "members")]
        sizes = dict(line.split(": ") for line in out.splitlines())["sizes"].split()
        assert len(levels) == 1 and len(levels[0].members) == int(sizes[0])

    def test_iterations_check_the_input_without_a_step(self, files):
        with open(files["badmod.txt"], encoding="utf-8") as f:
            M = fileformats.parse_modeloid_file(f.read())
        with pytest.raises(InputError, match="not a modeloid"):
            iterate_derivative(M, 0)
        with open(files["catmod-bad.txt"], encoding="utf-8") as f:
            CM = CategoricalModeloid.from_members(
                *fileformats.parse_categorical_modeloid_file(f.read())
            )
        with pytest.raises(InputError, match="not a categorical modeloid"):
            iterate_categorical(CM, 0)


class TestAssociativityOncePerRequest:
    """A table without an inv row gets one associativity check: the
    inverse map is resolved without one, and the verdict makes one."""

    @pytest.mark.parametrize(
        "args", [("verify", "semigroup", "f2-noinv.txt"), ("embed", "f2-noinv.txt")]
    )
    def test_one_scan(self, files, capsys, monkeypatch, args):
        scanned = []
        scan = inverse_semigroups.associativity_witness

        def counting(mul, *gens):
            scanned.append(mul)
            return scan(mul, *gens)

        monkeypatch.setattr(inverse_semigroups, "associativity_witness", counting)
        argv = [files.get(a, a) for a in args]
        assert run(capsys, *argv)[0] == 0
        assert len(scanned) == 1


def record_chain_steps(monkeypatch) -> list:
    """Every level that a chain of ``ef_games`` hands to its step."""
    stepped = []

    class Recording(ef_games.Chain):
        def __init__(self, start, step):
            def recorded(level):
                stepped.append(level)
                return step(level)

            super().__init__(start, recorded)

    monkeypatch.setattr(ef_games, "Chain", Recording)
    return stepped


class TestEfDerivesOnce:
    def test_certificate_reuses_the_derivative_levels(self, files, capsys, monkeypatch, tmp_path):
        stepped = record_chain_steps(monkeypatch)
        code, _, _ = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "2",
            "--certificate", str(tmp_path / "cert.txt"),
        )
        assert code == 0
        assert (tmp_path / "cert.txt").exists()
        assert stepped
        assert len(stepped) == len(set(stepped))

    def test_endosets_enter_only_as_partial_identities(self, capsys, monkeypatch, tmp_path):
        # the chain for Hom(S3,S4) steps on that homset alone: no
        # endomorphism enters it, and the table of D is never built
        stepped = record_chain_steps(monkeypatch)

        def unread(category):
            raise AssertionError("the table of D was built")

        monkeypatch.setattr(ef_games, "_tables", unread)
        sets = tmp_path / "sets.txt"
        sets.write_text("structure S3\n  universe 3\n\nstructure S4\n  universe 4\n")
        code, _, _ = run(
            capsys, "ef", str(sets), "--left", "S3", "--right", "S4",
            "--rounds", "3", "--certificate", str(tmp_path / "cert.txt"),
        )
        assert code == 0
        assert (tmp_path / "cert.txt").exists()
        assert stepped
        monkeypatch.undo()  # the table of D may be read now
        D = ef_games._latest
        hom = set(D.part(D.left, D.right))
        assert [D.left.name, D.right.name] == ["S3", "S4"]
        assert all(level <= hom for level in stepped)

    def test_only_the_cross_blocks_are_enumerated(self, capsys, monkeypatch, tmp_path):
        # Hom(S3,S4) is the one enumeration, and no table of D is read:
        # Hom(S4,S3), End(S3) and End(S4) are left to the table of D
        enumerated = []
        enumerate_isos = ef_games.enumerate_partial_isos

        def counting(X, Y, *rest):
            enumerated.append((X.name, Y.name))
            return enumerate_isos(X, Y, *rest)

        def unread(category):
            raise AssertionError("the table of D was built")

        monkeypatch.setattr(ef_games, "enumerate_partial_isos", counting)
        monkeypatch.setattr(ef_games, "_tables", unread)
        sets = tmp_path / "sets.txt"
        sets.write_text("structure S3\n  universe 3\n\nstructure S4\n  universe 4\n")
        code, _, _ = run(
            capsys, "ef", str(sets), "--left", "S3", "--right", "S4",
            "--rounds", "3", "--certificate", str(tmp_path / "cert.txt"),
        )
        assert code == 0
        assert (tmp_path / "cert.txt").exists()
        assert enumerated == [("S3", "S4")]

    def test_no_down_set_or_composition_is_read(self, capsys, monkeypatch, tmp_path):
        # the ef chain steps by one-point extensions on pair tuples: no
        # PartialIsoAmbient.below, no PartialIsoAmbient.compose and no
        # categorical_derivative on the way to an answer and a certificate
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
        sets = tmp_path / "sets.txt"
        sets.write_text("structure S3\n  universe 3\n\nstructure S4\n  universe 4\n")
        code, _, _ = run(
            capsys, "ef", str(sets), "--left", "S3", "--right", "S4",
            "--rounds", "3", "--certificate", str(tmp_path / "cert.txt"),
        )
        assert code == 0
        assert (tmp_path / "cert.txt").read_text().startswith("certificate\n")
        assert called == []


def mutated_images(images, kind):
    """Every way to mutate ``images`` of one ``kind``: two images swapped,
    one pair dropped from one image, or one image put in another's place."""
    n = len(images)
    if kind == "swapped":
        for i in range(n):
            for j in range(i + 1, n):
                swapped = list(images)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                yield tuple(swapped)
    elif kind == "dropped":
        for a, f in enumerate(images):
            for k in range(len(f.pairs)):
                short = PartialBijection(f.carrier, f.pairs[:k] + f.pairs[k + 1 :])
                yield images[:a] + (short,) + images[a + 1 :]
    else:
        for i in range(n):
            for j in range(n):
                if i != j:
                    yield images[:j] + (images[i],) + images[j + 1 :]


class TestEmbed:
    def test_semilattice_representation(self, files, capsys):
        code, out, _ = run(capsys, "embed", files["semilattice.txt"])
        assert code == 0
        assert out.splitlines() == [
            "omega-0: (0,0) (1,1)",
            "omega-1: (1,1)",
            "injective: true",
            "multiplicative: true",
            "order-faithful: true",
        ]

    def test_machine_sorts_keys(self, files, capsys):
        code, out, _ = run(
            capsys, "embed", files["semilattice.txt"], "--format", "machine"
        )
        assert code == 0
        assert out.splitlines() == [
            "injective: true",
            "multiplicative: true",
            "omega-0: (0,0) (1,1)",
            "omega-1: (1,1)",
            "order-faithful: true",
        ]

    def test_symmetric_inverse_monoid(self, files, capsys):
        code, out, _ = run(capsys, "embed", files["f2.txt"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[0] == "omega-0: (0,0)"  # the zero acts on itself alone
        assert lines[-3:] == [
            "injective: true",
            "multiplicative: true",
            "order-faithful: true",
        ]

    def test_non_inverse_table_exits_1(self, files, capsys):
        code, out, _ = run(capsys, "embed", files["leftzero.txt"])
        assert code == 1
        assert "ok: false" in out

    # embed on images other than wagner_preston's prints what the
    # definitions give, each read over every pair: natural_leq against
    # is_restriction_of, and compose for every product
    @pytest.mark.parametrize(
        "kind, outcomes",
        [
            pytest.param("swapped", {(True, False, False), (True, False, True)}, id="swapped"),
            pytest.param("dropped", {(True, False, False), (True, False, True)}, id="dropped"),
            pytest.param("duplicated", {(False, False, False)}, id="duplicated"),
        ],
    )
    def test_each_line_is_the_definition(self, files, capsys, monkeypatch, kind, outcomes):
        table, _ = from_partial_bijections(enumerate_all(Carrier(2)))
        n, mul = table.order, table.mul
        seen = set()
        for images in mutated_images(inverse_semigroups.wagner_preston(table), kind):
            monkeypatch.setattr(cli, "wagner_preston", lambda t, s=images: s)
            expected = {
                "injective": len(set(images)) == n,
                "multiplicative": all(
                    images[mul[a][b]] == images[a].compose(images[b])
                    for a in range(n)
                    for b in range(n)
                ),
                "order-faithful": all(
                    inverse_semigroups.natural_leq(table, a, b)
                    == images[a].is_restriction_of(images[b])
                    for a in range(n)
                    for b in range(n)
                ),
            }
            code, out, err = run(capsys, "embed", files["f2.txt"])
            lines = [f"{key}: {cli._bool(value)}" for key, value in expected.items()]
            assert (out.splitlines()[-3:], err) == (lines, "")
            assert code == (0 if all(expected.values()) else 1)
            seen.add(tuple(expected.values()))
        # order-faithful comes out both ways, and no mutation embeds
        assert seen == outcomes

    def test_images_over_two_carriers_exit_2(self, files, capsys, monkeypatch):
        table, _ = from_partial_bijections(enumerate_all(Carrier(2)))
        images, n = inverse_semigroups.wagner_preston(table), table.order
        with pytest.raises(InputError) as refused:
            images[0].compose(PartialBijection(Carrier(n + 1), ()))
        for a, f in enumerate(images):
            odd = PartialBijection(Carrier(n + 1), f.pairs)
            patched = images[:a] + (odd,) + images[a + 1 :]
            monkeypatch.setattr(cli, "wagner_preston", lambda t, s=patched: s)
            assert run(capsys, "embed", files["f2.txt"]) == (2, "", f"error: {refused.value}\n")


class TestModeloidClosureOnGenerators:
    def test_compositions_grow_with_members_times_generators(
        self, tmp_path, capsys, monkeypatch
    ):
        M = full_modeloid(Carrier(4))
        members = sorted(M.members, key=lambda f: f.pairs)
        gens = inverse_semigroups.generators(PartialBijection.compose, members)
        path = tmp_path / "mod4.txt"
        path.write_text(format_modeloid_file(M), encoding="utf-8")
        calls = 0
        kernel = modeloid.row_kernel

        def counting_kernel(width):
            hold, table, reader = kernel(width)

            def counting_reader(g):
                read = reader(g)

                def counted(table_f):
                    nonlocal calls
                    calls += 1
                    return read(table_f)

                return counted

            return hold, table, counting_reader

        # every composition of the check is one product of the row kernel
        monkeypatch.setattr(modeloid, "row_kernel", counting_kernel)
        assert run(capsys, "verify", "modeloid", str(path)) == (0, "ok: true\n", "")
        # a scan over all pairs makes 209 * 209 = 43 681
        assert 0 < calls <= len(members) * (len(gens) + 1)


class TestSubprocess:
    def test_machine_output_is_byte_reproducible(self, files):
        cmd = [
            sys.executable, "-m", "modeloids.cli",
            "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "2",
            "--format", "machine",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.decode() == (
            "equivalent: true\nmethod: derivative\noracle-agrees: true\nrounds: 2\n"
        )

    def test_internal_error_exits_5(self, files, capsys, monkeypatch):
        # a failure inside the program, not in the input, stands for any bug
        def broken(*args, **kwargs):
            raise RuntimeError("category construction failed")

        monkeypatch.setattr(cli, "build_category_D", broken)
        code, out, err = run(
            capsys, "ef", files["sets.txt"], "--left", "P2", "--right", "P3", "--rounds", "2"
        )
        assert code == 5
        assert out == ""
        assert err.startswith("error: internal RuntimeError")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_certificate_failure_gives_no_answer(self, files, capsys, monkeypatch, tmp_path):
        # the certificate is extracted before the answer is written
        def broken(*args, **kwargs):
            raise RuntimeError("extraction failed")

        monkeypatch.setattr(cli, "extract_certificate", broken)
        code, out, err = run(
            capsys, "ef", files["sets.txt"], "--left", "P2", "--right", "P3", "--rounds", "2",
            "--certificate", str(tmp_path / "cert.txt"),
        )
        assert (code, out) == (5, "")
        assert err == "error: internal RuntimeError: extraction failed\n"

    def test_thousands_of_rounds_answer(self, tmp_path):
        # the oracle's recursion depth is bounded by the universe, not by m
        path = tmp_path / "c3.txt"
        path.write_text(
            "vocabulary\n  relation E 2\n\n"
            "structure C3\n  universe 3\n  relation E (0,1) (1,2) (2,0)\n",
            encoding="utf-8",
        )
        cmd = [
            sys.executable, "-m", "modeloids.cli",
            "ef", str(path), "--left", "C3", "--right", "C3", "--rounds", "3000",
        ]
        done = subprocess.run(cmd, capture_output=True, text=True)
        assert done.returncode == 0
        assert "equivalent: true" in done.stdout.splitlines()
        assert "oracle-agrees: true" in done.stdout.splitlines()
        assert done.stderr == ""

    def test_exit_code_propagates(self, files):
        cmd = [
            sys.executable, "-m", "modeloids.cli",
            "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "3",
        ]
        assert subprocess.run(cmd, capture_output=True).returncode == 1


ROOT = Path(__file__).resolve().parent.parent

# tokens that only argparse reads: help, an abbreviated, joined or unknown
# flag, the end of the flags, and values that start with "-"
ODD = (
    "--", "-h", "--help", "--round", "--lef", "--form", "--rounds=2", "--left=A",
    "--format=machine", "--colour", "-1", "-x",
)
VALUES = ("3", "-1", "\u0663", "x", "", "0", "machine", "modeloid", "f.txt")
DIGITS = ("3", "\u0663", "0", "12")  # an int, a path and a name alike
FLAGS = sorted(
    {name for _, _, arguments in cli.COMMANDS.values() for name, _ in arguments if name[0] == "-"}
)


@st.composite
def command_lines(draw):
    """A command and its arguments, each flag there or not, the positionals
    in order among the flags, each value drawn from its choices or
    ``DIGITS``, or from ``VALUES``; then up to two edits: a token inserted,
    dropped or cut short, a flag joined to its value by ``=``, or a flag
    repeated."""
    command = draw(st.sampled_from([*cli.COMMANDS, "help"]))
    arguments = cli.COMMANDS[command][2] if command in cli.COMMANDS else ()
    groups, positionals = [], []
    for name, keywords in arguments:
        value = draw(st.sampled_from(keywords.get("choices", DIGITS)) | st.sampled_from(VALUES))
        if name[0] != "-":
            groups.append(None)
            positionals.append(value)
        elif draw(st.integers(0, 3)):
            groups.append([name, value])
    argv = [command]
    for group in draw(st.permutations(groups)):
        argv += [positionals.pop(0)] if group is None else group
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        word = argv[at] if at < len(argv) else ""
        edit = draw(st.sampled_from(("insert", "drop", "cut", "join", "repeat")))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from((*ODD, *VALUES, *FLAGS, *cli.COMMANDS))))
        elif edit == "drop":
            del argv[at : at + 1]
        elif edit == "cut" and len(word) > 3:
            argv[at] = word[: draw(st.integers(3, len(word) - 1))]
        elif edit == "join" and word.startswith("--") and at + 1 < len(argv):
            argv[at : at + 2] = [f"{word}={argv[at + 1]}"]
        elif edit == "repeat" and word.startswith("--"):
            argv += argv[at : at + 2]
    return argv


def parsed(argv):
    """What argparse makes of ``argv``: the namespace's attributes, or the
    exit code with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit as exit:
        return exit.code, out.getvalue(), err.getvalue()


def readme_command_lines():
    """The command lines of the README's CLI block, each with its
    bracketed options and without them, once per listed choice."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = []
    for line in block.splitlines():
        for spelt in (re.sub(r" \[[^]]*\]", "", line), re.sub(r"\[([^]]*)\]", r"\1", line)):
            choices = re.search(r"\{([^}]*)\}", spelt)
            for choice in choices.group(1).split("|") if choices else (None,):
                chosen = spelt if choice is None else spelt.replace(choices.group(0), choice)
                lines.append(chosen.split()[1:])
    return lines


# the argv of every request of the benchmark's CLI workloads at seed 1
WORKLOAD_ARGV = """
import json, sys, tempfile
from pathlib import Path
import workloads
with tempfile.TemporaryDirectory() as work:
    requests = [r for name in ("tables", "ef-wide", "ef-deep") for r in workloads.build(name, 1, Path(work)).requests]
print(json.dumps([r.argv for r in requests]))
"""


class TestCommandLine:
    @settings(max_examples=300)  # about one in five is plain
    @given(command_lines())
    def test_a_plain_reading_is_argparse_reading(self, argv):
        plain = cli._plain(argv)
        if plain is not None:
            assert vars(plain) == parsed(argv)

    def test_every_benchmark_and_readme_request_is_read_plainly(self):
        done = subprocess.run(
            [sys.executable, "-c", WORKLOAD_ARGV],
            capture_output=True,
            text=True,
            cwd=ROOT / "perfbench",
            check=True,
        )
        requests = json.loads(done.stdout) + readme_command_lines()
        assert len(requests) > 30
        for argv in requests:
            plain = cli._plain(argv)
            assert plain is not None, argv
            assert vars(plain) == parsed(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["ef", "--help"],
            ["ef", "f.txt", "--left", "A", "--right", "B", "--round", "2"],
            ["ef", "f.txt", "--left", "A", "--right", "B", "--rounds=2"],
            ["ef", "f.txt", "--left", "A", "--right", "B", "--rounds", "2", "--rounds", "3"],
            ["ef", "f.txt", "--left", "A", "--right", "B", "--", "--rounds", "2"],
            ["ef", "f.txt", "--left", "A", "--right", "B", "--rounds", "two"],
            ["ef", "f.txt", "--left", "A", "--right", "B", "--rounds", "-1"],
            ["ef", "f.txt", "--left", "-x", "--right", "B", "--rounds", "2"],
            ["ef", "f.txt", "--right", "B", "--rounds", "2"],
            ["validate", "f.txt", "--colour", "x"],
            ["verify", "monoid", "f.txt"],
        ],
    )
    def test_other_spellings_are_left_to_argparse(self, argv):
        assert cli._plain(argv) is None
