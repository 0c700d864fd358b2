"""Command-line interface: output contracts and exit codes."""

import io
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest

from modeloids import cli, ef_games, free_categories, inverse_semigroups, modeloid
from modeloids.categorical import CategoricalModeloid
from modeloids.ef_games import extract_certificate, format_certificate
from modeloids.fileformats import (
    format_categorical_modeloid_file,
    format_category_file,
    format_modeloid_file,
    format_semigroup_file,
    format_semimodeloid_file,
)
from modeloids.free_categories import semigroup_to_one_object_category
from modeloids.inverse_semigroups import Semimodeloid, from_partial_bijections
from modeloids.modeloid import full_modeloid, modeloid_closure
from modeloids.partial_bijections import Carrier, PartialBijection, enumerate_all
from modeloids.structures import parse_structures

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

    def test_method_disagreement_is_loud(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ef_equiv_oracle", lambda *a, **k: True)
        code, out, err = run(
            capsys, "ef", files["sets.txt"],
            "--left", "P2", "--right", "P3", "--rounds", "3",
        )
        assert code == 4
        assert "oracle-agrees: false" in out
        assert "invariant breach" in err

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
    many library calls ask for the verdict."""

    CHECKERS = (
        (free_categories, "_check_category"),
        (inverse_semigroups, "_check_inverse_semigroup"),
        (inverse_semigroups, "_check_semimodeloid"),
        (modeloid, "_check_modeloid"),
    )

    @pytest.mark.parametrize(
        "args",
        [
            ("derive", "modeloid", "shrink.txt", "--rounds", "3"),
            ("derive", "semimodeloid", "semimodeloid-shrink.txt", "--rounds", "3"),
            ("derive", "categorical-modeloid", "catmod-noinv.txt", "--rounds", "3"),
            ("verify", "semimodeloid", "semi.txt"),
            ("verify", "categorical-modeloid", "catmod-noinv.txt"),
            ("embed", "f2.txt"),
        ],
    )
    def test_each_instance_checked_once(self, files, capsys, monkeypatch, args):
        checked = []
        for module, name in self.CHECKERS:

            def counting(instance, check=getattr(module, name)):
                checked.append(instance)
                return check(instance)

            monkeypatch.setattr(module, name, counting)
        argv = [files.get(a, a) for a in args]
        assert run(capsys, *argv)[0] == 0
        assert checked
        assert set(Counter(map(id, checked)).values()) == {1}


class TestAssociativityOncePerRequest:
    """A table without an inv row gets one associativity check: the
    inverse map is resolved without one, and the verdict makes one."""

    @pytest.mark.parametrize(
        "args", [("verify", "semigroup", "f2-noinv.txt"), ("embed", "f2-noinv.txt")]
    )
    def test_one_scan(self, files, capsys, monkeypatch, args):
        scanned = []
        scan = inverse_semigroups.associativity_witness

        def counting(mul):
            scanned.append(mul)
            return scan(mul)

        monkeypatch.setattr(inverse_semigroups, "associativity_witness", counting)
        argv = [files.get(a, a) for a in args]
        assert run(capsys, *argv)[0] == 0
        assert len(scanned) == 1


class TestEfDerivesOnce:
    def test_certificate_reuses_the_derivative_levels(self, files, capsys, monkeypatch, tmp_path):
        stepped = []
        step = ef_games.categorical_derivative

        def counting(M, check=True):
            stepped.append(M.members)
            return step(M, check=check)

        monkeypatch.setattr(ef_games, "categorical_derivative", counting)
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
        # the chain for Hom(S3,S4) starts from that homset and the partial
        # identities; End(S3) and End(S4) no longer enter whole
        handed = []
        step = ef_games.categorical_derivative

        def recording(M, check=True):
            handed.append(M)
            return step(M, check=check)

        monkeypatch.setattr(ef_games, "categorical_derivative", recording)
        sets = tmp_path / "sets.txt"
        sets.write_text("structure S3\n  universe 3\n\nstructure S4\n  universe 4\n")
        code, _, _ = run(
            capsys, "ef", str(sets), "--left", "S3", "--right", "S4",
            "--rounds", "3", "--certificate", str(tmp_path / "cert.txt"),
        )
        assert code == 0
        assert (tmp_path / "cert.txt").exists()
        assert handed
        for M in handed:
            c = M.ambient
            for i in M.members:
                assert i != c.star
                if c.dom[i] == c.cod[i]:
                    assert all(a == b for a, b in c.morphisms[i].pairs)

    def test_only_the_cross_blocks_are_enumerated(self, capsys, monkeypatch, tmp_path):
        # the partial identities are generated, and End(S3), End(S4) are
        # never built: all of D is left to the paper's reference chain
        enumerated = []
        enumerate_isos = ef_games.enumerate_partial_isos

        def counting(X, Y, *rest):
            enumerated.append((X.name, Y.name))
            return enumerate_isos(X, Y, *rest)

        monkeypatch.setattr(ef_games, "enumerate_partial_isos", counting)
        sets = tmp_path / "sets.txt"
        sets.write_text("structure S3\n  universe 3\n\nstructure S4\n  universe 4\n")
        code, _, _ = run(
            capsys, "ef", str(sets), "--left", "S3", "--right", "S4",
            "--rounds", "3", "--certificate", str(tmp_path / "cert.txt"),
        )
        assert code == 0
        assert (tmp_path / "cert.txt").exists()
        assert enumerated == [("S3", "S4"), ("S4", "S3")]


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

    def test_swapped_images_match_the_check_on_every_pair(
        self, files, capsys, monkeypatch
    ):
        table, _ = from_partial_bijections(enumerate_all(Carrier(2)))
        n = table.order
        omegas = inverse_semigroups.wagner_preston(table)
        for i in range(n):
            for j in range(i + 1, n):
                swapped = list(omegas)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                monkeypatch.setattr(cli, "wagner_preston", lambda t, s=tuple(swapped): s)
                expected = all(
                    swapped[table.mul[a][b]] == swapped[a].compose(swapped[b])
                    for a in range(n)
                    for b in range(n)
                )
                out = run(capsys, "embed", files["f2.txt"])[1].splitlines()
                assert out[-2] == f"multiplicative: {cli._bool(expected)}"


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
        compose = PartialBijection.compose

        def counting(f, g):
            nonlocal calls
            calls += 1
            return compose(f, g)

        monkeypatch.setattr(PartialBijection, "compose", counting)
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
