"""Each entry point loads only the modules it calls, and the package's
names, read on first use, are the ones they always were.

Without cached byte code every start compiles each module it loads, so
a module loaded and not called costs every request its compile time."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import modeloids
from modeloids.categorical import CategoricalModeloid
from modeloids.fileformats import (
    format_categorical_modeloid_file,
    format_category_file,
    format_modeloid_file,
    format_semigroup_file,
    format_semimodeloid_file,
)
from modeloids.free_categories import semigroup_to_one_object_category
from modeloids.inverse_semigroups import Semimodeloid, from_partial_bijections
from modeloids.modeloid import full_modeloid
from modeloids.partial_bijections import Carrier, enumerate_all

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the submodules that carry no layer: what every entry point may load
BASE = {"derived", "errors"}
EF = BASE | {"cli", "codes", "ef_games", "structures", "verdict"}
# what a table request loads, by the kind of table it reads; the laws that
# read bare rows, with their row-composition kernel, are every table
# layer's, so a category loads no semigroup
TABLE = BASE | {"cli", "fileformats", "laws", "verdict"}
SEMIGROUP = TABLE | {"inverse_semigroups"}
CATEGORY = TABLE | {"free_categories"}
MODELOID = TABLE | {"codes", "modeloid", "partial_bijections"}
KINDS = {
    "semigroup": SEMIGROUP,
    "category": CATEGORY,
    "inverse-category": CATEGORY,
    "modeloid": MODELOID,
    "semimodeloid": SEMIGROUP,
    "categorical-modeloid": CATEGORY | {"categorical"},
}
# embed reads a semigroup file and realizes it as partial bijections
EMBED = SEMIGROUP | {"partial_bijections"}

# Run ``code`` in a fresh interpreter, then print the modeloids submodules
# it loaded.
PROBE = """
import json, sys
{code}
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("modeloids."))))
"""

CLI_REQUEST = """
import io, sys
from contextlib import redirect_stdout
import modeloids.cli
with redirect_stdout(io.StringIO()):
    code = modeloids.cli.main(sys.argv[1:])
assert code == 0, code
"""

# the ef-sweep loop of the benchmark: its timed steps must compile nothing
SWEEP_SETUP = """
from modeloids import Structure, Vocabulary, ef_games
E = Vocabulary(relations=(("E", 2),), constants=("c",))
cycle = Structure.build("A", 3, E, {"E": [(0, 1), (1, 2), (2, 0)]}, {"c": 0})
path = Structure.build("B", 3, E, {"E": [(0, 1), (1, 2)]}, {"c": 0})
pairs = [
    (Structure.build("P2", 2, Vocabulary()), Structure.build("P3", 3, Vocabulary())),
    (cycle, path),
    (cycle, cycle),
]
"""
SWEEP_LOOP = """
def unread(category):
    raise AssertionError("the table of D was built")
ef_games._tables = unread
for A, B in pairs:
    for m in range(3):
        equivalent, _ = ef_games.ef_equiv_derivative(A, B, m)
        assert ef_games.ef_equiv_oracle(A, B, m) == equivalent
        if equivalent:
            assert ef_games.verify_certificate(ef_games.extract_certificate(A, B, m)).ok
"""
SWEEP = SWEEP_SETUP + SWEEP_LOOP


def loaded(code: str, *argv: str) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code), *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("loads")
    table, _ = from_partial_bijections(enumerate_all(Carrier(2)))
    category = semigroup_to_one_object_category(table)
    texts = {
        "sets": "structure P2\n  universe 2\n\nstructure P3\n  universe 3\n",
        "semigroup": format_semigroup_file(table),
        "category": format_category_file(category),
        "inverse-category": format_category_file(category),
        "modeloid": format_modeloid_file(full_modeloid(Carrier(2))),
        "semimodeloid": format_semimodeloid_file(Semimodeloid(table, frozenset(range(7)))),
        "categorical-modeloid": format_categorical_modeloid_file(
            CategoricalModeloid.everything(category)
        ),
    }
    for name, text in texts.items():
        (d / name).write_text(text, encoding="utf-8")
    return {name: str(d / name) for name in texts}


def test_importing_the_package_loads_no_layer():
    assert loaded("import modeloids") == BASE


def test_importing_the_cli_loads_no_layer():
    assert loaded("import modeloids.cli") == BASE | {"cli"}


def test_ef_loads_no_table_layer(inputs):
    argv = ["ef", inputs["sets"], "--left", "P2", "--right", "P3", "--rounds", "2"]
    assert loaded(CLI_REQUEST, *argv) == EF


def test_validate_loads_structures_alone(inputs):
    assert loaded(CLI_REQUEST, "validate", inputs["sets"]) == BASE | {"cli", "structures"}


@pytest.mark.parametrize(
    "command, kind, extra",
    [("verify", kind, ()) for kind in (
        "semigroup",
        "category",
        "inverse-category",
        "modeloid",
        "semimodeloid",
        "categorical-modeloid",
    )]
    + [
        ("derive", kind, ("--rounds", "2"))
        for kind in ("modeloid", "semimodeloid", "categorical-modeloid")
    ]
    + [("embed", "semigroup", ())],
)
def test_table_requests_load_no_structure_layer(inputs, command, kind, extra):
    # each kind loads the layer it reads, and no other table layer
    argv = [command, *([] if command == "embed" else [kind]), inputs[kind], *extra]
    assert loaded(CLI_REQUEST, *argv) == (EMBED if command == "embed" else KINDS[kind])


# the standard library modules that only help and usage errors call for
ARGPARSE = ("argparse", "gettext", "locale")


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("ef", "{sets}", "--left", "P2", "--right", "P3", "--rounds", "2"),
        ("validate", "{sets}"),
        ("verify", "modeloid", "{modeloid}"),
        ("derive", "semimodeloid", "{semimodeloid}", "--rounds", "2"),
        ("embed", "{semigroup}"),
    ],
)
def test_a_plain_command_line_loads_no_argparse(inputs, argv):
    # () imports modeloids.cli alone
    code = CLI_REQUEST if argv else "import sys\nimport modeloids.cli"
    probe = f"{code}\nprint(sorted(set(sys.modules).intersection({ARGPARSE!r})))\n"
    done = subprocess.run(
        [sys.executable, "-c", probe, *[word.format(**inputs) for word in argv]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_help_and_usage_errors_are_argparse(capsys, monkeypatch, inputs):
    from modeloids import cli

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to it
    with pytest.raises(SystemExit) as exit:
        cli.main(["--help"])
    out = capsys.readouterr().out
    assert exit.value.code == 0
    assert out.startswith("usage: modeloids [-h] {validate,ef,verify,derive,embed} ...\n")
    with pytest.raises(SystemExit) as exit:
        cli.main(["ef", inputs["sets"], "--left", "P2", "--right", "P3", "--rounds", "two"])
    err = capsys.readouterr().err
    assert exit.value.code == 2
    assert err.startswith("usage: modeloids ef [-h] [--format {text,machine}] --left LEFT")
    assert err.endswith("modeloids ef: error: argument --rounds: invalid int value: 'two'\n")


def test_ef_sweep_loop_loads_no_table_layer():
    assert loaded(SWEEP) == EF - {"cli"}


def test_ef_sweep_loop_loads_nothing_once_it_starts():
    # the benchmark times each step of this loop, so every module a step
    # calls, the certificate check's included, is loaded before the first
    started = "started = {m for m in sys.modules if m.startswith('modeloids')}\n"
    unchanged = "assert {m for m in sys.modules if m.startswith('modeloids')} == started\n"
    assert loaded(SWEEP_SETUP + started + SWEEP_LOOP + unchanged) == EF - {"cli"}


@pytest.mark.parametrize(
    "module, expected",
    [
        ("codes", BASE | {"codes"}),
        ("ef_ambient", EF - {"cli"} | {"ef_ambient"}),
        ("laws", BASE | {"laws", "verdict"}),
        ("free_categories", BASE | {"free_categories", "laws", "verdict"}),
        ("categorical", BASE | {"categorical", "free_categories", "laws", "verdict"}),
    ],
)
def test_a_split_module_imports_first(module, expected):
    assert loaded(f"import modeloids.{module}") == expected


# the categorical layers run on bare-row laws alone, and load the
# semigroup layer only in the two bridges that build its tables
BRIDGES = """
from modeloids import categorical, free_categories
semilattice = ((0, 1, 2), (1, 1, 2), (2, 2, 2))  # 1 <= 0, star 2
c = free_categories.FreeCategory(3, 2, (0, 0, 2), (0, 0, 2), semilattice, (0, 1, 2))
M = categorical.CategoricalModeloid.everything(c)
assert categorical.categorical_derivative(M).members == {0, 1, 2}
assert "modeloids.inverse_semigroups" not in sys.modules
assert free_categories.one_object_to_semigroup(c).mul == ((0, 1), (1, 1))
sm, endos = categorical.endoset_as_semimodeloid(M, 0)
assert (sm.ambient.mul, sm.members, endos) == (((0, 1), (1, 1)), {0, 1}, (0, 1))
"""


def test_the_bridges_to_tables_load_the_semigroup_layer_on_their_call():
    assert loaded(BRIDGES) == BASE | {
        "categorical", "free_categories", "inverse_semigroups", "laws", "verdict"
    }


def test_the_names_moved_out_of_ef_games_resolve_from_it():
    from modeloids import ef_ambient, ef_games

    assert ef_games.PartialIsoAmbient is ef_ambient.PartialIsoAmbient
    assert ef_games.derivative_levels is ef_ambient.derivative_levels


# a name bound before its layer is loaded stays bound when a request loads it
PATCHED_REQUEST = """
import io, sys
from contextlib import redirect_stdout
import modeloids.cli
from modeloids.verdict import Verdict
assert "modeloids.modeloid" not in sys.modules
modeloids.cli.verify_modeloid = lambda M: Verdict(False, "closure", ((0, 1),))
with redirect_stdout(io.StringIO()) as out:
    code = modeloids.cli.main(sys.argv[1:])
assert (code, out.getvalue()) == (1, "ok: false\\naxiom: closure\\nwitness: ((0, 1),)\\n")
"""


def test_a_name_bound_before_loading_is_kept(inputs):
    argv = ("verify", "modeloid", inputs["modeloid"])
    assert loaded(PATCHED_REQUEST, *argv) == MODELOID


# The names of the package, by the submodule they come from; a submodule
# is a name of the package too.
SURFACE = {
    "categorical": (
        "CategoricalModeloid", "categorical_derivative", "endoset_as_semimodeloid",
        "homset_derivative", "iterate_categorical", "member_idempotent_atoms",
        "verify_categorical_modeloid",
    ),
    "derived": (),
    "ef_games": (
        "BackAndForthCertificate", "CategoryD", "build_category_D", "derivative_levels",
        "ef_equiv_derivative", "ef_equiv_oracle", "extract_certificate",
        "format_certificate", "homset_levels", "surviving_maps", "verify_certificate",
    ),
    "errors": ("BoundExceededError", "InputError", "ParseError"),
    "fileformats": (
        "format_categorical_modeloid_file", "format_category_file",
        "format_modeloid_file", "format_semigroup_file", "format_semimodeloid_file",
        "parse_categorical_modeloid_file", "parse_category_file", "parse_modeloid_file",
        "parse_semigroup_file", "parse_semimodeloid_file",
    ),
    "free_categories": (
        "FreeCategory", "below", "endoset", "has_all_zeros", "homset", "is_atom",
        "is_object", "kleene_eq", "objects", "one_object_to_semigroup",
        "semigroup_to_one_object_category", "skolem_inverses", "verify_category",
        "verify_inverse_category_equational", "verify_inverse_category_unique",
        "zero_of_endoset",
    ),
    "inverse_semigroups": (
        "CharacterizationReport", "InverseSemigroupTable", "Semimodeloid", "atoms",
        "characterize", "find_neutral", "find_zero", "from_partial_bijections",
        "idempotent_atoms", "idempotents", "inverses_of", "natural_leq",
        "resolve_inverses", "semimodeloid_derivative", "verify_inverse_semigroup",
        "verify_semimodeloid", "wagner_preston",
    ),
    "modeloid": (
        "Modeloid", "derivative", "full_modeloid", "iterate_derivative",
        "modeloid_closure", "verify_modeloid",
    ),
    "partial_bijections": (
        "Carrier", "PartialBijection", "empty_map", "enumerate_all", "identity_map",
        "partial_identity",
    ),
    "structures": (
        "PartialIso", "Structure", "Vocabulary", "constant_pairs", "constants_only_iso",
        "enumerate_partial_isos", "format_structures", "identity_iso", "is_partial_iso",
        "pairs_are_partial_iso", "parse_structures",
    ),
    "verdict": ("Verdict",),
}
NAMES = sorted(name for home, names in SURFACE.items() for name in (home, *names))


class TestSurface:
    def test_all_is_unchanged(self):
        assert len(NAMES) == 99
        assert modeloids.__all__ == NAMES

    @pytest.mark.parametrize("home", sorted(SURFACE))
    def test_each_name_is_its_home_attribute(self, home):
        module = importlib.import_module(f"modeloids.{home}")
        assert getattr(modeloids, home) is module
        for name in SURFACE[home]:
            assert getattr(modeloids, name) is getattr(module, name)

    def test_dir_and_star_import_list_every_name(self):
        assert set(NAMES) <= set(dir(modeloids))
        namespace = {}
        exec("from modeloids import *", namespace)
        assert set(NAMES) <= set(namespace)

    def test_unknown_names_are_missing(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            modeloids.no_such_name
        assert not hasattr(modeloids, "cmd_ef")
        assert not hasattr(modeloids, "DEFAULT_EF_UNIVERSE_BOUND")
