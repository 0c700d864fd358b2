"""The immutable value classes: construction, immutability, equality,
hash and repr, and a start-up that imports neither ``dataclasses`` nor
``inspect``."""

import copy
import os
import pickle
import subprocess
import sys
from functools import cache

import pytest
from records import replace

from modeloids.categorical import CategoricalModeloid
from modeloids.ef_games import BackAndForthCertificate, build_category_D, extract_certificate
from modeloids.errors import InputError
from modeloids.fileformats import _SEMIGROUP, SemigroupFile, parse_semigroup_file
from modeloids.free_categories import FreeCategory, semigroup_to_one_object_category
from modeloids.inverse_semigroups import (
    CharacterizationReport,
    InverseSemigroupTable,
    Semimodeloid,
    characterize,
    from_partial_bijections,
)
from modeloids.modeloid import Modeloid, full_modeloid
from modeloids.partial_bijections import Carrier, PartialBijection, enumerate_all
from modeloids.structures import PartialIso, Structure, Vocabulary, identity_iso
from modeloids.verdict import Verdict

SEMILATTICE = "semigroup\norder 2\nmul 0 1\nmul 1 1\ninv 0 1\nneutral 0\nzero 1\n"


@cache
def instances():
    """One instance of every value class, built as the library builds it."""
    V = Vocabulary(relations=(("E", 2),))
    A = Structure.build("A", 2, V, {"E": [(0, 1)]})
    B = Structure.build("B", 2, V, {"E": [(1, 0)]})
    table, _ = from_partial_bijections(enumerate_all(Carrier(2)))
    cat = semigroup_to_one_object_category(table)
    D = build_category_D(A, B)
    return [
        Carrier(3),
        PartialBijection.from_pairs(Carrier(3), [(0, 1)]),
        Verdict(False, "inverse", ((0, 1),)),
        V,
        A,
        PartialIso.from_pairs(A, B, [(0, 1)]),
        full_modeloid(Carrier(2)),
        table,
        characterize(table.mul),
        Semimodeloid(table, frozenset(range(table.order))),
        cat,
        CategoricalModeloid.everything(cat),
        parse_semigroup_file(SEMILATTICE),
        _SEMIGROUP,
        D.ambient,
        D,
        extract_certificate(A, B, 1, category=D),
    ]


# the fields of every class, in the order of its constructor
FIELDS = {
    "Carrier": ("size",),
    "PartialBijection": ("carrier", "pairs"),
    "Verdict": ("ok", "axiom", "witness"),
    "Vocabulary": ("relations", "constants"),
    "Structure": ("name", "universe_size", "vocabulary", "relations", "constants"),
    "PartialIso": ("left", "right", "pairs"),
    "Modeloid": ("carrier", "members"),
    "InverseSemigroupTable": ("order", "mul", "inv", "neutral", "zero"),
    "CharacterizationReport": ("axiomatic", "unique_inverses", "regular_and_idempotents_commute"),
    "Semimodeloid": ("ambient", "members"),
    "FreeCategory": ("morphism_count", "star", "dom", "cod", "comp", "inv"),
    "CategoricalModeloid": ("ambient", "members"),
    "SemigroupFile": ("order", "mul", "inv", "neutral", "zero", "members"),
    "_Layout": (
        "size", "block", "rows", "ints", "required", "too_small", "short_row", "out_of_range"
    ),
    "PartialIsoAmbient": (
        "morphism_count", "star", "dom", "cod", "inv", "morphisms", "index", "constants"
    ),
    "CategoryD": ("left", "right", "forth"),
    "BackAndForthCertificate": ("left", "right", "rounds", "levels"),
}
NAMES = list(FIELDS)
# _Layout holds a dict, and the ambient and D are equal only to themselves
VALUES = [name for name in NAMES if name not in ("_Layout", "PartialIsoAmbient", "CategoryD")]


def sample(name):
    return instances()[NAMES.index(name)]


def test_every_value_class_is_covered():
    assert [type(x).__name__ for x in instances()] == NAMES


def test_startup_imports_neither_dataclasses_nor_inspect():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import sys, modeloids.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_startup_imports_no_typing():
    # annotations are never evaluated, so no module needs typing at run
    # time; -S leaves out the site packages, whose .pth files may import it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = "import sys, modeloids.cli; assert 'typing' not in sys.modules"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr


class TestRepr:
    def test_literal_strings(self):
        assert repr(Carrier(3)) == "Carrier(size=3)"
        assert repr(PartialBijection(Carrier(3), ((0, 1), (2, 0)))) == (
            "PartialBijection(carrier=Carrier(size=3), pairs=((0, 1), (2, 0)))"
        )
        assert repr(Verdict(False, "inverse", ((0, 1),))) == (
            "Verdict(ok=False, axiom='inverse', witness=((0, 1),))"
        )
        assert repr(Verdict(True)) == "Verdict(ok=True, axiom=None, witness=None)"
        assert repr(Vocabulary()) == "Vocabulary(relations=(), constants=())"
        assert str(Verdict(False, "restriction", (((0, 0),), ())).witness) == "(((0, 0),), ())"

    @pytest.mark.parametrize("name", NAMES)
    def test_lists_the_fields_in_order(self, name):
        obj = sample(name)
        assert obj._fields == FIELDS[name]
        fields = ", ".join(f"{field}={getattr(obj, field)!r}" for field in FIELDS[name])
        assert repr(obj) == f"{name}({fields})"

    def test_a_fact_stays_out(self):
        cat = sample("FreeCategory")
        hash(cat)  # cached as a fact in the instance dict
        assert "_fact" not in repr(cat)


class TestImmutable:
    @pytest.mark.parametrize("name", NAMES)
    def test_assignment_and_deletion_raise(self, name):
        obj = sample(name)
        field = FIELDS[name][0]
        before = getattr(obj, field)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(obj, field, before)
        with pytest.raises(AttributeError, match="cannot assign"):
            obj.fresh_attribute = 1
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(obj, field)
        assert getattr(obj, field) is before


class TestEquality:
    @pytest.mark.parametrize("name", VALUES)
    def test_equal_field_copies_are_equal_and_hash_alike(self, name):
        obj = sample(name)
        copy = replace(obj)
        assert copy is not obj
        assert copy == obj and not copy != obj
        assert hash(copy) == hash(obj)
        # the hash of the tuple of the fields, as before the classes were plain
        assert hash(obj) == hash(tuple(getattr(obj, name) for name in obj._fields))

    def test_a_field_change_or_another_class_is_unequal(self):
        assert Carrier(3) != Carrier(4)
        assert Verdict(True) != Verdict(True, "x")
        assert Verdict(True) != (True, None, None)
        assert Modeloid(Carrier(1), frozenset()) != (Carrier(1), frozenset())

    def test_ambient_and_category_compare_by_identity(self):
        D = sample("CategoryD")
        for obj in (D, D.ambient):
            twin = replace(obj)
            assert obj == obj and twin != obj
            assert hash(obj) == object.__hash__(obj)
        A, B = D.left, D.right
        again = build_category_D(replace(A), replace(B))
        assert again is not D and again != D and again.ambient != D.ambient

    @pytest.mark.parametrize("name", ["Structure", "FreeCategory", "Modeloid"])
    def test_copies_and_pickles_carry_no_facts(self, name):
        obj = sample(name)
        hash(obj)
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert sorted(vars(twin)) == sorted(FIELDS[name])
            assert twin == obj and hash(twin) == hash(obj)

    def test_free_category_keeps_its_cached_hash(self):
        cat = sample("FreeCategory")
        assert hash(cat) == hash(cat) == hash(replace(cat))
        assert any(key.startswith("_fact") for key in vars(cat))


class TestConstruction:
    def test_keywords_and_defaults(self):
        assert Verdict(ok=True) == Verdict(True, None, None)
        assert Vocabulary() == Vocabulary((), ())
        cat = sample("FreeCategory")
        bare = FreeCategory(
            morphism_count=cat.morphism_count, star=cat.star, dom=cat.dom, cod=cat.cod,
            comp=cat.comp, inv=None,
        )
        assert bare == FreeCategory(cat.morphism_count, cat.star, cat.dom, cat.cod, cat.comp)
        table = InverseSemigroupTable(order=1, mul=((0,),), inv=(0,))
        assert (table.neutral, table.zero) == (None, None)
        assert SemigroupFile(1, ((0,),)).members is None
        assert CharacterizationReport(True, True, True).all_agree()

    def test_positional_order_is_the_field_order(self):
        for obj in instances():
            values = [getattr(obj, name) for name in obj._fields]
            rebuilt = type(obj)(*values)
            assert [getattr(rebuilt, name) for name in obj._fields] == values

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Carrier(0),
            lambda: PartialBijection(Carrier(2), ((0, 1), (1, 1))),
            lambda: Vocabulary(relations=(("E", 2),), constants=("E",)),
            lambda: Structure("S", 0, Vocabulary(), (), ()),
            lambda: PartialIso(sample("Structure"), sample("Structure"), ((1, 0), (0, 1))),
            lambda: BackAndForthCertificate(
                sample("Structure"), sample("Structure"), 1, (frozenset(),)
            ),
            lambda: Semimodeloid(sample("InverseSemigroupTable"), frozenset({99})),
        ],
    )
    def test_validation_at_construction(self, build):
        with pytest.raises(InputError):
            build()

    def test_validation_names_the_structure(self):
        with pytest.raises(InputError, match="constant c in S leaves the universe"):
            Structure("S", 1, Vocabulary(constants=("c",)), (), (3,))

    def test_unknown_keyword_is_refused(self):
        with pytest.raises(TypeError):
            replace(Carrier(2), width=3)

    def test_identity_iso_is_an_equal_value(self):
        A = sample("Structure")
        assert identity_iso(A) == identity_iso(replace(A))
