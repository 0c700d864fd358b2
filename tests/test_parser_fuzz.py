"""Line mutations of valid input files never crash the command line.

Every mutated file goes through ``cli.main`` in-process. The answer may be
"ok" (0), "axiom violated" or "not equivalent" (1), or "malformed input"
(2), but never an internal error (5) or a Python traceback.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeloids import cli
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
from modeloids.modeloid import modeloid_closure
from modeloids.partial_bijections import Carrier, PartialBijection, enumerate_all

STRUCTURES = """vocabulary
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

ROOK_2, _ = from_partial_bijections(enumerate_all(Carrier(2)))
ROOK_2_CATEGORY = semigroup_to_one_object_category(ROOK_2)

# each valid file with the requests that read it; the structure requests
# name A and B, so a mutated name is an input error too
CASES = {
    "structure": (
        STRUCTURES,
        [["validate"], ["ef", "--left", "A", "--right", "B", "--rounds", "2"]],
    ),
    "modeloid": (
        format_modeloid_file(
            modeloid_closure(
                [PartialBijection.from_pairs(Carrier(2), [(0, 1)])], Carrier(2)
            )
        ),
        [["verify", "modeloid"], ["derive", "modeloid", "--rounds", "2"]],
    ),
    "semigroup": (
        format_semigroup_file(ROOK_2),
        [["verify", "semigroup"], ["embed"]],
    ),
    "semimodeloid": (
        format_semimodeloid_file(Semimodeloid(ROOK_2, frozenset(range(7)))),
        [["verify", "semimodeloid"], ["derive", "semimodeloid", "--rounds", "2"]],
    ),
    "category": (
        format_category_file(ROOK_2_CATEGORY),
        [["verify", "category"], ["verify", "inverse-category"]],
    ),
    "categorical-modeloid": (
        format_categorical_modeloid_file(CategoricalModeloid.everything(ROOK_2_CATEGORY)),
        [
            ["verify", "categorical-modeloid"],
            ["derive", "categorical-modeloid", "--rounds", "2"],
        ],
    ),
}

TOKENS = (
    "semigroup", "semimodeloid", "category", "categorical-modeloid", "modeloid",
    "order", "mul", "inv", "neutral", "zero", "members", "morphisms", "star",
    "dom", "cod", "comp", "carrier", "map", "vocabulary", "relation", "constant",
    "structure", "universe", "E", "c", "A", "B", "(0,1)", "(1,1)", "(9,0)",
    "-1", "0", "1", "2", "6", "7", "8", "300", "x", "#",
)

MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("drop", "repeat", "swap", "replace", "cut", "append")),
        st.integers(0, 40),
        st.integers(0, 40),
        st.sampled_from(TOKENS),
    ),
    min_size=1,
    max_size=4,
)


def mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for op, i, j, token in mutations:
        if not lines:
            lines = [token]
            continue
        i %= len(lines)
        j %= len(lines)
        words = lines[i].split()
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "replace" and words:
            words[j % len(words)] = token
            lines[i] = " ".join(words)
        elif op == "cut":
            lines[i] = " ".join(words[: j % (len(words) + 1)])
        else:
            lines[i] = f"{lines[i]} {token}"
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@pytest.mark.parametrize("kind", sorted(CASES))
@settings(max_examples=50)
@given(mutations=MUTATIONS)
def test_mutated_file_exits_with_an_answer_or_an_input_error(input_file, kind, mutations):
    text, requests = CASES[kind]
    input_file.write_text(mutate(text, mutations), encoding="utf-8")
    for request in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*request, str(input_file)])
        assert code in (0, 1, 2), (request, err.getvalue())
        assert "Traceback" not in err.getvalue()
