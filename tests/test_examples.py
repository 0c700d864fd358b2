"""The docstring examples and the narrated demos keep working."""

import doctest
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modeloids
from modeloids import ef_games

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_docstring_examples():
    attempted = 0
    for info in pkgutil.iter_modules(modeloids.__path__):
        module = importlib.import_module(f"modeloids.{info.name}")
        failed, tried = doctest.testmod(module)
        assert failed == 0, info.name
        attempted += tried
    # the seven examples of partial_bijections and the three of
    # modeloid.modeloid_closure at least
    assert attempted >= 10


@pytest.mark.parametrize("demo", ["round_equivalence.py", "tables_to_partial_maps.py"])
def test_demo_exits_0(demo):
    done = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_library_example(monkeypatch):
    # the two ef_equiv_derivative calls on C3/P3 share one D: Hom(C3,P3)
    # is enumerated once, not once per call, and no table of D is read
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    enumerated = []
    real = ef_games.enumerate_partial_isos

    def counted(*args):
        enumerated.append(tuple(S.name for S in args[:2]))
        return real(*args)

    def unread(category):
        raise AssertionError("the table of D was built")

    monkeypatch.setattr(ef_games, "enumerate_partial_isos", counted)
    monkeypatch.setattr(ef_games, "_tables", unread)
    exec(block, {})
    assert enumerated == [("C3", "P3")]
