"""The docstring examples and the narrated demos keep working."""

import doctest
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import modeloids

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
