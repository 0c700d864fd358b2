"""Make the source tree importable without installing the package, also
for the tests that start ``python -m modeloids.cli`` as a subprocess,
and make the property tests deterministic and bounded in time."""

import os
from pathlib import Path

from hypothesis import settings

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

# the same examples on every run and no timing verdicts; tests that are
# costly per example lower max_examples themselves
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("tier1")
