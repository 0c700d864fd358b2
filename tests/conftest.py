"""Make the source tree importable without installing the package, also
for the tests that start ``python -m modeloids.cli`` as a subprocess."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
