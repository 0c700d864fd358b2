"""The benchmark's tracer wraps library names by module and attribute.
A rename or move of one of them must fail here rather than leave a
layer of the per-layer report empty."""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_found():
    # in a child process, so the patched attributes die with it
    code = (
        "import json, spans; "
        "print(json.dumps(spans.install(spans.Tracer())))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=PERFBENCH
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
