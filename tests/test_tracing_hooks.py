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


# One traced CLI request; the spans go to the file named first.
TRACED_REQUEST = """
import json, sys
import spans
from modeloids import cli

tracer = spans.Tracer()
spans.install(tracer)
with tracer.request("ef", "cli.request"):
    code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({
        "code": code,
        "spans": tracer.spans,
        "nesting": spans.nesting_violations(tracer.spans),
    }, fh)
"""


def test_enumeration_is_traced_inside_the_build(tmp_path):
    # the part of D that ef builds still enumerates inside the traced
    # build_category_D call, so the build layer and its children stay
    # honest; Hom(S4,S3) is inverted from the one enumeration of Hom(S3,S4)
    sets = tmp_path / "sets.txt"
    sets.write_text("structure S3\n  universe 3\n\nstructure S4\n  universe 4\n")
    out = tmp_path / "trace.json"
    argv = ["ef", str(sets), "--left", "S3", "--right", "S4", "--rounds", "3"]
    argv += ["--certificate", str(tmp_path / "cert.txt")]
    done = subprocess.run(
        [sys.executable, "-c", TRACED_REQUEST, str(out), *argv],
        capture_output=True, text=True, cwd=PERFBENCH,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(out.read_text(encoding="utf-8"))
    assert trace["code"] == 0
    spans = trace["spans"]
    names = [name for name, *_ in spans]
    (build,) = [i for i, name in enumerate(names) if name == "ef_games.build"]
    enumerations = [s for s in spans if s[0] == "structures.enumerate"]
    assert len(enumerations) == 1
    assert all(s[3] == build for s in enumerations)
    assert trace["nesting"] == []
