"""The benchmark's verdict gate, run on one seed of every workload.

Each CLI request of ``ef-wide``, ``ef-deep`` and ``tables`` goes through
``modeloids.cli.main`` and is checked by ``workloads.check_cli``; the
``ef-sweep`` steps go through the benchmark worker's loop and are checked
by ``workloads.check_step``.  A change to stdout or to the certificate
format then fails here, not only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# run in a child process with cwd perfbench/, which imports as the
# benchmark does; prints the gate's complaints as one JSON list
CHILD = """
import io, json, sys, time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import worker, workloads
from modeloids import cli

name, work = sys.argv[1], Path(sys.argv[2])
wl = workloads.build(name, 1, work)
problems = []
for req in wl.requests:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(req.argv)
    why = workloads.check_cli(req, code, out.getvalue(), err.getvalue())
    if why is not None:
        problems.append(f"{req.label}: {why}")
if wl.sweep is not None:
    result = work / "sweep.json"
    spec = dict(wl.sweep, trace=0, spawned=time.perf_counter(), result=str(result))
    worker._sweep(spec)
    steps = json.loads(result.read_text(encoding="utf-8"))["steps"]
    if len(steps) != len(wl.steps):
        problems.append(f"{len(steps)} steps, expected {len(wl.steps)}")
    for expected, step in zip(wl.steps, steps):
        why = workloads.check_step(expected, step)
        if why is not None:
            problems.append(f"pair {expected['pair']} m={expected['m']}: {why}")
print(json.dumps({"answers": len(wl.requests) + len(wl.steps), "problems": problems}))
"""


@pytest.mark.parametrize("workload", ["ef-wide", "ef-deep", "tables", "ef-sweep"])
def test_every_answer_passes_the_gate(workload, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", CHILD, workload, str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=PERFBENCH,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["problems"] == []
    assert report["answers"] > 0
