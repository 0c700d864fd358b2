"""Layered benchmark for the modeloids CLI and library.

    python3 perfbench/run.py --workload ef-wide --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is taken from
``src/`` (no install needed).  Workloads are described in
perfbench/README.md.  One client runs a closed loop: the next request
starts only after the previous one has returned.  CLI requests are fresh
``python -m modeloids.cli ... --format machine`` processes; ef-sweep runs
the library loop in a fresh worker interpreter per pass.  Passes over the
workload's request list repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead, and writes the spans to
``.perfbench_out/trace-<workload>.json``.  ``--workload all`` runs every
workload in turn and prints each summary.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

REQUEST_LIMIT_S = 60.0  # one CLI request
SWEEP_LIMIT_S = 120.0  # one ef-sweep worker
HARD_STOP_S = 170.0  # no request runs past this point of a run
SETUP_SAMPLES = 7

# Per workload: the layer predicted to take the largest share of the
# traced pass, or a group of layers predicted to take most of it.
PREDICTIONS = {
    "ef-wide": ("largest", ("ef_games.build",)),
    "ef-deep": ("largest", ("ef_games.oracle",)),
    "ef-sweep": ("most", ("categorical.level", "ef_games.certificate_extract")),
    "tables": ("most", spans.VERIFY_SPANS),
}


class Finished(NamedTuple):
    seconds: float  # scaled to the reference speed (clock.py)
    raw_seconds: float
    code: int | None  # None: killed by a signal, or no time left to start
    stdout: str
    stderr: str
    rss_mb: float


class Runner:
    """One benchmark run: the work directory, the child environment, the
    speed probe and the clock that bounds every child process."""

    def __init__(self, work: Path):
        # One processor for the run and its children, so the speed probe
        # runs where the program runs.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.probe = clock.SpeedProbe()
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.started = time.monotonic()
        self._n = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.probe.close()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, cmd: list[str], limit: float, stamp: bool = False) -> Finished:
        """Run one process to its end.  It is killed at ``limit`` seconds
        or at the run's hard stop, whichever comes first.  With ``stamp``
        the start time goes to the process as its last argument."""
        limit = min(limit, HARD_STOP_S - self.elapsed())
        if limit <= 0:
            return Finished(0.0, 0.0, None, "", "", 0.0)
        self._n += 1
        out_path = self.work / f"child-{self._n}.out"
        err_path = self.work / f"child-{self._n}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            if stamp:
                cmd = cmd + [repr(time.perf_counter())]
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
            # Reaped by wait4 for its rusage; tell Popen so.
            proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode if proc.returncode >= 0 else None
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()
        raw = end - start
        seconds = raw * self.probe.factor(start, end)
        return Finished(seconds, raw, code, stdout, stderr, usage.ru_maxrss / 1024)

    def setup_seconds(self) -> list[float]:
        """Interpreter start plus ``import modeloids.cli``, several times.
        The first start compiles the byte code and is not counted."""
        cmd = [sys.executable, "-c", "import modeloids.cli"]
        samples = []
        for i in range(SETUP_SAMPLES + 1):
            done = self.child(cmd, REQUEST_LIMIT_S)
            if done.code != 0:
                raise RuntimeError(f"cannot import modeloids.cli:\n{done.stderr}")
            if i:
                samples.append(done.seconds)
        return samples


# ---------------------------------------------------------------------------
# One pass over a workload's request list


def cli_pass(run: Runner, wl, traced: bool, tag: str) -> dict:
    records, all_spans, counts = [], [], {}
    for i, req in enumerate(wl.requests):
        if req.certificate is not None and req.certificate.exists():
            req.certificate.unlink()
        if traced:
            result_path = run.work / "trace-result.json"
            spec_path = run.work / "trace-spec.json"
            spec = {"argv": req.argv, "request": f"{tag}:{i}", "result": str(result_path)}
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(spec_path)]
            done = run.child(cmd, REQUEST_LIMIT_S, stamp=True)
            stdout = ""
            if done.code is not None and result_path.is_file():
                result = json.loads(result_path.read_text(encoding="utf-8"))
                result_path.unlink()
                stdout = result["stdout"]
                _merge(all_spans, counts, result)
                output = len(stdout.encode())
                if req.certificate is not None and req.certificate.is_file():
                    output += req.certificate.stat().st_size
                counts["cli.output_bytes"] = counts.get("cli.output_bytes", 0) + output
        else:
            cmd = [sys.executable, "-m", "modeloids.cli", *req.argv]
            done = run.child(cmd, REQUEST_LIMIT_S)
            stdout = done.stdout
        if done.code is None:
            failure = "killed by a signal or at the time limit"
        else:
            failure = workloads.check_cli(req, done.code, stdout, done.stderr)
        records.append({
            "label": req.label,
            "seconds": done.seconds,
            "raw_seconds": done.raw_seconds,
            "rss": done.rss_mb,
            "failure": failure,
        })
    return {"records": records, "spans": all_spans, "counts": counts}


def sweep_pass(run: Runner, wl, traced: bool, tag: str) -> dict:
    result_path = run.work / "sweep-result.json"
    spec_path = run.work / "sweep-spec.json"
    spec = dict(wl.sweep, trace=traced, result=str(result_path))
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), "sweep", str(spec_path)]
    done = run.child(cmd, SWEEP_LIMIT_S, stamp=True)
    result = {"steps": [], "peak_rss_mb": 0.0, "spans": [], "counts": {}}
    if done.code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
    steps = result["steps"]
    # One request is one pair's distinguishing-depth loop, m = 0..M.
    records = []
    for pair, (left, right) in enumerate(wl.sweep["pairs"]):
        record = {
            "label": f"sweep {left['name']}/{right['name']} m=0..{wl.sweep['max_rounds']}",
            "seconds": 0.0,
            "raw_seconds": 0.0,
            "rss": result["peak_rss_mb"],
            "failure": None,
        }
        for i, expected in enumerate(wl.steps):
            if expected["pair"] != pair:
                continue
            if i >= len(steps):
                record["failure"] = f"worker ended with {done.code}: {done.stderr.strip()[-300:]}"
                break
            start, end = steps[i]["start"], steps[i]["end"]
            record["raw_seconds"] += end - start
            record["seconds"] += (end - start) * run.probe.factor(start, end)
            failure = workloads.check_step(expected, steps[i])
            if failure and not record["failure"]:
                record["failure"] = f"m={expected['m']}: {failure}"
        records.append(record)
    all_spans, counts = [], {}
    if traced:
        for s in result["spans"]:
            s[4] = f"{tag}:{s[4]}"
        _merge(all_spans, counts, result)
    return {"records": records, "spans": all_spans, "counts": counts}


def _merge(all_spans: list, counts: dict, result: dict):
    """Append a worker's spans, shifting its parent indices."""
    offset = len(all_spans)
    for name, start, end, parent, request in result["spans"]:
        all_spans.append([name, start, end, None if parent is None else parent + offset, request])
    for key, value in result["counts"].items():
        counts[key] = counts.get(key, 0) + value
    counts.setdefault("startups", []).append(result["startup"])
    if result.get("missing_hooks"):
        counts.setdefault("missing_hooks", set()).update(result["missing_hooks"])


def one_pass(run: Runner, wl, traced: bool, tag: str) -> dict:
    if wl.sweep is not None:
        p = sweep_pass(run, wl, traced, tag)
    else:
        p = cli_pass(run, wl, traced, tag)
    p["wall"] = sum(r["seconds"] for r in p["records"])
    p["raw_wall"] = sum(r["raw_seconds"] for r in p["records"])
    return p


# ---------------------------------------------------------------------------
# A whole run


def measure(wl, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, then repeat passes until ``seconds`` have passed."""
    with Runner(work) as run:
        setup = run.setup_seconds()
        plain, traced = [], []
        start = time.monotonic()
        while True:
            plain.append(one_pass(run, wl, False, f"p{len(plain)}"))
            if trace:
                traced.append(one_pass(run, wl, True, f"t{len(traced)}"))
            if time.monotonic() - start >= seconds or run.elapsed() >= HARD_STOP_S:
                break
    return {"setup": setup, "plain": plain, "traced": traced, "probe": run.probe}


def end_to_end(result: dict) -> dict[str, float]:
    passes = result["plain"]
    requests = [r for p in passes for r in p["records"]]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "request_s.p50": statistics.median(r["seconds"] for r in requests),
        "peak_rss_mb": max(r["rss"] for r in requests),
        "setup_s": statistics.median(result["setup"]),
    }


def per_layer(result: dict) -> dict[str, float]:
    """Per-layer metrics, the median over traced passes, with self times
    scaled like every other timing."""
    factor = result["probe"].factor
    rows = []
    for p in result["traced"]:
        values = spans.layer_metrics(p["spans"], p["counts"], factor)
        values["cli.startup_s"] = sum(
            (b - a) * factor(a, b) for a, b in p["counts"].get("startups", ())
        )
        values["cli.output_bytes"] = p["counts"].get("cli.output_bytes", 0)
        rows.append(values)
    merged = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    traced_wall = statistics.median(p["wall"] for p in result["traced"])
    merged["trace.overhead_s"] = traced_wall - statistics.median(
        p["wall"] for p in result["plain"]
    )
    return merged


def prediction(workload: str, p: dict, factor) -> str:
    """Compare the layer shares of one traced pass with the prediction."""
    own: dict[str, float] = {}
    for (name, start, end, *_), self_s in zip(p["spans"], spans.self_times(p["spans"])):
        own[name] = own.get(name, 0.0) + self_s * factor(start, end)
    own["cli.startup"] = sum((b - a) * factor(a, b) for a, b in p["counts"].get("startups", ()))
    total = p["wall"]
    if total <= 0:
        return "prediction not checked: the traced pass measured nothing"
    rule, names = PREDICTIONS[workload]
    if rule == "largest":
        top = max(own, key=own.get)
        return (
            f"prediction {'holds' if top in names else 'MISSED'}: largest layer is "
            f"{top} ({own[top] / total:.0%} of {total:.3f} s traced), predicted {names[0]}"
        )
    share = sum(own.get(n, 0.0) for n in names) / total
    return (
        f"prediction {'holds' if share > 0.5 else 'MISSED'}: {' + '.join(names)} take "
        f"{share:.0%} of {total:.3f} s traced, predicted more than half"
    )


def report(name: str, seed: int, trace: bool, result: dict, config: dict) -> dict:
    passes = result["plain"] + result["traced"]
    requests = [r for p in passes for r in p["records"]]
    failed = [r for r in requests if r["failure"]]
    for r in failed:
        print(f"FAIL {name} {r['label']}: {r['failure']}")
    plain_requests = sum(len(p["records"]) for p in result["plain"])
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    e2e = end_to_end(result)
    print(f"== {name} (seed {seed}): {len(result['plain'])} untraced passes"
          + (f", {len(result['traced'])} traced" if trace else ""))
    notes = {
        "wall_s": f"median of {len(result['plain'])} passes",
        "request_s.p50": f"median of {plain_requests} requests",
        "peak_rss_mb": "highest request process" if name != "ef-sweep" else "sweep worker",
        "setup_s": f"median of {len(result['setup'])} interpreter starts",
    }
    for key, value in e2e.items():
        print(f"  {key:<16} {value:12.4f} {units[key]:<6} {notes[key]}")
    print(f"  {'fail_ratio':<16} {len(failed) / len(requests):12.4f} {'ratio':<6} "
          f"{len(failed)} of {len(requests)} requests")
    raw_wall = statistics.median(p["raw_wall"] for p in result["plain"])
    print(f"  {'raw wall_s':<16} {raw_wall:12.4f} {'s':<6} unscaled, median of "
          f"{len(result['plain'])} passes")
    if trace:
        layers = per_layer(result)
        traced_wall = statistics.median(p["wall"] for p in result["traced"])
        print(f"  {'traced wall_s':<16} {traced_wall:12.4f} {'s':<6} median of "
              f"{len(result['traced'])} traced passes")
        for m in config["per_layer"]:
            print(f"  {m['name']:<40} {layers[m['name']]:14.6f} {m['unit']}")
        print("  " + prediction(name, result["traced"][0], result["probe"].factor))
        missing = set().union(*(p["counts"].get("missing_hooks", set()) for p in result["traced"]))
        if missing:
            print("  hooks not found: " + ", ".join(sorted(missing)))
        bad = [v for p in result["traced"] for v in spans.nesting_violations(p["spans"])]
        print(f"  span nesting: {'ok' if not bad else bad[0]}")
        write_trace(name, seed, result, layers)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in config["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in config["end_to_end"]}
    return {
        "correct": not failed,
        "attempted": len(requests),
        "failed": len(failed),
        "metrics": metrics,
    }


def write_trace(name: str, seed: int, result: dict, layers: dict):
    path = OUT / f"trace-{name}.json"
    data = {
        "workload": name,
        "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "request"],
        "passes": [
            {
                "wall_s": p["wall"],
                "requests": [r["label"] for r in p["records"]],
                "spans": p["spans"],
                "counts": {k: v for k, v in p["counts"].items() if k != "missing_hooks"},
            }
            for p in result["traced"]
        ],
        "per_layer": layers,
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    print(f"  spans written to {path.relative_to(ROOT)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.build(name, seed, work)
        return report(name, seed, trace, measure(wl, seconds, trace, work), config)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside: unwind, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "modeloids" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'modeloids'} is missing",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), config)
        for name in names
    }
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
