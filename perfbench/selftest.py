"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

1. frozen.py is what the naive game recursion in games.py gives, and the
   closed forms agree with that recursion on small cases.
2. The verdict gate catches a wrong answer: with one expected answer
   flipped, the pass reports failures.
3. Child spans never exceed their parent span in a traced pass, and the
   nesting check flags a span list where one does.
4. Isolation: two ef-sweep passes, each in its own fresh worker, run back
   to back from one process, agree on wall_s within the benchmark's bound.

Takes about a minute; exits 1 when a check fails.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import frozen
import games as g
import run
import spans
import workloads

FAILED = []


def check(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    if not ok:
        FAILED.append(name)


def frozen_answers():
    for (na, ea, pa), (nb, eb, pb), answers in frozen.POOL:
        A, B = g.Graph("A", na, frozenset(ea), pa), g.Graph("B", nb, frozenset(eb), pb)
        game = g.Game(A, B)
        if [game.equivalent(m) for m in range(len(answers))] != list(answers):
            check("frozen pool answers", False, f"{A} {B}")
            return
        perm_a, perm_b = g.random_perm(random.Random(na), na), g.random_perm(random.Random(nb), nb)
        relabelled = g.Game(A.relabel("A", perm_a), B.relabel("B", perm_b))
        if [relabelled.equivalent(m) for m in range(len(answers))] != list(answers):
            check("relabelling keeps pool answers", False, f"{A} {B}")
            return
    check("frozen pool answers", True, f"{len(frozen.POOL)} pairs")
    sizes = g.derivative_sizes(g.cycle("C4", 4), g.path("P4", 4), 3)
    check("frozen C4/P4 derivative sizes", tuple(sizes) == frozen.C4_P4_DERIVE_SIZES, str(sizes))


def closed_forms():
    for n in range(1, 5):
        for k in range(1, 5):
            game = g.Game(g.pure_set("S", n), g.pure_set("T", k))
            for m in range(6):
                if game.equivalent(m) != g.pure_sets_equivalent(n, k, m):
                    check("pure-set closed form", False, f"n={n} k={k} m={m}")
                    return
    for n in (2, 3, 4, 5):
        game = g.Game(g.cycle("C", n), g.path("P", n))
        for m in range(4):
            if game.equivalent(m) != g.cycle_path_equivalent(n, m):
                check("cycle/path closed form", False, f"n={n} m={m}")
                return
    rng = random.Random(7)
    for _ in range(20):
        base = g.random_pointed_graph(rng, "G", 4)
        game = g.Game(base, base.relabel("H", g.random_perm(rng, 4)))
        if not game.equivalent(4):
            check("relabelling closed form", False, str(base))
            return
    check("closed forms agree with the game recursion", True)


def gate_catches_wrong_answers(runner, work):
    wl = workloads.build("ef-wide", 1, work)
    wl.requests = [r for r in wl.requests if r.label.startswith(("ef S3/", "ef C5/"))]
    good = run.one_pass(runner, wl, False, "good")
    check("gate passes right answers", not any(r["failure"] for r in good["records"]))
    wrong = copy.deepcopy(wl)
    wrong.requests[0].expect["equivalent"] = not wrong.requests[0].expect["equivalent"]
    bad = run.one_pass(runner, wrong, False, "bad")
    failed = sum(1 for r in bad["records"] if r["failure"])
    check("flipped CLI answer raises fail_ratio", failed > 0,
          f"fail_ratio {failed}/{len(bad['records'])}: {bad['records'][0]['failure']}")

    sweep = workloads.build("ef-sweep", 1, work)
    sweep.sweep["pairs"] = sweep.sweep["pairs"][:1]
    sweep.steps = [s for s in sweep.steps if s["pair"] == 0]
    sweep.steps[-1]["equivalent"] = not sweep.steps[-1]["equivalent"]
    bad = run.one_pass(runner, sweep, False, "bad-sweep")
    failed = sum(1 for r in bad["records"] if r["failure"])
    check("flipped ef-sweep answer raises fail_ratio", failed == 1,
          f"fail_ratio {failed}/{len(bad['records'])}: {bad['records'][0]['failure']}")


def span_nesting(runner, work):
    fake = [
        ["cli.request", 0.0, 1.0, None, "r"],
        ["ef_games.build", 0.1, 0.6, 0, "r"],
        ["ef_games.oracle", 0.5, 1.2, 0, "r"],
    ]
    check("nesting check flags a child that leaves its parent",
          bool(spans.nesting_violations(fake)))
    wl = workloads.build("tables", 1, work)
    wl.requests = [r for r in wl.requests if "categorical" in r.label or "inverse" in r.label]
    wide = workloads.build("ef-wide", 1, work)
    wl.requests += [r for r in wide.requests if r.label.startswith("ef S3/")]
    p = run.one_pass(runner, wl, True, "t")
    bad = spans.nesting_violations(p["spans"])
    check("traced pass answers are right", not any(r["failure"] for r in p["records"]))
    check("child spans stay inside their request span", not bad and len(p["spans"]) > 10,
          f"{len(p['spans'])} spans" + (f", {bad[0]}" if bad else ""))


def sweep_isolation(runner, work):
    bound = {m["name"]: m["bound"] for m in run_config()["end_to_end"]}["wall_s"]
    wl = workloads.build("ef-sweep", 1, work)
    first = run.one_pass(runner, wl, False, "a")
    second = run.one_pass(runner, wl, False, "b")
    a, b = first["wall"], second["wall"]
    check("two ef-sweep runs agree within the wall_s bound",
          abs(b - a) / min(a, b) <= bound, f"{a:.3f} s then {b:.3f} s, bound {bound:.0%}")


def run_config() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    frozen_answers()
    closed_forms()
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        with run.Runner(work) as runner:
            gate_catches_wrong_answers(runner, work)
            span_nesting(runner, work)
            sweep_isolation(runner, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("all passed" if not FAILED else f"{len(FAILED)} failed"))
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
