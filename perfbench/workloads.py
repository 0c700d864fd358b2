"""The four workloads: inputs made from a seed, the request list, and the
verdict gate that checks every answer against games.py or frozen.py.

Every relabelling and every pool pick comes from ``random.Random`` seeded
with the workload name and ``--seed``, so one seed gives one set of
files.  Relabelling keeps the game value and the cost, so the seed moves
the inputs without moving the expected answers or the work per request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import frozen
import games as g

NAMES = ("ef-wide", "ef-deep", "ef-sweep", "tables")

# Rounds M of the ef-sweep distinguishing-depth loop (m = 0..M per pair).
SWEEP_ROUNDS = 2
TABLE_ROUNDS = 3


@dataclass
class Request:
    label: str
    argv: list[str]  # arguments after ``python -m modeloids.cli``
    expect: dict
    certificate: Path | None = None


@dataclass
class Workload:
    name: str
    requests: list[Request] = field(default_factory=list)
    sweep: dict | None = None  # ef-sweep: the pairs the worker runs
    steps: list[dict] = field(default_factory=list)  # ef-sweep: expected answers


def build(name: str, seed: int, work: Path) -> Workload:
    """The workload's inputs, written into ``work``, and its requests."""
    wl = Workload(name)
    builders = {"ef-wide": _ef_wide, "ef-deep": _ef_deep, "ef-sweep": _ef_sweep, "tables": _tables}
    builders[name](wl, random.Random(f"{name}:{seed}"), work)
    return wl


def _relabelled(rng, base: g.Graph, left: str, right: str) -> tuple[g.Graph, g.Graph]:
    return (
        base.relabel(left, g.random_perm(rng, base.size)),
        base.relabel(right, g.random_perm(rng, base.size)),
    )


def _ef(wl, work, A, B, m, expected: bool, certificate: bool):
    label = f"ef {A.name}/{B.name} m={m}"
    path = work / f"{len(wl.requests):02d}-{A.name}-{B.name}.txt"
    path.write_text(g.structures_file(A, B), encoding="utf-8")
    argv = ["ef", str(path), "--left", A.name, "--right", B.name, "--rounds", str(m)]
    cert = None
    if certificate:
        cert = work / f"{len(wl.requests):02d}-certificate.txt"
        argv += ["--certificate", str(cert)]
    argv += ["--format", "machine"]
    wl.requests.append(
        Request(label, argv, {"kind": "ef", "equivalent": expected, "rounds": m}, cert)
    )


def _ef_wide(wl, rng, work):
    """Pairs with many partial isomorphisms at shallow depth: the dense
    ambient build dominates."""
    for (a, n), (b, k), cert in (
        (("S3", 3), ("S4", 4), True),
        (("S4", 4), ("T4", 4), True),
        (("S4", 4), ("S5", 5), False),
    ):
        _ef(wl, work, g.pure_set(a, n), g.pure_set(b, k), 3, g.pure_sets_equivalent(n, k, 3), cert)
    C5 = g.cycle("C5", 5).relabel("C5", g.random_perm(rng, 5))
    P5 = g.path("P5", 5).relabel("P5", g.random_perm(rng, 5))
    _ef(wl, work, C5, P5, 2, g.cycle_path_equivalent(5, 2), False)


def _ef_deep(wl, rng, work):
    """Small ambients equivalent at every depth, many rounds: the oracle
    must answer every Spoiler move, so it dominates."""
    for n, m in ((4, 12), (5, 10), (5, 12)):
        A, B = _relabelled(rng, g.cycle(f"C{n}", n), f"C{n}", f"R{n}")
        _ef(wl, work, A, B, m, True, True)
    _ef(wl, work, g.pure_set("S4", 4), g.pure_set("T4", 4), 10, True, True)
    for i in range(2):
        base = g.random_pointed_graph(rng, f"G{i}", 4)
        A, B = _relabelled(rng, base, f"G{i}", f"H{i}")
        _ef(wl, work, A, B, 12, True, True)


def _ef_sweep(wl, rng, work):
    """The README's distinguishing-depth loop in one library process."""
    ms = range(SWEEP_ROUNDS + 1)
    C4, P4 = g.cycle("C4", 4), g.path("P4", 4)
    (na, ea, pa), (nb, eb, pb), pool_answers = rng.choice(frozen.POOL)
    GA, GB = g.Graph("GA", na, frozenset(ea), pa), g.Graph("GB", nb, frozenset(eb), pb)
    pairs = [
        (
            C4.relabel("C4", g.random_perm(rng, 4)),
            P4.relabel("P4", g.random_perm(rng, 4)),
            [g.cycle_path_equivalent(4, m) for m in ms],
        ),
        (*_relabelled(rng, C4, "C4", "R4"), [True for _ in ms]),
        (g.pure_set("S3", 3), g.pure_set("S4", 4), [g.pure_sets_equivalent(3, 4, m) for m in ms]),
        (
            GA.relabel("GA", g.random_perm(rng, na)),
            GB.relabel("GB", g.random_perm(rng, nb)),
            list(pool_answers[: len(ms)]),
        ),
        # Three points keep this loop far cheaper than C4/P4's, whatever
        # the seed draws, so the median request stays C4/P4's loop.
        (*_relabelled(rng, g.random_pointed_graph(rng, "G", 3), "G", "H"), [True for _ in ms]),
    ]
    wl.sweep = {
        "pairs": [[A.as_json(), B.as_json()] for A, B, _ in pairs],
        "max_rounds": SWEEP_ROUNDS,
    }
    wl.steps = [
        {"pair": i, "m": m, "equivalent": answers[m]}
        for i, (_, _, answers) in enumerate(pairs)
        for m in ms
    ]


def _tables(wl, rng, work):
    """Table files only: verification dominates; structures and ef_games
    are bypassed."""

    def put(stem: str, text: str) -> str:
        path = work / f"{stem}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def req(label, argv, expect):
        wl.requests.append(Request(label, argv + ["--format", "machine"], expect))

    full = g.partial_injections(4)
    n, r = len(full), TABLE_ROUNDS
    everything = {"kind": "derive", "sizes": [n] * (r + 1), "stabilized": 0, "rounds": r}
    modeloid = put("modeloid4", g.modeloid_file(4, rng))
    req("verify modeloid", ["verify", "modeloid", modeloid], {"kind": "verify"})
    req("derive modeloid", ["derive", "modeloid", modeloid, "--rounds", str(r)], everything)
    monoid = put("rook4", g.rook_monoid_file(4, rng, members=False, with_inv=False))
    req("verify semigroup", ["verify", "semigroup", monoid], {"kind": "verify"})
    req("embed", ["embed", monoid], {"kind": "embed", "order": n})
    semi = put("rook4-semimodeloid", g.rook_monoid_file(4, rng, members=True, with_inv=True))
    req("verify semimodeloid", ["verify", "semimodeloid", semi], {"kind": "verify"})
    req("derive semimodeloid", ["derive", "semimodeloid", semi, "--rounds", str(r)], everything)

    C4, P4 = g.cycle("C4", 4), g.path("P4", 4)
    category = put("c4p4-category", g.category_file(C4, P4, rng, "category", with_inv=True))
    req("verify category", ["verify", "category", category], {"kind": "verify"})
    bare = put("c4p4-no-inv", g.category_file(C4, P4, rng, "category", with_inv=False))
    req("verify inverse-category", ["verify", "inverse-category", bare], {"kind": "verify"})
    cm = put(
        "c4p4-modeloid",
        g.category_file(C4, P4, rng, "categorical-modeloid", with_inv=False),
    )
    req("verify categorical-modeloid", ["verify", "categorical-modeloid", cm], {"kind": "verify"})
    req(
        "derive categorical-modeloid",
        ["derive", "categorical-modeloid", cm, "--rounds", str(r)],
        {
            "kind": "derive",
            "sizes": list(frozen.C4_P4_DERIVE_SIZES),
            "stabilized": frozen.C4_P4_DERIVE_STABILIZED,
            "rounds": r,
        },
    )


# ---------------------------------------------------------------------------
# Verdict gate


def _records(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _bool(x: bool) -> str:
    return "true" if x else "false"


def check_cli(req: Request, code: int, stdout: str, stderr: str) -> str | None:
    """Why a CLI answer is wrong, or None when it is right."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    rec = _records(stdout)
    kind = req.expect["kind"]
    if kind == "ef":
        eq = req.expect["equivalent"]
        want = 0 if eq else 1
        if code != want:
            return f"exit {code}, expected {want}"
        if rec.get("equivalent") != _bool(eq):
            return f"equivalent: {rec.get('equivalent')}, expected {_bool(eq)}"
        if rec.get("oracle-agrees") != "true" or rec.get("rounds") != str(req.expect["rounds"]):
            return "oracle-agrees or rounds wrong"
        if req.certificate is not None:
            exists = req.certificate.is_file()
            if exists != eq:
                return f"certificate {'present' if exists else 'missing'}"
            if exists:
                text = req.certificate.read_text(encoding="utf-8")
                levels = sum(1 for line in text.splitlines() if line.startswith("level "))
                if levels != req.expect["rounds"] + 1:
                    return f"certificate has {levels} levels"
        return None
    if code != 0:
        return f"exit {code}, expected 0"
    if kind == "verify":
        return None if rec == {"ok": "true"} else f"verdict {rec}"
    if kind == "derive":
        sizes = " ".join(map(str, req.expect["sizes"]))
        if rec.get("sizes") != sizes:
            return f"sizes {rec.get('sizes')}, expected {sizes}"
        if rec.get("stabilized") != str(req.expect["stabilized"]):
            return f"stabilized {rec.get('stabilized')}"
        levels = sum(1 for key in rec if key.startswith("level-"))
        return None if levels == req.expect["rounds"] + 1 else f"{levels} level lines"
    if kind == "embed":
        for key in ("injective", "multiplicative", "order-faithful"):
            if rec.get(key) != "true":
                return f"{key}: {rec.get(key)}"
        omegas = sum(1 for key in rec if key.startswith("omega-"))
        return None if omegas == req.expect["order"] else f"{omegas} omega lines"
    raise ValueError(f"unknown request kind {kind}")


def check_step(expected: dict, step: dict) -> str | None:
    """Why one ef-sweep step is wrong, or None when it is right."""
    if "error" in step:
        return "exception: " + step["error"].strip().splitlines()[-1]
    eq = expected["equivalent"]
    if step["derivative"] != eq or step["oracle"] != eq:
        return f"derivative {step['derivative']}, oracle {step['oracle']}, expected {eq}"
    if eq:
        if step.get("certificate_levels") != expected["m"] + 1:
            return f"certificate levels {step.get('certificate_levels')}"
        if not step.get("certificate_ok"):
            return "certificate rejected"
    elif "certificate_levels" in step:
        return "certificate for a non-equivalent pair"
    return None
