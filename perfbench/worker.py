"""Worker processes the benchmark starts, each in a fresh interpreter.

    python worker.py cli SPEC T     one traced CLI request: runs
                                    modeloids.cli.main on SPEC's argv with
                                    spans around the library calls
    python worker.py sweep SPEC T   the ef-sweep loop, once, traced when
                                    SPEC asks for it

SPEC is a JSON file written by run.py; the result goes to the file named
in it.  T is the ``time.perf_counter()`` reading taken just before the
process was started (on Linux that clock is CLOCK_MONOTONIC, shared by
all processes), so the worker can report its own start-up interval.
The modeloids package must be importable (run.py sets PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
import time


def _cli(spec: dict) -> int:
    import modeloids.cli

    # Start-up ends here, as for ``python -c "import modeloids.cli"``.
    startup = [spec["spawned"], time.perf_counter()]
    import io
    from contextlib import redirect_stdout

    import spans

    tracer = spans.Tracer()
    missing = spans.install(tracer)
    out = io.StringIO()
    with redirect_stdout(out), tracer.request(spec["request"], "cli.request"):
        code = modeloids.cli.main(spec["argv"])
    _write(spec, {
        "stdout": out.getvalue(),
        "startup": startup,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "missing_hooks": missing,
    })
    return code


def _structure(g: dict):
    from modeloids import Structure, Vocabulary

    if g["edges"] is None:
        return Structure.build(g["name"], g["size"], Vocabulary())
    constants = {} if g["point"] is None else {"c": g["point"]}
    vocabulary = Vocabulary(relations=(("E", 2),), constants=tuple(constants))
    return Structure.build(
        g["name"], g["size"], vocabulary, relations={"E": g["edges"]}, constants=constants
    )


def _sweep(spec: dict) -> int:
    """For each pair and m = 0..M: the derivative and the oracle, and for
    an equivalent answer the certificate, extracted and checked."""
    import resource
    import traceback
    from contextlib import nullcontext

    from modeloids import ef_games

    startup = [spec["spawned"], time.perf_counter()]
    tracer = None
    missing = []
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)
    pairs = [(_structure(a), _structure(b)) for a, b in spec["pairs"]]
    steps = []
    for i, (A, B) in enumerate(pairs):
        for m in range(spec["max_rounds"] + 1):
            step = {"pair": i, "m": m}
            scope = tracer.request(f"{i}:{m}", "sweep.request") if tracer else nullcontext()
            step["start"] = time.perf_counter()
            try:
                with scope:
                    step["derivative"], _ = ef_games.ef_equiv_derivative(A, B, m)
                    step["oracle"] = ef_games.ef_equiv_oracle(A, B, m)
                    if step["derivative"]:
                        cert = ef_games.extract_certificate(A, B, m)
                        step["certificate_levels"] = None if cert is None else len(cert.levels)
                        step["certificate_ok"] = (
                            cert is not None and bool(ef_games.verify_certificate(cert))
                        )
            except Exception:
                step["error"] = traceback.format_exc()
            step["end"] = time.perf_counter()
            steps.append(step)
    _write(spec, {
        "steps": steps,
        "startup": startup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
        "missing_hooks": missing,
    })
    return 0


def _write(spec: dict, result: dict):
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> int:
    mode, spec_path, spawned = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["spawned"] = float(spawned)
    return {"cli": _cli, "sweep": _sweep}[mode](spec)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
