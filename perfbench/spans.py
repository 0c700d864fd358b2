"""Spans around the calls into each module's public functions.

The program is not changed: a ``Tracer`` replaces a module attribute
with a wrapper that records one span per call and then calls the
original.  Patching the name where the caller looks it up (for example
``modeloids.cli.build_category_D`` and ``modeloids.ef_games.build_category_D``)
makes nested calls show up as child spans, so the spans follow the order
in which ``cmd_ef``, ``cmd_verify``, ``cmd_derive`` and ``cmd_embed`` call
the library.  Spans stay in memory until the worker writes them out.

A span is ``[name, start, end, parent, request]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span in the
same list (or None) and ``request`` the request id.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# Span name -> per-layer metric holding the sum of its self times.
SPAN_METRICS = {
    "structures.parse": "structures.parse_s",
    "structures.enumerate": "structures.enumerate_s",
    "ef_games.build": "ef_games.build_s",
    "ef_games.derivative": "ef_games.derivative_s",
    "ef_games.oracle": "ef_games.oracle_s",
    "ef_games.certificate_extract": "ef_games.certificate_extract_s",
    "ef_games.certificate_verify": "ef_games.certificate_verify_s",
    "categorical.level": "categorical.level_s",
    "categorical.verify": "categorical.verify_s",
    "free_categories.below": "free_categories.below_s",
    "free_categories.verify_category": "free_categories.verify_category_s",
    "free_categories.inverse_check": "free_categories.inverse_check_s",
    "modeloid.verify": "modeloid.verify_s",
    "modeloid.derivative": "modeloid.derivative_s",
    "inverse_semigroups.verify": "inverse_semigroups.verify_s",
    "inverse_semigroups.resolve": "inverse_semigroups.resolve_s",
    "inverse_semigroups.semimodeloid_verify": "inverse_semigroups.semimodeloid_verify_s",
    "inverse_semigroups.semimodeloid_step": "inverse_semigroups.semimodeloid_step_s",
    "inverse_semigroups.natural_leq": "inverse_semigroups.natural_leq_s",
    "inverse_semigroups.wagner_preston": "inverse_semigroups.wagner_preston_s",
    "fileformats.parse": "fileformats.parse_s",
    "cli.request": "cli.self_s",
}

COUNT_METRICS = (
    "structures.partial_isos",
    "ef_games.ambient_entries",
    "ef_games.certificate_maps",
    "categorical.levels",
    "categorical.members_in",
    "categorical.members_kept",
    "modeloid.members",
    "fileformats.input_bytes",
    "cli.output_bytes",
)

# Span names whose self time counts as verification of a table.
VERIFY_SPANS = (
    "categorical.verify",
    "free_categories.verify_category",
    "free_categories.inverse_check",
    "modeloid.verify",
    "inverse_semigroups.verify",
    "inverse_semigroups.resolve",
    "inverse_semigroups.semimodeloid_verify",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request = None
        self._probed = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list):
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    @contextmanager
    def request(self, request_id, name: str):
        """Root span of one request; every span opened inside carries the id."""
        self._request = request_id
        try:
            with self.span(name):
                yield
        finally:
            self._request = None

    def wrap(self, module, attr: str, name: str, before=None, after=None):
        """Replace ``module.attr`` by a traced call of the original.

        ``before(tracer, args)`` runs ahead of the span and ``after(tracer,
        args, result)`` after it, so neither is counted in the span.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(self, args, result)
            return result

        setattr(module, attr, traced)

    def probe_below(self, ambient):
        """``below`` over every morphism of the first ambient a request
        hands to the categorical layer.

        It runs just before the first call that uses ``below`` on that
        ambient, so the module's idempotent cache is keyed by the same
        object as untraced and later calls behave as they do untraced.
        """
        if self._probed == self._request:
            return
        self._probed = self._request
        from modeloids.free_categories import below

        with self.span("free_categories.below"):
            for t in range(ambient.morphism_count):
                below(ambient, t)


def install(tracer: Tracer):
    """Wrap the public functions the CLI and the ef-sweep loop call."""
    from modeloids import (
        cli,
        ef_games,
        fileformats,
        free_categories,
        inverse_semigroups,
        modeloid,
    )

    def after_build(t, args, category):
        t.counts["ef_games.ambient_entries"] += category.ambient.morphism_count**2

    def after_enumerate(t, args, found):
        t.counts["structures.partial_isos"] += len(found)

    def after_level(t, args, result):
        t.counts["categorical.levels"] += 1
        t.counts["categorical.members_in"] += len(args[0].members)
        t.counts["categorical.members_kept"] += len(result.members)

    def after_extract(t, args, cert):
        if cert is not None:
            t.counts["ef_games.certificate_maps"] += sum(len(l) for l in cert.levels)

    def after_chain(t, args, result):
        chain, _ = result
        t.counts["modeloid.members"] += sum(len(step.members) for step in chain)

    def before_parse(t, args):
        t.counts["fileformats.input_bytes"] += len(args[0].encode())

    def before_categorical(t, args):
        t.probe_below(args[0].ambient)

    plan = [
        (cli, "parse_structures", "structures.parse", None, None),
        (ef_games, "enumerate_partial_isos", "structures.enumerate", None, after_enumerate),
        (cli, "build_category_D", "ef_games.build", None, after_build),
        (ef_games, "build_category_D", "ef_games.build", None, after_build),
        (ef_games, "ef_equiv_derivative", "ef_games.derivative", None, None),
        (cli, "ef_equiv_derivative", "ef_games.derivative", None, None),
        (ef_games, "ef_equiv_oracle", "ef_games.oracle", None, None),
        (cli, "ef_equiv_oracle", "ef_games.oracle", None, None),
        (ef_games, "extract_certificate", "ef_games.certificate_extract", None, after_extract),
        (cli, "extract_certificate", "ef_games.certificate_extract", None, after_extract),
        (ef_games, "verify_certificate", "ef_games.certificate_verify", None, None),
        (ef_games, "categorical_derivative", "categorical.level", before_categorical, after_level),
        (cli, "categorical_derivative", "categorical.level", before_categorical, after_level),
        (cli, "verify_categorical_modeloid", "categorical.verify", before_categorical, None),
        (cli, "verify_category", "free_categories.verify_category", None, None),
        (free_categories, "verify_category", "free_categories.verify_category", None, None),
        (cli, "verify_inverse_category_unique", "free_categories.inverse_check", None, None),
        (cli, "skolem_inverses", "free_categories.inverse_check", None, None),
        (cli, "verify_modeloid", "modeloid.verify", None, None),
        (modeloid, "verify_modeloid", "modeloid.verify", None, None),
        (cli, "iterate_derivative", "modeloid.derivative", None, after_chain),
        (cli, "verify_inverse_semigroup", "inverse_semigroups.verify", None, None),
        (inverse_semigroups, "verify_inverse_semigroup", "inverse_semigroups.verify", None, None),
        (cli, "resolve_inverses", "inverse_semigroups.resolve", None, None),
        (cli, "verify_semimodeloid", "inverse_semigroups.semimodeloid_verify", None, None),
        (inverse_semigroups, "verify_semimodeloid", "inverse_semigroups.semimodeloid_verify", None, None),
        (cli, "semimodeloid_derivative", "inverse_semigroups.semimodeloid_step", None, None),
        (cli, "natural_leq", "inverse_semigroups.natural_leq", None, None),
        (cli, "wagner_preston", "inverse_semigroups.wagner_preston", None, None),
    ]
    for name in (
        "parse_semigroup_file",
        "parse_semimodeloid_file",
        "parse_category_file",
        "parse_categorical_modeloid_file",
        "parse_modeloid_file",
    ):
        plan.append((fileformats, name, "fileformats.parse", before_parse, None))
    missing = []
    for module, attr, name, before, after in plan:
        if hasattr(module, attr):
            tracer.wrap(module, attr, name, before, after)
        else:
            missing.append(f"{module.__name__}.{attr}")
    return missing


# ---------------------------------------------------------------------------
# Reading spans back


def _children(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            kids.setdefault(s[3], []).append(i)
    return kids


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    kids = _children(spans)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for k in sorted(kids.get(i, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[k][1], reach), min(spans[k][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def nesting_violations(spans: list[list]) -> list[str]:
    """Children that leave their parent's interval, or whose durations sum
    to more than the parent's, and children of another request."""
    kids = _children(spans)
    bad = []
    for i, kid_ids in kids.items():
        name, start, end, _, request = spans[i]
        total = 0.0
        for k in kid_ids:
            kname, kstart, kend, _, krequest = spans[k]
            total += kend - kstart
            if kstart < start or kend > end:
                bad.append(f"{kname} leaves {name} in request {request}")
            if krequest != request:
                bad.append(f"{kname} of request {krequest} under {request}")
        if total > end - start:
            bad.append(f"children of {name} in request {request} exceed it")
    return bad


def layer_metrics(spans: list[list], counts: dict, factor) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass; each self time
    is scaled by ``factor(start, end)`` of its span."""
    values = {metric: 0.0 for metric in SPAN_METRICS.values()}
    for (name, start, end, *_), own in zip(spans, self_times(spans)):
        if name in SPAN_METRICS:
            values[SPAN_METRICS[name]] += own * factor(start, end)
    for key in COUNT_METRICS:
        values[key] = counts.get(key, 0)
    base = values["categorical.members_in"]
    values["categorical.survivor_ratio"] = (
        values["categorical.members_kept"] / base if base else 0.0
    )
    return values
