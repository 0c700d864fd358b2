"""Every inverse subsemigroup of the rook monoid R4 generated by one or
two maps, through checks (a)-(d) of acceptance test 12, in full.

The sweep takes about a minute, so the file is not named ``test_*.py``
and the tier-1 run does not collect it.  Run it on its own with

    python -m pytest -q -s tests/sweep_rook4.py

It prints one ACCEPTANCE line with the counts.
"""

import itertools
import time

from test_acceptance import symmetric_inverse_table, through_every_layer, with_identity

from modeloids.inverse_semigroups import table_from_rows


def closures(table):
    """Every subsemigroup of ``table`` generated by one or two of its
    elements, as a frozenset of indices: each seed is closed by right
    products with the seeds and their inverses, which reach every product
    of them; that set holds the inverse of each such product too."""
    found = set()
    seeds = itertools.chain(
        itertools.combinations(range(table.order), 1),
        itertools.combinations(range(table.order), 2),
    )
    for seed in seeds:
        generators = set(seed) | {table.inv[x] for x in seed}
        closed, frontier = set(generators), list(generators)
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = table.mul[x][g]
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        found.add(frozenset(closed))
    return found


def restricted(table, members):
    """The rows and inverses of ``table`` on the sorted ``members``,
    renumbered 0 .. len(members) - 1.  R4's table numbers its maps in
    sorted pair order, so this is the table ``from_partial_bijections``
    makes of those maps, read without composing a map."""
    order = sorted(members)
    local = {x: i for i, x in enumerate(order)}
    rows = tuple(tuple(local[table.mul[x][y]] for y in order) for x in order)
    return rows, tuple(local[table.inv[x]] for x in order)


def test_every_rook4_subsemigroup_through_every_layer():
    start = time.monotonic()
    rook, _ = symmetric_inverse_table(4)
    cases = sorted(closures(rook), key=lambda S: (len(S), sorted(S)))
    closed = time.monotonic() - start
    failures, monoids = [], 0
    for S in cases:
        rows, inv = restricted(rook, S)
        t = table_from_rows(rows, inv)
        if t.neutral is not None:
            monoids += 1
            monoid = t
        else:
            monoid = table_from_rows(with_identity(rows), inv + (len(rows),))
        failed = through_every_layer(t, monoid)
        if failed:
            failures.append((sorted(S), failed))
    ok = rook.order == 209 and not failures
    detail = (
        f"{len(cases)} subsemigroups of R4 from one or two maps, largest of order "
        f"{max(map(len, cases))}, {monoids} monoids and {len(cases) - monoids} through S^1; "
        f"smallest failure {failures[0] if failures else 'none'}; "
        f"closures {closed:.1f}s, all {time.monotonic() - start:.1f}s"
    )
    print(f"ACCEPTANCE R4: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail
