"""The laws that read bare rows, shared by both table layers.

An inverse semigroup (``inverse_semigroups``) and the composition table
of an inverse category (``free_categories``) are both square tables of
element indices, so the laws that read only rows are stated once, here:
associativity by Light's test on a generating set picked from the top of
the natural order down (``top_down``), the inverse laws, the absorbing
element of a subset, the atom test ``_atoms`` and the cover step
``_covered`` of both derivatives.  Neither layer's classes are read, so a
request for one kind of table loads the other layer's module not at all.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

from . import verdict as v
from .derived import generators


def top_down(mul, elements: Iterable[int]) -> list[int]:
    """``elements`` by decreasing number of distinct entries in their rows,
    |x*S|, ties in the given order: x <= y in the natural order gives
    xS within yS, so this lists the high elements first."""
    return sorted(elements, key=lambda x: -len(set(mul[x])))


def associativity_witness(mul, gens: list[int] | None = None) -> tuple[int, int, int] | None:
    """The first (x, y, z) in index order with (x*y)*z != x*(y*z), or None.

    Light's test runs first: (x*g)*y = x*(g*y) for every generator g and
    all x, y, at n^2*|G| lookups.  The elements a with (x*a)*y = x*(a*y)
    for all x, y are closed under the product in any magma, and the
    generators reach every element, so a pass proves associativity.  Only
    a failure pays the cubic scan, which finds the first witness.  The
    generators are ``gens`` when a caller that keeps them per table
    passes them, else picked here from all elements, highest first.
    """
    n = len(mul)
    if n == 1:
        # an itemgetter of one index returns a bare entry, not a row
        return _first_associativity_witness(mul)
    for g in gens or generators(lambda x, y: mul[x][y], top_down(mul, range(n))):
        times_g = itemgetter(*mul[g])  # row of x -> x*(g*y) for every y
        for row_x in mul:
            if mul[row_x[g]] != times_g(row_x):
                return _first_associativity_witness(mul)
    return None


def _first_associativity_witness(mul) -> tuple[int, int, int] | None:
    n = len(mul)
    for x in range(n):
        row_x = mul[x]
        for y in range(n):
            xy = row_x[y]
            row_xy = mul[xy]
            row_y = mul[y]
            for z in range(n):
                if row_xy[z] != row_x[row_y[z]]:
                    return (x, y, z)
    return None


def inverse_laws(mul, inv: Sequence[int]) -> v.Verdict:
    """In order: x*x'*x = x, (x')' = x, and x*x' commutes with y*y'."""
    n = len(mul)
    for x in range(n):
        if mul[mul[x][inv[x]]][x] != x:
            return v.violated("regularity", (x,))
    for x in range(n):
        if inv[inv[x]] != x:
            return v.violated("involution", (x,))
    # only the distinct x*x' can fail to commute; the scan over every
    # pair runs after a failure, to name the first witness
    idem = {mul[x][inv[x]] for x in range(n)}
    if any(mul[e][f] != mul[f][e] for e in idem for f in idem):
        for x in range(n):
            e = mul[x][inv[x]]
            for y in range(n):
                f = mul[y][inv[y]]
                if mul[e][f] != mul[f][e]:
                    return v.violated("idempotent-commutation", (x, y))
    return v.passed()


def absorbing(compose, elements: Sequence[int]) -> int | None:
    """The first z of ``elements`` with compose(z, p) = compose(p, z) = z
    for every p among them: the zero of that subset, if it has one."""
    for z in elements:
        if all(compose(z, p) == z and compose(p, z) == z for p in elements):
            return z
    return None


def _atoms(elements: Iterable, below, zero) -> list:
    """The atoms among ``elements``, in their order: each x other than
    ``zero`` whose down-set ``below(x)`` holds only x and ``zero``."""
    return [x for x in elements if x != zero and below(x) <= {x, zero}]


def _covered(candidates: Iterable, ends, compose, inv, below) -> frozenset:
    """One cover step of the semimodeloid or categorical derivative:
    ``ends(h)`` gives the idempotent atoms at h's domain and codomain.  h
    covers an atom a at its domain when a <= h'h, and one at its codomain
    when a <= hh', for every f below h; the candidates kept are covered
    for every atom at both ends.  Down-sets stay inside a homset, so a pass
    over many homsets gives each homset's own answer."""
    covers: tuple[dict, dict] = ({}, {})  # per side: atom -> maps covered for it
    for h in candidates:
        g = inv(h)
        for cover, at_end, e in zip(covers, ends(h), (compose(g, h), compose(h, g))):
            down = below(e)
            for a in at_end:
                if a in down:
                    cover.setdefault(a, set()).update(below(h))
    return frozenset(
        f
        for f in candidates
        if all(
            f in cover.get(a, ()) for cover, at_end in zip(covers, ends(f)) for a in at_end
        )
    )
