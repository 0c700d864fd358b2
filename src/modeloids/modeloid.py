"""Modeloids as explicit sets of partial bijections, and their derivative.

A modeloid is a set of partial bijections over one carrier that is closed
under composition, inverse and restriction, and contains the full identity.
The derivative keeps exactly the members that can be extended, as pair
sets, by any prescribed source (and, symmetrically, any prescribed target)
without leaving the modeloid, decided member by member from one index of
the modeloid's one-point extensions.  Iterating the derivative is the
engine behind the equivalence checks elsewhere in the package.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from . import verdict as v
from .codes import _code, _extended_at, _least_unextended
from .derived import Frozen, fact, fixpoint_chain, generators
from .errors import InputError
from .laws import row_kernel
from .partial_bijections import (
    Carrier,
    PartialBijection,
    enumerate_all,
    identity_map,
)


class Modeloid(Frozen):

    def __init__(self, carrier: Carrier, members: frozenset[PartialBijection]):
        for f in members:
            if f.carrier != carrier:
                raise InputError("member is over a different carrier")
        vars(self).update(carrier=carrier, members=members)

    @classmethod
    def from_members(cls, carrier: Carrier, members: Iterable[PartialBijection]) -> "Modeloid":
        return cls(carrier, frozenset(members))


def full_modeloid(carrier: Carrier) -> Modeloid:
    """The modeloid of all partial bijections on the carrier."""
    return Modeloid(carrier, enumerate_all(carrier))


def _sorted_members(M: Modeloid) -> list[PartialBijection]:
    # Deterministic scan order so verdicts and witnesses are stable.
    return sorted(M.members, key=lambda f: f.pairs)


@fact
def verify_modeloid(M: Modeloid) -> v.Verdict:
    """Check the four closure axioms, in order: composition, inverse,
    restriction (to every subset of the domain), identity element."""
    return _check_modeloid(M)


# taken once here, as the name itself may be wrapped later
_carry_modeloid_verdict = verify_modeloid.carry


def _check_modeloid(M: Modeloid) -> v.Verdict:
    members = _sorted_members(M)
    member_set = M.members
    # Composition of partial bijections is associative, so members closed
    # under right products by their generators are closed under all
    # products.  Only a failure pays the pair scan, for its first witness.
    # The largest maps go first: they reach the most (see ``generators``).
    # Each member is a row over the points the members touch, numbered
    # 0 .. u-1, and one more, u, which stands for "undefined" and maps to
    # itself, so f o g is row g read through row f (``laws.row_kernel``);
    # the declared carrier may be far larger than the points touched.
    points = {x: i for i, x in enumerate(sorted({x for f in members for p in f.pairs for x in p}))}
    u = len(points)
    hold, table, reader = row_kernel(u + 1)
    rows = []
    for f in sorted(members, key=lambda f: -len(f.pairs)):
        row = [u] * (u + 1)
        for x, y in f.pairs:
            row[points[x]] = points[y]
        rows.append(hold(row))
    if generators(lambda f, g: reader(g)(table(f)), rows) is None:
        for f in members:
            for g in members:
                if f.compose(g) not in member_set:
                    return v.violated("composition", (f.pairs, g.pairs))
    for f in members:
        if f.inverse() not in member_set:
            return v.violated("inverse", (f.pairs,))
    # one carrier for all members, so a restriction is a member exactly
    # when its pairs are a member's
    member_pairs = {f.pairs for f in members}
    for f in members:
        for size in range(len(f.pairs) + 1):
            for kept in combinations(f.pairs, size):
                if kept not in member_pairs:
                    return v.violated("restriction", (f.pairs, tuple(a for a, _ in kept)))
    # sought among the members: the declared carrier may be far larger than they are
    if not any(len(f.pairs) == M.carrier.size and all(a == b for a, b in f.pairs) for f in members):
        return v.violated("identity", ())
    return v.passed()


def modeloid_closure(seed: Iterable[PartialBijection], carrier: Carrier) -> Modeloid:
    """The smallest modeloid containing the seed maps.

    Right products from the identity by G (the seeds, their inverses and the
    identity minus each point), breadth first, in |members|·|G| compositions.
    Every product of G is in any modeloid with the seeds; the products are
    closed under inverse, as G is, and under restriction, as f|D = f∘id_D.

    >>> sorted(f.pairs for f in modeloid_closure([], Carrier(2)).members)
    [(), ((0, 0),), ((0, 0), (1, 1)), ((1, 1),)]
    >>> swap = PartialBijection(Carrier(2), ((0, 1), (1, 0)))
    >>> len(modeloid_closure([swap], Carrier(2)).members)
    7
    """
    ident = identity_map(carrier)
    gens = {ident.restrict(set(carrier.elements()) - {x}) for x in carrier.elements()}
    for f in seed:
        if f.carrier != carrier:
            raise InputError("seed map is over a different carrier")
        gens |= {f, f.inverse()}
    reached, queue = {ident}, [ident]
    for f in queue:  # the queue grows while it is read: breadth first
        fresh = {f.compose(g) for g in gens} - reached
        reached |= fresh
        queue += fresh
    return Modeloid(carrier, frozenset(reached))


def derivative(M: Modeloid) -> Modeloid:
    """Members extendable by every source and every target within M.

    A member f survives iff for every carrier element a there are b with
    f union {(a, b)} in M and b' with f union {(b', a)} in M.  For a
    already in the domain the only functional union is f itself, so the
    condition there collapses to membership of f.  This is decided as
    written: each member is coded once as an integer with one bit per
    pair (``_code``), one pass over the codes indexes, for each map one
    pair short of a member, the sources and targets of its one-point
    extensions in M (``_extended_at``), and each member's answer is one
    lookup of its code in that index.

    M is verified once; the derivative of a modeloid is again one, so
    the result carries M's verdict and a chain checks no derived level.
    """
    verify_modeloid(M).require("not a modeloid")
    n = M.carrier.size
    codes = [_code(f.pairs, n) for f in M.members]
    at = _extended_at(codes, n, n)
    survivors = frozenset(
        f for f, code in zip(M.members, codes)
        if _least_unextended(code, at, n, n) == (None, None)
    )
    derived = Modeloid(M.carrier, survivors)
    _carry_modeloid_verdict(M, derived)
    return derived


def iterate_derivative(M: Modeloid, rounds: int) -> tuple[list[Modeloid], int | None]:
    """The chain M, D(M), ..., D^rounds(M) plus the first index k with
    D^(k+1) = D^k, or None when no repeat shows up within the chain.
    M is verified even when no step is taken."""
    verify_modeloid(M).require("not a modeloid")
    return fixpoint_chain(M, derivative, rounds)
