"""Modeloids as explicit sets of partial bijections, and their derivative.

A modeloid is a set of partial bijections over one carrier that is closed
under composition, inverse and restriction, and contains the full identity.
The derivative keeps exactly the members that can be extended, as pair
sets, by any prescribed source (and, symmetrically, any prescribed target)
without leaving the modeloid; one cover pass, ``reach_above``, decides
it.  Iterating the derivative is the engine behind the equivalence
checks elsewhere in the package.
"""

from __future__ import annotations

from typing import Iterable

from . import verdict as v
from .derived import Frozen, fact, fixpoint_chain
from .errors import InputError
from .inverse_semigroups import generators
from .partial_bijections import (
    Carrier,
    PartialBijection,
    enumerate_all,
    identity_map,
    reach_above,
    restrictions,
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


def full_modeloid(carrier: Carrier, max_size: int = 6) -> Modeloid:
    """The modeloid of all partial bijections on the carrier."""
    return Modeloid(carrier, enumerate_all(carrier, max_size))


def _sorted_members(M: Modeloid) -> list[PartialBijection]:
    # Deterministic scan order so verdicts and witnesses are stable.
    return sorted(M.members, key=lambda f: f.pairs)


@fact
def verify_modeloid(M: Modeloid) -> v.Verdict:
    """Check the four closure axioms, in order: composition, inverse,
    restriction (to every subset of the domain), identity element."""
    return _check_modeloid(M)


def _check_modeloid(M: Modeloid) -> v.Verdict:
    members = _sorted_members(M)
    member_set = M.members
    # Composition of partial bijections is associative, so members closed
    # under right products by their generators are closed under all
    # products.  Only a failure pays the pair scan, for its first witness.
    # The largest maps go first: they reach the most (see ``generators``).
    top_down = sorted(members, key=lambda f: -len(f.pairs))
    if generators(PartialBijection.compose, top_down) is None:
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
        for kept in restrictions(f.pairs):
            if kept not in member_pairs:
                return v.violated("restriction", (f.pairs, tuple(a for a, _ in kept)))
    if identity_map(M.carrier) not in member_set:
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


def _derivative_members(M: Modeloid) -> frozenset[PartialBijection]:
    n = M.carrier.size
    reach = reach_above(M.members)
    # M is restriction-closed: a member above f that reaches a restricts to f ∪ {(a, b)}
    return frozenset(
        f for f in M.members if all(len(side) == n for side in reach[f.pairs])
    )


def derivative(M: Modeloid) -> Modeloid:
    """Members extendable by every source and every target within M.

    A member f survives iff for every carrier element a there are b with
    f union {(a, b)} in M and b' with f union {(b', a)} in M.  For a
    already in the domain the only functional union is f itself, so the
    condition there collapses to membership of f.  Since M is closed
    under restriction, one ``reach_above`` pass decides it: the members
    above f must reach every element with domains and with ranges.
    """
    result = verify_modeloid(M)
    if not result:
        raise InputError(f"not a modeloid ({result.describe()})")
    return Modeloid(M.carrier, _derivative_members(M))


def iterate_derivative(M: Modeloid, rounds: int) -> tuple[list[Modeloid], int | None]:
    """The chain M, D(M), ..., D^rounds(M) plus the first index k with
    D^(k+1) = D^k, or None when no repeat shows up within the chain.

    The derivative of a modeloid is again a modeloid, so only the input
    is verified.
    """
    result = verify_modeloid(M)
    if not result:
        raise InputError(f"not a modeloid ({result.describe()})")
    return fixpoint_chain(M, lambda N: Modeloid(N.carrier, _derivative_members(N)), rounds)
