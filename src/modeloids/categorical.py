"""Modeloid structure carried by a subset of an inverse category.

A categorical modeloid is a set of morphisms closed under composition,
inverses and the natural partial order, containing every existing object.
The derivative is defined homset by homset: within Hom(X, Y) a morphism
survives when, for every idempotent atom of the member endoset at X, some
member above it covers that atom on the domain side, and symmetrically at
Y on the codomain side.  A down-set stays in its homset, so one cover
pass over all members takes every homset at once, star included (its
endoset has no atoms), with each end object's atoms found once: the
cover step ``inverse_semigroups._covered`` and the atom test ``_atoms``,
which the semimodeloid derivative runs on one object.

Endosets of a categorical modeloid collapse to semimodeloids, through
the tabulation that ``inverse_semigroups`` keeps for every collapse onto a
table; this is how the one-object theory re-enters the categorical one.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat

from . import verdict as v
from .derived import Frozen, fact, fixpoint_chain, generators
from .errors import InputError
from .free_categories import Ambient, has_all_zeros, objects
from .inverse_semigroups import Semimodeloid, _atoms, _covered, _tabulate, absorbing


class CategoricalModeloid(Frozen):

    def __init__(self, ambient: Ambient, members: frozenset[int]):
        if ambient.inv is None:
            raise InputError("the ambient category needs a declared inverse table")
        if any(not (0 <= m < ambient.morphism_count) for m in members):
            raise InputError("member index out of range")
        vars(self).update(ambient=ambient, members=members)

    @classmethod
    def everything(cls, ambient: Ambient) -> "CategoricalModeloid":
        return cls(ambient, frozenset(range(ambient.morphism_count)))

    @classmethod
    def from_members(
        cls, ambient: Ambient, members: Iterable[int]
    ) -> "CategoricalModeloid":
        return cls(ambient, frozenset(members))


@fact
def verify_categorical_modeloid(M: CategoricalModeloid) -> v.Verdict:
    """Axioms in order: composition closure (star included, so two
    non-composable members force star in), inverse closure, downward
    closure, membership of every existing object.  Where composition is
    known to associate, closure is decided by generators of the members,
    picked from the largest down-sets first (see ``generators``); the scan
    over all pairs runs otherwise, or after a failure to name the first
    witness."""
    return _check_categorical_modeloid(M)


# taken once here, as the name itself may be wrapped later
_carry_categorical_verdict = verify_categorical_modeloid.carry


def _check_categorical_modeloid(M: CategoricalModeloid) -> v.Verdict:
    c = M.ambient
    # a structural precondition only; the category axioms are the
    # caller's to establish
    if not has_all_zeros(c):
        raise InputError("the ambient category must have a zero in every endoset")
    members = sorted(M.members)
    member_set = M.members
    closed = getattr(c, "associative", False) and (
        generators(c.compose, sorted(members, key=lambda m: -len(c.below(m)))) is not None
    )
    if not closed:
        for a in members:
            for b in members:
                if c.compose(a, b) not in member_set:
                    return v.violated("composition", (a, b))
    for a in members:
        if c.inv[a] not in member_set:
            return v.violated("inverse", (a,))
    for b in members:
        for a in sorted(c.below(b)):
            if a not in member_set:
                return v.violated("downward", (a, b))
    for X in objects(c):
        if X not in member_set:
            return v.violated("objects", (X,))
    return v.passed()


def _member_homset(M: CategoricalModeloid, X: int, Y: int) -> list[int]:
    c = M.ambient
    return sorted(
        m for m in M.members if c.dom[m] == X and c.cod[m] == Y
    )


def _endoset_zero(M: CategoricalModeloid, X: int, endos: list[int]) -> int:
    zero = absorbing(M.ambient.compose, endos)
    if zero is None:
        raise InputError(f"the member endoset at {X} has no zero")
    return zero


def member_idempotent_atoms(M: CategoricalModeloid, X: int) -> tuple[int, ...]:
    """Idempotent atoms of the member endoset at X: existing non-zero
    idempotents with no member strictly between them and the zero."""
    c = M.ambient
    endos = _member_homset(M, X, X)
    zero = _endoset_zero(M, X, endos)
    inside = set(endos)
    atoms = _atoms(endos, lambda t: c.below(t) & inside, zero)
    return tuple(a for a in atoms if c.compose(a, a) == a)


def _cover_step(M: CategoricalModeloid, candidates: Iterable[int], end_objects) -> frozenset[int]:
    """``_covered`` on candidates whose domains and codomains lie among
    ``end_objects``, with the idempotent atoms of each found once."""
    c = M.ambient
    atoms = {X: member_idempotent_atoms(M, X) for X in end_objects}
    return _covered(
        candidates, lambda h: (atoms[c.dom[h]], atoms[c.cod[h]]), c.compose,
        c.inv.__getitem__, c.below,
    )


def homset_derivative(M: CategoricalModeloid, X: int, Y: int) -> frozenset[int]:
    """Members of Hom(X, Y) whose every domain-side atom requirement and
    codomain-side atom requirement is covered by some larger member.  M
    is verified, as ``categorical_derivative`` verifies it."""
    c = M.ambient
    if c.dom[X] != X or c.dom[Y] != Y:
        raise InputError("homset derivative needs object arguments")
    if X not in M.members or Y not in M.members:
        raise InputError("homset derivative needs objects of the modeloid")
    verify_categorical_modeloid(M).require("not a categorical modeloid")
    return _cover_step(M, _member_homset(M, X, Y), (X, Y))


def categorical_derivative(M: CategoricalModeloid) -> CategoricalModeloid:
    """The homset derivatives of every homset of M at once: one cover
    step over all members, with the atoms of each end object found once.
    M is verified once; the derivative of a categorical modeloid is again
    one, so the result carries M's verdict and a chain checks no derived
    level."""
    verify_categorical_modeloid(M).require("not a categorical modeloid")
    c = M.ambient
    ends = {c.dom[m] for m in M.members} | {c.cod[m] for m in M.members}
    derived = CategoricalModeloid(c, _cover_step(M, M.members, ends))
    _carry_categorical_verdict(M, derived)
    return derived


def iterate_categorical(
    M: CategoricalModeloid, rounds: int
) -> tuple[list[CategoricalModeloid], int | None]:
    """The chain M, D(M), ..., D^rounds(M) with the first repeat index,
    mirroring the modeloid iteration.  M is verified even when no step
    is taken."""
    verify_categorical_modeloid(M).require("not a categorical modeloid")
    return fixpoint_chain(M, categorical_derivative, rounds)


def endoset_as_semimodeloid(
    M: CategoricalModeloid, X: int
) -> tuple[Semimodeloid, tuple[int, ...]]:
    """Collapse the member endoset at X onto a standalone table.

    Returns the semimodeloid (with every element a member) and the
    dictionary from table indices back to morphism indices.  The endoset
    zero is required, and is sought first; then ``_tabulate`` numbers the
    endoset in index order and records its neutral element (X, in a
    category) and its zero.
    """
    c = M.ambient
    if c.dom[X] != X:
        raise InputError(f"morphism {X} is not an object")
    if X not in M.members:
        raise InputError(f"object {X} is not a member")
    endos = _member_homset(M, X, X)
    _endoset_zero(M, X, endos)
    table = _tabulate(endos, lambda f: map(c.compose, repeat(f), endos), c.inv.__getitem__)
    return Semimodeloid(table, frozenset(range(table.order))), tuple(endos)
