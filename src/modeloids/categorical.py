"""Modeloid structure carried by a subset of an inverse category.

A categorical modeloid is a set of morphisms closed under composition,
inverses and the natural partial order, containing every existing object.
The derivative is defined homset by homset: within Hom(X, Y) a morphism
survives when, for every idempotent atom of the member endoset at X, some
member above it covers that atom on the domain side, and symmetrically at
Y on the codomain side.  A down-set stays in its homset, so one cover
pass over all members takes every homset at once, star included (its
endoset has no atoms), with each end object's atoms found once.

Endosets of a categorical modeloid collapse to semimodeloids, which is
how the one-object theory re-enters the categorical one.
"""

from __future__ import annotations

from typing import Collection, Iterable

from . import verdict as v
from .derived import Frozen, fixpoint_chain
from .errors import InputError
from .free_categories import Ambient, FreeCategory, has_all_zeros, objects, verify_category
from .inverse_semigroups import InverseSemigroupTable, Semimodeloid, absorbing, generators


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


def _require_ambient(c: Ambient):
    # Structural preconditions only; the category axioms are the
    # caller's to establish (they never change under derivatives).
    if not has_all_zeros(c):
        raise InputError("the ambient category must have a zero in every endoset")


def verify_categorical_modeloid(M: CategoricalModeloid) -> v.Verdict:
    """Axioms in order: composition closure (star included, so two
    non-composable members force star in), inverse closure, downward
    closure, membership of every existing object.  Where composition is
    known to associate, closure is decided by generators of the members,
    picked from the largest down-sets first (see ``generators``); the scan
    over all pairs runs otherwise, or after a failure to name the first
    witness."""
    c = M.ambient
    _require_ambient(c)
    members = sorted(M.members)
    member_set = M.members
    closed = _associative(c) and (
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


def _associative(c: Ambient) -> bool:
    """Whether ``c.compose`` is known to be associative, so that members
    closed under right products by their generators are closed under all
    products: partial isomorphisms compose associatively, and a table
    category is associative once ``verify_category`` has passed."""
    from .ef_games import PartialIsoAmbient

    return isinstance(c, PartialIsoAmbient) or (
        isinstance(c, FreeCategory) and verify_category(c).ok
    )


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
    member_endos = set(endos)
    found = []
    for a in endos:
        if a == c.star or a == zero or c.compose(a, a) != a:
            continue
        if all(e in (a, zero) for e in c.below(a) if e in member_endos):
            found.append(a)
    return tuple(found)


def _covered(c: Ambient, candidates: Collection[int], atoms: dict) -> frozenset[int]:
    """One cover step: h covers an atom a of atoms[dom h] below h'h on the
    domain side, and one of atoms[cod h] below hh' on the codomain side,
    for every f below h.  The candidates kept are those covered for every
    atom at both their ends.  Down-sets stay inside a homset, so a pass
    over many homsets gives each homset's own answer."""
    inv = c.inv
    covers: tuple[dict, dict] = ({}, {})  # per side: atom -> maps covered for it
    for h in candidates:
        ends = ((c.dom[h], inv[h], h), (c.cod[h], h, inv[h]))
        for cover, (X, f, g) in zip(covers, ends):
            if atoms[X]:
                down = c.below(c.compose(f, g))
                for a in atoms[X]:
                    if a in down:
                        cover.setdefault(a, set()).update(c.below(h))
    return frozenset(
        f
        for f in candidates
        if all(f in covers[0].get(a, ()) for a in atoms[c.dom[f]])
        and all(f in covers[1].get(b, ()) for b in atoms[c.cod[f]])
    )


def homset_derivative(M: CategoricalModeloid, X: int, Y: int) -> frozenset[int]:
    """Members of Hom(X, Y) whose every domain-side atom requirement and
    codomain-side atom requirement is covered by some larger member."""
    c = M.ambient
    if c.dom[X] != X or c.dom[Y] != Y:
        raise InputError("homset derivative needs object arguments")
    if X not in M.members or Y not in M.members:
        raise InputError("homset derivative needs objects of the modeloid")
    atoms = {Z: member_idempotent_atoms(M, Z) for Z in (X, Y)}
    return _covered(c, _member_homset(M, X, Y), atoms)


def categorical_derivative(
    M: CategoricalModeloid, check: bool = True
) -> CategoricalModeloid:
    """The homset derivatives of every homset of M at once: one cover
    step over all members, with the atoms of each end object found once."""
    if check:
        result = verify_categorical_modeloid(M)
        if not result:
            raise InputError(f"not a categorical modeloid ({result.describe()})")
    else:
        _require_ambient(M.ambient)
    c = M.ambient
    ends = {c.dom[m] for m in M.members} | {c.cod[m] for m in M.members}
    atoms = {X: member_idempotent_atoms(M, X) for X in ends}
    return CategoricalModeloid(c, _covered(c, M.members, atoms))


def iterate_categorical(
    M: CategoricalModeloid, rounds: int
) -> tuple[list[CategoricalModeloid], int | None]:
    """The chain M, D(M), ..., D^rounds(M) with the first repeat index,
    mirroring the modeloid iteration.  Only the input is verified; the
    derivative of a categorical modeloid is again one."""
    result = verify_categorical_modeloid(M)
    if not result:
        raise InputError(f"not a categorical modeloid ({result.describe()})")
    return fixpoint_chain(M, lambda N: categorical_derivative(N, check=False), rounds)


def endoset_as_semimodeloid(
    M: CategoricalModeloid, X: int
) -> tuple[Semimodeloid, tuple[int, ...]]:
    """Collapse the member endoset at X onto a standalone table.

    Returns the semimodeloid (with every element a member) and the
    dictionary from table indices back to morphism indices.  X itself
    becomes the neutral element; the endoset zero is required.
    """
    c = M.ambient
    if c.dom[X] != X:
        raise InputError(f"morphism {X} is not an object")
    if X not in M.members:
        raise InputError(f"object {X} is not a member")
    endos = _member_homset(M, X, X)
    zero = _endoset_zero(M, X, endos)
    index = {m: i for i, m in enumerate(endos)}
    rows = []
    for f in endos:
        row = []
        for g in endos:
            fg = c.compose(f, g)
            if fg not in index:
                raise InputError(f"member endoset at {X} is not closed under composition")
            row.append(index[fg])
        rows.append(tuple(row))
    inv_row = []
    for f in endos:
        if c.inv[f] not in index:
            raise InputError(f"member endoset at {X} is not closed under inverses")
        inv_row.append(index[c.inv[f]])
    table = InverseSemigroupTable(
        len(endos),
        tuple(rows),
        tuple(inv_row),
        index[X] if X in index else None,
        index[zero],
    )
    return Semimodeloid(table, frozenset(range(table.order))), tuple(endos)
