"""Modeloid structure carried by a subset of an inverse category.

A categorical modeloid is a set of morphisms closed under composition,
inverses and the natural partial order, containing every existing object.
The derivative acts homset by homset: within Hom(X, Y) a morphism
survives when, for every idempotent atom of the member endoset at X, some
member above it covers that atom on the domain side, and symmetrically at
Y on the codomain side.  The union over all object pairs (star paired
with itself when present) is the categorical derivative.

Endosets of a categorical modeloid collapse to semimodeloids, which is
how the one-object theory re-enters the categorical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import verdict as v
from .derived import fixpoint_chain
from .errors import InputError
from .free_categories import Ambient, has_all_zeros, objects
from .inverse_semigroups import InverseSemigroupTable, Semimodeloid, absorbing


@dataclass(frozen=True)
class CategoricalModeloid:
    ambient: Ambient
    members: frozenset[int]

    def __post_init__(self):
        if self.ambient.inv is None:
            raise InputError("the ambient category needs a declared inverse table")
        if any(not (0 <= m < self.ambient.morphism_count) for m in self.members):
            raise InputError("member index out of range")

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
    closure, membership of every existing object."""
    c = M.ambient
    _require_ambient(c)
    members = sorted(M.members)
    member_set = M.members
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


def _member_endoset_zero(M: CategoricalModeloid, X: int) -> int:
    zero = absorbing(M.ambient.compose, _member_homset(M, X, X))
    if zero is None:
        raise InputError(f"the member endoset at {X} has no zero")
    return zero


def member_idempotent_atoms(M: CategoricalModeloid, X: int) -> tuple[int, ...]:
    """Idempotent atoms of the member endoset at X: existing non-zero
    idempotents with no member strictly between them and the zero."""
    c = M.ambient
    endos = _member_homset(M, X, X)
    zero = _member_endoset_zero(M, X)
    member_endos = set(endos)
    found = []
    for a in endos:
        if a == c.star or a == zero or c.compose(a, a) != a:
            continue
        if all(e in (a, zero) for e in c.below(a) if e in member_endos):
            found.append(a)
    return tuple(found)


def homset_derivative(M: CategoricalModeloid, X: int, Y: int) -> frozenset[int]:
    """Members of Hom(X, Y) whose every domain-side atom requirement and
    codomain-side atom requirement is covered by some larger member."""
    c = M.ambient
    if c.dom[X] != X or c.dom[Y] != Y:
        raise InputError("homset derivative needs object arguments")
    if X not in M.members or Y not in M.members:
        raise InputError("homset derivative needs objects of the modeloid")
    hom = _member_homset(M, X, Y)
    dom_atoms = member_idempotent_atoms(M, X)
    cod_atoms = member_idempotent_atoms(M, Y)
    if not dom_atoms and not cod_atoms:
        return frozenset(hom)

    inv = c.inv
    dom_covered: dict[int, set[int]] = {a: set() for a in dom_atoms}
    cod_covered: dict[int, set[int]] = {b: set() for b in cod_atoms}
    for h in hom:
        down_h = c.below(h)
        if dom_atoms:
            down_dom = c.below(c.compose(inv[h], h))
            for a in dom_atoms:
                if a in down_dom:
                    dom_covered[a] |= down_h
        if cod_atoms:
            down_cod = c.below(c.compose(h, inv[h]))
            for b in cod_atoms:
                if b in down_cod:
                    cod_covered[b] |= down_h
    return frozenset(
        f
        for f in hom
        if all(f in dom_covered[a] for a in dom_atoms)
        and all(f in cod_covered[b] for b in cod_atoms)
    )


def categorical_derivative(
    M: CategoricalModeloid, check: bool = True
) -> CategoricalModeloid:
    """Union of the homset derivatives over all object pairs of M."""
    if check:
        result = verify_categorical_modeloid(M)
        if not result:
            raise InputError(f"not a categorical modeloid ({result.describe()})")
    else:
        _require_ambient(M.ambient)
    c = M.ambient
    object_list = [X for X in objects(c) if X in M.members]
    survivors: set[int] = set()
    for X in object_list:
        for Y in object_list:
            survivors |= homset_derivative(M, X, Y)
    if c.star in M.members:
        survivors |= homset_derivative(M, c.star, c.star)
    return CategoricalModeloid(c, frozenset(survivors))


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
    zero = _member_endoset_zero(M, X)
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
