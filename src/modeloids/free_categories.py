"""Finite categories with one non-existing morphism and total tables.

Instead of keeping composition partial, every category here carries a
distinguished morphism ``star`` that represents "undefined": dom, cod and
composition are total functions, and any composition that would be
undefined yields star.  Equality of possibly-undefined expressions is
Kleene equality: two expressions agree when both are star or both are the
same existing morphism.  With a single star that collapses to plain index
equality, which is what makes the exhaustive axiom checks cheap.

Objects are the morphisms that equal their own domain.  An inverse
category additionally gives every existing morphism s a unique partner
with s = s.partner.s and partner = partner.s.partner; the same class of
tables is carved out by a quantifier-free equational axiom set, and both
checks are provided so their agreement stays observable.  Both run the
bare-row laws of ``laws``, which the inverse semigroups run too, on the
composition table; strictness of the inverse on star is the only law of
the category's own.  A one-object category collapses onto its existing
morphisms through the tabulation that ``inverse_semigroups`` keeps for
every collapse; only the two bridges to tables load that module, on
their first call.
"""

from __future__ import annotations

from itertools import compress

from . import verdict as v
from .derived import Frozen, fact, lazy
from .errors import InputError
from .laws import _atoms, absorbing, associativity_witness, inverse_laws

# Only the two bridges to inverse semigroup tables read them, so that
# layer is loaded on the first such call.
__getattr__ = _load = lazy(globals(), {"inverse_semigroups": ("_tabulate", "find_neutral")})


class Ambient:
    """What the categorical derivative reads of an inverse category: the
    dom, cod and inv tables, composition one entry at a time, and the
    natural-order down-set of a morphism.  ``FreeCategory`` reads both
    from its table; the partial-isomorphism category of ``ef_games``
    computes them on demand.  An ambient may also declare ``associative``
    true when its composition is known to associate; closure checks then
    close generators instead of scanning every pair.  The class only
    names that interface in annotations: no ambient derives from it, and
    nothing checks it at run time."""

    morphism_count: int
    star: int
    dom: tuple[int, ...]
    cod: tuple[int, ...]
    inv: tuple[int, ...] | None

    def compose(self, f: int, g: int) -> int: ...

    def below(self, t: int) -> frozenset[int]: ...


class FreeCategory(Frozen):

    def __init__(
        self, morphism_count: int, star: int, dom: tuple[int, ...], cod: tuple[int, ...],
        comp: tuple[tuple[int, ...], ...], inv: tuple[int, ...] | None = None,
    ):
        n = morphism_count
        if n < 1:
            raise InputError("a category needs at least the non-existing morphism")
        if not (0 <= star < n):
            raise InputError("star index out of range")
        for name, table in (("dom", dom), ("cod", cod)):
            if len(table) != n or any(not (0 <= x < n) for x in table):
                raise InputError(f"{name} table must list one in-range morphism each")
        if len(comp) != n or any(len(row) != n for row in comp):
            raise InputError("composition table must be square")
        if any(min(row) < 0 or max(row) >= n for row in comp):
            raise InputError("composition entry out of range")
        if dom[star] != star or cod[star] != star:
            raise InputError("the non-existing morphism must be its own dom and cod")
        if inv is not None:
            if len(inv) != n or any(not (0 <= x < n) for x in inv):
                raise InputError("inverse table must list one in-range morphism each")
        vars(self).update(morphism_count=n, star=star, dom=dom, cod=cod, comp=comp, inv=inv)

    @fact
    def __hash__(self):
        return hash((self.morphism_count, self.star, self.dom, self.cod, self.comp, self.inv))

    def compose(self, f: int, g: int) -> int:
        """f after g, read from the table."""
        return self.comp[f][g]

    @property
    def associative(self) -> bool:
        """Composition is known to associate once ``verify_category`` passed."""
        return verify_category(self).ok

    @fact
    def below(self, t: int) -> frozenset[int]:
        """Everything <= t; computed as the composites of t with the
        idempotents of End(dom t)."""
        return frozenset(self.comp[t][e] for e in _endoset_idempotents(self, self.dom[t]))


def kleene_eq(c: FreeCategory, a: int, b: int) -> bool:
    """Both non-existing, or both existing and identical.  With a single
    non-existing morphism this is index equality."""
    if a == c.star or b == c.star:
        return a == c.star and b == c.star
    return a == b


@fact
def verify_category(c: FreeCategory) -> v.Verdict:
    """Axioms in order: composability (a composite exists exactly when
    both parts exist and dom meets cod), associativity, identity laws.
    Strictness of dom and cod on star is part of the representation and
    enforced at construction."""
    return _check_category(c)


# the category axioms do not read inv (taken once here, as the name
# itself may be wrapped later)
_carry_category_verdict = verify_category.carry


def _check_category(c: FreeCategory) -> v.Verdict:
    n, star, dom, cod, comp = c.morphism_count, c.star, c.dom, c.cod, c.comp
    # row f exists exactly at the existing g with cod g = dom f, listed
    # per object: as many entries other than star as those g, and none of
    # them star.  The first row that differs holds the first witness
    by_cod: dict[int, list[int]] = {}
    for g in range(n):
        if g != star:
            by_cod.setdefault(cod[g], []).append(g)
    for f in range(n):
        row = comp[f]
        expected = by_cod.get(dom[f], []) if f != star else []
        if n - row.count(star) != len(expected) or star in map(row.__getitem__, expected):
            g = next(g for g in range(n) if (comp[f][g] != star) != (g in expected))
            return v.violated("composability", (f, g))
    bad = associativity_witness(comp)
    if bad is not None:
        return v.violated("associativity", bad)
    for x in range(n):
        if comp[x][dom[x]] != x or comp[cod[x]][x] != x:
            return v.violated("identity-law", (x,))
    return v.passed()


@fact
def _partners(c: FreeCategory) -> tuple[list[int], ...]:
    """The generalized-inverse partners of every morphism, found once for
    the inverse check and ``skolem_inverses``, of a verified category: t
    with s.t.s = s and t.s.t = t, in index order.  Both composites exist
    only for t in Hom(cod s, dom s), so only that homset is searched;
    star's is Hom(star, star), which holds star alone."""
    comp, dom, cod = c.comp, c.dom, c.cod
    hom: dict[tuple[int, int], list[int]] = {}
    for t in range(c.morphism_count):
        hom.setdefault((dom[t], cod[t]), []).append(t)
    return tuple(
        [
            t for t in hom.get((cod[s], dom[s]), ())
            if comp[comp[s][t]][s] == s and comp[comp[t][s]][t] == t
        ]
        for s in range(c.morphism_count)
    )


def verify_inverse_category_unique(c: FreeCategory) -> v.Verdict:
    """The definitional check: a verified category where each morphism has
    exactly one generalized-inverse partner.  When an inverse table is
    declared, it must list those partners (star's partner is star)."""
    base = verify_category(c)
    if not base:
        return base
    for s, candidates in enumerate(_partners(c)):
        if len(candidates) != 1:
            axiom = "inverse-existence" if not candidates else "inverse-uniqueness"
            return v.violated(axiom, (s, tuple(candidates)))
        if c.inv is not None and c.inv[s] != candidates[0]:
            return v.violated("inverse-mismatch", (s, c.inv[s], candidates[0]))
    return v.passed()


def skolem_inverses(c: FreeCategory) -> FreeCategory:
    """Fill the inverse table with each morphism's unique partner."""
    verify_category(c).require("not a category")
    found = _partners(c)
    for s, candidates in enumerate(found):
        if len(candidates) != 1:
            raise InputError(
                f"morphism {s} has {len(candidates)} inverse partners, expected one"
            )
    inv = tuple(p[0] for p in found)
    filled = FreeCategory(c.morphism_count, c.star, c.dom, c.cod, c.comp, inv)
    _carry_category_verdict(c, filled)
    return filled


def verify_inverse_category_equational(c: FreeCategory) -> v.Verdict:
    """The quantifier-free check, transported from the inverse-semigroup
    axioms under Kleene equality (star is absorbing everywhere)."""
    base = verify_category(c)
    if not base:
        return base
    if c.inv is None:
        raise InputError("the equational check needs a declared inverse table")
    for x in range(c.morphism_count):
        if (c.inv[x] == c.star) != (x == c.star):
            return v.violated("inverse-strictness", (x,))
    return inverse_laws(c.comp, c.inv)


def is_object(c: Ambient, m: int) -> bool:
    """True when m equals its own domain; star qualifies formally."""
    return c.dom[m] == m


def objects(c: Ambient) -> tuple[int, ...]:
    """The existing objects, in index order."""
    return tuple(m for m in range(c.morphism_count) if m != c.star and c.dom[m] == m)


def homset(c: Ambient, X: int, Y: int) -> tuple[int, ...]:
    """Every morphism with domain X and codomain Y; star shows up only in
    homset(star, star)."""
    for end in (X, Y):
        if not is_object(c, end):
            raise InputError(f"morphism {end} is not an object")
    return tuple(
        m for m in range(c.morphism_count) if c.dom[m] == X and c.cod[m] == Y
    )


def endoset(c: Ambient, X: int) -> tuple[int, ...]:
    return homset(c, X, X)


@fact
def _endoset_idempotents(c: FreeCategory, X: int) -> tuple[int, ...]:
    return tuple(e for e in endoset(c, X) if c.comp[e][e] == e)


def natural_leq(c: Ambient, s: int, t: int) -> bool:
    """s <= t: s = t composed with some idempotent endomorphism of the
    common domain object."""
    if c.dom[s] != c.dom[t] or c.cod[s] != c.cod[t]:
        raise InputError("the natural order only compares morphisms of one homset")
    return s in c.below(t)


def below(c: Ambient, t: int) -> frozenset[int]:
    """Everything <= t in the ambient's natural order."""
    return c.below(t)


def zero_of_endoset(c: Ambient, X: int) -> int | None:
    return absorbing(c.compose, endoset(c, X))


@fact
def has_all_zeros(c: Ambient) -> bool:
    """Every existing object's endoset has a zero (End(star) always has
    one, star itself)."""
    return all(zero_of_endoset(c, X) is not None for X in objects(c))


def is_atom(c: Ambient, a: int, X: int) -> bool:
    """An existing, non-zero element of End(X) with nothing strictly
    between it and the zero."""
    if not is_object(c, X):
        raise InputError(f"morphism {X} is not an object")
    endos = endoset(c, X)
    if a not in endos:
        raise InputError(f"morphism {a} is not an endomorphism of {X}")
    zero = zero_of_endoset(c, X)
    if zero is None:
        raise InputError(f"End({X}) has no zero, atoms are undefined")
    return bool(_atoms((a,), c.below, zero))


def one_object_to_semigroup(c: FreeCategory) -> InverseSemigroupTable:
    """Collapse a one-object category onto its existing morphisms.

    Existing morphisms keep their relative order; entry (i, j) of the
    result is the composite of the i-th and j-th existing morphisms, read
    row by row from the composition table (``_tabulate``).  A composite or
    inverse that is star does not exist and is reported as outside.
    """
    if c.inv is None:
        raise InputError("collapse needs a declared inverse table")
    obj = objects(c)
    if len(obj) != 1:
        raise InputError(f"expected exactly one object, found {len(obj)}")
    exists = [m != c.star for m in range(c.morphism_count)]
    return _load("_tabulate")(
        tuple(compress(range(c.morphism_count), exists)),
        lambda f: compress(c.comp[f], exists),
        c.inv.__getitem__,
    )


def semigroup_to_one_object_category(t: InverseSemigroupTable) -> FreeCategory:
    """View an inverse monoid as a category with a single object (the
    neutral element) plus an appended non-existing morphism."""
    neutral = _load("find_neutral")(t)
    if neutral is None:
        raise InputError("only a monoid yields an identity morphism for the object")
    n = t.order
    star = n
    dom = tuple([neutral] * n) + (star,)
    comp = tuple(tuple(t.mul[f]) + (star,) for f in range(n)) + (
        tuple([star] * (n + 1)),
    )
    inv = tuple(t.inv) + (star,)
    return FreeCategory(n + 1, star, dom, dom, comp, inv)
