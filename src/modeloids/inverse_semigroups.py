"""Finite inverse semigroups as Cayley tables, and semimodeloids inside them.

An inverse semigroup is an associative table with an inverse operation
satisfying x*x'*x = x, (x')' = x, and commutation of the idempotents
x*x' and y*y'.  Three classically equivalent presentations (the axioms,
uniqueness of inverses, regularity plus commuting idempotents) are each
checked from scratch by ``characterize`` so the equivalence itself stays
testable.  The laws read bare rows, so ``free_categories`` runs the same
functions on the composition tables of inverse categories.
Associativity is decided by Light's test on a generating set picked
greedily from the top of the natural order down (``derived.generators``
over ``top_down``), which also serves the closure checks elsewhere, and
idempotent commutation is tested on the distinct idempotents x*x'.
``from_partial_bijections`` turns a closed set of partial
bijections into an abstract table, and ``wagner_preston`` goes the other
way, realizing any verified table as partial bijections on itself; only
these two load ``partial_bijections``, on their first call.
``_tabulate`` is the one tabulation behind every collapse onto a table:
this one, the one-object collapse of ``free_categories`` and the endoset
collapse of ``categorical``.

A semimodeloid is a subset of an inverse monoid with zero, closed under
the product, inverses and the natural partial order, containing the
neutral element.  Its derivative quantifies over the idempotent atoms of
the ambient monoid, in the one cover step (``_covered``) that the
categorical derivative takes too; ``_atoms`` is the one atom test, of
``atoms``, ``free_categories.is_atom`` and ``member_idempotent_atoms``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import product
from operator import itemgetter

from . import verdict as v
from .derived import Frozen, fact, generators, lazy
from .errors import BoundExceededError, InputError

# Only the two bridges to partial bijections read them, so that layer is
# loaded on the first such call.
__getattr__ = _load = lazy(globals(), {"partial_bijections": ("Carrier", "PartialBijection")})

AXIOMATIC_SEARCH_CAP = 1_000_000

MulTable = tuple[tuple[int, ...], ...]


class InverseSemigroupTable(Frozen):
    """A finite magma with a declared inverse map.

    ``neutral`` and ``zero`` are optional claims; ``verify_inverse_semigroup``
    checks them when present.  Construction only validates shapes and
    ranges so that broken tables remain representable for testing.
    """

    def __init__(
        self, order: int, mul: MulTable, inv: tuple[int, ...], neutral: int | None = None,
        zero: int | None = None,
    ):
        n = order
        _check_square(mul, n)
        if len(inv) != n or any(not (0 <= x < n) for x in inv):
            raise InputError("inverse table must list one in-range element per element")
        for claimed in (neutral, zero):
            if claimed is not None and not (0 <= claimed < n):
                raise InputError("declared neutral/zero out of range")
        vars(self).update(order=order, mul=mul, inv=inv, neutral=neutral, zero=zero)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[int]],
        inv: Sequence[int],
        neutral: int | None = None,
        zero: int | None = None,
    ) -> "InverseSemigroupTable":
        return cls(len(rows), tuple(tuple(r) for r in rows), tuple(inv), neutral, zero)


def _check_square(mul: MulTable, n: int) -> None:
    if n < 1:
        raise InputError("table order must be at least 1")
    if len(mul) != n or any(len(row) != n for row in mul):
        raise InputError("multiplication table must be order x order")
    if any(min(row) < 0 or max(row) >= n for row in mul):
        raise InputError("multiplication entry out of range")


def top_down(mul: MulTable, elements: Iterable[int]) -> list[int]:
    """``elements`` by decreasing number of distinct entries in their rows,
    |x*S|, ties in the given order: x <= y in the natural order gives
    xS within yS, so this lists the high elements first."""
    return sorted(elements, key=lambda x: -len(set(mul[x])))


def associativity_witness(mul: MulTable) -> tuple[int, int, int] | None:
    """The first (x, y, z) in index order with (x*y)*z != x*(y*z), or None.

    Light's test runs first: (x*g)*y = x*(g*y) for every generator g and
    all x, y, at n^2*|G| lookups.  The elements a with (x*a)*y = x*(a*y)
    for all x, y are closed under the product in any magma, and the
    generators reach every element, so a pass proves associativity.  Only
    a failure pays the cubic scan, which finds the first witness.
    """
    n = len(mul)
    if n == 1:
        # an itemgetter of one index returns a bare entry, not a row
        return _first_associativity_witness(mul)
    for g in generators(lambda x, y: mul[x][y], top_down(mul, range(n))):
        times_g = itemgetter(*mul[g])  # row of x -> x*(g*y) for every y
        for row_x in mul:
            if mul[row_x[g]] != times_g(row_x):
                return _first_associativity_witness(mul)
    return None


def _first_associativity_witness(mul: MulTable) -> tuple[int, int, int] | None:
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


def inverse_laws(mul: MulTable, inv: Sequence[int]) -> v.Verdict:
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


def partners(mul: MulTable, x: int) -> list[int]:
    """Every y with x*y*x = x and y*x*y = y (the generalized inverses of
    x), in index order."""
    row_x = mul[x]
    return [
        y for y in range(len(mul)) if mul[row_x[y]][x] == x and mul[mul[y][x]][y] == y
    ]


def _noncommuting_idempotents(mul: MulTable) -> tuple[int, int] | None:
    idem = [e for e in range(len(mul)) if mul[e][e] == e]
    for e in idem:
        for f in idem:
            if mul[e][f] != mul[f][e]:
                return (e, f)
    return None


def absorbing(compose, elements: Sequence[int]) -> int | None:
    """The first z of ``elements`` with compose(z, p) = compose(p, z) = z
    for every p among them: the zero of that subset, if it has one."""
    for z in elements:
        if all(compose(z, p) == z and compose(p, z) == z for p in elements):
            return z
    return None


def _neutral_of(mul: MulTable) -> int | None:
    n = len(mul)
    for e in range(n):
        if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
            return e
    return None


def _zero_of(mul: MulTable) -> int | None:
    return absorbing(lambda x, y: mul[x][y], range(len(mul)))


def table_from_rows(mul: MulTable, inv: Sequence[int]) -> InverseSemigroupTable:
    """The table of the rows, with its neutral and zero recorded when present."""
    return InverseSemigroupTable(len(mul), mul, tuple(inv), _neutral_of(mul), _zero_of(mul))


@fact
def verify_inverse_semigroup(table: InverseSemigroupTable) -> v.Verdict:
    """Axioms in checking order: associativity, x*x'*x = x, (x')' = x,
    idempotent commutation, then any declared neutral and zero."""
    return _check_inverse_semigroup(table)


def _check_inverse_semigroup(table: InverseSemigroupTable) -> v.Verdict:
    mul, n = table.mul, table.order
    bad = associativity_witness(mul)
    if bad is not None:
        return v.violated("associativity", bad)
    laws = inverse_laws(mul, table.inv)
    if not laws:
        return laws
    if table.neutral is not None:
        e = table.neutral
        for x in range(n):
            if mul[e][x] != x or mul[x][e] != x:
                return v.violated("neutral", (e, x))
    if table.zero is not None:
        z = table.zero
        for x in range(n):
            if mul[z][x] != z or mul[x][z] != z:
                return v.violated("zero", (z, x))
    return v.passed()


@fact
def idempotents(table: InverseSemigroupTable) -> tuple[int, ...]:
    return tuple(x for x in range(table.order) if table.mul[x][x] == x)


def inverses_of(table: InverseSemigroupTable, x: int) -> frozenset[int]:
    """All y with x*y*x = x and y*x*y = y."""
    return frozenset(partners(table.mul, x))


def resolve_inverses(
    mul_rows: Sequence[Sequence[int]],
    neutral: int | None = None,
    zero: int | None = None,
) -> tuple[InverseSemigroupTable | None, v.Verdict]:
    """Recover the inverse map from bare multiplication.

    Succeeds exactly when every element has one generalized inverse.
    Otherwise the verdict names the first obstruction: associativity,
    then at the first element without exactly one partner either
    ``regularity`` (no partner; witness ``(x,)`` as ``inverse_laws`` gives
    it) or ``idempotent-commutation`` (several partners, which in an
    associative table force two idempotents that do not commute).
    Absent claims for neutral and zero are filled in by scanning.
    """
    rows = tuple(tuple(r) for r in mul_rows)
    n = len(rows)
    _check_square(rows, n)
    found = [partners(rows, x) for x in range(n)]
    stuck = next((x for x in range(n) if len(found[x]) != 1), None)
    if stuck is not None or any(c is not None and not 0 <= c < n for c in (neutral, zero)):
        # no table to verify, so check here the axiom it would report first
        w = associativity_witness(rows)
        if w is not None:
            return None, v.violated("associativity", w)
    if stuck is not None:
        if not found[stuck]:
            return None, v.violated("regularity", (stuck,))
        # the table is associative here, and partners y, z of x with
        # commuting idempotents give y = yxy = yxzxy = yxz = zxyxz = zxz = z
        return None, v.violated("idempotent-commutation", _noncommuting_idempotents(rows))
    neutral = _neutral_of(rows) if neutral is None else neutral
    zero = _zero_of(rows) if zero is None else zero
    table = InverseSemigroupTable(n, rows, tuple(c[0] for c in found), neutral, zero)
    verdict = verify_inverse_semigroup(table)
    # like the failure branches, return no table that is not associative
    return (None if verdict.axiom == "associativity" else table), verdict


class CharacterizationReport(Frozen):
    """Three independently evaluated presentations of 'inverse semigroup'."""

    def __init__(
        self, axiomatic: bool, unique_inverses: bool, regular_and_idempotents_commute: bool
    ):
        vars(self).update(
            axiomatic=axiomatic, unique_inverses=unique_inverses,
            regular_and_idempotents_commute=regular_and_idempotents_commute,
        )

    def as_tuple(self) -> tuple[bool, bool, bool]:
        return (self.axiomatic, self.unique_inverses, self.regular_and_idempotents_commute)

    def all_agree(self) -> bool:
        return len(set(self.as_tuple())) == 1


def characterize(mul_rows: Sequence[Sequence[int]]) -> CharacterizationReport:
    """Evaluate the three presentations on an associative table.

    The axiomatic presentation is existential ('some inverse map satisfies
    the axioms'), so it is decided by searching choice functions over each
    element's inverse-candidate set, capped at a million combinations.
    """
    mul: MulTable = tuple(tuple(r) for r in mul_rows)
    n = len(mul)
    _check_square(mul, n)
    if associativity_witness(mul) is not None:
        raise InputError("table is not associative")
    candidate_sets = [partners(mul, x) for x in range(n)]

    unique = all(len(c) == 1 for c in candidate_sets)

    regular = all(len(c) > 0 for c in candidate_sets)
    commuting = _noncommuting_idempotents(mul) is None

    axiomatic = False
    if regular:
        space = 1
        for c in candidate_sets:
            space *= len(c)
            if space > AXIOMATIC_SEARCH_CAP:
                raise BoundExceededError(
                    f"inverse-map search space {space}+ exceeds {AXIOMATIC_SEARCH_CAP}"
                )
        axiomatic = any(inverse_laws(mul, choice) for choice in product(*candidate_sets))
    return CharacterizationReport(axiomatic, unique, regular and commuting)


@fact
def _below(table: InverseSemigroupTable) -> tuple[frozenset[int], ...]:
    # entry x holds every s <= x: the products x*e with e idempotent
    idem = idempotents(table)
    return tuple(frozenset(row[e] for e in idem) for row in table.mul)


def natural_leq(table: InverseSemigroupTable, s: int, x: int) -> bool:
    """s <= x in the natural partial order: s = x*e for some idempotent e."""
    return s in _below(table)[x]


def find_neutral(table: InverseSemigroupTable) -> int | None:
    return _neutral_of(table.mul)


def find_zero(table: InverseSemigroupTable) -> int | None:
    return _zero_of(table.mul)


def atoms(table: InverseSemigroupTable) -> frozenset[int]:
    """Non-zero elements with nothing strictly between them and zero."""
    zero = find_zero(table)
    if zero is None:
        raise InputError("atoms are only defined in the presence of a zero")
    return frozenset(_atoms(range(table.order), _below(table).__getitem__, zero))


def _atoms(elements: Iterable, below, zero) -> list:
    """The atoms among ``elements``, in their order: each x other than
    ``zero`` whose down-set ``below(x)`` holds only x and ``zero``."""
    return [x for x in elements if x != zero and below(x) <= {x, zero}]


@fact
def idempotent_atoms(table: InverseSemigroupTable) -> tuple[int, ...]:
    idem = set(idempotents(table))
    return tuple(sorted(a for a in atoms(table) if a in idem))


def from_partial_bijections(
    members: Iterable[PartialBijection],
) -> tuple[InverseSemigroupTable, tuple[PartialBijection, ...]]:
    """Abstract a compose/inverse-closed set of maps into a table.

    Elements are numbered in sorted pair order; the returned tuple is the
    dictionary from indices back to maps.  The table is ``_tabulate``'s,
    with neutral and zero recorded when present.
    """
    elements = tuple(sorted(set(members), key=lambda f: f.pairs))
    if not elements:
        raise InputError("cannot build a table from no maps")
    inverse = _load("PartialBijection").inverse
    table = _tabulate(elements, lambda f: map(f.compose, elements), inverse)
    return table, elements


def _tabulate(elements: Sequence, products, inverse) -> InverseSemigroupTable:
    """The table of ``elements``, numbered in the given order, with neutral
    and zero recorded when present: ``products(x)`` lists x after each
    element in that order, and ``inverse(x)`` is x's inverse.  Raises
    ``InputError`` at the first product, in row-major order, and then at
    the first inverse that falls outside ``elements``."""
    index = {x: i for i, x in enumerate(elements)}.get
    rows = []
    for x in elements:
        row = tuple(map(index, products(x)))
        if None in row:
            y = elements[row.index(None)]
            raise InputError(f"not closed under composition: {x} after {y}")
        rows.append(row)
    inv_row = tuple(map(index, map(inverse, elements)))
    if None in inv_row:
        raise InputError(f"not closed under inverse: {elements[inv_row.index(None)]}")
    return table_from_rows(tuple(rows), inv_row)


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


def wagner_preston(table: InverseSemigroupTable) -> tuple[PartialBijection, ...]:
    """Realize a verified table as partial bijections on its own elements.

    Element a becomes the map x -> a*x on the fixed points of a'*a.  The
    embedding properties (injectivity, multiplicativity, order
    faithfulness) are deliberately left to the caller's checks.
    """
    verify_inverse_semigroup(table).require("not an inverse semigroup")
    carrier, from_pairs = _load("Carrier")(table.order), _load("PartialBijection").from_pairs
    mul, inv = table.mul, table.inv
    images = []
    for a in range(table.order):
        e = mul[inv[a]][a]
        domain = [x for x in range(table.order) if mul[e][x] == x]
        images.append(from_pairs(carrier, ((x, mul[a][x]) for x in domain)))
    return tuple(images)


# ---------------------------------------------------------------------------
# Semimodeloids


class Semimodeloid(Frozen):

    def __init__(self, ambient: InverseSemigroupTable, members: frozenset[int]):
        if any(not (0 <= x < ambient.order) for x in members):
            raise InputError("member index out of range")
        vars(self).update(ambient=ambient, members=members)

    @classmethod
    def from_members(
        cls, ambient: InverseSemigroupTable, members: Iterable[int]
    ) -> "Semimodeloid":
        return cls(ambient, frozenset(members))


def _require_inverse_monoid_with_zero(table: InverseSemigroupTable) -> tuple[int, int]:
    verify_inverse_semigroup(table).require("ambient is not an inverse semigroup")
    neutral = find_neutral(table)
    if neutral is None:
        raise InputError("ambient has no neutral element")
    zero = find_zero(table)
    if zero is None:
        raise InputError("ambient has no zero element")
    return neutral, zero


@fact
def verify_semimodeloid(sm: Semimodeloid) -> v.Verdict:
    """Axioms in order: product closure, inverse closure, downward closure
    under the natural order, neutral membership."""
    return _check_semimodeloid(sm)


# taken once here, as the name itself may be wrapped later
_carry_semimodeloid_verdict = verify_semimodeloid.carry


def _check_semimodeloid(sm: Semimodeloid) -> v.Verdict:
    neutral, _zero = _require_inverse_monoid_with_zero(sm.ambient)
    mul, inv = sm.ambient.mul, sm.ambient.inv
    members = sorted(sm.members)
    member_set = sm.members
    # the ambient is associative, so members closed under right products
    # by their generators are closed under all products
    if generators(lambda x, y: mul[x][y], top_down(mul, members)) is None:
        for x in members:
            for y in members:
                if mul[x][y] not in member_set:
                    return v.violated("composition", (x, y))
    for x in members:
        if inv[x] not in member_set:
            return v.violated("inverse", (x,))
    below = _below(sm.ambient)
    for x in members:
        missing = below[x] - member_set
        if missing:
            return v.violated("downward", (min(missing), x))
    if neutral not in member_set:
        return v.violated("neutral", (neutral,))
    return v.passed()


def semimodeloid_derivative(sm: Semimodeloid) -> Semimodeloid:
    """Members covering every idempotent atom of the ambient monoid on
    both the domain side (via x'*x) and the codomain side (via x*x'):
    ``_covered`` on one object.

    With no idempotent atoms the conditions are vacuous and D(M) = M.
    M is verified once; the derivative of a semimodeloid is again one, so
    the result carries M's verdict and a chain checks no derived level.
    """
    verify_semimodeloid(sm).require("not a semimodeloid")
    table = sm.ambient
    mul = table.mul
    both = (idempotent_atoms(table),) * 2
    survivors = _covered(
        sm.members, lambda x: both, lambda x, y: mul[x][y], table.inv.__getitem__,
        _below(table).__getitem__,
    )
    derived = Semimodeloid(table, survivors)
    _carry_semimodeloid_verdict(sm, derived)
    return derived
