"""Finite inverse semigroups as Cayley tables, and semimodeloids inside them.

An inverse semigroup is an associative table with an inverse operation
satisfying x*x'*x = x, (x')' = x, and commutation of the idempotents
x*x' and y*y'.  Three classically equivalent presentations (the axioms,
uniqueness of inverses, regularity plus commuting idempotents) are each
checked from scratch by ``characterize`` so the equivalence itself stays
testable.  The laws that read bare rows (associativity by Light's test,
the inverse laws, the absorbing element, the atom test and the cover
step) live in ``laws``, which ``free_categories`` and ``categorical``
read too, so neither loads this module for them.
``from_partial_bijections`` turns a closed set of partial
bijections into an abstract table, and ``wagner_preston`` goes the other
way, realizing any verified table as partial bijections on itself; only
these two load ``partial_bijections``, on their first call.
``_tabulate`` is the one tabulation behind every collapse onto a table:
this one, the one-object collapse of ``free_categories`` and the endoset
collapse of ``categorical``, which load it on their first call.

A semimodeloid is a subset of an inverse monoid with zero, closed under
the product, inverses and the natural partial order, containing the
neutral element.  Its derivative quantifies over the idempotent atoms of
the ambient monoid, in the one cover step (``laws._covered``) that the
categorical derivative takes too; ``laws._atoms`` is the one atom test, of
``atoms``, ``free_categories.is_atom`` and ``member_idempotent_atoms``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import product
from operator import itemgetter

from . import verdict as v
from .derived import Frozen, fact, generators, lazy
from .errors import BoundExceededError, InputError
from .laws import _atoms, _covered, absorbing, associativity_witness, inverse_laws, top_down

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
    bad = associativity_witness(mul, _top_down(table)[1])
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
def _top_down(table: InverseSemigroupTable) -> tuple[list[int], list[int]]:
    """Every element by ``laws.top_down``, highest first, and the
    generating set that ``derived.generators`` picks in that order: each
    row's |x*S| and the generators read once per table, for the
    associativity test, ``_embedding`` and ``_check_semimodeloid``."""
    order = top_down(table.mul, range(table.order))
    return order, generators(lambda x, y: table.mul[x][y], order)


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


def wagner_preston(table: InverseSemigroupTable) -> tuple[PartialBijection, ...]:
    """Realize a verified table as partial bijections on its own elements.

    Element a becomes the map x -> a*x on the fixed points of a'*a.  The
    embedding properties (injectivity, multiplicativity, order
    faithfulness) are deliberately left to the caller's checks.
    """
    verify_inverse_semigroup(table).require("not an inverse semigroup")
    carrier, bijection = _load("Carrier")(table.order), _load("PartialBijection")
    mul, inv, n = table.mul, table.inv, table.order
    idempotent = [mul[inv[a]][a] for a in range(n)]
    # the fixed points of each idempotent a'*a, found once per idempotent
    fixed = {e: [x for x in range(n) if mul[e][x] == x] for e in set(idempotent)}
    # the pairs are sorted and distinct: one checked construction each
    return tuple(
        bijection(carrier, tuple(zip(fixed[e], map(mul[a].__getitem__, fixed[e]))))
        for a, e in enumerate(idempotent)
    )



def _embedding(
    table: InverseSemigroupTable, images: Sequence[PartialBijection]
) -> tuple[bool, bool, bool]:
    """Whether ``images``, one partial bijection per element of the
    verified ``table`` (as ``wagner_preston`` gives them), are injective,
    multiplicative and order-faithful, read from the images alone.

    Each image is also a row over its carrier and one more point m, which
    stands for "undefined" and maps to itself, so image(a) o image(g) is
    row g read through row a (``itemgetter``).  The table is associative,
    so comparing that with image(a*g) for the generators g carries the
    product to every b by induction on b as a word in them: n*|G|
    compositions.  image(a) lies below image(b) when its domain lies in
    image(b)'s and row b reads as image(a) there, so one read of row b per
    distinct domain inside its own finds every such a, to compare with
    b's natural-order down-set.  Images over more than one carrier raise
    ``InputError``, as composing them does.
    """
    if len({f.carrier for f in images}) > 1:
        raise InputError("cannot compose maps over different carriers")
    mul, n, m = table.mul, table.order, images[0].carrier.size
    rows, domain_of = [], []
    shapes = {}  # domain -> its point set, its reader, its images by the values read
    for a, f in enumerate(images):
        row = [m] * (m + 1)
        for x, y in f.pairs:
            row[x] = y
        rows.append(tuple(row))
        domain = tuple(map(itemgetter(0), f.pairs))
        if domain not in shapes:
            shapes[domain] = (frozenset(domain), itemgetter(*domain, m), {})
        points, read, found = shapes[domain]
        domain_of.append(points)
        found.setdefault(read(row), set()).add(a)
    inside = {
        d: [(read, found) for e, read, found in shapes.values() if e <= d]
        for d, _, _ in shapes.values()
    }
    after = [(g, itemgetter(*rows[g])) for g in _top_down(table)[1]]
    below = _below(table)
    return (
        len(set(images)) == n,
        all(rows[mul[a][g]] == read(rows[a]) for a in range(n) for g, read in after),
        all(
            below[b] == {a for read, found in inside[d] for a in found.get(read(row), ())}
            for b, (d, row) in enumerate(zip(domain_of, rows))
        ),
    )


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
    members, member_set = sorted(sm.members), sm.members
    # the ambient is associative, so members closed under right products
    # by their generators are closed under all products; the members in
    # the ambient's top-down order are ``top_down(mul, members)``
    if generators(lambda x, y: mul[x][y], [x for x in _top_down(sm.ambient)[0] if x in member_set]) is None:
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
    table, mul = sm.ambient, sm.ambient.mul
    both = (idempotent_atoms(table),) * 2
    survivors = _covered(
        sm.members, lambda x: both, lambda x, y: mul[x][y], table.inv.__getitem__,
        _below(table).__getitem__,
    )
    derived = Semimodeloid(table, survivors)
    _carry_semimodeloid_verdict(sm, derived)
    return derived
