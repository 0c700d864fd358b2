"""Ehrenfeucht-Fraissé equivalence by two independent routes.

Given structures A and B over one vocabulary, the category D of the
pair is the free-logic inverse category whose existing morphisms are
the partial isomorphisms between the four side pairs (A,A), (A,B),
(B,A), (B,B).  Its objects are the full identities id_A and id_B, the
zero of each endoset is the constants-only map, and the full morphism
set is a categorical modeloid.  A map of D is held in one form, its
sorted tuple of pairs: the category, its chains and its certificates
all read pair tuples, and a ``PartialIso`` is built only where a map is
handed out, as the witness of ``ef_equiv_derivative`` or by
``surviving_maps``.  No composition table is built: the
``PartialIsoAmbient`` composes two maps on demand and looks the result
up, and it lists the natural-order down-set of a map as its
restrictions that keep the constant pairs.

``ef_equiv_derivative`` decides m-round equivalence by applying the
categorical derivative m times and asking whether any map from id_A to
id_B survives.  The chain it steps (``homset_levels``) holds only
Hom(A,B), not all of D: the step decides a map from the maps above it,
which share its homset, and from the idempotent atoms at its ends, which
are the partial identities on the constants plus one point.  Every
level is down-closed, so some member above f covers the atom at x
exactly when f ∪ {(x, y)} is in the level for some y: a step keeps f
when every point outside it extends it by one pair, forth and back, the
classical back-and-forth step, looked up on pair tuples.  The chain on
all of D (``derivative_levels``, the paper's route through
``categorical_derivative``) stays as the reference it must agree with.

So ``build_category_D`` builds only the part of D around Hom(A,B):
Hom(A,B) from one enumeration, Hom(B,A) as the inverses of its maps, and
the partial identities of A and B, which are generated as restrictions
of id_A and id_B without a search: both are pair tuples that no second
test checks.  All of D, with the part as its index prefix, is built on
first read of ``CategoryD.whole``; only ``derivative_levels`` and the
endoset queries read it.  For A == B the part is all of D.

Asking one pair for m = 0, 1, 2, ... builds D once.  ``build_category_D``
keeps the D of its latest call and returns it again when called with the
same two structure objects, so its compositions, down-sets and homset
chains carry over from one call to the next.  Each chain holds each
distinct level once, stepped only as far as the largest m asked for and
not past its fixpoint.  At most one D is kept: a call on another pair
drops it first.  A caller that holds a D can still pass it as
``category=``.

``ef_equiv_oracle`` decides the same question by a memoized game-tree
recursion that shares no code with the derivative:
Spoiler plays only fresh elements, so each position fixes the rounds
left, holds one memo entry and is pruned as soon as it is not a partial
isomorphism, and the recursion is never deeper than the smaller
universe, whatever the number of rounds.  The two must always agree;
the command-line front-end runs both.

A positive derivative answer can be externalized: ``extract_certificate``
returns the chain I_j = D^j ∩ Part(A,B) as sets of pair tuples, read
from the same homset chain, which ``verify_certificate`` checks against
the literal back-and-forth conditions, by one-point extensions.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from . import verdict as v
from .categorical import CategoricalModeloid, categorical_derivative
from .derived import Chain, Frozen, fact, padded
from .errors import BoundExceededError, InputError, OutsideAmbientError
from .free_categories import homset
from .partial_bijections import _least_unextended
from .structures import (
    PartialIso,
    Structure,
    constant_pairs,
    enumerate_partial_isos,
    pairs_are_partial_iso,
)

DEFAULT_EF_UNIVERSE_BOUND = 5


class PartialIsoAmbient(Frozen):
    """Category D as the derivative reads it, composed on demand.

    ``morphisms[i]`` is the partial isomorphism at index i as its sorted
    pair tuple, and star sits at index ``len(morphisms)``.  ``dom``,
    ``cod`` and ``inv`` are tables; ``index`` finds a map by (dom object,
    cod object, pairs), and ``constants[X]`` lists the constant elements
    of object X's structure.
    No composition table is built: ``compose`` composes two maps and looks
    the result up, and ``below`` enumerates restrictions.  An ambient may
    hold only part of D; a composite outside it raises
    ``OutsideAmbientError``.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself
    associative = True  # partial isomorphisms compose associatively

    def __init__(
        self, morphism_count: int, star: int, dom: tuple[int, ...], cod: tuple[int, ...],
        inv: tuple[int, ...], morphisms: tuple[tuple[tuple[int, int], ...], ...],
        index: dict[tuple[int, int, tuple], int], constants: dict[int, tuple[int, ...]],
    ):
        vars(self).update(
            morphism_count=morphism_count, star=star, dom=dom, cod=cod, inv=inv,
            morphisms=morphisms, index=index, constants=constants,
        )

    @fact
    def compose(self, f: int, g: int) -> int:
        """f after g: map composition where dom f meets cod g, else star."""
        if f == self.star or g == self.star or self.dom[f] != self.cod[g]:
            return self.star
        fwd = dict(self.morphisms[f])
        composed = tuple((a, fwd[b]) for a, b in self.morphisms[g] if b in fwd)
        try:
            return self.index[(self.dom[g], self.cod[f], composed)]
        except KeyError:
            raise OutsideAmbientError(
                f"{f} after {g} is not a morphism of this ambient"
            ) from None

    @fact
    def below(self, t: int) -> frozenset[int]:
        """Everything <= t.  In the natural order of partial isomorphisms
        s <= t means s is a restriction of t, and every restriction that
        keeps the constant pairs is a morphism: so these are the subsets
        of t's pairs that contain the constant pairs."""
        if t == self.star:
            return frozenset((t,))
        X, Y = self.dom[t], self.cod[t]
        fixed = set(zip(self.constants[X], self.constants[Y]))
        return frozenset(self.index[(X, Y, r)] for r in _restrictions(self.morphisms[t], fixed))


def _restrictions(pairs: tuple, fixed) -> Iterator[tuple]:
    """The sub-tuples of ``pairs`` that keep every pair in ``fixed``."""
    # each pair is kept, or dropped unless it is a constant pair
    choices = [((p,),) if p in fixed else ((p,), ()) for p in pairs]
    return (sum(kept, ()) for kept in product(*choices))


class CategoryD(Frozen):
    """The partial-isomorphism category of a structure pair, or the part
    of it that the ``ef`` chain reads.

    ``morphisms`` are its ambient's pair tuples.  The part (``complete``
    false) holds Hom(A,B), Hom(B,A) and the partial identities of A and
    B; ``whole`` is all of D, built on first read, with the part's
    morphisms as its first indices.  So an index into the part is the
    same morphism in D, and ``object_a`` and ``object_b`` are the same in
    both.  When ``left`` and ``right`` are the same structure the
    category has a single object, and the part is all of D.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(
        self, left: Structure, right: Structure, ambient: PartialIsoAmbient,
        object_a: int, object_b: int, complete: bool,
    ):
        vars(self).update(
            left=left, right=right, ambient=ambient,
            object_a=object_a, object_b=object_b, complete=complete,
        )

    @property
    def whole(self) -> "CategoryD":
        return self if self.complete else _whole(self)

    @property
    def star(self) -> int:
        return self.ambient.star

    @property
    def morphisms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self.ambient.morphisms

    def _side(self, S: Structure) -> int:
        if S == self.left:
            return 0
        if S == self.right:
            return 1
        raise InputError("structure is not a side of this category")

    def object_of(self, S: Structure) -> int:
        return (self.object_a, self.object_b)[self._side(S)]

    def _holding(self, X: Structure, Y: Structure) -> "CategoryD":
        """The D whose ambient holds Hom(X,Y): this one for the cross
        homsets, all of D for an endoset."""
        return self.whole if self._side(X) == self._side(Y) else self

    def part(self, X: Structure, Y: Structure) -> tuple[int, ...]:
        """Indices of Part(X,Y), i.e. Hom(id_X, id_Y), which holds no star;
        an endoset is read from all of D."""
        D = self._holding(X, Y)
        return homset(D.ambient, D.object_of(X), D.object_of(Y))


def _check_pair(A: Structure, B: Structure, max_universe: int):
    if A.vocabulary != B.vocabulary:
        raise InputError("both structures must share one vocabulary")
    for S in (A, B):
        if S.universe_size > max_universe:
            raise BoundExceededError(
                f"universe of {S.name} exceeds the bound {max_universe}"
            )


def _identity(S: Structure) -> tuple[tuple[int, int], ...]:
    return tuple((x, x) for x in range(S.universe_size))


def _inverse(pairs: tuple) -> tuple:
    return tuple(sorted((b, a) for a, b in pairs))


def _enumerated(X: Structure, Y: Structure, max_universe: int) -> list[tuple]:
    """The pair tuples of ``enumerate_partial_isos(X, Y)``."""
    return [p.pairs for p in enumerate_partial_isos(X, Y, max_universe)]


def _block(lt: int, rt: int, maps) -> list[tuple[int, int, tuple]]:
    """The maps from side lt to side rt, sorted."""
    return [(lt, rt, p) for p in sorted(maps)]


def _category(
    left: Structure, right: Structure, layout: list[tuple[int, int, tuple]], complete: bool
) -> CategoryD:
    """Tabulate dom, cod and inv over ``layout``, a list of (source side,
    target side, map) in index order; star comes after the last map."""
    sides = (left,) if left == right else (left, right)
    morphisms = tuple(p for _, _, p in layout)
    star = len(morphisms)
    full = [_identity(S) for S in sides]
    obj = [0] * len(sides)
    for i, (lt, rt, p) in enumerate(layout):
        if lt == rt and p == full[lt]:
            obj[lt] = i
    dom = tuple(obj[lt] for lt, _, _ in layout) + (star,)
    cod = tuple(obj[rt] for _, rt, _ in layout) + (star,)
    index = {(dom[i], cod[i], p): i for i, p in enumerate(morphisms)}
    inv = [star] * (star + 1)
    for i, p in enumerate(morphisms):
        if inv[i] == star:  # each inverse pair is looked up once
            inv[i] = j = index[(cod[i], dom[i], _inverse(p))]
            inv[j] = i
    constants = {obj[s]: S.constants for s, S in enumerate(sides)}
    ambient = PartialIsoAmbient(star + 1, star, dom, cod, tuple(inv), morphisms, index, constants)
    return CategoryD(left, right, ambient, obj[0], obj[-1], complete)


# The D of the latest ``build_category_D`` call, or None.
_latest: CategoryD | None = None


def build_category_D(
    A: Structure, B: Structure, max_universe: int = DEFAULT_EF_UNIVERSE_BOUND
) -> CategoryD:
    """The part of D around the ``ef`` chain: Hom(A,B) from one
    ``enumerate_partial_isos`` call, then Hom(B,A), the inverses of those
    maps, then the partial identities of A and of B, then star; each block
    of pair tuples sorted.  Only the enumeration builds ``PartialIso``
    objects.  dom, cod and inv are tabulated; composition is left to the
    ambient.  All of D is ``.whole``, built when first read.  For A == B
    this is all of D: the one block End(A).

    Called again with the same two structure objects (``is``, not ``==``),
    it returns the D it built last, with the compositions, down-sets and
    homset chains already derived on it.  Only that one D is kept: a call
    on another pair drops it before building, so the module never holds
    more than one.  Callers that keep a D themselves pass it on as
    ``category=``.
    """
    global _latest
    _check_pair(A, B, max_universe)
    if _latest is not None and _latest.left is A and _latest.right is B:
        return _latest
    _latest = None
    if A == B:
        layout = _block(0, 0, _enumerated(A, A, max_universe))
    else:
        forth = _enumerated(A, B, max_universe)
        layout = _block(0, 1, forth) + _block(1, 0, map(_inverse, forth))
        for s, S in enumerate((A, B)):
            # the partial identities: id_S's restrictions that fix the constants
            fixed = {(c, c) for c in S.constants}
            layout += _block(s, s, _restrictions(_identity(S), fixed))
    _latest = _category(A, B, layout, complete=A == B)
    return _latest


@fact
def _whole(part: CategoryD) -> CategoryD:
    """All of D: the part's morphisms in their order, then the other
    endomorphisms of A and of B, then star."""
    c = part.ambient
    side = {part.object_a: 0, part.object_b: 1}
    layout = [(side[c.dom[i]], side[c.cod[i]], p) for i, p in enumerate(c.morphisms)]
    for s, S in enumerate((part.left, part.right)):
        endos = _enumerated(S, S, S.universe_size)
        layout += _block(s, s, (p for p in endos if any(a != b for a, b in p)))
    return _category(part.left, part.right, layout, complete=True)


@fact
def _derivative_chain(whole: CategoryD) -> Chain:
    start = CategoricalModeloid.everything(whole.ambient)
    return Chain(start, categorical_derivative)


def derivative_levels(category: CategoryD, m: int) -> tuple[frozenset[int], ...]:
    """Member sets of D^0 .. D^m starting from all morphisms: the paper's
    chain on all of D, built for it if ``category`` is the part.  It is
    one chain per D, stepped only as far as the largest m asked for; once
    a step changes nothing the tail repeats that level.  Its first step
    verifies all of D, once per D, as every categorical derivative
    verifies its input."""
    if m < 0:
        raise InputError("rounds must be non-negative")
    levels = _derivative_chain(category.whole).upto(m)
    return padded(tuple(M.members for M in levels), m)


@fact
def _homset_chain(category: CategoryD, X: Structure, Y: Structure) -> Chain:
    """D^j ∩ Hom(X,Y) as index sets; a step keeps a map when every point
    of X and of Y outside it extends it by one pair to a map of the level."""
    D = category._holding(X, Y)
    pairs = {i: D.morphisms[i] for i in D.part(X, Y)}
    sources, targets = X.universe_size, Y.universe_size

    def step(level: frozenset[int]) -> frozenset[int]:
        maps = {pairs[i] for i in level}
        return frozenset(
            i for i in level
            if _least_unextended(pairs[i], maps, sources, targets) == (None, None)
        )

    return Chain(frozenset(pairs), step)


def homset_levels(
    category: CategoryD, m: int, X: Structure, Y: Structure
) -> tuple[frozenset[int], ...]:
    """D^j ∩ Hom(id_X, id_Y) for j = 0 .. m, read from one chain per
    (X, Y) kept on the category, so that the equivalence answer and the
    certificate of every m share it.  The chain holds each distinct level
    once, stepped only as far as the largest m asked for and never past
    its fixpoint; the returned levels beyond the fixpoint repeat it.

    The levels of ``derivative_levels`` restricted to Hom(X,Y), stepped
    on Hom(X,Y) alone by one-point extensions.  This is exact:

    - The categorical step decides a member f of Hom(X,Y) from the
      members above it, which lie in the same homset, and from the
      idempotent atoms of the endosets at its two ends.
    - Those atoms are the partial identities that fix the constants plus
      one point x.  Every partial identity survives every level, because
      the full identity lies above it and covers every atom, so the atoms
      never change and the other homsets never feed back into Hom(X,Y).
    - A member h above f covers the atom at x when x is in its domain
      (codomain, at Y).  Every level is down-closed, so the restriction
      of h to the domain of f and x, which is f ∪ {(x, h(x))}, is then a
      member too; for x in the domain of f, f covers it itself.
    - So f survives exactly when every point of X outside its domain has
      some y with f ∪ {(x, y)} in the level, and every point of Y outside
      its range some such x: ``_least_unextended`` on pair tuples.

    For the cross homsets Hom(A,B) and Hom(B,A) the chain reads the part
    of D that ``build_category_D`` builds.  An endoset query, Hom(A,A) or
    Hom(B,B), reads all of D (``category.whole``), built for it on first
    use.  The indices agree either way, since the part is a prefix of D.
    """
    if m < 0:
        raise InputError("rounds must be non-negative")
    return padded(tuple(_homset_chain(category, X, Y).upto(m)), m)


def _survivors(category: CategoryD, m: int, X: Structure, Y: Structure) -> list[tuple]:
    """The pair tuples of Part(X,Y) ∩ D^m, in index order."""
    if m < 0:
        raise InputError("rounds must be non-negative")
    final = _homset_chain(category, X, Y).upto(m)[-1]
    morphisms = category._holding(X, Y).morphisms
    return [morphisms[i] for i in sorted(final)]


def surviving_maps(
    category: CategoryD, m: int, X: Structure, Y: Structure
) -> tuple[PartialIso, ...]:
    """Part(X,Y) ∩ D^m for any side pair, star excluded; the general
    form of the equivalence query, sorted for determinism."""
    return tuple(PartialIso(X, Y, p) for p in _survivors(category, m, X, Y))


def ef_equiv_derivative(
    A: Structure,
    B: Structure,
    m: int,
    max_universe: int = DEFAULT_EF_UNIVERSE_BOUND,
    category: CategoryD | None = None,
) -> tuple[bool, PartialIso | None]:
    """m-round equivalence via the derivative; the witness is a largest
    surviving map from id_A to id_B, or None if none survive.  The chain
    is stepped on Hom(A,B) alone, which gives the same D^m ∩ Hom(A,B) as
    all of D (see ``homset_levels``).  The witness is the one
    ``PartialIso`` built: the largest pair tuple is picked first."""
    if m < 0:
        raise InputError("rounds must be non-negative")
    if category is None:
        category = build_category_D(A, B, max_universe)
    survivors = _survivors(category, m, A, B)
    if not survivors:
        return False, None
    return True, PartialIso(A, B, max(survivors, key=lambda p: (len(p), p)))


def ef_equiv_oracle(
    A: Structure,
    B: Structure,
    m: int,
    max_universe: int = DEFAULT_EF_UNIVERSE_BOUND,
) -> bool:
    """Independent game-tree answer over fresh moves.

    Duplicator wins a position with k rounds left when its pairs form a
    partial isomorphism and, if k > 0, every element Spoiler picks
    outside the domain (range) has an answer outside the range (domain)
    that wins with k - 1 left.  Replaying a used element never helps
    Spoiler, since Duplicator repeats its answer and fewer rounds are
    easier; answering with a used element breaks injectivity or
    functionality.  A position that is not a partial isomorphism is lost
    at once, as restrictions of partial isomorphisms are again ones.
    Every move adds one pair, so k follows from the position: the memo
    holds one entry per position and the recursion is never deeper than
    the smaller universe, whatever m is.
    """
    _check_pair(A, B, max_universe)
    if m < 0:
        raise InputError("rounds must be non-negative")
    start = frozenset(constant_pairs(A, B))
    final_size = len(start) + m  # a position this large has no rounds left
    memo: dict[frozenset[tuple[int, int]], bool] = {}

    def win(position: frozenset[tuple[int, int]]) -> bool:
        if position not in memo:
            memo[position] = pairs_are_partial_iso(A, B, position) and (
                len(position) == final_size or every_pick_answered(position)
            )
        return memo[position]

    def every_pick_answered(position: frozenset[tuple[int, int]]) -> bool:
        fresh_a = set(range(A.universe_size)).difference(a for a, _ in position)
        fresh_b = set(range(B.universe_size)).difference(b for _, b in position)
        return all(
            any(win(position | {(a, b)}) for b in fresh_b) for a in fresh_a
        ) and all(any(win(position | {(a, b)}) for a in fresh_a) for b in fresh_b)

    return win(start)


class BackAndForthCertificate(Frozen):
    """Level sets I_0 ⊇ I_1 ⊇ ... ⊇ I_m witnessing m-round equivalence.

    I_j holds the maps from ``left`` to ``right`` that still answer j more
    rounds, each as its sorted pair tuple; extending happens toward
    smaller indices.
    """

    def __init__(
        self, left: Structure, right: Structure, rounds: int,
        levels: tuple[frozenset[tuple[tuple[int, int], ...]], ...],
    ):
        if rounds < 0:
            raise InputError("rounds must be non-negative")
        if len(levels) != rounds + 1:
            raise InputError("need exactly rounds+1 levels")
        vars(self).update(left=left, right=right, rounds=rounds, levels=levels)


def extract_certificate(
    A: Structure,
    B: Structure,
    m: int,
    max_universe: int = DEFAULT_EF_UNIVERSE_BOUND,
    category: CategoryD | None = None,
) -> BackAndForthCertificate | None:
    """I_j = D^j ∩ Part(A,B); absent when nothing survives m rounds.  The
    levels come from the chain stepped on Hom(A,B) alone, which the other
    homsets never feed back into (see ``homset_levels``).  Each distinct
    level becomes one set of pair tuples, and the tail past the fixpoint
    repeats the last by reference."""
    if m < 0:
        raise InputError("rounds must be non-negative")
    if category is None:
        category = build_category_D(A, B, max_universe)
    levels = tuple(
        frozenset(category.morphisms[i] for i in level)
        for level in _homset_chain(category, A, B).upto(m)
    )
    if not levels[-1]:
        return None
    return BackAndForthCertificate(A, B, m, padded(levels, m))


def verify_certificate(cert: BackAndForthCertificate) -> v.Verdict:
    """Check the literal back-and-forth conditions between levels.

    Every level must be a non-empty set of actual partial isomorphisms
    from A to B, each a strictly sorted tuple of pairs inside the two
    universes, and for each f in I_{j+1} every a in A needs some b with
    f ∪ {(a, b)} in I_j (forth), and every b in B some such a (back).  On levels closed
    under restriction, as extracted ones are, any larger map would do.
    A repeated level, found by identity first, and a map seen before are
    not scanned again.
    """
    A, B = cert.left, cert.right
    ordered, checked = [], set()  # levels sorted, a repeat sharing the list before
    for j, level in enumerate(cert.levels):
        if j and (level is cert.levels[j - 1] or level == cert.levels[j - 1]):
            ordered.append(ordered[-1])  # scanned where it first appeared
            continue
        if not level:
            return v.violated("non-empty", j)
        ordered.append(sorted(level))
        for f in ordered[-1]:
            if f not in checked and not (
                all(p < q for p, q in zip(f, f[1:])) and pairs_are_partial_iso(A, B, f)
            ):
                return v.violated("membership", (j, f))
        checked |= level
    for j in range(cert.rounds):
        if j and ordered[j + 1] is ordered[j] is ordered[j - 1]:
            continue  # the same pair as the one before, which passed
        for f in ordered[j + 1]:
            a, b = _least_unextended(f, cert.levels[j], A.universe_size, B.universe_size)
            if a is not None:
                return v.violated("forth", (j, a, f))
            if b is not None:
                return v.violated("back", (j, b, f))
    return v.passed()


def format_certificate(cert: BackAndForthCertificate) -> str:
    """Deterministic text rendering: rounds, then each level's maps as
    sorted pair lists.  Identical certificates print identically.  A level
    equal to the one before it repeats that level's lines."""
    return "".join(certificate_lines(cert))


def certificate_lines(cert: BackAndForthCertificate) -> Iterator[str]:
    """The text of ``format_certificate`` in pieces of whole lines, one
    level at a time, so that a writer need not hold all of it.  Each
    distinct level is rendered once, and a repeat yields the same piece."""
    yield f"certificate\nleft {cert.left.name}\nright {cert.right.name}\nrounds {cert.rounds}\n"
    rendered = ""
    for j, level in enumerate(cert.levels):
        yield f"level {j}\n"
        if not j or (level is not cert.levels[j - 1] and level != cert.levels[j - 1]):
            rendered = "".join(
                " ".join(("  map", *(f"({a},{b})" for a, b in p))) + "\n" for p in sorted(level)
            )
        yield rendered
