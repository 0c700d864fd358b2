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
classical back-and-forth step.  Each map of the homset is coded once
per chain as an integer with one bit per pair (``_code``); each step
indexes the one-point extensions of its level once from those codes
(``_extended_at``) and reads every map's answer from that index.  The
chain on all of D (``derivative_levels``, the paper's route through
``categorical_derivative``) stays as the reference it must agree with.

So ``build_category_D`` makes only Hom(A,B), from one enumeration, as
the sorted pair tuples ``CategoryD.forth``; the ``ef`` answer, its
witness and its certificates read nothing else.  The rest of the part of
D around Hom(A,B), Hom(B,A) as the inverses of its maps and the partial
identities of A and B, generated as restrictions of id_A and id_B
without a search, and the ambient's dom, cod, inv and index tables are
built on first read of ``CategoryD.ambient`` (or ``morphisms``,
``object_a``, ``object_b``, ``part``), with no enumeration; no second
test checks those pair tuples.  All of D, with the part as its index
prefix, is built on first read of ``CategoryD.whole``; only
``derivative_levels`` and the endoset queries read it.  For A == B the
part is all of D.

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
the literal back-and-forth conditions.  It codes each member once, reads
every relation only for members that no checked member proves (a
restriction of a partial isomorphism that keeps the constant pairs is
one again), and answers forth and back from the same kind of index of
one-point extensions, built once per distinct level.

The certificates of one pair for m = 0, 1, 2, ... are prefixes of one
chain, and the certificate path reads each distinct level once across
them.  ``extract_certificate`` makes each level's set of pair tuples
once per D and keeps it there, so the certificates for m and m + 1 share
their level objects; that costs one frozenset per distinct level, held
as long as the D is.  ``verify_certificate`` keeps what it proved about
its latest pair of structure objects: the codes of the valid members,
the levels of the latest certificate that passed, by identity, with
their members' codes, and its level pairs whose scan passed.  A level
or a level pair met again is not checked again, and every verdict is a
fresh check's.  No index of one-point extensions is kept: a passed pair
is never scanned again, so the loop never reads one index twice.  A call
on another pair drops all of it, so the module holds at most one code
per map of Part(A,B) and one certificate's levels.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from . import verdict as v
from .categorical import CategoricalModeloid, categorical_derivative
from .derived import Chain, Frozen, fact, padded
from .errors import BoundExceededError, InputError, OutsideAmbientError
from .free_categories import homset
from .partial_bijections import _code, _extended_at, _least_unextended
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

    ``forth`` holds Hom(left, right), the maps from ``left`` to
    ``right`` as sorted pair tuples, in sorted order; they are the indices
    0 .. len(forth) - 1 of the category, and the ``ef`` chain, its answer
    and its certificates read nothing else.  The part (``complete``
    false) also holds Hom(right, left), the inverses of ``forth``, and
    the partial identities of both sides.  Those, and the tables of
    ``ambient`` (dom, cod, inv, index), are built on first read of
    ``ambient``, ``morphisms``, ``object_a``, ``object_b`` or ``part``,
    with no enumeration.  ``whole`` is all of D, built on first read,
    with the part's morphisms as its first indices.  So an index into the
    part is the same morphism in D, and ``object_a`` and ``object_b`` are
    the same in both.  When ``left`` and ``right`` are the same structure
    the category has a single object, ``forth`` is End(left), and the
    part is all of D.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(
        self, left: Structure, right: Structure,
        forth: tuple[tuple[tuple[int, int], ...], ...], complete: bool,
    ):
        vars(self).update(left=left, right=right, forth=forth, complete=complete)

    @property
    def whole(self) -> "CategoryD":
        return self if self.complete else _whole(self)

    @property
    def ambient(self) -> PartialIsoAmbient:
        return _tables(self)[0]

    @property
    def object_a(self) -> int:
        return _tables(self)[1]

    @property
    def object_b(self) -> int:
        return _tables(self)[2]

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

    def _indexed(self, X: Structure, Y: Structure) -> tuple[range | tuple[int, ...], tuple]:
        """The indices of Hom(X,Y) and the pair tuples they index: for
        (left, right) that is ``forth``, and no table is built."""
        if self._side(X) == 0 and self._side(Y) == self._side(self.right):
            return range(len(self.forth)), self.forth
        D = self._holding(X, Y)
        return D.part(X, Y), D.morphisms


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


@fact
def _tables(category: CategoryD) -> tuple[PartialIsoAmbient, int, int]:
    """The ambient of ``category`` and its two objects.  The layout is
    ``forth``, then for two sides its inverses, the partial identities of
    left and of right, and for all of D the other endomorphisms of each
    side, each block sorted; star comes after the last map.  dom, cod
    and inv are tabulated over it; composition is left to the ambient.
    Only the endomorphisms of all of D are enumerated."""
    left, right, forth = category.left, category.right, category.forth
    if left == right:
        return _tabulated((left,), [(0, 0, p) for p in forth])
    layout = [(0, 1, p) for p in forth] + _block(1, 0, map(_inverse, forth))
    for s, S in enumerate((left, right)):
        # the partial identities: id_S's restrictions that fix the constants
        fixed = {(c, c) for c in S.constants}
        layout += _block(s, s, _restrictions(_identity(S), fixed))
    if category.complete:
        for s, S in enumerate((left, right)):
            endos = _enumerated(S, S, S.universe_size)
            layout += _block(s, s, (p for p in endos if any(a != b for a, b in p)))
    return _tabulated((left, right), layout)


def _tabulated(
    sides: tuple[Structure, ...], layout: list[tuple[int, int, tuple]]
) -> tuple[PartialIsoAmbient, int, int]:
    """Tabulate dom, cod and inv over ``layout``, a list of (source side,
    target side, map) in index order; star comes after the last map."""
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
    return ambient, obj[0], obj[-1]


# The D of the latest ``build_category_D`` call, or None.
_latest: CategoryD | None = None


def build_category_D(
    A: Structure, B: Structure, max_universe: int = DEFAULT_EF_UNIVERSE_BOUND
) -> CategoryD:
    """The part of D around the ``ef`` chain.  The build makes only
    ``forth``: Hom(A,B) from one ``enumerate_partial_isos`` call, as
    sorted pair tuples, in sorted order; only the enumeration builds
    ``PartialIso`` objects.  The rest of the part (Hom(B,A), the inverses
    of those maps, then the partial identities of A and of B, then star)
    and its dom, cod, inv and index tables are built on first read of
    ``ambient``, ``morphisms``, ``object_a``/``object_b`` or ``part``,
    which the ``ef`` answer and its certificates never make.  All of D is
    ``.whole``, built when first read.  For A == B this is all of D: the
    one block End(A).

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
    forth = tuple(sorted(_enumerated(A, B, max_universe)))
    _latest = CategoryD(A, B, forth, complete=A == B)
    return _latest


@fact
def _whole(part: CategoryD) -> CategoryD:
    """All of D: the part's morphisms in their order, then the other
    endomorphisms of A and of B, then star."""
    return CategoryD(part.left, part.right, part.forth, complete=True)


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
    of X and of Y outside it extends it by one pair to a map of the level,
    read from one index of the level's one-point extensions.  Each map is
    coded once, for every step of the chain.  Hom(left, right) is read
    from ``forth`` alone."""
    indices, maps = category._indexed(X, Y)
    sources, targets = X.universe_size, Y.universe_size
    codes = {i: _code(maps[i], targets) for i in indices}

    def step(level: frozenset[int]) -> frozenset[int]:
        at = _extended_at((codes[i] for i in level), sources, targets)
        return frozenset(
            i for i in level
            if _least_unextended(codes[i], at, sources, targets) == (None, None)
        )

    return Chain(frozenset(codes), step)


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
      its range some such x.  Each map is coded once per chain as an
      integer with one bit per pair (``_code``).  Each step builds one
      index of the level's one-point extensions from those codes
      (``_extended_at``), and ``_least_unextended`` reads each map's
      answer from it with one dict lookup.

    Hom(A,B) is read from ``category.forth`` alone, with no table.
    Hom(B,A) reads the part of D, whose tables are built on first read.
    An endoset query, Hom(A,A) or Hom(B,B), reads all of D
    (``category.whole``), built for it on first use.  The indices agree
    in every case, since ``forth`` is the first block of the part and the
    part is a prefix of D.
    """
    if m < 0:
        raise InputError("rounds must be non-negative")
    return padded(tuple(_homset_chain(category, X, Y).upto(m)), m)


def _survivors(category: CategoryD, m: int, X: Structure, Y: Structure) -> list[tuple]:
    """The pair tuples of Part(X,Y) ∩ D^m, in index order."""
    if m < 0:
        raise InputError("rounds must be non-negative")
    final = _homset_chain(category, X, Y).upto(m)[-1]
    _, maps = category._indexed(X, Y)
    return [maps[i] for i in sorted(final)]


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


@fact
def _level_maps(category: CategoryD, X: Structure, Y: Structure, j: int) -> frozenset[tuple]:
    """Distinct level j of the (X, Y) homset chain as a set of pair
    tuples, made once per category, so that the certificates of every m
    share their level objects."""
    _, maps = category._indexed(X, Y)
    return frozenset(maps[i] for i in _homset_chain(category, X, Y).levels[j])


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
    level becomes one set of pair tuples, made once per D and kept on it:
    the certificates for m and m + 1 share their level objects, which
    ``verify_certificate`` then reads once.  That costs one frozenset per
    distinct level of the chain, held as long as the D is.  The tail past
    the fixpoint repeats the last level by reference."""
    if m < 0:
        raise InputError("rounds must be non-negative")
    if category is None:
        category = build_category_D(A, B, max_universe)
    distinct = len(_homset_chain(category, A, B).upto(m))
    levels = tuple(_level_maps(category, A, B, j) for j in range(distinct))
    if not levels[-1]:
        return None
    return BackAndForthCertificate(A, B, m, padded(levels, m))


class _Level:
    """A level as the check reads it: the level object, held so that its
    id stays its own, and its members' codes in the level's own order.
    Equal only to itself, so a pair of them is hashed without reading
    the level."""

    __slots__ = ("level", "codes")

    def __init__(self, level, codes: list[int]):
        self.level, self.codes = level, codes


class _Proved:
    """What ``verify_certificate`` proved about one pair of structure
    objects, all of it true whatever certificate is checked next:

    - ``codes``: each member found valid, by value, with the object
      checked and its code; ``proven``: the codes of one-pair
      restrictions of valid members that keep the constant pairs;
    - ``levels``: by id, each level of the latest certificate that passed
      membership, as its ``_Level``; only frozensets, whose members cannot
      change, are kept;
    - ``scanned``: the pairs (I_j, I_{j+1}) of those levels whose forth
      and back scan passed.

    No failure is kept, and the entries of ``levels`` and ``scanned`` are
    replaced by each certificate's own, so the state is at most one code
    per map of Part(A,B) plus the levels of one certificate."""

    def __init__(self, left: Structure, right: Structure):
        self.left, self.right = left, right
        targets = right.universe_size
        self.bit = {(a, b): 1 << a * targets + b for a in range(left.universe_size)
                    for b in range(targets)}
        self.fixed = 0  # the bits of the constant pairs, which a proof never drops
        for p in zip(left.constants, right.constants):
            self.fixed |= self.bit.get(p, 0)
        self.longest = min(left.universe_size, targets)  # no partial iso is longer
        self.codes: dict[tuple, tuple[tuple, int]] = {}
        self.proven: set[int] = set()
        self.levels: dict[int, _Level] = {}
        self.scanned: set[tuple[_Level, _Level]] = set()


# What ``verify_certificate`` proved about its latest pair, or None.
_proved: _Proved | None = None


def verify_certificate(cert: BackAndForthCertificate) -> v.Verdict:
    """Check the literal back-and-forth conditions between levels.

    Every level must be a non-empty set of actual partial isomorphisms
    from A to B, each a strictly sorted tuple of pairs of ints inside the
    two universes.  Each distinct level is read once, and every member is
    shape-tested before any of its pairs is read; a member of another
    shape, or one that cannot be hashed, is reported first, the least by
    ``repr``.  Each member is then coded once through a table from each
    pair to its bit, as ``_code`` sets it: a pair missing from the table
    lies outside the universes, and bits that do not strictly increase
    mean an unsorted tuple.  A member already checked, compared by value,
    is not checked again, and the very object already checked (by
    identity, as an extracted certificate's levels share their tuples) is
    not shape-tested again; a member equal by value to a checked one but
    another object is.  The rest are visited longest first: a restriction
    of a partial isomorphism that keeps every constant pair is one again,
    so a member whose code is a one-pair restriction of a checked member,
    keeping the constant pairs, is proven without reading a relation, and
    every other member gets one ``pairs_are_partial_iso``.  The least
    failing member, in sorted order, is reported.

    For each f in I_{j+1} every a in A needs some b with f ∪ {(a, b)} in
    I_j (forth), and every b in B some such a (back), read from the
    kept codes and one index of I_j's one-point extensions
    (``_extended_at``), built once per distinct level; the least failing
    f is reported.  On levels closed under restriction, as extracted
    ones are, any larger map would do.  A repeated level, found by
    identity first, is not read again, and a repeated level pair is not
    scanned again.

    Asking one pair for m = 0, 1, 2, ... checks prefixes of one chain, so
    the check keeps what it proved about its latest pair of structure
    objects (``is``, not ``==``): the valid members' codes, and, for the
    latest certificate only, its frozenset levels that passed membership,
    by identity, with their members' codes, and the level pairs whose scan
    passed.  A level met again by identity is not coded or tested again,
    and a passed pair is not scanned again, so no index is kept; the verdict,
    axiom and witness are those of a fresh check, since members and
    frozenset levels cannot change.  No failure is kept.  A call on
    another pair drops all of it first, so the module holds at most one
    code per map of Part(A,B) and the levels of one certificate.
    """
    global _proved
    A, B = cert.left, cert.right
    if _proved is None or _proved.left is not A or _proved.right is not B:
        _proved = _Proved(A, B)  # what was kept about another pair is dropped
    proved = _proved
    ordered, failure = _coded_levels(cert, proved)
    if failure is not None:
        return failure
    sources, targets = A.universe_size, B.universe_size
    indexed = None  # the level that ``at`` indexes
    for j in range(cert.rounds):
        upper, lower = pair = ordered[j], ordered[j + 1]
        if pair in proved.scanned:
            continue
        if upper is not indexed:
            at, indexed = _extended_at(upper.codes, sources, targets), upper
        missed = []
        for f, code in zip(lower.level, lower.codes):
            a, b = _least_unextended(code, at, sources, targets)
            if a is not None or b is not None:
                missed.append((f, a, b))
        if missed:
            f, a, b = min(missed)
            return v.violated("forth", (j, a, f)) if a is not None else v.violated("back", (j, b, f))
        proved.scanned.add(pair)
    return v.passed()


def _coded_levels(
    cert: BackAndForthCertificate, proved: _Proved
) -> tuple[list[_Level], v.Verdict | None]:
    """Each level of ``cert`` as a ``_Level``, a repeated level sharing
    the entry before it; or the first non-empty or membership violation
    (see ``verify_certificate``).  A level that ``proved`` holds, by
    identity, is taken as it is.  The levels that passed then replace
    those ``proved`` held, and its passed scans are kept only between
    them."""
    levels = cert.levels
    ordered: list[_Level] = []
    passed: dict[int, _Level] = {}  # this certificate's frozensets that passed
    failure = None
    for j, level in enumerate(levels):
        if j and level is levels[j - 1]:
            ordered.append(ordered[-1])  # read where it first appeared
            continue
        entry = passed.get(id(level)) or proved.levels.get(id(level))
        if entry is None:
            if j and level == levels[j - 1]:
                ordered.append(ordered[-1])
                continue
            entry, failure = _coded_level(j, level, proved)
            if failure is not None:
                break
        ordered.append(entry)
        if isinstance(level, frozenset):
            passed[id(level)] = entry
    live = set(passed.values())
    proved.levels = passed
    proved.scanned = {p for p in proved.scanned if p[0] in live and p[1] in live}
    return ordered, failure


def _coded_level(j: int, level, proved: _Proved) -> tuple[_Level | None, v.Verdict | None]:
    """Level j as a ``_Level``, its valid members recorded in ``proved``;
    or its non-empty or membership violation."""
    if not level:
        return None, v.violated("non-empty", j)
    codes, proven, bit, fixed = proved.codes, proved.proven, proved.bit, proved.fixed
    try:
        known = list(map(codes.get, level))
    except TypeError:  # a member that cannot be hashed cannot be coded either
        malformed = [f for f in level if not (_is_pair_tuple(f) and _hashable(f))]
        return None, v.violated("membership", (j, min(malformed, key=repr)))
    # the very object checked before needs no second shape test
    malformed = [
        f for f, k in zip(level, known)
        if (k is None or k[0] is not f) and not _is_pair_tuple(f)
    ]
    if malformed:
        return None, v.violated("membership", (j, min(malformed, key=repr)))
    kept, failed = [], []
    longest = proved.longest
    fresh = [([], []) for _ in range(longest + 1)]  # members and codes, by size
    for f, k in zip(level, known):
        if k is not None:
            kept.append(k[1])
            continue
        code = _coded(f, bit)
        if code is None or len(f) > longest:
            failed.append(f)
            continue
        members, member_codes = fresh[len(f)]
        members.append(f)
        member_codes.append(code)
        kept.append(code)
    for members, member_codes in reversed(fresh):
        for f, code in zip(members, member_codes):
            if code in proven or pairs_are_partial_iso(proved.left, proved.right, f):
                codes[f] = f, code
                rest = code & ~fixed
                while rest:
                    low = rest & -rest
                    rest ^= low
                    proven.add(code ^ low)
            else:
                failed.append(f)
    if failed:
        return None, v.violated("membership", (j, min(failed)))
    return _Level(level, kept), None


def _coded(f: tuple, bit: dict[tuple[int, int], int]) -> int | None:
    """The code of member f read through ``bit``, or None when a pair of f
    lies outside the universes or its bits do not strictly increase."""
    code = last = 0
    for p in f:
        b = bit.get(p, 0)
        if b <= last:
            return None
        code |= b
        last = b
    return code


def _is_pair_tuple(f: object) -> bool:
    """f is a tuple of 2-tuples of ints, the only shape the index reads."""
    return isinstance(f, tuple) and all(
        isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], int) and isinstance(p[1], int)
        for p in f
    )


def _hashable(f: object) -> bool:
    try:
        hash(f)
    except TypeError:
        return False
    return True


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
