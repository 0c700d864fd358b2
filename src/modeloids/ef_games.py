"""Ehrenfeucht-Fraissé equivalence by two independent routes.

Given structures A and B over one vocabulary, the category D of the
pair is the free-logic inverse category whose existing morphisms are
the partial isomorphisms between the four side pairs (A,A), (A,B),
(B,A), (B,B).  Its objects are the full identities id_A and id_B, the
zero of each endoset is the constants-only map, and the full morphism
set is a categorical modeloid.  The build holds each map of Hom(A,B)
as its integer code, one bit per pair (``codes._code``), as the growth
loop of ``structures`` finds it; the other homsets and the certificates
hold sorted pair tuples, and a ``PartialIso`` is built only where a map
is handed out, as the witness of ``ef_equiv_derivative`` or by
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
classical back-and-forth step.  The chain reads the codes of Hom(A,B)
as the build made them (a map of another homset is coded once per
chain); each step indexes the one-point extensions of its level once
from those codes (``_extended_at``) and reads every map's answer from
that index.  The chain on all of D (``derivative_levels``, the paper's
route through ``categorical_derivative``) stays as the reference it
must agree with.

So ``build_category_D`` makes only Hom(A,B), from one enumeration, as
the codes ``CategoryD.forth``, in the sorted order of their pair
tuples; the ``ef`` answer, its witness and its certificates read
nothing else.  The answer picks its witness by code and decodes that
one map (``codes._decoded``).  D is its four homsets laid end to end,
and each is built on its own, on its first read (``CategoryD.hom``):
Hom(A,B) as ``forth`` decoded, which the certificate levels read,
Hom(B,A) as the inverses of those maps, End(A) and End(B) each as the
codes of the package's one growth loop
(``structures._partial_iso_codes``), decoded, with no ``PartialIso``
built.
Every homset chain, ``part``, ``object_a`` and ``object_b`` read those
blocks and no table.  The table of all of D, the blocks' concatenation
with its dom, cod, inv and index tables, is built on first read of
``CategoryD.ambient`` (or ``morphisms``, ``star``).  That table, the
``PartialIsoAmbient`` and ``derivative_levels`` live in ``ef_ambient``,
which this module loads on the first such read or call; each of their
names resolves from here too.  Only ``derivative_levels`` calls the
table layer ``categorical``, loaded on its first call.  So the ``ef``
answer and its certificates load neither ``ef_ambient`` nor a table
layer.

Asking one pair for m = 0, 1, 2, ... builds D once.  ``build_category_D``
keeps the D of its latest call and returns it again when called with the
same two structure objects, so its compositions, down-sets and homset
chains carry over from one call to the next.  Each chain holds each
distinct level once, stepped only as far as the largest m asked for and
not past its fixpoint.  At most one D is kept: a call on another pair
drops it first.  A caller that holds a D can still pass it as
``category=``.

``ef_equiv_oracle`` decides the same question by a memoized game-tree
recursion.  Spoiler plays only fresh elements, so each position fixes
the rounds left, holds one memo entry and is pruned as soon as it is not
a partial isomorphism, and the recursion is never deeper than the
smaller universe, whatever the number of rounds.  It checks the constant
base once with ``pairs_are_partial_iso`` and each further pair with the
one-pair test the growth loop grows maps by
(``structures._one_pair_test``): one AND of the new pair's entry of the
pair-clash table of A and B (``structures._clashes``) against the
position's code, when a relation has arity ≤ 2, plus a scan of the tuples
that mention the pair for relations of arity ≥ 3.  A position is keyed by its integer code (bits
from ``codes._code``), a child's by its parent's code with one bit more,
so no position is built as a set.  Beyond those two checks of a partial
isomorphism, the pair-clash table and the bit layout it shares nothing
with the derivative: it reads no D, no chain, no enumeration and no
level index, and decides by the game, not by one-point extensions
within a level.  The two must always agree; the command-line front-end
runs both.

A positive derivative answer can be externalized: ``extract_certificate``
returns the chain I_j = D^j ∩ Part(A,B) as sets of pair tuples, read
from the same homset chain and the decoded ``forth``, which
``verify_certificate``, sharing no code with the chain, checks against
the literal back-and-forth conditions.  It reads each member once, in
one walk over its pairs that both tests its shape and codes it, reads
every relation only for members whose code no valid member proves (a
restriction of a partial isomorphism that keeps the constant pairs is
one again), and answers forth and back from the same kind of index of
one-point extensions.

The certificates of one pair for m = 0, 1, 2, ... are prefixes of one
chain.  ``extract_certificate`` makes each level's set of pair tuples
once per D and keeps it there, so the certificates for m and m + 1 share
their level objects; that costs one frozenset per distinct level, held
as long as the D is.  ``verify_certificate`` keeps, for its latest pair
of structure objects, the codes proven valid and the last certificate
that passed, and reads again only what that certificate does not share
by identity: a new certificate's leading levels that are the very
objects held at the same positions are not read again, and their level
pairs are not scanned again.  No member is hashed.  Every verdict is a
fresh check's.  A call on another pair drops all of it, so the module
holds at most one code per map of Part(A,B) and one certificate's
levels.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product, takewhile

from . import structures, verdict as v
from .codes import _code, _decoded, _extended_at, _least_unextended
from .derived import Chain, Frozen, fact, lazy, padded
from .errors import DEFAULT_EF_UNIVERSE_BOUND, InputError
from .structures import PartialIso, Structure, _one_pair_test, constant_pairs, pairs_are_partial_iso

# D's table and the paper's chain on all of D (``ef_ambient``), and the
# table layer that only the chain calls, are loaded on the first such
# read; the ``ef`` answer and its certificates read none.
__getattr__ = _load = lazy(
    globals(),
    {
        "categorical": ("CategoricalModeloid", "categorical_derivative"),
        "ef_ambient": ("PartialIsoAmbient", "_tables", "derivative_levels"),
    },
)


class CategoryD(Frozen):
    """The partial-isomorphism category of a structure pair.

    D is its four homsets laid end to end (``hom``), each a block of maps
    in the sorted order of their pair tuples: Hom(left, right), which is
    ``forth`` and holds the indices 0 .. len(forth) - 1, then
    Hom(right, left), End(left) and End(right).  ``forth`` holds the
    codes of its maps (``codes._code``), as the growth loop found them,
    and ``hom`` gives every block as sorted pair tuples.  Each block is
    built on its own, on its first read, so a read of one homset builds no
    other endoset and no table; the ``ef`` chain and its answer read
    ``forth`` alone, and a certificate its tuples.  The tables of
    all of D (``ambient``: dom, cod, inv, index) are the blocks'
    concatenation, built on first read of ``ambient``, ``morphisms`` or
    ``star``.  When ``left`` and ``right`` are the same structure the
    category has a single object and ``forth`` is End(left), all of D.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, left: Structure, right: Structure, forth: tuple[int, ...]):
        vars(self).update(left=left, right=right, forth=forth)

    @property
    def ambient(self) -> PartialIsoAmbient:
        return _load("_tables")(self)

    @property
    def object_a(self) -> int:
        return self.object_of(self.left)

    @property
    def object_b(self) -> int:
        return self.object_of(self.right)

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

    @fact
    def hom(self, X: Structure, Y: Structure) -> tuple[int, tuple]:
        """Hom(X,Y) as (the index in D of its first map, its maps as sorted
        pair tuples, in sorted order).  Hom(left, right) is ``forth``
        decoded, Hom(right, left) its inverses, and an endoset the codes
        of the package's one growth loop (``structures._partial_iso_codes``)
        decoded, with no ``PartialIso`` built."""
        x, y = self._side(X), self._side(Y)
        if self.left == self.right or (x, y) == (0, 1):
            return 0, _decoded(self.forth, Y.universe_size)
        if x != y:
            return len(self.forth), tuple(sorted(map(_inverse, self.hom(Y, X)[1])))
        start = 2 * len(self.forth)
        if x == 1:  # End(right) comes right after End(left)
            start, before = self.hom(self.left, self.left)
            start += len(before)
        return start, _decoded(structures._partial_iso_codes(X, X), X.universe_size)

    def object_of(self, S: Structure) -> int:
        """The index of id_S, the full identity in End(S)'s block."""
        start, maps = self.hom(S, S)
        return start + maps.index(tuple((x, x) for x in range(S.universe_size)))

    def part(self, X: Structure, Y: Structure) -> tuple[int, ...]:
        """Indices of Part(X,Y), i.e. Hom(id_X, id_Y), which holds no star."""
        start, maps = self.hom(X, Y)
        return tuple(range(start, start + len(maps)))


def _inverse(pairs: tuple) -> tuple:
    return tuple(sorted((b, a) for a, b in pairs))


# The D of the latest ``build_category_D`` call, or None.
_latest: CategoryD | None = None


def build_category_D(
    A: Structure, B: Structure, max_universe: int = DEFAULT_EF_UNIVERSE_BOUND
) -> CategoryD:
    """Category D of the pair.  The build makes only ``forth``: the codes
    of Hom(A,B) from one ``enumerate_partial_isos`` call, in the sorted
    order of their pair tuples, with no ``PartialIso`` built.  Each other
    homset is built on its first read (``CategoryD.hom``), and the tables
    of D on first read of ``ambient``, ``morphisms`` or ``star``; the
    ``ef`` answer and its certificates make neither read.

    Called again with the same two structure objects (``is``, not ``==``),
    it returns the D it built last, with the compositions, down-sets and
    homset chains already derived on it, after the same pair check that
    the enumeration makes on a fresh build (``structures._check_pair``).
    Only that one D is kept: a call on another pair drops it before
    building, so the module never holds more than one.  Callers that keep
    a D themselves pass it on as ``category=``.
    """
    global _latest
    if _latest is not None and _latest.left is A and _latest.right is B:
        structures._check_pair(A, B, max_universe)
        return _latest
    _latest = None
    _latest = CategoryD(A, B, tuple(enumerate_partial_isos(A, B, max_universe)))
    return _latest


def enumerate_partial_isos(A: Structure, B: Structure, max_universe: int) -> list[int]:
    """The build's enumeration of Hom(A,B): the pair check
    (``structures._check_pair``), then the codes of the one growth loop
    (``structures._partial_iso_codes``), in the sorted order of their pair
    tuples.  ``perfbench/spans.py`` wraps this name to time the
    enumeration inside the build and count its maps; the name stays until
    ROADMAP item 1(d) moves that tracer to the CLI's own records."""
    structures._check_pair(A, B, max_universe)
    return structures._partial_iso_codes(A, B)


@fact
def _homset_chain(category: CategoryD, X: Structure, Y: Structure) -> Chain:
    """D^j ∩ Hom(X,Y) as index sets; a step keeps a map when every point
    of X and of Y outside it extends it by one pair to a map of the level,
    read from one index of the level's one-point extensions.  It reads one
    block and no table: for Hom(A,B) the codes of ``forth`` as built, for
    another homset the codes of its tuples (``category.hom(X, Y)``)."""
    sources, targets = X.universe_size, Y.universe_size
    if (category._side(X), category._side(Y)) == (0, 1) or category.left == category.right:
        start, codes = 0, category.forth
    else:
        start, maps = category.hom(X, Y)
        codes = tuple(_code(p, targets) for p in maps)

    def step(level: frozenset[int]) -> frozenset[int]:
        at = _extended_at((codes[i - start] for i in level), sources, targets)
        return frozenset(
            i for i in level
            if _least_unextended(codes[i - start], at, sources, targets) == (None, None)
        )

    return Chain(frozenset(range(start, start + len(codes))), step)


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

    Each homset is read from its own block (``CategoryD.hom``), with no
    table: Hom(A,B) is ``category.forth``, Hom(B,A) its inverses, and an
    endoset the pair tuples of one growth.  The indices are those of the
    table of D, which lays out the same blocks end to end.
    """
    if m < 0:
        raise InputError("rounds must be non-negative")
    return padded(tuple(_homset_chain(category, X, Y).upto(m)), m)


def surviving_maps(
    category: CategoryD, m: int, X: Structure, Y: Structure
) -> tuple[PartialIso, ...]:
    """Part(X,Y) ∩ D^m for any side pair, star excluded; the general
    form of the equivalence query, sorted for determinism."""
    if m < 0:
        raise InputError("rounds must be non-negative")
    final = _level_maps(category, X, Y, len(_homset_chain(category, X, Y).upto(m)) - 1)
    return tuple(PartialIso(X, Y, p) for p in sorted(final))


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
    survivors, forth = _homset_chain(category, A, B).upto(m)[-1], category.forth
    if not survivors:
        return False, None
    # the most pairs, then the last in the sorted order, which is index order
    largest = max(survivors, key=lambda i: (forth[i].bit_count(), i))
    return True, PartialIso(A, B, _decoded((forth[largest],), B.universe_size)[0])


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

    The constant base is checked once by ``pairs_are_partial_iso``, and
    each further pair by the one-pair test the growth loop grows maps by
    (``structures._one_pair_test``), which ANDs the pair's entry of the
    pair-clash table against the child's code.  A position is keyed by
    its code (``codes._code``), a child's by its parent's code with one
    bit more.
    The oracle reads no D, no chain, no enumeration and no level index,
    so the derivative's answer never enters its own.
    """
    structures._check_pair(A, B, max_universe)
    if m < 0:
        raise InputError("rounds must be non-negative")
    base = constant_pairs(A, B)
    forward, backward = dict(base), {b: a for a, b in base}
    extends = _one_pair_test(A, B, forward, backward)
    sources, targets = range(A.universe_size), range(B.universe_size)
    bit = [[_code(((a, b),), len(targets)) for b in targets] for a in sources]
    final_size = len(base) + m  # a position this large has no rounds left
    memo: dict[int, bool] = {}

    def answers(child: int, a: int, b: int) -> bool:
        if child not in memo:
            forward[a], backward[b] = b, a
            memo[child] = extends(a, b, child) and wins(child)
            del forward[a], backward[b]
        return memo[child]

    def wins(code: int) -> bool:
        """Whether Duplicator wins at the partial isomorphism ``forward``."""
        if len(forward) == final_size:
            return True
        fresh_a = [a for a in sources if a not in forward]
        fresh_b = [b for b in targets if b not in backward]
        for a in fresh_a:
            for b in fresh_b:
                if answers(code | bit[a][b], a, b):
                    break
            else:
                return False
        for b in fresh_b:
            for a in fresh_a:
                if answers(code | bit[a][b], a, b):
                    break
            else:
                return False
        return True

    return pairs_are_partial_iso(A, B, base) and wins(_code(base, len(targets)))


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
    tuples, made once per category from the block's tuples
    (``CategoryD.hom``, which decodes each code of ``forth`` once), so
    that the certificates of every m share their level objects and their
    maps; ``surviving_maps`` reads the last distinct level from here too."""
    start, maps = category.hom(X, Y)
    return frozenset(maps[i - start] for i in _homset_chain(category, X, Y).levels[j])


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


class _Proved:
    """What ``verify_certificate`` proved about one pair of structure
    objects: ``valid``, the codes proven valid (the code of each member
    found valid, and of each one-pair restriction of such a member that
    keeps the constant pairs; a code is made only for a member of the
    right shape, and no member is hashed), and ``held``, the leading
    frozenset levels of the last certificate that passed, each as the
    pair (level, its members' codes in the level's own order).  ``bit``
    maps each pair inside the two universes to its bit, and ``fixed``
    holds the bits of the constant pairs, both as ``_code`` sets them.
    So the state is at most one code per map of Part(A,B) plus the
    levels of one certificate."""

    def __init__(self, left: Structure, right: Structure):
        self.left, self.right = left, right
        targets = right.universe_size
        self.bit = {p: _code((p,), targets) for p in product(range(left.universe_size), range(targets))}
        self.fixed = _code(zip(left.constants, right.constants), targets)  # a proof never drops them
        self.valid: set[int] = set()
        self.held: list[tuple[frozenset, list[int]]] = []


# What ``verify_certificate`` proved about its latest pair, or None.
_proved: _Proved | None = None


def verify_certificate(cert: BackAndForthCertificate) -> v.Verdict:
    """Check the literal back-and-forth conditions between levels.

    Every level must be a non-empty set of actual partial isomorphisms
    from A to B, each a strictly sorted tuple of pairs of ints inside the
    two universes.  Every member of a level not held (see below) is read
    once, by one walk over its pairs (``_coded``) that both tests its
    shape and codes it through a table from each pair to its bit, as
    ``_code`` sets it: a pair missing from the table lies outside the
    universes, and bits that do not strictly increase mean an unsorted
    tuple.  A member of another shape, hashable or not, is reported
    first, the least by ``repr``.  The members whose code is not known
    valid are then proven longest first: a restriction of a partial
    isomorphism that keeps every constant pair is one again, so a member
    whose code is a one-pair restriction of a valid member, keeping the
    constant pairs, is proven without reading a relation, and every
    other member gets one ``pairs_are_partial_iso``.  The least failing
    member, in sorted order, is reported.

    For each f in I_{j+1} every a in A needs some b with f ∪ {(a, b)} in
    I_j (forth), and every b in B some such a (back), read from the
    members' codes and one index of I_j's one-point extensions
    (``_extended_at``); the least failing f is reported.  On levels closed
    under restriction, as extracted ones are, any larger map would do.

    Asking one pair for m = 0, 1, 2, ... checks prefixes of one chain, so
    the check keeps, for its latest pair of structure objects (``is``,
    not ``==``), the codes proven valid and the last certificate that
    passed (``_Proved``).  A leading level that is the very object held at
    its position, or a level that is the very object before it, is not
    read again; a level pair of two such leading levels, or the very pair
    before it, is not scanned again.  Only a certificate that passes is
    held, and only its leading frozenset levels, so a failed check keeps
    what the last one proved.  Every verdict, axiom and
    witness is a fresh check's, since members and frozensets cannot
    change, and no level or member is hashed.  A call on another pair
    drops all of it first.
    """
    global _proved
    A, B = cert.left, cert.right
    if _proved is None or _proved.left is not A or _proved.right is not B:
        _proved = _Proved(A, B)  # what was kept about another pair is dropped
    proved = _proved
    held, kept = proved.held, 0  # the leading levels of ``cert`` that are held
    coded = []
    for j, level in enumerate(cert.levels):
        if kept == j < len(held) and level is held[j][0]:
            entry, kept = held[j], j + 1
        elif j and level is coded[-1][0]:
            entry = coded[-1]
        else:
            codes, failure = _coded_level(j, level, proved)
            if failure is not None:
                return failure
            entry = level, codes
        coded.append(entry)
    sources, targets = A.universe_size, B.universe_size
    indexed = None  # the level that ``at`` indexes
    for j in range(max(kept - 1, 0), cert.rounds):
        (upper, upper_codes), (lower, lower_codes) = coded[j], coded[j + 1]
        if j and upper is lower is coded[j - 1][0]:
            continue  # the very pair before it, which passed
        if upper is not indexed:
            at, indexed = _extended_at(upper_codes, sources, targets), upper
        missed = []
        for f, code in zip(lower, lower_codes):
            a, b = _least_unextended(code, at, sources, targets)
            if a is not None or b is not None:
                missed.append((f, a, b))
        if missed:
            f, a, b = min(missed)
            return v.violated("forth", (j, a, f)) if a is not None else v.violated("back", (j, b, f))
    proved.held = list(takewhile(lambda entry: isinstance(entry[0], frozenset), coded))
    return v.passed()


def _coded_level(j: int, level, proved: _Proved) -> tuple[list[int], v.Verdict | None]:
    """The codes of level j's members in the level's order, each member
    read once (``_coded``), its valid members' codes recorded in
    ``proved.valid``; or its non-empty or membership violation.  A member
    whose code is not yet valid is proven longest first: its code is
    valid when a valid member one pair longer restricts to it, and
    otherwise when ``pairs_are_partial_iso`` holds for it."""
    if not level:
        return [], v.violated("non-empty", j)
    codes = [_coded(f, proved.bit) for f in level]
    if _MALFORMED in codes:
        malformed = (f for f, code in zip(level, codes) if code == _MALFORMED)
        return [], v.violated("membership", (j, min(malformed, key=repr)))
    valid, fixed = proved.valid, proved.fixed
    failed = [f for f, code in zip(level, codes) if code == _OUTSIDE]
    unproven = [(f, code) for f, code in zip(level, codes) if code >= 0 and code not in valid]
    unproven.sort(key=lambda member: len(member[0]), reverse=True)
    for f, code in unproven:
        if code in valid or pairs_are_partial_iso(proved.left, proved.right, f):
            valid.add(code)
            rest = code & ~fixed
            while rest:
                low = rest & -rest
                rest ^= low
                valid.add(code ^ low)
        else:
            failed.append(f)
    if failed:
        return [], v.violated("membership", (j, min(failed)))
    return codes, None


_MALFORMED, _OUTSIDE = -1, -2  # what ``_coded`` returns for a member with no code


def _coded(f: object, bit: dict[tuple[int, int], int]) -> int:
    """The code of member f read through ``bit``, in one walk over its
    pairs; ``_MALFORMED`` when f is not a tuple of 2-tuples of ints, the
    only shape the check reads, and ``_OUTSIDE`` when it is but a pair
    lies outside the universes or the bits do not strictly increase."""
    if not isinstance(f, tuple):
        return _MALFORMED
    code, fits = 0, True
    for p in f:
        if not (isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], int) and isinstance(p[1], int)):
            return _MALFORMED
        b = bit.get(p, 0)
        if b > code:  # above every bit before it
            code |= b
        else:
            fits = False  # no code; the rest of f is read for its shape only
    return code if fits else _OUTSIDE


def format_certificate(cert: BackAndForthCertificate) -> str:
    """Deterministic text rendering: rounds, then each level's maps as
    sorted pair lists.  Identical certificates print identically."""
    return "".join(certificate_lines(cert))


def certificate_lines(cert: BackAndForthCertificate) -> Iterator[str]:
    """The text of ``format_certificate`` in pieces of whole lines, one
    level at a time, so that a writer need not hold all of it.  A level
    that is the very object before it, as the tail of an extracted
    certificate is, yields the same piece without rendering it again."""
    yield f"certificate\nleft {cert.left.name}\nright {cert.right.name}\nrounds {cert.rounds}\n"
    rendered = ""
    for j, level in enumerate(cert.levels):
        yield f"level {j}\n"
        if not j or level is not cert.levels[j - 1]:
            rendered = "".join(
                " ".join(("  map", *(f"({a},{b})" for a, b in p))) + "\n" for p in sorted(level)
            )
        yield rendered
