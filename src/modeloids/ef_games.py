"""Ehrenfeucht-Fraissé equivalence by two independent routes.

The category: ``build_category_D`` makes ``CategoryD``, the category D
of partial isomorphisms of a structure pair.  Only Hom(A,B) is
enumerated, as integer codes (``codes._code``); each other homset is
built on its first read (``CategoryD.hom``), and the table of all of D
(``ef_ambient``, loaded then) on the first read of ``CategoryD.ambient``.
The D of the latest call is kept for the next call on the same two
structure objects.

The answers:

- ``ef_equiv_derivative`` decides m-round equivalence by the categorical
  derivative, stepped on Hom(A,B) alone (``homset_levels``, whose
  docstring proves this exact), and hands out a largest surviving map as
  its witness; ``surviving_maps`` answers the same for any side pair.
- ``ef_equiv_oracle`` decides it by the game itself, a memoized recursion
  over integer codes that shares only the one-pair test of ``structures``
  with the derivative.  The two must always agree; the command line runs
  both.

The reference route: ``derivative_levels`` (in ``ef_ambient``) runs the
paper's chain on all of D through ``categorical``; the derivative's
chain on Hom(A,B) must agree with it.

The evidence: ``extract_certificate`` reads a back-and-forth certificate
(``BackAndForthCertificate``) from the derivative's chain,
``verify_certificate`` checks one against the literal conditions, and
``format_certificate`` and ``certificate_lines`` print it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product, takewhile

from . import structures, verdict as v
from .codes import _code, _decoded, _unextended
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
def _block(category: CategoryD, X: Structure, Y: Structure) -> tuple[int, tuple[int, ...]]:
    """Hom(X,Y) as (the index in D of its first map, the codes of its maps
    in index order): for Hom(left, right) ``forth`` as built, for another
    homset the codes of its tuples (``category.hom(X, Y)``)."""
    if (category._side(X), category._side(Y)) == (0, 1) or category.left == category.right:
        return 0, category.forth
    start, maps = category.hom(X, Y)
    return start, tuple(_code(p, Y.universe_size) for p in maps)


@fact
def _homset_chain(category: CategoryD, X: Structure, Y: Structure) -> Chain:
    """D^j ∩ Hom(X,Y) as index sets; a step keeps a map when every point
    of X and of Y outside it extends it by one pair to a map of the level
    (``codes._unextended`` of the level against itself).  It reads one
    block (``_block``) and no table."""
    sources, targets = X.universe_size, Y.universe_size
    start, codes = _block(category, X, Y)

    def step(level: frozenset[int]) -> frozenset[int]:
        maps = [codes[i - start] for i in level]
        answers = _unextended(maps, maps, sources, targets)
        return frozenset(i for i, answer in zip(level, answers) if answer is None)

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
      integer with one bit per pair (``_code``), and each step asks
      ``codes._unextended`` of the level against itself: one index of
      the level's one-point extensions, one lookup per map.

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
    ``PartialIso`` built: the largest pair tuple is picked first, by its
    code in the block the chain steps on (``_block``), which is not
    ``forth`` in a D built for (B, A)."""
    if m < 0:
        raise InputError("rounds must be non-negative")
    if category is None:
        category = build_category_D(A, B, max_universe)
    survivors, (start, codes) = _homset_chain(category, A, B).upto(m)[-1], _block(category, A, B)
    if not survivors:
        return False, None
    # the most pairs, then the last in the sorted order, which is index order
    largest = max(survivors, key=lambda i: (codes[i - start].bit_count(), i))
    return True, PartialIso(A, B, _decoded((codes[largest - start],), B.universe_size)[0])


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
    (``structures._one_pair_test``), which reads the child's code alone.
    A position is its code (``codes._code``), a child's its parent's
    code with one bit more: its size is the code's bit count, and its
    fresh points are those whose row (source) or column (target) of bits
    the code misses.  The oracle reads no D, no chain, no enumeration and
    no level index, so the derivative's answer never enters its own.
    """
    structures._check_pair(A, B, max_universe)
    if m < 0:
        raise InputError("rounds must be non-negative")
    base = constant_pairs(A, B)
    extends = _one_pair_test(A, B)
    sources, targets = range(A.universe_size), range(B.universe_size)
    bit = [[_code(((a, b),), len(targets)) for b in targets] for a in sources]
    row, column = [sum(bits) for bits in bit], [sum(bits) for bits in zip(*bit)]  # a's pairs, b's pairs
    final_size = len(base) + m  # a position this large has no rounds left
    memo: dict[int, bool] = {}

    def answers(child: int, a: int, b: int) -> bool:
        if child not in memo:
            memo[child] = extends(a, b, child) and wins(child)
        return memo[child]

    def wins(code: int) -> bool:
        """Whether Duplicator wins at the partial isomorphism ``code``."""
        if code.bit_count() == final_size:
            return True
        fresh_a = [a for a in sources if not code & row[a]]
        fresh_b = [b for b in targets if not code & column[b]]
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
    members' codes by ``codes._unextended`` of I_{j+1} against I_j, once
    per scanned level pair; the least failing f is reported.  That is the
    reader the derivative's chain steps with, so a fault in it would pass
    both; the game oracle is the route independent of it.  On levels
    closed under restriction, as extracted ones are, any larger map would
    do.

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
    for j in range(max(kept - 1, 0), cert.rounds):
        (upper, upper_codes), (lower, lower_codes) = coded[j], coded[j + 1]
        if j and upper is lower is coded[j - 1][0]:
            continue  # the very pair before it, which passed
        answers = _unextended(lower_codes, upper_codes, sources, targets)
        missed = [(f, answer) for f, answer in zip(lower, answers) if answer is not None]
        if missed:
            f, (a, b) = min(missed)
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
