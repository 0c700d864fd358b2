"""Finite relational structures, their text format, and partial isomorphisms.

The text format is line oriented; ``#`` starts a comment and blank lines
separate nothing.  A file holds one optional vocabulary block followed by
named structures::

    vocabulary
      relation E 2
      constant c
    structure A
      universe 3
      constant c 0
      relation E (0,1) (1,2)
    structure B
      universe 2
      constant c 1
      relation E (1,0)

Universes are {0, ..., size-1}.  A partial isomorphism between two
structures over one vocabulary is an injective partial map that contains
every constant pair and preserves each relation in both directions over
its domain.  ``is_partial_iso`` checks candidates; ``enumerate_partial_isos``
lists every actual partial isomorphism.  Every enumeration runs the one
growth loop ``_partial_iso_codes``, which hands the maps over in the
sorted order of their pair tuples, each as its integer code (one bit per
pair, the form the ``ef`` build of ``ef_games`` holds), decoded to pair
tuples by ``codes._decoded`` where tuples are read.  Maps grow one pair
at a time by ``_one_pair_test``: one AND of the new pair's entry of the
pair-clash table (``_clashes``, built once per pair of structures)
against the map's code for relations of arity ≤ 2, and, for higher
arities, a scan of each structure's index of the tuples that mention
each element (``_by_element``, built once per structure).
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping, Sequence

from .derived import Frozen, fact
from .errors import BoundExceededError, InputError, ParseError

DEFAULT_UNIVERSE_BOUND = 7


class Vocabulary(Frozen):
    """Relation symbols with arities, plus constant symbols."""

    def __init__(
        self, relations: tuple[tuple[str, int], ...] = (), constants: tuple[str, ...] = ()
    ):
        names = [name for name, _ in relations] + list(constants)
        if len(set(names)) != len(names):
            raise InputError("vocabulary names must be unique")
        for name, arity in relations:
            if arity < 1:
                raise InputError(f"relation {name} needs arity at least 1")
        vars(self).update(relations=relations, constants=constants)

    def relation_index(self, name: str) -> int:
        for i, (known, _) in enumerate(self.relations):
            if known == name:
                return i
        raise InputError(f"unknown relation {name}")

    def constant_index(self, name: str) -> int:
        try:
            return self.constants.index(name)
        except ValueError:
            raise InputError(f"unknown constant {name}") from None


class Structure(Frozen):
    """One named interpretation of a vocabulary.

    ``relations`` aligns with the vocabulary's relation list and
    ``constants`` with its constant list.
    """

    def __init__(
        self, name: str, universe_size: int, vocabulary: Vocabulary,
        relations: tuple[frozenset[tuple[int, ...]], ...], constants: tuple[int, ...],
    ):
        if universe_size < 1:
            raise InputError(f"structure {name} needs a non-empty universe")
        if len(relations) != len(vocabulary.relations):
            raise InputError("one tuple set per vocabulary relation required")
        for (rel_name, arity), tuples in zip(vocabulary.relations, relations):
            for t in tuples:
                if len(t) != arity:
                    raise InputError(
                        f"relation {rel_name} in {name}: tuple {t} has wrong arity"
                    )
                if any(not (0 <= x < universe_size) for x in t):
                    raise InputError(
                        f"relation {rel_name} in {name}: tuple {t} leaves the universe"
                    )
        if len(constants) != len(vocabulary.constants):
            raise InputError("every constant needs an interpretation")
        for c_name, value in zip(vocabulary.constants, constants):
            if not (0 <= value < universe_size):
                raise InputError(f"constant {c_name} in {name} leaves the universe")
        vars(self).update(
            name=name, universe_size=universe_size, vocabulary=vocabulary,
            relations=relations, constants=constants,
        )

    @fact
    def __hash__(self):
        # part of every PartialIso hash, so computed once per structure
        return hash(tuple(getattr(self, name) for name in self._fields))

    @classmethod
    def build(
        cls,
        name: str,
        universe_size: int,
        vocabulary: Vocabulary,
        relations: Mapping[str, Iterable[Sequence[int]]] | None = None,
        constants: Mapping[str, int] | None = None,
    ) -> "Structure":
        relations = dict(relations or {})
        constants = dict(constants or {})
        for key in relations:
            vocabulary.relation_index(key)
        for key in constants:
            vocabulary.constant_index(key)
        rel_tuple = tuple(
            frozenset(tuple(t) for t in relations.get(rel_name, ()))
            for rel_name, _ in vocabulary.relations
        )
        try:
            const_tuple = tuple(constants[c] for c in vocabulary.constants)
        except KeyError as missing:
            raise InputError(f"constant {missing.args[0]} is not interpreted") from None
        return cls(name, universe_size, vocabulary, rel_tuple, const_tuple)

    def relation(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.relations[self.vocabulary.relation_index(name)]

    def constant(self, name: str) -> int:
        return self.constants[self.vocabulary.constant_index(name)]


class PartialIso(Frozen):
    """A candidate partial map between two structures, in canonical pair
    form.  Construction checks only well-formedness; whether the map
    really is a partial isomorphism is ``is_partial_iso``'s question."""

    def __init__(self, left: Structure, right: Structure, pairs: tuple[tuple[int, int], ...]):
        if left.vocabulary != right.vocabulary:
            raise InputError("both structures must share one vocabulary")
        previous = None
        for a, b in pairs:
            if not (0 <= a < left.universe_size):
                raise InputError(f"source {a} leaves the left universe")
            if not (0 <= b < right.universe_size):
                raise InputError(f"target {b} leaves the right universe")
            if previous is not None and (a, b) <= previous:
                raise InputError("pairs must be strictly sorted")
            previous = (a, b)
        vars(self).update(left=left, right=right, pairs=pairs)

    @classmethod
    def from_pairs(
        cls, left: Structure, right: Structure, pairs: Iterable[tuple[int, int]]
    ) -> "PartialIso":
        return cls(left, right, tuple(sorted(set((a, b) for a, b in pairs))))

    def compose(self, other: "PartialIso") -> "PartialIso":
        """self after other; defined where other lands in self's domain.
        Both maps are assumed functional (enumerated isos always are)."""
        if other.right != self.left:
            raise InputError("composition needs other's right to be self's left")
        lookup = dict(self.pairs)
        return PartialIso(
            other.left,
            self.right,
            tuple((a, lookup[b]) for a, b in other.pairs if b in lookup),
        )


def identity_iso(A: Structure) -> PartialIso:
    return PartialIso(A, A, tuple((x, x) for x in range(A.universe_size)))


def constant_pairs(A: Structure, B: Structure) -> tuple[tuple[int, int], ...]:
    if A.vocabulary != B.vocabulary:
        raise InputError("both structures must share one vocabulary")
    return tuple(sorted(set(zip(A.constants, B.constants))))


def constants_only_iso(A: Structure, B: Structure) -> PartialIso:
    """The minimal candidate: exactly the constant pairs.  With clashing
    constants this is a well-formed candidate that fails the check."""
    return PartialIso(A, B, constant_pairs(A, B))


def pairs_are_partial_iso(
    A: Structure, B: Structure, pairs: Iterable[tuple[int, int]]
) -> bool:
    """Ground truth for raw pair sets: inside the two universes,
    functional, injective, containing all constant pairs, preserving
    every relation in both directions."""
    pairs = set(pairs)
    forward = dict(pairs)
    backward = {b: a for a, b in pairs}
    if len(forward) != len(pairs) or len(backward) != len(pairs):
        return False
    # identity first: the structures of one file share one vocabulary
    # object, and the certificate check asks this once per member it proves
    if A.vocabulary is not B.vocabulary and A.vocabulary != B.vocabulary:
        raise InputError("both structures must share one vocabulary")
    if not pairs.issuperset(zip(A.constants, B.constants)):
        return False
    for tuples_a, tuples_b in zip(A.relations, B.relations):
        if not (
            _maps_into(forward, tuples_a, tuples_b)
            and _maps_into(backward, tuples_b, tuples_a)
        ):
            return False
    # last, as a pair outside the universes meets no constant and no tuple
    return forward.keys() <= _elements(A) and backward.keys() <= _elements(B)


@fact
def _elements(S: Structure) -> frozenset[int]:
    return frozenset(range(S.universe_size))


def _maps_into(f: dict[int, int], tuples: Iterable[tuple[int, ...]], target) -> bool:
    """Every tuple that lies inside f's domain has its image in target.
    For an injective f, this in both directions is preservation both
    ways, at a cost in the number of tuples, not |domain|^arity."""
    inside, image = f.__contains__, f.__getitem__
    for t in tuples:
        if all(map(inside, t)) and tuple(map(image, t)) not in target:
            return False
    return True


@fact
def _by_element(S: Structure) -> tuple[tuple[dict[int, list[tuple[int, ...]]], frozenset], ...]:
    """For each relation of S of arity at least 3: the tuples that
    mention each element, and the relation."""
    return tuple(
        ({x: [t for t in tuples if x in t] for x in range(S.universe_size)}, tuples)
        for (_, arity), tuples in zip(S.vocabulary.relations, S.relations) if arity > 2
    )


@fact
def _clashes(A: Structure, B: Structure) -> tuple[int | None, ...] | None:
    """The pair-clash table of A against B, kept on A.  At a·|B| + b it
    holds None when the map {(a, b)} breaks a unary relation or a loop,
    else the code (``codes._code``) of every pair (a2, b2), a2 ≠ a and
    b2 ≠ b, whose map with (a, b) breaks a binary relation either way:
    the (a2, b2) where (a, a2) and (b, b2) are of different kinds.  So
    over relations of arity ≤ 2 the partial isomorphisms are the maps
    with no pair None and no two pairs clashing: the cliques of the
    pair-compatibility graph (Barrow and Burstall 1976).  Without a
    relation of arity ≤ 2 nothing clashes, and no table is built: None."""
    if all(arity > 2 for _, arity in A.vocabulary.relations):
        return None

    def kinds(S):  # of (x, y): bit 2i if the i-th relation of arity ≤ 2 has (x, y), 2i + 1 (y, x)
        kind = [[0] * S.universe_size for _ in range(S.universe_size)]
        low = [R for (_, arity), R in zip(S.vocabulary.relations, S.relations) if arity < 3]
        for i, relation in enumerate(low):
            for t in relation:  # a unary (x) as (x, x)
                kind[t[0]][t[-1]] |= 1 << 2 * i
                kind[t[-1]][t[0]] |= 2 << 2 * i
        return kind

    def grouped(kind, x, shift):  # the y ≠ x of each kind of (x, y), as bits y·shift
        groups: dict[int, int] = {}
        for y, of_y in enumerate(kind[x]):
            if y != x:
                groups[of_y] = groups.get(of_y, 0) | 1 << y * shift
        return groups

    n, kind_a, kind_b = B.universe_size, kinds(A), kinds(B)
    same, table = [grouped(kind_b, b, 1) for b in range(n)], []
    for a in range(A.universe_size):
        row = [0] * n
        for of_a2, block in grouped(kind_a, a, n).items():  # bit a2·n per a2 of one kind
            for b in range(n):  # times the b2 ≠ b of the other kinds: those pairs clash
                row[b] |= ((1 << n) - 1 ^ 1 << b ^ same[b].get(of_a2, 0)) * block
        table += (None if kind_a[a][a] != kind_b[b][b] else row[b] for b in range(n))
    return tuple(table)


def _one_pair_test(A: Structure, B: Structure, forward: dict, backward: dict) -> Callable:
    """The test of one new pair (a, b) of a partial isomorphism from A to
    B, held as ``forward`` and its inverse ``backward``, which already
    hold the pair, and as ``code`` (``codes._code``), which holds at
    least its other pairs: whether the map stays a partial isomorphism.
    Relations of arity ≤ 2 take one AND of the pair's ``_clashes`` entry
    with ``code``, when there are any; the others are read only at their
    tuples that mention a or b (``_by_element``).  The growth loop and
    the game oracle (``ef_games.ef_equiv_oracle``) both grow maps by it."""
    clashes, n = _clashes(A, B), B.universe_size
    relations = list(zip(_by_element(A), _by_element(B)))

    def clash_free(a: int, b: int, code: int) -> bool:
        clash = clashes[a * n + b]
        return clash is not None and not clash & code

    consistent_with = _any_pair if clashes is None else clash_free

    def and_tuples(a: int, b: int, code: int) -> bool:
        return consistent_with(a, b, code) and all(
            _maps_into(forward, at_a[a], tuples_b) and _maps_into(backward, at_b[b], tuples_a)
            for (at_a, tuples_a), (at_b, tuples_b) in relations
        )

    # two closures, not one: the scan's generator makes a and b cells of
    # the function that holds it, which costs every call
    return and_tuples if relations else consistent_with


def _any_pair(a: int, b: int, code: int) -> bool:
    """No relation of arity ≤ 2 to break: every pair passes."""
    return True


def is_partial_iso(p: PartialIso) -> bool:
    return pairs_are_partial_iso(p.left, p.right, p.pairs)


def _check_pair(A: Structure, B: Structure, max_universe: int):
    """The checks of a pair before any map of it is made: one vocabulary,
    then both universes within the bound."""
    if A.vocabulary != B.vocabulary:
        raise InputError("both structures must share one vocabulary")
    for S in (A, B):
        if S.universe_size > max_universe:
            raise BoundExceededError(
                f"universe of {S.name} exceeds the bound {max_universe}"
            )


def enumerate_partial_isos(
    A: Structure, B: Structure, max_universe: int = DEFAULT_UNIVERSE_BOUND
) -> frozenset[PartialIso]:
    """Every partial isomorphism from A to B, one ``PartialIso`` per code
    of ``_partial_iso_codes``, decoded to its sorted pair tuple."""
    from .codes import _decoded  # loaded by a call, not with this module

    _check_pair(A, B, max_universe)
    return frozenset(PartialIso(A, B, p) for p in _decoded(_partial_iso_codes(A, B), B.universe_size))


def _partial_iso_codes(A: Structure, B: Structure) -> list[int]:
    """Every partial isomorphism from A to B as its code (bit a·|B| + b
    set for each pair (a, b), as ``codes._code`` sets it), in the sorted
    order of their pair tuples, with no bound: the one growth loop of the
    package, which the build of ``ef_games.CategoryD``, its endosets,
    ``enumerate_partial_isos`` and ``partial_bijections.enumerate_all``
    (on the structure with no relations) read, the last three through
    ``codes._decoded``.

    Grows maps pair by pair, sources in increasing order, from the
    constant base; a restriction of a partial isomorphism to any superset
    of the constant pairs is again one, so depth-first growth that checks
    each new pair by ``_one_pair_test`` finds them all.  Every code holds
    the constant pairs from the start, so each test sees them; a constant
    source is never skipped, and a map is found once every constant
    source lies behind it, before its extensions: so the maps come out in
    sorted order, each built once by setting one bit of its parent's code.
    """
    base = constant_pairs(A, B)
    if not pairs_are_partial_iso(A, B, base):
        return []
    found: list[int] = []
    forward, backward = dict(base), {b: a for a, b in base}
    consistent_with = _one_pair_test(A, B, forward, backward)
    last = max(forward, default=-1)  # the last constant source
    sources, targets = range(A.universe_size), range(B.universe_size)
    bit = [[1 << a * len(targets) + b for b in targets] for a in sources]

    def grow(start: int, code: int):
        if start > last:
            found.append(code)
        for a in sources[start:]:
            if a in forward:  # a constant source: the code holds its pair
                return grow(a + 1, code)
            for b in targets:
                if b not in backward:
                    forward[a], backward[b] = b, a
                    if consistent_with(a, b, code):
                        grow(a + 1, code | bit[a][b])
                    del forward[a], backward[b]

    grow(0, sum(bit[a][b] for a, b in base))
    return found


# ---------------------------------------------------------------------------
# Parsing and printing

_TOKEN = re.compile(r"\([^()]*\)|\S+")


def _tokenize(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]


def _parse_tuple(token: str, line_no: int, column: int, arity: int) -> tuple[int, ...]:
    if not (token.startswith("(") and token.endswith(")")):
        raise ParseError(f"expected a tuple like (0,1), got {token!r}", line_no, column)
    inner = token[1:-1].strip()
    if not inner:
        raise ParseError("empty tuple", line_no, column)
    try:
        values = tuple(int(part.strip()) for part in inner.split(","))
    except ValueError:
        raise ParseError(f"tuple {token!r} must hold integers", line_no, column) from None
    if len(values) != arity:
        raise ParseError(
            f"tuple {token!r} has {len(values)} entries, expected arity {arity}",
            line_no,
            column,
        )
    return values


def _int_token(token: str, line_no: int, column: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line_no, column) from None


def parse_structures(text: str) -> tuple[Vocabulary, tuple[Structure, ...]]:
    """Parse a structure file; errors carry line and column positions."""
    vocab_relations: list[tuple[str, int]] = []
    vocab_constants: list[str] = []
    vocabulary: Vocabulary | None = None
    structures: list[Structure] = []
    seen_names: set[str] = set()

    section = "start"  # start | vocabulary | structure
    current: dict | None = None

    def finish_structure(line_no: int):
        nonlocal current
        if current is None:
            return
        if current["universe"] is None:
            raise ParseError(
                f"structure {current['name']} has no universe line", current["line"]
            )
        missing = [
            c for c in vocabulary.constants if c not in current["constants"]
        ]
        if missing:
            raise ParseError(
                f"structure {current['name']} leaves constant {missing[0]} uninterpreted",
                current["line"],
            )
        structures.append(
            Structure.build(
                current["name"],
                current["universe"],
                vocabulary,
                current["relations"],
                current["constants"],
            )
        )
        current = None

    def seal_vocabulary():
        nonlocal vocabulary
        if vocabulary is None:
            vocabulary = Vocabulary(tuple(vocab_relations), tuple(vocab_constants))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line)
        if not tokens:
            continue
        (head, head_col), rest = tokens[0], tokens[1:]

        if head == "vocabulary":
            if section != "start":
                raise ParseError("vocabulary must come first, once", line_no, head_col)
            if rest:
                raise ParseError("vocabulary takes no arguments", line_no, rest[0][1])
            section = "vocabulary"
        elif head == "structure":
            if len(rest) != 1:
                raise ParseError("structure needs exactly a name", line_no, head_col)
            seal_vocabulary()
            finish_structure(line_no)
            name = rest[0][0]
            if name in seen_names:
                raise ParseError(f"duplicate structure name {name}", line_no, rest[0][1])
            seen_names.add(name)
            section = "structure"
            current = {
                "name": name,
                "line": line_no,
                "universe": None,
                "relations": {},
                "constants": {},
            }
        elif head == "relation" and section == "vocabulary":
            if len(rest) != 2:
                raise ParseError("relation needs a name and an arity", line_no, head_col)
            (name, _), (arity_tok, arity_col) = rest
            arity = _int_token(arity_tok, line_no, arity_col, "arity")
            if arity < 1:
                raise ParseError("arity must be at least 1", line_no, arity_col)
            if any(name == n for n, _ in vocab_relations) or name in vocab_constants:
                raise ParseError(f"duplicate name {name}", line_no, rest[0][1])
            vocab_relations.append((name, arity))
        elif head == "constant" and section == "vocabulary":
            if len(rest) != 1:
                raise ParseError("constant needs exactly a name", line_no, head_col)
            name = rest[0][0]
            if name in vocab_constants or any(name == n for n, _ in vocab_relations):
                raise ParseError(f"duplicate name {name}", line_no, rest[0][1])
            vocab_constants.append(name)
        elif head == "universe" and section == "structure":
            if current["universe"] is not None:
                raise ParseError("universe declared twice", line_no, head_col)
            if len(rest) != 1:
                raise ParseError("universe needs exactly a size", line_no, head_col)
            size = _int_token(rest[0][0], line_no, rest[0][1], "universe size")
            if size < 1:
                raise ParseError("universe size must be at least 1", line_no, rest[0][1])
            current["universe"] = size
        elif head == "constant" and section == "structure":
            if len(rest) != 2:
                raise ParseError("constant needs a name and an element", line_no, head_col)
            (name, name_col), (value_tok, value_col) = rest
            if name not in vocabulary.constants:
                raise ParseError(f"unknown constant {name}", line_no, name_col)
            if name in current["constants"]:
                raise ParseError(f"constant {name} interpreted twice", line_no, name_col)
            if current["universe"] is None:
                raise ParseError("universe must come before interpretations", line_no, head_col)
            value = _int_token(value_tok, line_no, value_col, "element")
            if not (0 <= value < current["universe"]):
                raise ParseError(f"element {value} leaves the universe", line_no, value_col)
            current["constants"][name] = value
        elif head == "relation" and section == "structure":
            if not rest:
                raise ParseError("relation needs a name", line_no, head_col)
            (name, name_col) = rest[0]
            try:
                arity = dict(vocabulary.relations)[name]
            except KeyError:
                raise ParseError(f"unknown relation {name}", line_no, name_col) from None
            if current["universe"] is None:
                raise ParseError("universe must come before interpretations", line_no, head_col)
            tuples = current["relations"].setdefault(name, [])
            for token, col in rest[1:]:
                values = _parse_tuple(token, line_no, col, arity)
                if any(not (0 <= x < current["universe"]) for x in values):
                    raise ParseError(
                        f"tuple {token} leaves the universe", line_no, col
                    )
                tuples.append(values)
        else:
            raise ParseError(f"unexpected directive {head!r}", line_no, head_col)

    seal_vocabulary()
    finish_structure(0)
    return vocabulary, tuple(structures)


def format_structures(vocabulary: Vocabulary, structures: Iterable[Structure]) -> str:
    """Canonical printer; ``parse_structures`` round-trips its output."""
    lines: list[str] = []
    if vocabulary.relations or vocabulary.constants:
        lines.append("vocabulary")
        for name, arity in vocabulary.relations:
            lines.append(f"  relation {name} {arity}")
        for name in vocabulary.constants:
            lines.append(f"  constant {name}")
    for S in structures:
        lines.append(f"structure {S.name}")
        lines.append(f"  universe {S.universe_size}")
        for name, value in zip(vocabulary.constants, S.constants):
            lines.append(f"  constant {name} {value}")
        for (name, _), tuples in zip(vocabulary.relations, S.relations):
            if tuples:
                rendered = " ".join(
                    "(" + ",".join(str(x) for x in t) + ")" for t in sorted(tuples)
                )
                lines.append(f"  relation {name} {rendered}")
    return "\n".join(lines) + "\n"
