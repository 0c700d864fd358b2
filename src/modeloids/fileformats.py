"""Text files for tables, modeloids, and their categorical cousins.

Every format is line oriented with ``#`` comments, one header line
naming the kind, and whitespace-separated integer fields:

semigroup::

    semigroup
    order 3
    mul 0 1 2        # row of x*y for x = 0
    mul 1 2 0
    mul 2 0 1
    inv 0 2 1        # optional; recovered from mul when omitted
    neutral 0        # optional claims, verified downstream
    zero 2           # optional

category (``morphisms`` counts the non-existing element too)::

    category
    morphisms 3
    star 2
    dom 0 0 2
    cod 0 0 2
    comp 0 1 2
    comp 1 0 2
    comp 2 2 2
    inv 0 1 2        # optional

modeloid::

    modeloid
    carrier 3
    map (0,1) (1,2)
    map              # the empty map

``semimodeloid`` is the semigroup layout plus one ``members`` line;
``categorical-modeloid`` is the category layout plus ``members``.
Writers produce canonical text that parses back to an equal object.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

from .categorical import CategoricalModeloid
from .derived import Frozen
from .errors import InputError, ParseError
from .free_categories import FreeCategory
from .inverse_semigroups import InverseSemigroupTable, Semimodeloid
from .modeloid import Modeloid
from .partial_bijections import Carrier, PartialBijection

_PAIR = re.compile(r"\((\d+),(\d+)\)")
_NumberedLines = Iterator[tuple[int, list[str]]]


def _lines(text: str) -> _NumberedLines:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield line_no, body.split()


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line_no) from None


def _int_row(
    tokens: list[str], line_no: int, what: str, numerals: dict[str, int]
) -> tuple[tuple[int, ...], bool]:
    """The row's integers, and whether they are known to lie in 0..size-1.
    Tokens are looked up in ``numerals``, which maps the text of
    0..size-1 to one int object each, so such a row is in range; a row
    with any other token (``007``, ``+1``, ``-1``, out of range or no
    integer) is read by ``int`` instead, which gives the same result or
    error as reading every token with ``int``, and is not known to be."""
    try:
        return tuple(map(numerals.__getitem__, tokens)), True
    except KeyError:
        pass
    try:
        return tuple(map(int, tokens)), False
    except ValueError:
        # names the first token that is no integer
        return tuple(_int(t, line_no, what) for t in tokens), False


def _expect_header(lines: _NumberedLines, kind: str):
    """Consume the first line of ``lines``, which must name ``kind``."""
    first = next(lines, None)
    if first is None:
        raise ParseError("empty file", 1)
    line_no, tokens = first
    if tokens != [kind]:
        raise ParseError(
            f"expected header {kind!r}, got {' '.join(tokens)!r}", line_no
        )


class SemigroupFile(Frozen):
    """Raw contents of a semigroup-shaped file, before any verification."""

    def __init__(
        self, order: int, mul: tuple[tuple[int, ...], ...], inv: tuple[int, ...] | None = None,
        neutral: int | None = None, zero: int | None = None, members: tuple[int, ...] | None = None,
    ):
        vars(self).update(
            order=order, mul=mul, inv=inv, neutral=neutral, zero=zero, members=members
        )

    def to_table(self) -> InverseSemigroupTable:
        """Structural construction; requires the inv rows to be present."""
        if self.inv is None:
            raise InputError("file declares no inverse row")
        return InverseSemigroupTable(
            self.order, self.mul, self.inv, self.neutral, self.zero
        )


class _Layout(Frozen):
    """The directives of a square-table file; see the module docstring."""

    def __init__(
        self,
        size: str,  # the element count, at least 1
        block: str,  # ``size`` rows of ``size`` entries each
        rows: tuple[str, ...],  # optional rows of ``size`` entries
        ints: tuple[str, ...],  # optional single integers
        required: tuple[str, ...],  # rows and integers that must be present
        too_small: str,
        short_row: str,  # formatted with the row's name
        out_of_range: dict[str, str],  # by directive: an entry not below the size
    ):
        vars(self).update(
            size=size, block=block, rows=rows, ints=ints, required=required,
            too_small=too_small, short_row=short_row, out_of_range=out_of_range,
        )


# its names are the fields of SemigroupFile, which the parsers fill by name
_SEMIGROUP = _Layout(
    "order", "mul", ("inv",), ("neutral", "zero"), (),
    "order must be at least 1", "{} row must list one entry per element",
    {
        "mul": "multiplication entry out of range",
        "inv": "inverse table must list one in-range element per element",
        "neutral": "declared neutral/zero out of range",
        "zero": "declared neutral/zero out of range",
        "members": "member index out of range",
    },
)
_CATEGORY = _Layout(
    "morphisms", "comp", ("dom", "cod", "inv"), ("star",), ("star", "dom", "cod"),
    "need at least the non-existing morphism", "{} must list one entry per morphism",
    {
        "comp": "composition entry out of range",
        "dom": "dom table must list one in-range morphism each",
        "cod": "cod table must list one in-range morphism each",
        "inv": "inverse table must list one in-range morphism each",
        "star": "star index out of range",
        "members": "member index out of range",
    },
)


def _parse_body(lines: _NumberedLines, kind: str, layout: _Layout, want_members: bool):
    """Every directive after the header by name; the block as a tuple of rows.
    Once all lines are read, the entries not read through the numerals
    table are range-checked, then star's dom and cod."""
    _expect_header(lines, kind)
    size_key, block_key = layout.size, layout.block
    fields: dict = {}
    block: list[tuple[int, ...]] = []
    numerals: dict[str, int] = {}
    # (line, directive, values, whether known to be in range)
    entries: list[tuple[int, str, tuple[int, ...], bool]] = []
    for line_no, tokens in lines:
        head, rest = tokens[0], tokens[1:]
        size = fields.get(size_key)
        if not numerals and len(rest) == size:
            # filled at the first row as long as the size, so that a huge
            # declared size with short rows costs nothing
            numerals.update((str(i), i) for i in range(size))
        if head == block_key:
            if size is None:
                raise ParseError(f"{size_key} must come before {head} rows", line_no)
            if len(block) == size:
                raise ParseError(f"more than {size} {head} rows", line_no)
            row, in_range = _int_row(rest, line_no, f"{head} entry", numerals)
            if len(row) != size:
                raise ParseError(f"{head} row needs {size} entries", line_no)
            block.append(row)
            entries.append((line_no, head, row, in_range))
        elif head in fields:
            raise ParseError(f"{head} declared twice", line_no)
        elif head == "members" and want_members:
            row, in_range = _int_row(rest, line_no, "member", numerals)
            fields[head] = tuple(sorted(set(row)))
            entries.append((line_no, head, fields[head], in_range))
        elif head in layout.rows:
            row, in_range = _int_row(rest, line_no, f"{head} entry", numerals)
            if size is None or len(row) != size:
                raise ParseError(layout.short_row.format(head), line_no)
            fields[head] = row
            entries.append((line_no, head, row, in_range))
        elif head == size_key or head in layout.ints:
            if len(rest) != 1:
                raise ParseError(f"{head} needs exactly one value", line_no)
            fields[head] = _int(rest[0], line_no, head)
            if head == size_key and fields[head] < 1:
                raise ParseError(layout.too_small, line_no)
            if head != size_key:
                entries.append((line_no, head, (fields[head],), False))
        else:
            raise ParseError(f"unexpected directive {head!r} in {kind} file", line_no)
    for needed in (size_key,) + layout.required:
        if needed not in fields:
            raise ParseError(f"missing {needed} line", 1)
    if len(block) != fields[size_key]:
        raise ParseError(
            f"expected {fields[size_key]} {block_key} rows, found {len(block)}", 1
        )
    if want_members and "members" not in fields:
        raise ParseError("missing members line", 1)
    size = fields[size_key]
    for line_no, head, values, in_range in entries:
        if not in_range and values and (min(values) < 0 or max(values) >= size):
            raise ParseError(layout.out_of_range[head], line_no)
    for line_no, head, values, _ in entries:
        if head in ("dom", "cod") and values[fields["star"]] != fields["star"]:
            raise ParseError("the non-existing morphism must be its own dom and cod", line_no)
    fields[block_key] = tuple(block)
    return fields


def parse_semigroup_file(text: str) -> SemigroupFile:
    return SemigroupFile(**_parse_body(_lines(text), "semigroup", _SEMIGROUP, False))


def parse_semimodeloid_file(text: str) -> SemigroupFile:
    """Same layout as a semigroup file plus a ``members`` line."""
    return SemigroupFile(**_parse_body(_lines(text), "semimodeloid", _SEMIGROUP, True))


def _category(fields: dict) -> FreeCategory:
    keys = ("morphisms", "star", "dom", "cod", "comp", "inv")
    return FreeCategory(*map(fields.get, keys))


def parse_category_file(text: str) -> FreeCategory:
    return _category(_parse_body(_lines(text), "category", _CATEGORY, False))


def parse_categorical_modeloid_file(text: str) -> tuple[FreeCategory, tuple[int, ...]]:
    """The ambient category and the sorted member morphisms."""
    fields = _parse_body(_lines(text), "categorical-modeloid", _CATEGORY, True)
    return _category(fields), fields["members"]


def parse_modeloid_file(text: str) -> Modeloid:
    lines = _lines(text)
    _expect_header(lines, "modeloid")
    carrier: Carrier | None = None
    maps: list[PartialBijection] = []
    for line_no, tokens in lines:
        head, rest = tokens[0], tokens[1:]
        if head == "carrier":
            if carrier is not None:
                raise ParseError("carrier declared twice", line_no)
            if len(rest) != 1:
                raise ParseError("carrier needs exactly one value", line_no)
            size = _int(rest[0], line_no, "carrier")
            if size < 1:
                raise ParseError("carrier must be at least 1", line_no)
            carrier = Carrier(size)
        elif head == "map":
            if carrier is None:
                raise ParseError("carrier must come before maps", line_no)
            pairs = []
            for token in rest:
                match = _PAIR.fullmatch(token)
                if match is None:
                    raise ParseError(
                        f"expected a pair like (0,1), got {token!r}", line_no
                    )
                pairs.append((int(match.group(1)), int(match.group(2))))
            try:
                maps.append(PartialBijection.from_pairs(carrier, pairs))
            except InputError as err:
                raise ParseError(str(err), line_no) from None
        else:
            raise ParseError(f"unexpected directive {head!r} in modeloid file", line_no)
    if carrier is None:
        raise ParseError("missing carrier line", 1)
    return Modeloid.from_members(carrier, maps)


def _render_pairs(pairs: Iterable[tuple[int, int]]) -> str:
    rendered = " ".join(f"({a},{b})" for a, b in pairs)
    return f"map {rendered}" if rendered else "map"


def format_modeloid_file(M: Modeloid) -> str:
    lines = ["modeloid", f"carrier {M.carrier.size}"]
    for f in sorted(M.members, key=lambda g: (len(g.pairs), g.pairs)):
        lines.append(_render_pairs(f.pairs))
    return "\n".join(lines) + "\n"


def _table_lines(table: InverseSemigroupTable) -> list[str]:
    lines = [f"order {table.order}"]
    for row in table.mul:
        lines.append("mul " + " ".join(str(x) for x in row))
    lines.append("inv " + " ".join(str(x) for x in table.inv))
    if table.neutral is not None:
        lines.append(f"neutral {table.neutral}")
    if table.zero is not None:
        lines.append(f"zero {table.zero}")
    return lines


def format_semigroup_file(table: InverseSemigroupTable) -> str:
    return "\n".join(["semigroup"] + _table_lines(table)) + "\n"


def format_semimodeloid_file(sm: Semimodeloid) -> str:
    lines = ["semimodeloid"] + _table_lines(sm.ambient)
    lines.append("members " + " ".join(str(x) for x in sorted(sm.members)))
    return "\n".join(lines) + "\n"


def _category_lines(c: FreeCategory) -> list[str]:
    lines = [
        f"morphisms {c.morphism_count}",
        f"star {c.star}",
        "dom " + " ".join(str(x) for x in c.dom),
        "cod " + " ".join(str(x) for x in c.cod),
    ]
    for row in c.comp:
        lines.append("comp " + " ".join(str(x) for x in row))
    if c.inv is not None:
        lines.append("inv " + " ".join(str(x) for x in c.inv))
    return lines


def format_category_file(c: FreeCategory) -> str:
    return "\n".join(["category"] + _category_lines(c)) + "\n"


def format_categorical_modeloid_file(M: CategoricalModeloid) -> str:
    lines = ["categorical-modeloid"] + _category_lines(M.ambient)
    lines.append("members " + " ".join(str(x) for x in sorted(M.members)))
    return "\n".join(lines) + "\n"
