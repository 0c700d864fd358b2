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
from dataclasses import dataclass
from typing import Iterable, Iterator

from .categorical import CategoricalModeloid
from .errors import InputError, ParseError
from .free_categories import FreeCategory
from .inverse_semigroups import InverseSemigroupTable, Semimodeloid
from .modeloid import Modeloid
from .partial_bijections import Carrier, PartialBijection

_PAIR = re.compile(r"\((\d+),(\d+)\)")


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield line_no, body.split()


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line_no) from None


def _int_row(tokens: list[str], line_no: int, what: str) -> tuple[int, ...]:
    return tuple(_int(t, line_no, what) for t in tokens)


def _expect_header(lines: list[tuple[int, list[str]]], kind: str):
    if not lines:
        raise ParseError("empty file", 1)
    line_no, tokens = lines[0]
    if tokens != [kind]:
        raise ParseError(
            f"expected header {kind!r}, got {' '.join(tokens)!r}", line_no
        )


def _single_int_field(fields: dict, key: str, line_no: int, tokens: list[str]):
    if key in fields:
        raise ParseError(f"{key} declared twice", line_no)
    if len(tokens) != 1:
        raise ParseError(f"{key} needs exactly one value", line_no)
    fields[key] = _int(tokens[0], line_no, key)


@dataclass(frozen=True)
class SemigroupFile:
    """Raw contents of a semigroup-shaped file, before any verification."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...] | None = None
    neutral: int | None = None
    zero: int | None = None
    members: tuple[int, ...] | None = None

    def to_table(self) -> InverseSemigroupTable:
        """Structural construction; requires the inv rows to be present."""
        if self.inv is None:
            raise InputError("file declares no inverse row")
        return InverseSemigroupTable(
            self.order, self.mul, self.inv, self.neutral, self.zero
        )


def _parse_table_body(
    lines: list[tuple[int, list[str]]], kind: str, want_members: bool
) -> SemigroupFile:
    order: int | None = None
    mul_rows: list[tuple[int, ...]] = []
    fields: dict = {}
    inv: tuple[int, ...] | None = None
    members: tuple[int, ...] | None = None
    for line_no, tokens in lines[1:]:
        head, rest = tokens[0], tokens[1:]
        if head == "order":
            if order is not None:
                raise ParseError("order declared twice", line_no)
            if len(rest) != 1:
                raise ParseError("order needs exactly one value", line_no)
            order = _int(rest[0], line_no, "order")
            if order < 1:
                raise ParseError("order must be at least 1", line_no)
        elif head == "mul":
            if order is None:
                raise ParseError("order must come before mul rows", line_no)
            if len(mul_rows) == order:
                raise ParseError(f"more than {order} mul rows", line_no)
            row = _int_row(rest, line_no, "mul entry")
            if len(row) != order:
                raise ParseError(f"mul row needs {order} entries", line_no)
            mul_rows.append(row)
        elif head == "inv":
            if inv is not None:
                raise ParseError("inv declared twice", line_no)
            inv = _int_row(rest, line_no, "inv entry")
            if order is None or len(inv) != order:
                raise ParseError("inv row must list one entry per element", line_no)
        elif head in ("neutral", "zero"):
            _single_int_field(fields, head, line_no, rest)
        elif head == "members" and want_members:
            if members is not None:
                raise ParseError("members declared twice", line_no)
            members = tuple(sorted(set(_int_row(rest, line_no, "member"))))
        else:
            raise ParseError(f"unexpected directive {head!r} in {kind} file", line_no)
    if order is None:
        raise ParseError("missing order line", 1)
    if len(mul_rows) != order:
        raise ParseError(f"expected {order} mul rows, found {len(mul_rows)}", 1)
    if want_members and members is None:
        raise ParseError("missing members line", 1)
    return SemigroupFile(
        order,
        tuple(mul_rows),
        inv,
        fields.get("neutral"),
        fields.get("zero"),
        members,
    )


def parse_semigroup_file(text: str) -> SemigroupFile:
    lines = list(_lines(text))
    _expect_header(lines, "semigroup")
    return _parse_table_body(lines, "semigroup", want_members=False)


def parse_semimodeloid_file(text: str) -> SemigroupFile:
    """Same layout as a semigroup file plus a ``members`` line."""
    lines = list(_lines(text))
    _expect_header(lines, "semimodeloid")
    return _parse_table_body(lines, "semimodeloid", want_members=True)


def _parse_category_body(
    lines: list[tuple[int, list[str]]], kind: str, want_members: bool
) -> tuple[FreeCategory, tuple[int, ...] | None]:
    count: int | None = None
    fields: dict = {}
    rows: dict[str, tuple[int, ...]] = {}
    comp_rows: list[tuple[int, ...]] = []
    members: tuple[int, ...] | None = None
    for line_no, tokens in lines[1:]:
        head, rest = tokens[0], tokens[1:]
        if head == "morphisms":
            if count is not None:
                raise ParseError("morphisms declared twice", line_no)
            if len(rest) != 1:
                raise ParseError("morphisms needs exactly one value", line_no)
            count = _int(rest[0], line_no, "morphisms")
            if count < 1:
                raise ParseError("need at least the non-existing morphism", line_no)
        elif head == "star":
            _single_int_field(fields, "star", line_no, rest)
        elif head in ("dom", "cod", "inv"):
            if head in rows:
                raise ParseError(f"{head} declared twice", line_no)
            row = _int_row(rest, line_no, f"{head} entry")
            if count is None or len(row) != count:
                raise ParseError(
                    f"{head} must list one entry per morphism", line_no
                )
            rows[head] = row
        elif head == "comp":
            if count is None:
                raise ParseError("morphisms must come before comp rows", line_no)
            if len(comp_rows) == count:
                raise ParseError(f"more than {count} comp rows", line_no)
            row = _int_row(rest, line_no, "comp entry")
            if len(row) != count:
                raise ParseError(f"comp row needs {count} entries", line_no)
            comp_rows.append(row)
        elif head == "members" and want_members:
            if members is not None:
                raise ParseError("members declared twice", line_no)
            members = tuple(sorted(set(_int_row(rest, line_no, "member"))))
        else:
            raise ParseError(f"unexpected directive {head!r} in {kind} file", line_no)
    if count is None:
        raise ParseError("missing morphisms line", 1)
    if "star" not in fields:
        raise ParseError("missing star line", 1)
    for needed in ("dom", "cod"):
        if needed not in rows:
            raise ParseError(f"missing {needed} line", 1)
    if len(comp_rows) != count:
        raise ParseError(f"expected {count} comp rows, found {len(comp_rows)}", 1)
    if want_members and members is None:
        raise ParseError("missing members line", 1)
    category = FreeCategory(
        count, fields["star"], rows["dom"], rows["cod"], tuple(comp_rows), rows.get("inv")
    )
    return category, members


def parse_category_file(text: str) -> FreeCategory:
    lines = list(_lines(text))
    _expect_header(lines, "category")
    return _parse_category_body(lines, "category", want_members=False)[0]


def parse_categorical_modeloid_file(text: str) -> tuple[FreeCategory, tuple[int, ...]]:
    """The ambient category and the sorted member morphisms."""
    lines = list(_lines(text))
    _expect_header(lines, "categorical-modeloid")
    return _parse_category_body(lines, "categorical-modeloid", want_members=True)


def parse_modeloid_file(text: str) -> Modeloid:
    lines = list(_lines(text))
    _expect_header(lines, "modeloid")
    carrier: Carrier | None = None
    maps: list[PartialBijection] = []
    for line_no, tokens in lines[1:]:
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
