"""One round of back and forth for a map against a level of maps, on
integer codes.

A map from {0..sources-1} to {0..targets-1} is coded as one integer
(``_code``); ``_extended_at`` indexes the one-point extensions of a
level of codes once, and ``_least_unextended`` reads a map's least
unextended source and target from that index with one dict lookup.  The
``ef`` chain, the certificate check and the modeloid derivative read
them; the module imports nothing of the package.
"""

from __future__ import annotations

from collections.abc import Iterable


def _code(pairs: Iterable[tuple[int, int]], targets: int) -> int:
    """A map from {0..sources-1} to {0..targets-1} as one integer, with
    bit a·targets + b set for each of its pairs (a, b): the form that
    ``_extended_at`` and ``_least_unextended`` read."""
    code = 0
    for a, b in pairs:
        code |= 1 << a * targets + b
    return code


def _extended_at(codes: Iterable[int], sources: int, targets: int) -> dict[int, int]:
    """The one-point extensions of a level of maps from {0..sources-1} to
    {0..targets-1}, given by their codes (``_code``), indexed once for
    ``_least_unextended``.

    The entry of the code of f has bit a and bit sources + b set for each
    one-point extension f ∪ {(a, b)} in the level, found in one pass by
    dropping each set bit of each member in turn, the bit's (a, b) read
    from a table by its position, and, when f itself is in the level,
    the bits of its own domain and range: for a in dom f the only union
    that is a map is f."""
    reach = [1 << a | 1 << sources + b for a in range(sources) for b in range(targets)]
    at: dict[int, int] = {}
    for code in codes:
        held, rest = 0, code
        while rest:
            low = rest & -rest
            rest ^= low
            reached = reach[low.bit_length() - 1]
            held |= reached
            smaller = code ^ low  # the member without this pair
            at[smaller] = at.get(smaller, 0) | reached
        at[code] = at.get(code, 0) | held
    return at


def _least_unextended(
    code: int, at: dict[int, int], sources: int, targets: int
) -> tuple[int | None, int | None]:
    """The least source a < ``sources`` with no b such that f ∪ {(a, b)} is
    in the level indexed by ``at`` (``_extended_at``), and the least target
    b < ``targets`` with no such a, each None when there is none, for f
    given by its ``code``: one dict lookup.  For a in dom f (b in ran f)
    the only union that is a map is f, so those points are missed exactly
    when f is not in the level."""
    reached = at.get(code, 0)
    a = _lowest_zero(reached & (1 << sources) - 1)
    b = _lowest_zero(reached >> sources)
    return (a if a < sources else None), (b if b < targets else None)


def _lowest_zero(bits: int) -> int:
    return (~bits & bits + 1).bit_length() - 1
