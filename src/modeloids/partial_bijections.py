"""Partial bijections on a finite carrier {0, ..., n-1}.

A partial bijection is an injective partial map from the carrier to itself,
stored canonically as a tuple of (source, target) pairs sorted by source.
Composition follows the convention ``f.compose(g) = f after g``: the result
is defined exactly where g lands inside the domain of f.

The full set of partial bijections on a carrier of size n has
sum_k C(n,k)^2 * k! elements (choose a domain, an image, and a bijection
between them); it carries the structure this package is built on.
"""

from __future__ import annotations

from collections.abc import Iterable

from .derived import Frozen
from .errors import BoundExceededError, InputError

DEFAULT_ENUMERATION_BOUND = 6


class Carrier(Frozen):
    """The finite ground set {0, ..., size-1}."""

    def __init__(self, size: int):
        if size < 1:
            raise InputError(f"carrier size must be at least 1, got {size}")
        vars(self)["size"] = size

    def __hash__(self):
        return hash((self.size,))  # in every PartialBijection hash: kept direct

    def elements(self) -> range:
        return range(self.size)

    def __contains__(self, x: object) -> bool:
        return isinstance(x, int) and 0 <= x < self.size


class PartialBijection(Frozen):
    """An injective partial self-map of a carrier, in canonical pair form.

    >>> f = PartialBijection.from_pairs(Carrier(3), [(1, 2)])
    >>> g = PartialBijection.from_pairs(Carrier(3), [(0, 1)])
    >>> f.compose(g).pairs
    ((0, 2),)
    """

    def __init__(self, carrier: Carrier, pairs: tuple[tuple[int, int], ...]):
        n = carrier.size
        previous_source = -1
        targets: set[int] = set()
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"pair ({a}, {b}) leaves the carrier of size {n}")
            if a <= previous_source:
                raise InputError("pairs must be strictly increasing in the source")
            previous_source = a
            if b in targets:
                raise InputError(f"target {b} repeated: not injective")
            targets.add(b)
        vars(self).update(carrier=carrier, pairs=pairs)

    @classmethod
    def from_pairs(cls, carrier: Carrier, pairs: Iterable[tuple[int, int]]) -> "PartialBijection":
        return cls(carrier, tuple(sorted(set((a, b) for a, b in pairs))))

    def domain(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.pairs)

    def compose(self, other: "PartialBijection") -> "PartialBijection":
        """self after other, defined on other's preimage of dom(self).

        >>> c = Carrier(2)
        >>> ident = identity_map(c)
        >>> ident.compose(ident) == ident
        True
        """
        if self.carrier != other.carrier:
            raise InputError("cannot compose maps over different carriers")
        lookup = dict(self.pairs)
        return PartialBijection(
            self.carrier,
            tuple((a, lookup[b]) for a, b in other.pairs if b in lookup),
        )

    def inverse(self) -> "PartialBijection":
        return PartialBijection.from_pairs(self.carrier, ((b, a) for a, b in self.pairs))

    def restrict(self, allowed: Iterable[int]) -> "PartialBijection":
        """Keep only the pairs whose source lies in ``allowed``."""
        allowed = frozenset(allowed)
        for x in allowed:
            if x not in self.carrier:
                raise InputError(f"restriction element {x} leaves the carrier")
        return PartialBijection(self.carrier, tuple(p for p in self.pairs if p[0] in allowed))

    def is_restriction_of(self, other: "PartialBijection") -> bool:
        """True iff this map's pairs are a subset of the other's."""
        if self.carrier != other.carrier:
            raise InputError("cannot compare maps over different carriers")
        return set(self.pairs) <= set(other.pairs)

    def __le__(self, other: "PartialBijection") -> bool:
        return self.is_restriction_of(other)

    def is_idempotent(self) -> bool:
        """True iff composing the map with itself changes nothing, which
        holds exactly for the partial identities."""
        return self.compose(self) == self

    def is_atom_idempotent(self) -> bool:
        """True iff the map is a one-point partial identity."""
        return self.is_idempotent() and len(self.pairs) == 1


def identity_map(carrier: Carrier) -> PartialBijection:
    return PartialBijection(carrier, tuple((x, x) for x in carrier.elements()))


def empty_map(carrier: Carrier) -> PartialBijection:
    return PartialBijection(carrier, ())


def partial_identity(carrier: Carrier, elements: Iterable[int]) -> PartialBijection:
    """The identity restricted to ``elements``.

    >>> partial_identity(Carrier(3), [2, 0]).pairs
    ((0, 0), (2, 2))
    """
    return identity_map(carrier).restrict(elements)


def enumerate_all(
    carrier: Carrier, max_size: int = DEFAULT_ENUMERATION_BOUND
) -> frozenset[PartialBijection]:
    """Every partial bijection on the carrier: the partial automorphisms
    of the structure on it with no relations and no constants, grown by
    the package's one growth loop (``structures._partial_iso_pairs``).

    Refuses carriers beyond ``max_size`` (default 6, a 13327-element set)
    to keep accidental blow-ups out of interactive use.
    """
    if carrier.size > max_size:
        raise BoundExceededError(
            f"carrier size {carrier.size} exceeds the enumeration bound {max_size}"
        )
    from . import structures  # loaded only by a call, not with this module

    pure = structures.Structure("pure", carrier.size, structures.Vocabulary(), (), ())
    return frozenset(PartialBijection(carrier, p) for p in structures._partial_iso_pairs(pure, pure))
