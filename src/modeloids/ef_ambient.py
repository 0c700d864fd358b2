"""The tables of category D and the paper's reference chain on all of D.

``ef_games`` decides m-round equivalence from Hom(A,B) alone, as sorted
pair tuples, and never reads what this module builds; it loads this
module on the first read of ``CategoryD.ambient``, ``morphisms``,
``object_a``/``object_b`` or ``part``, or on the first call of
``derivative_levels``, and every name here also resolves from
``ef_games``.

``_tables`` lays out all of D, one table form built once per D on first
read, and tabulates its dom, cod, inv and index tables (``_tabulated``)
into a ``PartialIsoAmbient``, which composes two maps on demand and
lists the down-set of a map as its restrictions that keep the constant
pairs.  ``derivative_levels`` steps the paper's chain on all of D
through ``categorical_derivative``: the reference the ``ef`` chain must
agree with.  The names this module reads of ``ef_games``
(``CategoryD``, ``CategoricalModeloid``, ``categorical_derivative``) are
read there at each call, so a patch or a tracer set on ``ef_games`` is
the one called.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from . import ef_games, structures
from .derived import Chain, Frozen, fact, padded
from .errors import InputError
from .structures import Structure


class PartialIsoAmbient(Frozen):
    """Category D as the derivative reads it, composed on demand.

    ``morphisms[i]`` is the partial isomorphism at index i as its sorted
    pair tuple, and star sits at index ``len(morphisms)``.  ``dom``,
    ``cod`` and ``inv`` are tables; ``index`` finds a map by (dom object,
    cod object, pairs), and ``constants[X]`` lists the constant elements
    of object X's structure.
    No composition table is built: ``compose`` composes two maps and looks
    the result up, and ``below`` enumerates restrictions.
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
        return self.index[(self.dom[g], self.cod[f], composed)]

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


def _identity(S: Structure) -> tuple[tuple[int, int], ...]:
    return tuple((x, x) for x in range(S.universe_size))


def _inverse(pairs: tuple) -> tuple:
    return tuple(sorted((b, a) for a, b in pairs))


def _block(lt: int, rt: int, maps) -> list[tuple[int, int, tuple]]:
    """The maps from side lt to side rt, sorted."""
    return [(lt, rt, p) for p in sorted(maps)]


@fact
def _tables(category: ef_games.CategoryD) -> tuple[PartialIsoAmbient, int, int]:
    """All of D and its two objects.  The layout is ``forth``, then for
    two sides its inverses, End(left) and End(right), each block sorted;
    star comes after the last map.  For one side it is the one block
    End(left).  dom, cod and inv are tabulated over it; composition is
    left to the ambient.  Only the endosets are enumerated, through
    ``structures`` and not ``ef_games``, so that a patch or tracer on
    ``ef_games.enumerate_partial_isos`` sees only the build's one call."""
    left, right, forth = category.left, category.right, category.forth
    if left == right:
        return _tabulated((left,), [(0, 0, p) for p in forth])
    layout = [(0, 1, p) for p in forth] + _block(1, 0, map(_inverse, forth))
    for s, S in enumerate((left, right)):
        endos = structures.enumerate_partial_isos(S, S, S.universe_size)
        layout += _block(s, s, (p.pairs for p in endos))
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


@fact
def _derivative_chain(category: ef_games.CategoryD) -> Chain:
    start = ef_games.CategoricalModeloid.everything(category.ambient)
    return Chain(start, ef_games.categorical_derivative)


def derivative_levels(category: ef_games.CategoryD, m: int) -> tuple[frozenset[int], ...]:
    """Member sets of D^0 .. D^m starting from all morphisms: the paper's
    chain on all of D.  It is one chain per D, stepped only as far as the
    largest m asked for; once a step changes nothing the tail repeats that
    level.  Its first step verifies all of D, once per D, as every
    categorical derivative verifies its input."""
    if m < 0:
        raise InputError("rounds must be non-negative")
    levels = _derivative_chain(category).upto(m)
    return padded(tuple(M.members for M in levels), m)
