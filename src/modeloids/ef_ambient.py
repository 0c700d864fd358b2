"""The tables of category D and the paper's reference chain on all of D.

``ef_games`` reads every homset of D from its own block
(``CategoryD.hom``) and never reads what this module builds; it loads
this module on the first read of ``CategoryD.ambient``, ``morphisms`` or
``star``, or on the first call of ``derivative_levels``, and every name
here also resolves from ``ef_games``.

``_tables`` lays out all of D as those blocks end to end, once per D on
first read, so every index is the one its homset's block gives it, and
tabulates its dom, cod, inv and index tables into a
``PartialIsoAmbient``, which composes two maps on demand and lists the
down-set of a map as its restrictions that keep the constant pairs.
``derivative_levels`` steps the paper's chain on all of D through
``categorical_derivative``: the reference the ``ef`` chain must agree
with.  The names this module reads of ``ef_games`` (``CategoryD``,
``_inverse``, ``CategoricalModeloid``, ``categorical_derivative``) are
read there at each call, so a patch or a tracer set on ``ef_games`` is
the one called.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from . import ef_games
from .derived import Chain, Frozen, fact, padded
from .errors import InputError


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


@fact
def _tables(category: ef_games.CategoryD) -> PartialIsoAmbient:
    """All of D: its homset blocks end to end in index order
    (``CategoryD.hom``), Hom(A,B), Hom(B,A), End(A), End(B), or for one
    side the one block End(A); star comes after the last map.  dom, cod
    and inv are tabulated over them; composition is left to the ambient."""
    A, B = category.left, category.right
    obj = {S: category.object_of(S) for S in (A, B)}  # one entry for one side
    morphisms, dom, cod = (), [], []
    for X, Y in ((A, A),) if A == B else ((A, B), (B, A), (A, A), (B, B)):
        maps = category.hom(X, Y)[1]
        morphisms += maps
        dom += [obj[X]] * len(maps)
        cod += [obj[Y]] * len(maps)
    star = len(morphisms)
    dom, cod = tuple(dom) + (star,), tuple(cod) + (star,)
    index = {(dom[i], cod[i], p): i for i, p in enumerate(morphisms)}
    inv = [star] * (star + 1)
    for i, p in enumerate(morphisms):
        if inv[i] == star:  # each inverse pair is looked up once
            inv[i] = j = index[(cod[i], dom[i], ef_games._inverse(p))]
            inv[j] = i
    constants = {obj[S]: S.constants for S in (A, B)}
    return PartialIsoAmbient(star + 1, star, dom, cod, tuple(inv), morphisms, index, constants)


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
