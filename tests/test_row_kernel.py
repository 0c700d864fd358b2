"""The row-composition kernel of ``laws`` on both sides of its cut: rows
over 256 points are held as bytes, rows over 257 as tuples.  Each site of
the kernel (Light's test, the multiplicativity of ``_embedding`` and the
composition closure of ``_check_modeloid``) must give, at both widths,
intact and with one entry or member changed, the verdict and the witness
of a scan that reads no kernel."""

import random

import pytest
from reference_scans import check_modeloid_by_pairs

from modeloids.inverse_semigroups import (
    InverseSemigroupTable,
    _embedding,
    _top_down,
    verify_inverse_semigroup,
    wagner_preston,
)
from modeloids.laws import _first_associativity_witness, associativity_witness, row_kernel
from modeloids.modeloid import Modeloid, verify_modeloid
from modeloids.partial_bijections import Carrier, PartialBijection, identity_map

WIDTHS = (256, 257)


def cyclic(n):
    """The table of Z_n: x*y = x + y mod n."""
    return tuple(tuple((x + y) % n for y in range(n)) for x in range(n))


def one_object_category(n):
    """Z_n as the composition table of one object plus star, index n."""
    return tuple(row + (n,) for row in cyclic(n)) + ((n,) * (n + 1),)


def changed(mul, x, y, value):
    rows = [list(r) for r in mul]
    rows[x][y] = value
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("width", WIDTHS)
def test_held_form_and_product(width):
    hold, table, reader = row_kernel(width)
    rng = random.Random(width)
    x, g = ([rng.randrange(width) for _ in range(width)] for _ in range(2))
    assert isinstance(hold(x), bytes if width <= 256 else tuple)
    assert tuple(reader(hold(g))(table(hold(x)))) == tuple(x[i] for i in g)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("kind", ["semigroup", "category"])
def test_associativity_against_the_first_witness_scan(width, kind):
    mul = cyclic(width) if kind == "semigroup" else one_object_category(width - 1)
    assert len(mul) == width
    assert associativity_witness(mul) is None
    for x, y in ((0, 1), (1, 2), (width - 2, width - 2)):
        bad = changed(mul, x, y, (mul[x][y] + 1) % (width - 1))
        witness = _first_associativity_witness(bad)
        assert witness is not None
        assert associativity_witness(bad) == witness


def multiplicative_by_compose(table, images):
    """image(a*g) = image(a) o image(g) for every a and generator g, with
    each product taken by ``PartialBijection.compose``."""
    mul = table.mul
    return all(
        images[mul[a][g]] == images[a].compose(images[g])
        for a in range(table.order)
        for g in _top_down(table)[1]
    )


@pytest.mark.parametrize("width", WIDTHS)
def test_embedding_against_compose(width):
    n = width - 1  # the images are rows over the carrier and "undefined"
    table = InverseSemigroupTable(n, cyclic(n), tuple(-x % n for x in range(n)), 0, None)
    assert verify_inverse_semigroup(table)
    images = wagner_preston(table)
    assert _embedding(table, images) == (True, True, True)
    assert multiplicative_by_compose(table, images)
    # one image loses its pair at 0
    lost = PartialBijection(images[1].carrier, images[1].pairs[1:])
    mutated = images[:1] + (lost,) + images[2:]
    assert _embedding(table, mutated)[:2] == (True, False)
    assert not multiplicative_by_compose(table, mutated)


def involution(carrier):
    """The swap of 2i and 2i+1 for each such pair in the carrier."""
    return PartialBijection(
        carrier, tuple((x, x ^ 1 if x ^ 1 < carrier.size else x) for x in range(carrier.size))
    )


def rotation(carrier):
    return PartialBijection(carrier, tuple((x, (x + 1) % carrier.size) for x in range(carrier.size)))


@pytest.mark.parametrize("width", WIDTHS)
def test_modeloid_composition_against_the_pair_scan(width):
    # the rows are over the points the members touch and "undefined"
    carrier = Carrier(width - 1)
    closed = Modeloid.from_members(carrier, [identity_map(carrier), involution(carrier)])
    verdict = verify_modeloid(closed)
    assert verdict.axiom == "restriction"
    assert verdict == check_modeloid_by_pairs(closed)
    # the involution replaced by a rotation, whose square is missing
    broken = Modeloid.from_members(carrier, [identity_map(carrier), rotation(carrier)])
    verdict = verify_modeloid(broken)
    assert verdict.axiom == "composition"
    assert verdict == check_modeloid_by_pairs(broken)


def test_modeloid_rows_skip_the_points_no_member_touches():
    # a billion-point carrier: one row per member over the one point touched
    carrier = Carrier(10**9)
    M = Modeloid.from_members(
        carrier, [PartialBijection(carrier, ()), PartialBijection(carrier, ((7, 7),))]
    )
    assert verify_modeloid(M).axiom == "identity"
