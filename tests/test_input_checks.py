"""The input checks of the public API that the other tests leave
unexercised: each is triggered once, with its exception type and its
exact message."""

import re

import pytest

from modeloids.categorical import (
    CategoricalModeloid,
    endoset_as_semimodeloid,
    homset_derivative,
    member_idempotent_atoms,
    verify_categorical_modeloid,
)
from modeloids.ef_ambient import derivative_levels
from modeloids.ef_games import (
    BackAndForthCertificate,
    build_category_D,
    extract_certificate,
    homset_levels,
    surviving_maps,
)
from modeloids.errors import BoundExceededError, InputError, ParseError
from modeloids.free_categories import (
    FreeCategory,
    homset,
    is_atom,
    one_object_to_semigroup,
    semigroup_to_one_object_category,
    skolem_inverses,
)
from modeloids.inverse_semigroups import (
    InverseSemigroupTable,
    characterize,
    from_partial_bijections,
)
from modeloids.partial_bijections import Carrier, PartialBijection, enumerate_all
from modeloids.structures import (
    Structure,
    Vocabulary,
    constant_pairs,
    identity_iso,
    pairs_are_partial_iso,
    parse_structures,
)
from modeloids.verdict import Verdict

# the cyclic group of order two as a one-object category: morphisms 0
# (the object) and 1, star 2; no endoset has a zero
Z2 = semigroup_to_one_object_category(InverseSemigroupTable(2, ((0, 1), (1, 0)), (0, 1)))
# the rook monoid on two points as a one-object category: object 2 (the
# identity), zero 0, star 7
ROOK = semigroup_to_one_object_category(from_partial_bijections(enumerate_all(Carrier(2)))[0])
# the monoid {1, a, b} with a and b left zeros, as a one-object category
# without an inverse table: a has the two partners a and b
TWO_PARTNERS = FreeCategory(
    4, 3, (0, 0, 0, 3), (0, 0, 0, 3),
    ((0, 1, 2, 3), (1, 1, 1, 3), (2, 2, 2, 3), (3, 3, 3, 3)),
)

POINTED = Vocabulary((), ("c",))
GRAPHS = Vocabulary((("E", 2),))
A = Structure("A", 2, POINTED, (), (0,))
B = Structure("B", 3, POINTED, (), (1,))
C = Structure("C", 2, GRAPHS, (frozenset(),), ())
D = build_category_D(A, B)

CASES = [
    # categorical
    ("member-out-of-range", lambda: CategoricalModeloid(ROOK, frozenset({8})),
     InputError, "member index out of range"),
    ("ambient-without-zeros", lambda: verify_categorical_modeloid(CategoricalModeloid.everything(Z2)),
     InputError, "the ambient category must have a zero in every endoset"),
    ("member-endoset-without-zero", lambda: member_idempotent_atoms(CategoricalModeloid.everything(Z2), 0),
     InputError, "the member endoset at 0 has no zero"),
    ("homset-derivative-non-object", lambda: homset_derivative(CategoricalModeloid.everything(ROOK), 3, 2),
     InputError, "homset derivative needs object arguments"),
    ("homset-derivative-non-member",
     lambda: homset_derivative(CategoricalModeloid(ROOK, frozenset({0, 1})), 2, 2),
     InputError, "homset derivative needs objects of the modeloid"),
    ("endoset-non-object", lambda: endoset_as_semimodeloid(CategoricalModeloid.everything(ROOK), 3),
     InputError, "morphism 3 is not an object"),
    # free_categories
    ("no-morphisms", lambda: FreeCategory(0, 0, (), (), ()),
     InputError, "a category needs at least the non-existing morphism"),
    ("star-out-of-range", lambda: FreeCategory(1, 1, (0,), (0,), ((0,),)),
     InputError, "star index out of range"),
    ("dom-too-long", lambda: FreeCategory(1, 0, (0, 0), (0,), ((0,),)),
     InputError, "dom table must list one in-range morphism each"),
    ("comp-not-square", lambda: FreeCategory(1, 0, (0,), (0,), ((0, 0),)),
     InputError, "composition table must be square"),
    ("inv-out-of-range", lambda: FreeCategory(1, 0, (0,), (0,), ((0,),), (1,)),
     InputError, "inverse table must list one in-range morphism each"),
    ("two-partners", lambda: skolem_inverses(TWO_PARTNERS),
     InputError, "morphism 1 has 2 inverse partners, expected one"),
    ("homset-non-object", lambda: homset(ROOK, 3, 2),
     InputError, "morphism 3 is not an object"),
    ("atom-non-object", lambda: is_atom(ROOK, 0, 3),
     InputError, "morphism 3 is not an object"),
    ("collapse-without-inv", lambda: one_object_to_semigroup(TWO_PARTNERS),
     InputError, "collapse needs a declared inverse table"),
    # inverse_semigroups
    ("bad-inv", lambda: InverseSemigroupTable(1, ((0,),), (1,)),
     InputError, "inverse table must list one in-range element per element"),
    ("order-0", lambda: InverseSemigroupTable(0, (), ()),
     InputError, "table order must be at least 1"),
    # the left-zero band of order 8: every element has 8 partners, and
    # 8**7 choices pass the cap before any search starts
    ("search-cap", lambda: characterize([[x] * 8 for x in range(8)]),
     BoundExceededError, "inverse-map search space 2097152+ exceeds 1000000"),
    # structures
    ("unknown-constant", lambda: Structure.build("A", 2, POINTED, constants={"d": 0}),
     InputError, "unknown constant d"),
    ("relation-sets", lambda: Structure("A", 2, GRAPHS, (), ()),
     InputError, "one tuple set per vocabulary relation required"),
    ("constants", lambda: Structure("A", 2, POINTED, (), ()),
     InputError, "every constant needs an interpretation"),
    ("compose-mismatch", lambda: identity_iso(A).compose(identity_iso(B)),
     InputError, "composition needs other's right to be self's left"),
    ("constant-pairs-vocabularies", lambda: constant_pairs(A, C),
     InputError, "both structures must share one vocabulary"),
    ("partial-iso-vocabularies", lambda: pairs_are_partial_iso(A, C, ()),
     InputError, "both structures must share one vocabulary"),
    ("universe-size", lambda: parse_structures("structure A\n  universe 2 3\n"),
     ParseError, "line 2, column 3: universe needs exactly a size"),
    # ef_games and ef_ambient
    ("homset-levels-rounds", lambda: homset_levels(D, -1, A, B),
     InputError, "rounds must be non-negative"),
    ("surviving-maps-rounds", lambda: surviving_maps(D, -1, A, B),
     InputError, "rounds must be non-negative"),
    ("extract-rounds", lambda: extract_certificate(A, B, -1),
     InputError, "rounds must be non-negative"),
    ("certificate-rounds", lambda: BackAndForthCertificate(A, B, -1, ()),
     InputError, "rounds must be non-negative"),
    ("derivative-levels-rounds", lambda: derivative_levels(D, -1),
     InputError, "rounds must be non-negative"),
    ("hom-not-a-side", lambda: D.hom(Structure("E", 2, POINTED, (), (1,)), B),
     InputError, "structure is not a side of this category"),
    # partial_bijections
    ("restriction-carriers",
     lambda: PartialBijection(Carrier(1), ()).is_restriction_of(PartialBijection(Carrier(2), ())),
     InputError, "cannot compare maps over different carriers"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_input_check(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is error


def test_describe_when_ok_and_without_witness():
    assert Verdict(True).describe() == "ok"
    assert Verdict(False, "identity").describe() == "violation: identity"
