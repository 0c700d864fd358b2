"""Partial bijections, modeloids, inverse semigroups and categories,
and Ehrenfeucht-Fraissé equivalence of finite relational structures.

The layers build on each other: partial bijections carry modeloids;
Cayley tables carry inverse semigroups and semimodeloids; free-logic
morphism tables carry inverse categories and categorical modeloids;
the partial-isomorphism category of a structure pair turns the
categorical derivative into a decision procedure for m-round
equivalence, cross-checked by an independent game-tree oracle.

The names below resolve on first read (PEP 562): ``import modeloids``
loads no layer, and reading a name loads the submodule it comes from
and what that submodule imports.  Without cached byte code every start
compiles each module it loads, so a caller pays only for the layers it
reads.
"""

from .derived import lazy as _lazy

# Each public name by its submodule; a submodule's own name is the module.
_EXPORTS = {
    "categorical": (
        "categorical", "CategoricalModeloid", "categorical_derivative",
        "endoset_as_semimodeloid", "homset_derivative", "iterate_categorical",
        "member_idempotent_atoms", "verify_categorical_modeloid",
    ),
    "derived": ("derived",),
    "ef_games": (
        "ef_games", "BackAndForthCertificate", "CategoryD", "build_category_D",
        "derivative_levels", "ef_equiv_derivative", "ef_equiv_oracle",
        "extract_certificate", "format_certificate", "homset_levels", "surviving_maps",
        "verify_certificate",
    ),
    "errors": ("errors", "BoundExceededError", "InputError", "ParseError"),
    "fileformats": (
        "fileformats", "format_categorical_modeloid_file", "format_category_file",
        "format_modeloid_file", "format_semigroup_file", "format_semimodeloid_file",
        "parse_categorical_modeloid_file", "parse_category_file", "parse_modeloid_file",
        "parse_semigroup_file", "parse_semimodeloid_file",
    ),
    "free_categories": (
        "free_categories", "FreeCategory", "below", "endoset", "has_all_zeros",
        "homset", "is_atom", "is_object", "kleene_eq", "objects",
        "one_object_to_semigroup", "semigroup_to_one_object_category",
        "skolem_inverses", "verify_category", "verify_inverse_category_equational",
        "verify_inverse_category_unique", "zero_of_endoset",
    ),
    "inverse_semigroups": (
        "inverse_semigroups", "CharacterizationReport", "InverseSemigroupTable",
        "Semimodeloid", "atoms", "characterize", "find_neutral", "find_zero",
        "from_partial_bijections", "idempotent_atoms", "idempotents", "inverses_of",
        "natural_leq", "resolve_inverses", "semimodeloid_derivative",
        "verify_inverse_semigroup", "verify_semimodeloid", "wagner_preston",
    ),
    "modeloid": (
        "modeloid", "Modeloid", "derivative", "full_modeloid", "iterate_derivative",
        "modeloid_closure", "verify_modeloid",
    ),
    "partial_bijections": (
        "partial_bijections", "Carrier", "PartialBijection", "empty_map",
        "enumerate_all", "identity_map", "partial_identity",
    ),
    "structures": (
        "structures", "PartialIso", "Structure", "Vocabulary", "constant_pairs",
        "constants_only_iso", "enumerate_partial_isos", "format_structures",
        "identity_iso", "is_partial_iso", "pairs_are_partial_iso", "parse_structures",
    ),
    "verdict": ("verdict", "Verdict"),
}

__getattr__ = _lazy(globals(), _EXPORTS)
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __dir__():
    return sorted(set(globals()) | set(__all__))
