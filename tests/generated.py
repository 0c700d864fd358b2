"""Hypothesis strategies for small structures: vocabularies of up to two
constants and two relations of arity 1 to 3, universes of up to three
elements."""

from hypothesis import strategies as st

from modeloids.structures import Structure, Vocabulary


@st.composite
def structures_over(draw, vocabulary, name):
    size = draw(st.integers(min_value=1, max_value=3))
    relations = {}
    for rel_name, arity in vocabulary.relations:
        universe = range(size)
        tuples = draw(
            st.sets(
                st.tuples(*([st.sampled_from(universe)] * arity)), max_size=4
            )
        )
        relations[rel_name] = tuples
    constants = {
        c: draw(st.integers(min_value=0, max_value=size - 1))
        for c in vocabulary.constants
    }
    return Structure.build(name, size, vocabulary, relations, constants)


@st.composite
def structure_pairs(draw):
    arities = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=2))
    vocabulary = Vocabulary(
        relations=tuple((f"R{i}", arity) for i, arity in enumerate(arities)),
        constants=tuple(f"c{i}" for i in range(draw(st.integers(0, 2)))),
    )
    return draw(structures_over(vocabulary, "A")), draw(structures_over(vocabulary, "B"))


def relabel(S: Structure, perm, name: str) -> Structure:
    """The copy of S whose element x is called perm[x]."""
    return Structure(
        name,
        S.universe_size,
        S.vocabulary,
        tuple(frozenset(tuple(perm[x] for x in t) for t in R) for R in S.relations),
        tuple(perm[c] for c in S.constants),
    )
