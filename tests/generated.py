"""Hypothesis strategies for small structures: vocabularies of up to two
constants and two relations of arity 1 to 3, universes of up to three
elements unless a larger bound is passed.  In about half of the pairs B
agrees with A on the constants, so that the constants-only map is a
partial isomorphism and the pair reaches the derivative.  Those pairs
rarely hold a binary relation on three or more elements, so directed
graphs on 3 to 5 vertices, with any set of edges and loops, have a
strategy of their own, and so do pairs with a ternary relation."""

from hypothesis import strategies as st

from modeloids.structures import Structure, Vocabulary


def tuples_over(size, arity):
    return st.sets(st.tuples(*([st.sampled_from(range(size))] * arity)), max_size=4)


@st.composite
def structures_over(draw, vocabulary, name, max_universe=3):
    size = draw(st.integers(min_value=1, max_value=max_universe))
    relations = {
        rel_name: draw(tuples_over(size, arity)) for rel_name, arity in vocabulary.relations
    }
    constants = {
        c: draw(st.integers(min_value=0, max_value=size - 1))
        for c in vocabulary.constants
    }
    return Structure.build(name, size, vocabulary, relations, constants)


@st.composite
def agreeing_on_constants(draw, A, name, max_universe=3):
    """A structure over A's vocabulary whose constants have A's equality
    pattern, and whose relation tuples over its constants are the images
    of A's tuples over A's constants."""
    values = sorted(set(A.constants))
    size = draw(st.integers(min_value=max(1, len(values)), max_value=max_universe))
    image = dict(zip(values, draw(st.permutations(range(size)))))
    targets = set(image.values())
    relations = {}
    for (rel_name, arity), R in zip(A.vocabulary.relations, A.relations):
        drawn = draw(tuples_over(size, arity))
        relations[rel_name] = {t for t in drawn if not set(t) <= targets} | {
            tuple(image[x] for x in t) for t in R if set(t) <= set(values)
        }
    constants = {c: image[x] for c, x in zip(A.vocabulary.constants, A.constants)}
    return Structure.build(name, size, A.vocabulary, relations, constants)


@st.composite
def structure_pairs(draw, max_universe=3):
    arities = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=2))
    vocabulary = Vocabulary(
        relations=tuple((f"R{i}", arity) for i, arity in enumerate(arities)),
        constants=tuple(f"c{i}" for i in range(draw(st.integers(0, 2)))),
    )
    A = draw(structures_over(vocabulary, "A", max_universe))
    if draw(st.booleans()):
        return A, draw(agreeing_on_constants(A, "B", max_universe))
    return A, draw(structures_over(vocabulary, "B", max_universe))


DIGRAPH = Vocabulary(relations=(("E", 2),))


@st.composite
def directed_graphs(draw, name, min_vertices=3, max_vertices=5):
    size = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    vertex = st.sampled_from(range(size))
    edges = draw(st.sets(st.tuples(vertex, vertex), max_size=size * size))
    return Structure.build(name, size, DIGRAPH, {"E": edges})


TERNARY = (Vocabulary(relations=(("E", 2), ("T", 3))), Vocabulary(relations=(("T", 3),)))


@st.composite
def ternary_pairs(draw, min_vertices=3, max_vertices=5):
    """Two structures on 3 to 5 elements with a ternary relation T, with
    or without a binary relation E; in about half of the pairs B is a
    relabelling of A, so that maps grow to the whole universe."""
    vocabulary = draw(st.sampled_from(TERNARY))

    def structure(name):
        size = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
        vertex = st.sampled_from(range(size))
        relations = {"T": draw(st.sets(st.tuples(vertex, vertex, vertex), max_size=2 * size))}
        if len(vocabulary.relations) == 2:
            relations["E"] = draw(st.sets(st.tuples(vertex, vertex), max_size=size))
        return Structure.build(name, size, vocabulary, relations)

    A = structure("A")
    if draw(st.booleans()):
        return A, relabel(A, draw(st.permutations(range(A.universe_size))), "B")
    return A, structure("B")


def relabel(S: Structure, perm, name: str) -> Structure:
    """The copy of S whose element x is called perm[x]."""
    return Structure(
        name,
        S.universe_size,
        S.vocabulary,
        tuple(frozenset(tuple(perm[x] for x in t) for t in R) for R in S.relations),
        tuple(perm[c] for c in S.constants),
    )
