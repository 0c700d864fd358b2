"""Decide how many rounds it takes to tell two digraphs apart.

A directed 3-cycle and a directed 3-path have the same number of
vertices and almost the same edges, yet the path has a dead end the
cycle lacks.  The walkthrough builds the maps from the first digraph to
the second once: the derivative chain reads only those.  The rest of
the category of partial isomorphisms, the maps back and the
endomorphisms of each digraph, is built only on first read, here to
count it.  It asks the derivative for every round count, and each
answer is cross-checked against the game-tree oracle.  A reversed cycle
then shows the equivalent case together with its certificate.
"""

from modeloids.ef_games import (
    build_category_D,
    ef_equiv_derivative,
    ef_equiv_oracle,
    extract_certificate,
    format_certificate,
)
from modeloids.structures import Structure, Vocabulary

GRAPH = Vocabulary(relations=(("E", 2),))

CYCLE = Structure.build("C3", 3, GRAPH, relations={"E": [(0, 1), (1, 2), (2, 0)]})
PATH = Structure.build("P3", 3, GRAPH, relations={"E": [(0, 1), (1, 2)]})
REVERSED = Structure.build("R3", 3, GRAPH, relations={"E": [(1, 0), (2, 1), (0, 2)]})


def compare(A, B, rounds):
    category = build_category_D(A, B)
    print(f"{A.name} vs {B.name}")
    print(
        f"  built: the {len(category.forth)} partial isomorphisms {A.name} -> {B.name},"
        " all that the derivative chain reads"
    )
    print(f"  built on first read: the {len(category.morphisms)} morphisms of the category,")
    print(f"    the maps {A.name} -> {B.name} and back and the endomorphisms of both")
    for m in range(rounds + 1):
        answer, witness = ef_equiv_derivative(A, B, m, category=category)
        oracle = ef_equiv_oracle(A, B, m)
        agreement = "oracle agrees" if answer == oracle else "ORACLE DISAGREES"
        if witness is None:
            shown = "none"
        elif witness.pairs:
            shown = " ".join(f"{a}->{b}" for a, b in witness.pairs)
        else:
            shown = "empty map"
        print(f"  m={m}: equivalent={answer} ({agreement}), largest survivor: {shown}")
    print()


def main():
    compare(CYCLE, PATH, 3)
    print("The path's sink vertex needs two rounds to exploit: one move to")
    print("land on it, one to demand a successor that does not exist.")
    print()

    compare(CYCLE, REVERSED, 3)
    print("Reversing every edge of a 3-cycle gives an isomorphic digraph, so")
    print("the duplicator survives any number of rounds.  The level sets")
    print("below hold the maps that still answer j more rounds; each map in")
    print("a deeper level extends within the previous one to cover any")
    print("vertex on either side.")
    print()
    print(format_certificate(extract_certificate(CYCLE, REVERSED, 2)))


if __name__ == "__main__":
    main()
