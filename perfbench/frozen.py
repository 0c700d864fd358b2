"""Expected answers frozen into the benchmark.

They were computed with ``games.Game`` and ``games.derivative_sizes``
(the benchmark's own naive game recursion) and are re-derived by
``selftest.py``.  Nothing here came from running ``modeloids``.
"""

# Pointed directed graphs (size, edges, point) drawn once from
# random.Random(20261017) with games.random_pointed_graph, kept where the
# pair agrees on exactly one round.  Each entry ends with the answers for
# m = 0..4.  A run picks one pair and relabels both sides, which keeps
# every answer.
POOL = [
    ((3, [(0, 1), (2, 0)], 0), (3, [(0, 2), (1, 0), (1, 2)], 0), [True, True, False, False, False]),
    ((4, [(0, 1), (2, 3), (3, 2)], 0), (4, [(0, 3)], 0), [True, True, False, False, False]),
    ((4, [(1, 0), (2, 1), (3, 1), (3, 3)], 2), (4, [(0, 0), (1, 2), (2, 0), (2, 3)], 1), [True, True, False, False, False]),
    ((4, [(0, 0), (0, 3), (3, 3)], 2), (3, [(1, 1)], 2), [True, True, False, False, False]),
    ((4, [(1, 3), (2, 0)], 3), (3, [(0, 1), (1, 0), (1, 2)], 2), [True, True, False, False, False]),
    ((3, [(1, 1), (1, 2), (2, 0)], 1), (4, [(1, 0), (1, 3), (2, 2), (2, 3), (3, 1)], 2), [True, True, False, False, False]),
    ((3, [(0, 0), (0, 2), (1, 1), (1, 2)], 0), (4, [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0), (3, 3)], 3), [True, True, False, False, False]),
    ((3, [(1, 1), (1, 2), (2, 0)], 0), (3, [(1, 0), (2, 2)], 0), [True, True, False, False, False]),
    ((4, [(0, 0), (0, 2), (1, 0), (2, 0), (2, 3), (3, 2), (3, 3)], 2), (4, [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (3, 1), (3, 2)], 0), [True, True, False, False, False]),
    ((3, [(0, 2), (2, 0)], 0), (3, [(0, 1), (0, 2), (1, 0), (2, 0)], 1), [True, True, False, False, False]),
    ((3, [(0, 2), (1, 2)], 0), (3, [(1, 0)], 1), [True, True, False, False, False]),
    ((4, [(0, 2), (1, 0), (2, 1), (2, 3), (3, 1), (3, 2)], 1), (4, [(1, 3), (2, 0), (2, 1), (3, 1), (3, 2)], 2), [True, True, False, False, False]),
]

# Sizes of D^0..D^3 for the category of directed C4 vs P4 (star
# included), and the first level equal to its successor.
C4_P4_DERIVE_SIZES = (213, 106, 78, 78)
C4_P4_DERIVE_STABILIZED = 2
