"""The exhaustive scans that the library runs only after a cheaper check
on generators has failed.

The library proves associativity by Light's test and composition closure
by closing the generators of the members; these scans test every triple
or pair in index order, and the tests require the same verdict and the
same first witness from both.
"""

from itertools import combinations

from modeloids import verdict as v
from modeloids.partial_bijections import identity_map


def cubic_associativity_witness(mul):
    """The first (x, y, z) in index order with (x*y)*z != x*(y*z)."""
    n = len(mul)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    return (x, y, z)
    return None


def check_modeloid_by_pairs(M) -> v.Verdict:
    """The four modeloid axioms with composition checked on every pair."""
    members = sorted(M.members, key=lambda f: f.pairs)
    for f in members:
        for g in members:
            if f.compose(g) not in M.members:
                return v.violated("composition", (f.pairs, g.pairs))
    for f in members:
        if f.inverse() not in M.members:
            return v.violated("inverse", (f.pairs,))
    for f in members:
        dom = sorted(f.domain())
        for k in range(len(dom) + 1):
            for subset in combinations(dom, k):
                if f.restrict(subset) not in M.members:
                    return v.violated("restriction", (f.pairs, subset))
    if identity_map(M.carrier) not in M.members:
        return v.violated("identity", ())
    return v.passed()
