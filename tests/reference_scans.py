"""The exhaustive scans that the library runs only after a cheaper check
on generators has failed, and the categorical derivative read literally.

The library proves associativity by Light's test and composition closure
by closing the generators of the members; these scans test every triple
or pair in index order, and the tests require the same verdict and the
same first witness from both.  The library takes the categorical
derivative in one cover pass; the reference asks, for each member and
each atom, whether some member above it covers that atom.  The library
checks certificates with the cover step ``reach_above``; the reference
indexes each level by restriction and unions the domains and ranges of
the extensions it lists.  The library closes seed maps to a modeloid by
right products with generators; the reference composes every new map
with every map so far, both ways, and drops single pairs, until nothing
new appears.  The library decides equivalence by the categorical
derivative on all of category D; the reference iterates the back-and-forth
cover step ``reach_above`` on Part(A,B) alone.
"""

from itertools import combinations

from modeloids import verdict as v
from modeloids.modeloid import Modeloid
from modeloids.partial_bijections import identity_map, reach_above
from modeloids.structures import enumerate_partial_isos, pairs_are_partial_iso


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


def closure_by_frontier(seed, carrier):
    """The smallest modeloid containing the seed maps, by a fixpoint loop:
    add the identity, then close under composition, inverse and dropping
    single pairs (single drops generate every restriction)."""
    current = {identity_map(carrier), *seed}
    frontier = set(current)
    while frontier:
        fresh = set()
        for f in frontier:
            fresh.add(f.inverse())
            fresh.update(f.restrict(f.domain() - {a}) for a, _ in f.pairs)
            for g in current:
                fresh.update((f.compose(g), g.compose(f)))
        frontier = fresh - current
        current |= frontier
    return Modeloid(carrier, frozenset(current))


def _member_atoms(M, X):
    """Non-zero idempotents of the member endoset at X with no member
    strictly between them and its zero (none at star)."""
    c = M.ambient
    endos = [m for m in M.members if c.dom[m] == X and c.cod[m] == X]
    zero = next(
        z for z in endos if all(c.compose(z, m) == z == c.compose(m, z) for m in endos)
    )
    return [
        a
        for a in endos
        if a not in (c.star, zero)
        and c.compose(a, a) == a
        and all(e in (a, zero) for e in endos if e in c.below(a))
    ]


def categorical_derivative_by_covers(M) -> frozenset[int]:
    """The members f such that every atom a at dom f lies below h'h, and
    every atom b at cod f below hh', for some member h >= f each."""
    c = M.ambient
    ends = {c.dom[f] for f in M.members} | {c.cod[f] for f in M.members}
    atoms = {X: _member_atoms(M, X) for X in ends}
    kept = set()
    for f in M.members:
        above = [h for h in M.members if f in c.below(h)]
        if all(
            any(a in c.below(c.compose(c.inv[h], h)) for h in above)
            for a in atoms[c.dom[f]]
        ) and all(
            any(b in c.below(c.compose(h, c.inv[h])) for h in above)
            for b in atoms[c.cod[f]]
        ):
            kept.add(f)
    return frozenset(kept)


def verify_certificate_by_extensions(cert) -> v.Verdict:
    """The back-and-forth conditions, each level j indexed from its maps'
    restrictions to the maps of level j that extend them."""
    A, B = cert.left, cert.right
    for j, level in enumerate(cert.levels):
        if not level:
            return v.violated("non-empty", j)
        for f in sorted(level, key=lambda p: p.pairs):
            if f.left != A or f.right != B or not pairs_are_partial_iso(A, B, f.pairs):
                return v.violated("membership", (j, f.pairs))
    for j in range(cert.rounds):
        extensions = {}
        for g in cert.levels[j]:
            for size in range(len(g.pairs) + 1):
                for kept in combinations(g.pairs, size):
                    extensions.setdefault(kept, []).append(g)
        for f in sorted(cert.levels[j + 1], key=lambda p: p.pairs):
            above = extensions.get(f.pairs, ())
            missed = set(range(A.universe_size)).difference(*(g.domain() for g in above))
            if missed:
                return v.violated("forth", (j, min(missed), f.pairs))
            missed = set(range(B.universe_size)).difference(*(g.codomain() for g in above))
            if missed:
                return v.violated("back", (j, min(missed), f.pairs))
    return v.passed()


def reach_above_chain(A, B, m):
    """I_0 = Part(A,B), and I_{j+1} the maps f of I_j whose extensions in
    I_j reach every element of A with their domains and every element of
    B with their ranges: the chain up to I_m, each level in pair form."""
    level = enumerate_partial_isos(A, B)
    levels = [level]
    for _ in range(m):
        reach = reach_above(level)
        level = frozenset(
            f
            for f in level
            if len(reach[f.pairs][0]) == A.universe_size
            and len(reach[f.pairs][1]) == B.universe_size
        )
        levels.append(level)
    return [frozenset(f.pairs for f in level) for level in levels]
