"""The exhaustive scans that the library runs only after a cheaper check
has failed, and the categorical derivative read literally.

The library proves associativity by Light's test and the composition
closure of modeloids, semimodeloids and categorical modeloids by closing
the generators of the members, each generating set picked from the top
of the natural order down; it tests idempotent commutation on the
distinct idempotents x*x' only, and composability row by row against the
morphisms listed per codomain.  These scans test every triple or pair in
index order, and the tests require the same verdict and the same first
witness from both.  The library reads table rows by looking each token
up in a table of the numerals 0..size-1; the reference reads every token
with ``int``, and the tests require the same fields or the same error on
the same line.  The library takes the categorical
derivative in one cover pass; the reference asks, for each member and
each atom, whether some member above it covers that atom.  The library
takes the semimodeloid derivative by the same cover step as the
categorical one, on one object; the reference keeps, per atom and side,
the maps below a member that covers it, on down-sets and atoms read from
the definitions.  The library finds atoms by comparing each down-set
with {x, zero}; the reference asks, for every pair of elements, whether
one lies strictly between the other and zero, with the natural order
read literally.  The library steps the ``ef`` chain, checks certificates
and takes the modeloid derivative from one index per level: each map is
coded once as an integer with one bit per pair, and dropping each set bit
of each member in turn records, for the map one pair short, the sources
and targets of its one-point extensions f ∪ {(a, b)} in the level; a
certificate check skips a level pair it has checked, and reads the
relations only for a member that is no one-pair restriction, keeping the
constant pairs, of a member checked before.  One reference tests the
shape of every member with its own loop, checks every well-shaped
member with ``pairs_are_partial_iso``, builds every such union as a
frozenset of pairs, looks it up among the level's maps read the same way
and checks every level pair, and another indexes each level by
restriction and unions the domains and ranges of the maps above, the
cover condition that the one-point condition refines.
The library closes seed maps to a modeloid by right products with
generators; the reference composes every new map with every map so far,
both ways, and drops single pairs, until nothing new appears.  The library decides equivalence by the categorical
derivative on all of category D; the reference iterates that restriction
cover on Part(A,B) alone.  The library steps a derivative chain lazily and
keeps each distinct level once; the reference steps it eagerly for a
fixed number of rounds and pads the tail.  The library builds each
Wagner-Preston image from its pairs, already sorted and distinct, at
once; the reference hands them to ``PartialBijection.from_pairs``, which
sorts and deduplicates them first.
"""

from itertools import combinations

from modeloids import verdict as v
from modeloids.errors import ParseError
from modeloids.free_categories import objects
from modeloids.modeloid import Modeloid
from modeloids.partial_bijections import Carrier, PartialBijection, identity_map
from modeloids.structures import enumerate_partial_isos, pairs_are_partial_iso


def eager_fixpoint_chain(start, step, rounds):
    """The chain start, step(start), ... of rounds + 1 entries, stepped
    until rounds + 1 entries or a step that leaves the members unchanged,
    whose index is returned (None when no repeat shows up); the tail
    repeats that entry."""
    chain = [start]
    while len(chain) <= rounds:
        nxt = step(chain[-1])
        if nxt.members == chain[-1].members:
            stabilized = len(chain) - 1
            chain.extend([chain[-1]] * (rounds - stabilized))
            return chain, stabilized
        chain.append(nxt)
    return chain, None


def cubic_associativity_witness(mul):
    """The first (x, y, z) in index order with (x*y)*z != x*(y*z)."""
    n = len(mul)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    return (x, y, z)
    return None


def inverse_laws_by_pairs(mul, inv) -> v.Verdict:
    """x*x'*x = x, (x')' = x, then x*x' and y*y' commute for every x, y."""
    n = len(mul)
    for x in range(n):
        if mul[mul[x][inv[x]]][x] != x:
            return v.violated("regularity", (x,))
    for x in range(n):
        if inv[inv[x]] != x:
            return v.violated("involution", (x,))
    for x in range(n):
        for y in range(n):
            e, f = mul[x][inv[x]], mul[y][inv[y]]
            if mul[e][f] != mul[f][e]:
                return v.violated("idempotent-commutation", (x, y))
    return v.passed()


def check_category_by_pairs(c) -> v.Verdict:
    """Composability on every pair (f, g), associativity on every triple,
    then the identity laws."""
    n, star, dom, cod, comp = c.morphism_count, c.star, c.dom, c.cod, c.comp
    for f in range(n):
        for g in range(n):
            should_exist = f != star and g != star and dom[f] == cod[g]
            if (comp[f][g] != star) != should_exist:
                return v.violated("composability", (f, g))
    bad = cubic_associativity_witness(comp)
    if bad is not None:
        return v.violated("associativity", bad)
    for x in range(n):
        if comp[x][dom[x]] != x or comp[cod[x]][x] != x:
            return v.violated("identity-law", (x,))
    return v.passed()


def check_semimodeloid_by_pairs(sm) -> v.Verdict:
    """The semimodeloid axioms of a subset of a verified inverse monoid
    with zero, with composition checked on every pair and s <= x read as
    s = x*e for an idempotent e."""
    mul, inv, n = sm.ambient.mul, sm.ambient.inv, sm.ambient.order
    members = sorted(sm.members)
    for x in members:
        for y in members:
            if mul[x][y] not in sm.members:
                return v.violated("composition", (x, y))
    for x in members:
        if inv[x] not in sm.members:
            return v.violated("inverse", (x,))
    for x in members:
        missing = {mul[x][e] for e in range(n) if mul[e][e] == e} - sm.members
        if missing:
            return v.violated("downward", (min(missing), x))
    neutral = next(
        e for e in range(n) if all(mul[e][x] == x == mul[x][e] for x in range(n))
    )
    if neutral not in sm.members:
        return v.violated("neutral", (neutral,))
    return v.passed()


def check_categorical_modeloid_by_pairs(M) -> v.Verdict:
    """The categorical modeloid axioms, composition checked on every pair."""
    c = M.ambient
    members = sorted(M.members)
    for a in members:
        for b in members:
            if c.compose(a, b) not in M.members:
                return v.violated("composition", (a, b))
    for a in members:
        if c.inv[a] not in M.members:
            return v.violated("inverse", (a,))
    for b in members:
        for a in sorted(c.below(b)):
            if a not in M.members:
                return v.violated("downward", (a, b))
    for X in objects(c):
        if X not in M.members:
            return v.violated("objects", (X,))
    return v.passed()


def int_row_by_int(tokens, line_no, what, numerals):
    """A table row read with ``int`` token by token, ``numerals`` unused,
    and not known to be in range; the first token that is no integer is
    named."""
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise ParseError(f"{what} must be an integer, got {token!r}", line_no) from None
    return tuple(values), False


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


def atoms_by_definition(elements, leq, zero):
    """The x of ``elements`` other than ``zero`` with no y of ``elements``
    strictly between zero and x in the order ``leq``, in their order."""
    elements = list(elements)
    return [
        x
        for x in elements
        if x != zero and not any(y not in (x, zero) and leq(y, x) for y in elements)
    ]


def table_leq(table):
    """s <= x in a table: s = x*e for some idempotent e."""
    mul = table.mul
    idem = [e for e in range(table.order) if mul[e][e] == e]
    return lambda s, x: any(mul[x][e] == s for e in idem)


def category_leq(c):
    """s <= t in a category: s = t after some idempotent of End(dom t)."""
    def leq(s, t):
        endos = [e for e in range(c.morphism_count) if c.dom[e] == c.cod[e] == c.dom[t]]
        return any(c.compose(e, e) == e and c.compose(t, e) == s for e in endos)

    return leq


def semimodeloid_derivative_by_reach(sm) -> frozenset[int]:
    """The members covering every idempotent atom of the ambient monoid on
    the domain side (via x'*x) and on the codomain side (via x*x'): for
    each atom and side, the union of the down-sets of the members that
    cover it, then the members in every such union."""
    table = sm.ambient
    mul, inv, n = table.mul, table.inv, table.order
    idem = [e for e in range(n) if mul[e][e] == e]
    below = [frozenset(mul[x][e] for e in idem) for x in range(n)]
    zero = next(z for z in range(n) if all(mul[z][x] == z == mul[x][z] for x in range(n)))
    targets = [a for a in atoms_by_definition(range(n), table_leq(table), zero) if a in idem]
    members = sorted(sm.members)
    dom_reach: dict[int, set[int]] = {a: set() for a in targets}
    cod_reach: dict[int, set[int]] = {a: set() for a in targets}
    for x in members:
        dom_side = below[mul[inv[x]][x]]
        cod_side = below[mul[x][inv[x]]]
        for a in targets:
            if a in dom_side:
                dom_reach[a] |= below[x]
            if a in cod_side:
                cod_reach[a] |= below[x]
    return frozenset(
        f
        for f in members
        if all(f in dom_reach[a] for a in targets)
        and all(f in cod_reach[a] for a in targets)
    )


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


def _is_map_shaped(f):
    """f is a tuple, and each of its entries a tuple of exactly two ints."""
    if not isinstance(f, tuple):
        return False
    for pair in f:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        if not all(isinstance(x, int) for x in pair):
            return False
    return True


def _levels_are_partial_isos(cert):
    """The non-empty and membership conditions on every level, or None:
    each member is a tuple of pairs of ints (any other shape is reported
    first, the least by ``repr``), its own set of pairs in sorted order,
    and that set is a partial isomorphism from A to B."""
    A, B = cert.left, cert.right
    for j, level in enumerate(cert.levels):
        if not level:
            return v.violated("non-empty", j)
        misshapen = [f for f in level if not _is_map_shaped(f)]
        if misshapen:
            return v.violated("membership", (j, min(misshapen, key=repr)))
        for f in sorted(level):
            if list(f) != sorted(set(f)) or not pairs_are_partial_iso(A, B, f):
                return v.violated("membership", (j, f))
    return None


def least_unextended_by_unions(pairs, maps, sources, targets):
    """The least a < sources such that no f ∪ {(a, b)} with b < targets is
    among ``maps``, and the least b < targets with no such a, each None
    when there is none: every union taken as a frozenset of pairs and
    looked up among the maps read as frozensets."""
    level = {frozenset(g) for g in maps}
    f = frozenset(pairs)
    forth = [a for a in range(sources)
             if not any(f | {(a, b)} in level for b in range(targets))]
    back = [b for b in range(targets)
            if not any(f | {(a, b)} in level for a in range(sources))]
    return min(forth, default=None), min(back, default=None)


def verify_certificate_by_one_point(cert) -> v.Verdict:
    """The back-and-forth conditions read literally: for every f in
    I_{j+1} and every a in A some b in B with f ∪ {(a, b)} in I_j, the
    union taken as a set of pairs, and likewise back for every b in B."""
    A, B = cert.left, cert.right
    failed = _levels_are_partial_isos(cert)
    if failed is not None:
        return failed
    for j in range(cert.rounds):
        for f in sorted(cert.levels[j + 1]):
            a, b = least_unextended_by_unions(f, cert.levels[j], A.universe_size, B.universe_size)
            if a is not None:
                return v.violated("forth", (j, a, f))
            if b is not None:
                return v.violated("back", (j, b, f))
    return v.passed()


def reach_by_restrictions(maps):
    """For every restriction r of one of the maps (in sorted pair form),
    keyed by r, the union of the domains and the union of the ranges of
    the maps above r."""
    reach = {}
    for pairs in maps:
        for size in range(len(pairs) + 1):
            for kept in combinations(pairs, size):
                domains, ranges = reach.setdefault(kept, (set(), set()))
                domains.update(a for a, _ in pairs)
                ranges.update(b for _, b in pairs)
    return reach


def verify_certificate_by_extensions(cert) -> v.Verdict:
    """The cover conditions: each f in I_{j+1} needs maps of I_j above it
    whose domains reach every element of A and whose ranges reach every
    element of B.  Looser than the one-point conditions on levels that
    are not closed under restriction, and equal to them on closed ones."""
    A, B = cert.left, cert.right
    failed = _levels_are_partial_isos(cert)
    if failed is not None:
        return failed
    for j in range(cert.rounds):
        reach = reach_by_restrictions(cert.levels[j])
        for f in sorted(cert.levels[j + 1]):
            sources, targets = reach.get(f, ((), ()))
            missed = set(range(A.universe_size)).difference(sources)
            if missed:
                return v.violated("forth", (j, min(missed), f))
            missed = set(range(B.universe_size)).difference(targets)
            if missed:
                return v.violated("back", (j, min(missed), f))
    return v.passed()


def derivative_by_restrictions(M):
    """The members f of a modeloid whose members above reach every
    carrier element with their domains and with their ranges."""
    n = M.carrier.size
    reach = reach_by_restrictions(f.pairs for f in M.members)
    return frozenset(
        f for f in M.members if all(len(side) == n for side in reach[f.pairs])
    )


def reach_above_chain(A, B, m):
    """I_0 = Part(A,B), and I_{j+1} the maps f of I_j whose extensions in
    I_j reach every element of A with their domains and every element of
    B with their ranges: the chain up to I_m, each level in pair form."""
    level = frozenset(f.pairs for f in enumerate_partial_isos(A, B))
    levels = [level]
    for _ in range(m):
        reach = reach_by_restrictions(level)
        level = frozenset(
            f
            for f in level
            if len(reach[f][0]) == A.universe_size and len(reach[f][1]) == B.universe_size
        )
        levels.append(level)
    return levels


def wagner_preston_by_from_pairs(table):
    """Element a of a verified table as x -> a*x on the fixed points of
    a'*a, each map built by ``from_pairs``."""
    carrier, mul = Carrier(table.order), table.mul
    images = []
    for a in range(table.order):
        e = mul[table.inv[a]][a]
        domain = [x for x in range(table.order) if mul[e][x] == x]
        images.append(PartialBijection.from_pairs(carrier, ((x, mul[a][x]) for x in domain)))
    return tuple(images)
