"""End-to-end acceptance checks.

Each test prints one ACCEPTANCE line with a PASS/FAIL verdict straight to
the terminal (bypassing capture) before asserting, so a plain pytest run
shows the fifteen verdicts at a glance.
"""

import itertools
import random
import subprocess
import sys
import time
from unittest import mock

import pytest
from dense_ambient import dense_table
from reference_scans import wagner_preston_by_from_pairs

from modeloids.categorical import (
    CategoricalModeloid,
    _check_categorical_modeloid,
    endoset_as_semimodeloid,
    iterate_categorical,
)
from modeloids import ef_games
from modeloids.derived import fixpoint_chain
from modeloids.ef_games import (
    BackAndForthCertificate,
    build_category_D,
    ef_equiv_derivative,
    ef_equiv_oracle,
    extract_certificate,
    verify_certificate,
)
from modeloids.free_categories import (
    FreeCategory,
    objects,
    one_object_to_semigroup,
    semigroup_to_one_object_category,
    verify_inverse_category_equational,
    verify_inverse_category_unique,
)
from modeloids.inverse_semigroups import (
    InverseSemigroupTable,
    Semimodeloid,
    characterize,
    find_neutral,
    from_partial_bijections,
    natural_leq,
    semimodeloid_derivative,
    table_from_rows,
    verify_inverse_semigroup,
    verify_semimodeloid,
    wagner_preston,
)
from modeloids.errors import InputError
from modeloids.modeloid import derivative, iterate_derivative, modeloid_closure, verify_modeloid
from modeloids.partial_bijections import Carrier, PartialBijection, enumerate_all, identity_map
from modeloids.structures import Structure, Vocabulary

POINTED_GRAPH = Vocabulary(relations=(("E", 2),), constants=("c",))
PURE = Vocabulary()
ORDER = Vocabulary(relations=(("L", 2),))


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, detail):
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"criterion {number}: {detail}"

    return _announce


def random_pointed_structure(rng, name, max_size=4):
    n = rng.randint(1, max_size)
    edges = [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.5]
    return Structure.build(
        name, n, POINTED_GRAPH,
        relations={"E": edges},
        constants={"c": rng.randrange(n)},
    )


def pure_structure(name, n):
    return Structure.build(name, n, PURE)


def random_maps(rng, carrier, count):
    maps = []
    for _ in range(count):
        size = rng.randint(0, carrier.size)
        sources = rng.sample(range(carrier.size), size)
        targets = rng.sample(range(carrier.size), size)
        maps.append(PartialBijection.from_pairs(carrier, zip(sources, targets)))
    return maps


def random_modeloid(rng, n):
    carrier = Carrier(n)
    return modeloid_closure(random_maps(rng, carrier, rng.randint(1, 3)), carrier)


def compose_inverse_closure(seed):
    closed = set(seed)
    while True:
        fresh = set()
        for f in closed:
            if f.inverse() not in closed:
                fresh.add(f.inverse())
            for g in closed:
                if f.compose(g) not in closed:
                    fresh.add(f.compose(g))
        if not fresh:
            return closed
        closed |= fresh


def symmetric_inverse_table(n):
    return from_partial_bijections(enumerate_all(Carrier(n)))


def permutation_group_table(n):
    carrier = Carrier(n)
    maps = [
        PartialBijection.from_pairs(carrier, enumerate(perm))
        for perm in itertools.permutations(range(n))
    ]
    return from_partial_bijections(maps)[0]


CHAIN = InverseSemigroupTable.from_rows(
    [[max(i, j) for j in range(3)] for i in range(3)],
    [0, 1, 2],
    neutral=0,
    zero=2,
)
Z2 = InverseSemigroupTable.from_rows([[0, 1], [1, 0]], [0, 1], neutral=0)
DISCRETE = FreeCategory(
    3, 2, (0, 1, 2), (0, 1, 2), ((0, 2, 2), (2, 1, 2), (2, 2, 2)), (0, 1, 2)
)


def corpus_tables():
    tables = [symmetric_inverse_table(n)[0] for n in (1, 2, 3)]
    tables += [CHAIN, Z2, permutation_group_table(3)]
    rng = random.Random(56)
    _, f3_elems = symmetric_inverse_table(3)
    for _ in range(20):
        closed = compose_inverse_closure(rng.sample(f3_elems, rng.randint(1, 2)))
        tables.append(from_partial_bijections(closed)[0])
    return tables


def test_01_derivative_matches_game_oracle_on_random_pairs(announce):
    rng = random.Random(20260823)
    start = time.monotonic()
    disagreements = 0
    comparisons = 0
    for _ in range(100):
        A = random_pointed_structure(rng, "A")
        B = random_pointed_structure(rng, "B")
        category = build_category_D(A, B)
        for m in range(4):
            by_derivative, _ = ef_equiv_derivative(A, B, m, category=category)
            if by_derivative != ef_equiv_oracle(A, B, m):
                disagreements += 1
            comparisons += 1
    elapsed = time.monotonic() - start
    announce(
        1,
        disagreements == 0 and elapsed < 300.0,
        f"{comparisons} comparisons, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_02_pure_set_equivalence_law(announce):
    mismatches = 0
    for p in range(1, 5):
        for q in range(1, 5):
            A, B = pure_structure("P", p), pure_structure("Q", q)
            category = build_category_D(A, B)
            for m in range(5):
                law = p == q or min(p, q) >= m
                by_derivative, _ = ef_equiv_derivative(A, B, m, category=category)
                if ef_equiv_oracle(A, B, m) != law or by_derivative != law:
                    mismatches += 1
    announce(
        2,
        mismatches == 0,
        f"p,q <= 4 and m <= 4 against the min(p,q) law, {mismatches} mismatches",
    )


def test_03_derivative_shrinks_and_preserves_axioms(announce):
    rng = random.Random(3)
    passed = 0
    for _ in range(100):
        M = random_modeloid(rng, rng.randint(1, 4))
        D = derivative(M)
        if D.members <= M.members and verify_modeloid(D).ok:
            passed += 1
    announce(3, passed == 100, f"{passed}/100 seeded modeloids")


def test_04_table_transport_of_the_derivative(announce):
    rng = random.Random(4)
    agreed = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        M = random_modeloid(rng, n)
        table, elems = symmetric_inverse_table(n)
        index = {f: i for i, f in enumerate(elems)}
        sm = Semimodeloid(table, frozenset(index[f] for f in M.members))
        transported = frozenset(
            elems[i] for i in semimodeloid_derivative(sm).members
        )
        if transported == derivative(M).members:
            agreed += 1
    announce(4, agreed == 50, f"{agreed}/50 map-level vs table-level derivatives")


def test_05_three_characterizations_agree(announce):
    positives = corpus_tables()
    all_good = all(
        characterize(t.mul).as_tuple() == (True, True, True) for t in positives
    )

    negatives = [
        [[0, 0], [1, 1]],                        # left-zero band
        [[0, 1], [0, 1]],                        # right-zero band
        [[0, 1, 2], [1, 2, 2], [2, 2, 2]],       # monoid with a non-regular element
        [[0, 1, 0, 1], [0, 1, 0, 1], [2, 3, 2, 3], [2, 3, 2, 3]],  # rectangular band
        [[0, 1], [0, 0]],                        # not associative at all
    ]
    rejected = 0
    for rows in negatives:
        try:
            if characterize(rows).as_tuple() == (False, False, False):
                rejected += 1
        except InputError:
            rejected += 1  # flagged non-associative, equally decisive

    # every table of order 1-3: the three presentations agree on each
    # associative one, and each other one is refused as input; a table
    # that breaks either is counted as split
    start = time.monotonic()
    tables = associative = inverse = 0
    split = []
    for n in (1, 2, 3):
        for cells in itertools.product(range(n), repeat=n * n):
            rows = [cells[i * n:(i + 1) * n] for i in range(n)]
            tables += 1
            associates = all(
                rows[rows[x][y]][z] == rows[x][rows[y][z]]
                for x, y, z in itertools.product(range(n), repeat=3)
            )
            try:
                report = characterize(rows).as_tuple()
            except InputError:
                report = None  # refused as not associative
            associative += report is not None
            inverse += report == (True, True, True)
            if (report is not None) != associates or report and len(set(report)) != 1:
                split.append(rows)
    announce(
        5,
        all_good and rejected == len(negatives) and not split
        and (tables, associative, inverse) == (19700, 122, 29),
        f"{len(positives)} positives three-way true, {rejected}/5 negatives rejected; "
        f"{tables} tables of order 1-3, {associative} associative, {inverse} inverse "
        f"semigroups, {len(split)} split, first {split[0] if split else 'none'}, "
        f"{time.monotonic() - start:.2f}s",
    )


def wagner_preston_embeds(t):
    """``wagner_preston`` is injective, multiplicative and order-faithful on t."""
    omegas = wagner_preston(t)
    injective = len(set(omegas)) == t.order
    multiplicative = all(
        omegas[t.mul[a][b]] == omegas[a].compose(omegas[b])
        for a in range(t.order)
        for b in range(t.order)
    )
    faithful = all(
        natural_leq(t, a, b) == omegas[a].is_restriction_of(omegas[b])
        for a in range(t.order)
        for b in range(t.order)
    )
    return injective and multiplicative and faithful


def test_06_partial_bijection_representation_embeds(announce):
    failures = []
    checked = 0
    for t in corpus_tables():
        if t.order > 40 or not verify_inverse_semigroup(t).ok:
            continue
        checked += 1
        if not wagner_preston_embeds(t):
            failures.append(t.order)
    announce(
        6,
        checked > 0 and not failures,
        f"{checked} tables embedded, failures {failures or 'none'}",
    )


def test_07_derivative_chain_stays_categorical(announce):
    rng = random.Random(7)
    bad = 0
    for _ in range(20):
        A = random_pointed_structure(rng, "A", max_size=3)
        B = random_pointed_structure(rng, "B", max_size=3)
        D = build_category_D(A, B)
        M = CategoricalModeloid.everything(D.ambient)
        chain, stabilized = iterate_categorical(M, len(M.members))
        if stabilized is None or stabilized > len(M.members):
            bad += 1
            continue
        # checked afresh: a derived level carries its input's verdict
        if not all(
            _check_categorical_modeloid(step).ok
            for step in chain[: stabilized + 1]
        ):
            bad += 1
    announce(7, bad == 0, f"20 seeded pairs iterated to stabilization, {bad} bad")


def test_08_unique_and_equational_inverse_checks_agree(announce):
    corpus = [
        semigroup_to_one_object_category(t)
        for t in (CHAIN, Z2, symmetric_inverse_table(2)[0])
    ]
    corpus.append(DISCRETE)
    corpus.append(
        dense_table(
            build_category_D(pure_structure("P", 2), pure_structure("Q", 3)).ambient
        )
    )

    disagreements = 0
    for c in corpus:
        if verify_inverse_category_unique(c).ok != verify_inverse_category_equational(c).ok:
            disagreements += 1

    rng = random.Random(8)
    for _ in range(50):
        base = rng.choice(corpus)
        f = rng.randrange(base.morphism_count)
        g = rng.randrange(base.morphism_count)
        new = rng.choice(
            [x for x in range(base.morphism_count) if x != base.comp[f][g]]
        )
        comp = tuple(
            tuple(new if (i, j) == (f, g) else base.comp[i][j]
                  for j in range(base.morphism_count))
            for i in range(base.morphism_count)
        )
        mutated = FreeCategory(
            base.morphism_count, base.star, base.dom, base.cod, comp, base.inv
        )
        if verify_inverse_category_unique(mutated).ok != verify_inverse_category_equational(mutated).ok:
            disagreements += 1
    announce(
        8,
        disagreements == 0,
        f"corpus plus 50 mutations, {disagreements} disagreements",
    )


def test_09_collapses_round_trip(announce):
    table_failures = 0
    # the one-object view hangs the identity morphism on the neutral
    # element, so only monoids collapse
    tables = [t for t in corpus_tables() if find_neutral(t) is not None]
    for t in tables:
        collapsed = one_object_to_semigroup(semigroup_to_one_object_category(t))
        if not verify_inverse_semigroup(collapsed).ok:
            table_failures += 1

    endoset_failures = 0
    rng = random.Random(9)
    pairs = [
        (pure_structure("P", 2), pure_structure("Q", 2)),
        (pure_structure("P", 1), pure_structure("Q", 3)),
        (random_pointed_structure(rng, "A", 3), random_pointed_structure(rng, "B", 3)),
    ]
    endosets = 0
    for A, B in pairs:
        D = build_category_D(A, B)
        M = CategoricalModeloid.everything(D.ambient)
        for X in objects(D.ambient):
            sm, _ = endoset_as_semimodeloid(M, X)
            endosets += 1
            if not verify_semimodeloid(sm).ok:
                endoset_failures += 1
    announce(
        9,
        table_failures == 0 and endoset_failures == 0,
        f"{len(tables)} one-object collapses, {endosets} endoset semimodeloids",
    )


def test_10_certificates_sound_and_mutations_rejected(announce):
    rng = random.Random(10)
    instances = [
        (pure_structure("P", 2), pure_structure("Q", 2), 2),
        (pure_structure("P", 3), pure_structure("Q", 3), 3),
        (pure_structure("P", 2), pure_structure("Q", 3), 2),
        (pure_structure("P", 1), pure_structure("Q", 1), 1),
    ]
    A = random_pointed_structure(rng, "A", 3)
    instances.append((A, A, 2))

    certificates = []
    sound = True
    for left, right, m in instances:
        cert = extract_certificate(left, right, m)
        if cert is None or not verify_certificate(cert).ok:
            sound = False
            continue
        certificates.append(cert)

    rejected = []
    for cert in certificates:
        for j in range(cert.rounds):
            for victim in sorted(cert.levels[j]):
                if len(rejected) == 20:
                    break
                trimmed = (
                    cert.levels[:j]
                    + (cert.levels[j] - {victim},)
                    + cert.levels[j + 1:]
                )
                if not trimmed[j]:
                    continue
                mutated = BackAndForthCertificate(
                    cert.left, cert.right, cert.rounds, trimmed
                )
                verdict = verify_certificate(mutated)
                if (
                    not verdict.ok
                    and verdict.axiom in ("forth", "back")
                    and verdict.witness is not None
                ):
                    rejected.append(verdict.axiom)
    announce(
        10,
        sound and len(rejected) == 20,
        f"{len(certificates)} certificates verified, "
        f"{len(rejected)}/20 pivotal deletions rejected",
    )


def test_11_machine_output_reproducible(announce, tmp_path):
    f = tmp_path / "sets.txt"
    f.write_text(
        "structure P2\n  universe 2\n\nstructure P3\n  universe 3\n",
        encoding="utf-8",
    )
    cmd = [
        sys.executable, "-m", "modeloids.cli",
        "ef", str(f), "--left", "P2", "--right", "P3",
        "--rounds", "2", "--format", "machine",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    identical = (
        first.returncode == second.returncode and first.stdout == second.stdout
    )
    announce(
        11,
        identical and first.returncode == 0 and first.stdout != b"",
        "two runs of the ef subcommand are byte-identical",
    )


def rook_slice(n):
    """Every inverse subsemigroup of R_n generated by one or two maps,
    each closed naively under composition and inverse."""
    maps = sorted(enumerate_all(Carrier(n)), key=lambda f: f.pairs)
    seeds = itertools.chain(
        itertools.combinations(maps, 1), itertools.combinations(maps, 2)
    )
    return {frozenset(compose_inverse_closure(seed)) for seed in seeds}


def meet_semilattices(max_order):
    """Every meet-semilattice on 1 .. max_order elements up to isomorphism,
    as the rows of its meet table.  Each is found as a naturally labelled
    poset (i <= j only when i < j) that is transitive and gives every pair
    a meet, and is kept once per class as its least table over all
    relabellings."""
    found = set()
    for n in range(1, max_order + 1):
        pairs = list(itertools.combinations(range(n), 2))
        relabellings = list(itertools.permutations(range(n)))
        for mask in range(1 << len(pairs)):
            leq = {(i, i) for i in range(n)}
            leq |= {p for k, p in enumerate(pairs) if mask >> k & 1}
            if any((i, k) not in leq for i, j in leq for j2, k in leq if j == j2):
                continue
            rows = []
            for x in range(n):
                row = []
                for y in range(n):
                    lower = [z for z in range(n) if (z, x) in leq and (z, y) in leq]
                    row += [z for z in lower if all((w, z) in leq for w in lower)]
                rows.append(row)
            if any(len(row) != n for row in rows):
                continue  # some pair has no meet
            found.add(min(
                tuple(
                    tuple(sigma[rows[x][y]] for y in sorted(range(n), key=sigma.__getitem__))
                    for x in sorted(range(n), key=sigma.__getitem__)
                )
                for sigma in relabellings
            ))
    return sorted(found, key=lambda rows: (len(rows), rows))


def with_identity(rows):
    """The rows of S^1: S with one more element acting as the identity."""
    n = len(rows)
    return tuple(tuple(row) + (x,) for x, row in enumerate(rows)) + (tuple(range(n + 1)),)


def through_every_layer(t, monoid):
    """The names of the checks (a)-(d) that fail on t; (c) and (d) read
    ``monoid``, which is t itself or, when t has no identity, S^1."""
    category = semigroup_to_one_object_category(monoid)
    collapsed = one_object_to_semigroup(category)
    checks = {
        "characterize": characterize(t.mul).as_tuple() == (True, True, True),
        "wagner_preston": wagner_preston_embeds(t),
        "wagner_preston from_pairs": wagner_preston(t) == wagner_preston_by_from_pairs(t),
        "round trip": (collapsed.mul, collapsed.inv) == (monoid.mul, monoid.inv),
        "inverse checks agree": verify_inverse_category_unique(category).ok
        == verify_inverse_category_equational(category).ok,
    }
    return [name for name, ok in checks.items() if not ok]


def test_12_every_small_rook_subsemigroup_through_every_layer(announce):
    # (a) three characterizations, (b) Wagner-Preston, its images also
    # against the from_pairs construction of the reference, (c) the one-object
    # round trip and (d) the two inverse-category verifiers, on every case;
    # (c) and (d) need an identity, so a semigroup without one runs them
    # on S with an identity adjoined (S^1, again an inverse semigroup)
    start = time.monotonic()
    identity = identity_map(Carrier(3))
    cases = sorted(rook_slice(3), key=lambda S: (len(S), sorted(f.pairs for f in S)))
    failures, monoids = [], 0
    for S in cases:
        t, _ = from_partial_bijections(S)
        if find_neutral(t) is not None:
            monoids += 1
            monoid = t
        else:
            monoid, _ = from_partial_bijections(S | {identity})
        failed = through_every_layer(t, monoid)
        if failed:
            failures.append(("rook", t.order, failed))
    # every meet-semilattice on at most five elements, N5 and M3 among
    # them: x*y is the meet and x' = x; one without a top runs (c) and (d)
    # on S^1, the top adjoined
    semilattices, topped = meet_semilattices(5), 0
    for rows in semilattices:
        t = table_from_rows(rows, range(len(rows)))
        if t.neutral is not None:
            topped += 1
            monoid = t
        else:
            monoid = table_from_rows(with_identity(rows), range(len(rows) + 1))
        failed = through_every_layer(t, monoid)
        if failed:
            failures.append(("semilattice", rows, failed))
    elapsed = time.monotonic() - start
    announce(
        12,
        not failures and [len(rows) for rows in semilattices] == [1, 2, 3, 3] + [4] * 5 + [5] * 15,
        f"{len(cases)} subsemigroups of R3 from one or two maps, {monoids} monoids and "
        f"{len(cases) - monoids} through S^1; {len(semilattices)} meet-semilattices on "
        f"1-5 elements, {topped} monoids and {len(semilattices) - topped} through S^1; "
        f"smallest failure {failures[0] if failures else 'none'}, {elapsed:.1f}s",
    )


def test_13_modeloid_chains_agree_in_every_layer(announce):
    # (e) every modeloid on carrier 3 that is the closure of one or two
    # maps of R3: its modeloid, semimodeloid (ambient R3) and one-object
    # categorical (ambient R3 with star) chains, as index sets of R3, are
    # equal level by level through stabilization
    start = time.monotonic()
    carrier, rounds = Carrier(3), 6
    table, elements = from_partial_bijections(enumerate_all(carrier))
    index = {f: i for i, f in enumerate(elements)}
    category = semigroup_to_one_object_category(table)
    star = category.star
    maps = sorted(elements, key=lambda f: f.pairs)
    seeds = itertools.chain(
        itertools.combinations(maps, 1), itertools.combinations(maps, 2)
    )
    cases = {modeloid_closure(seed, carrier) for seed in seeds}
    disagreements = []
    for M in sorted(cases, key=lambda M: (len(M.members), sorted(f.pairs for f in M.members))):
        members = frozenset(index[f] for f in M.members)
        modeloids, k_modeloid = iterate_derivative(M, rounds)
        semimodeloids, k_semimodeloid = fixpoint_chain(
            Semimodeloid(table, members), semimodeloid_derivative, rounds
        )
        categoricals, k_categorical = iterate_categorical(
            CategoricalModeloid(category, members | {star}), rounds
        )
        chains = (
            [frozenset(index[f] for f in level.members) for level in modeloids],
            [level.members for level in semimodeloids],
            [level.members - {star} for level in categoricals],
        )
        stabilized = (k_modeloid, k_semimodeloid, k_categorical)
        if not (chains[0] == chains[1] == chains[2] and len(set(stabilized)) == 1):
            disagreements.append((len(M.members), sorted(f.pairs for f in M.members)))
    elapsed = time.monotonic() - start
    announce(
        13,
        not disagreements and len(cases) == 51,
        f"{len(cases)} modeloids on carrier 3 from one or two maps, modeloid, semimodeloid "
        f"and categorical chains over {rounds} rounds, {len(disagreements)} disagreements, "
        f"smallest {disagreements[0] if disagreements else 'none'}, {elapsed:.1f}s",
    )


def linear_order(name, n):
    return Structure.build(
        name, n, ORDER, {"L": [(i, j) for i in range(n) for j in range(i + 1, n)]}
    )


def test_14_linear_orders_against_the_closed_form(announce):
    # L_a and L_b agree on m rounds iff a = b or a, b >= 2^m - 1 (Libkin,
    # Elements of Finite Model Theory, 2004, Thm 3.6): an answer that no
    # route of the program computes
    start = time.monotonic()
    disagreements = []
    cases = 0
    for a, b in itertools.combinations_with_replacement(range(1, 9), 2):
        A, B = linear_order("A", a), linear_order("B", b)
        category = build_category_D(A, B, max_universe=8)
        for m in range(5):
            law = a == b or min(a, b) >= 2**m - 1
            by_derivative, _ = ef_equiv_derivative(A, B, m, category=category)
            if not (by_derivative == ef_equiv_oracle(A, B, m, max_universe=8) == law):
                disagreements.append((a, b, m))
            cases += 1
    elapsed = time.monotonic() - start
    announce(
        14,
        not disagreements and cases == 180,
        f"{cases} cases L_a vs L_b, 1 <= a <= b <= 8, m <= 4, against a = b or "
        f"a, b >= 2^m - 1, {len(disagreements)} disagreements, "
        f"smallest {disagreements[0] if disagreements else 'none'}, {elapsed:.1f}s",
    )


DIGRAPH = Vocabulary(relations=(("E", 2),))


def digraph_classes(n):
    """One directed graph (loops allowed) on n vertices per isomorphism
    class, the least edge list of the class under relabelling."""
    grid = list(itertools.product(range(n), repeat=2))
    classes = set()
    for k in range(len(grid) + 1):
        for edges in itertools.combinations(grid, k):
            classes.add(min(
                tuple(sorted((perm[a], perm[b]) for a, b in edges))
                for perm in itertools.permutations(range(n))
            ))
    return sorted(classes, key=lambda edges: (len(edges), edges))


def test_15_every_small_digraph_through_both_routes(announce):
    # every ordered pair of digraph classes on 1-3 vertices at every
    # m <= the larger size + 1: the derivative equals the oracle; at equal
    # sizes n and m = n Spoiler can pick all of A, so the answer holds
    # exactly on the diagonal; every equivalent case's certificate is
    # checked in increasing m per pair, each verdict a fresh check's
    start = time.monotonic()
    graphs = [(n, edges) for n in (1, 2, 3) for edges in digraph_classes(n)]
    sides = [
        [Structure.build(name, n, DIGRAPH, {"E": edges}) for n, edges in graphs]
        for name in "AB"
    ]
    disagreements, cases, equivalent = [], 0, 0
    for (i, A), (j, B) in itertools.product(*map(enumerate, sides)):
        a, b = A.universe_size, B.universe_size
        for m in range(max(a, b) + 2):
            cases += 1
            by_derivative, _ = ef_equiv_derivative(A, B, m)
            agree = by_derivative == ef_equiv_oracle(A, B, m)
            if a == b == m:
                agree = agree and by_derivative == (i == j)
            if by_derivative:
                equivalent += 1
                cert = extract_certificate(A, B, m)
                report = verify_certificate(cert)
                with mock.patch.object(ef_games, "_proved", None):
                    agree = agree and report.ok and report == verify_certificate(cert)
            if not agree:
                disagreements.append((graphs[i], graphs[j], m))
    elapsed = time.monotonic() - start
    announce(
        15,
        not disagreements and cases == 67132
        and [sum(n == k for n, _ in graphs) for k in (1, 2, 3)] == [2, 10, 104],
        f"{len(graphs)} digraph classes on 1-3 vertices, {cases} cases of "
        f"{len(graphs) ** 2} ordered pairs at m <= the larger size + 1, "
        f"{equivalent} equivalent with certificates checked in increasing m, "
        f"{len(disagreements)} disagreements, "
        f"smallest {disagreements[0] if disagreements else 'none'}, {elapsed:.1f}s",
    )
