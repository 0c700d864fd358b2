"""End-to-end acceptance checks.

Each test prints one ACCEPTANCE line with a PASS/FAIL verdict straight to
the terminal (bypassing capture) before asserting, so a plain pytest run
shows the eleven verdicts at a glance.
"""

import itertools
import random
import subprocess
import sys
import time

import pytest
from dense_ambient import dense_table

from modeloids.categorical import (
    CategoricalModeloid,
    _check_categorical_modeloid,
    endoset_as_semimodeloid,
    iterate_categorical,
)
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
    verify_inverse_semigroup,
    verify_semimodeloid,
    wagner_preston,
)
from modeloids.errors import InputError
from modeloids.modeloid import derivative, modeloid_closure, verify_modeloid
from modeloids.partial_bijections import Carrier, PartialBijection, enumerate_all
from modeloids.structures import Structure, Vocabulary

POINTED_GRAPH = Vocabulary(relations=(("E", 2),), constants=("c",))
PURE = Vocabulary()


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
    announce(
        5,
        all_good and rejected == len(negatives),
        f"{len(positives)} positives three-way true, {rejected}/5 negatives rejected",
    )


def test_06_partial_bijection_representation_embeds(announce):
    failures = []
    checked = 0
    for t in corpus_tables():
        if t.order > 40 or not verify_inverse_semigroup(t).ok:
            continue
        checked += 1
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
        if not (injective and multiplicative and faithful):
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
        D = build_category_D(A, B).whole
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
            build_category_D(pure_structure("P", 2), pure_structure("Q", 3)).whole.ambient
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
        D = build_category_D(A, B).whole
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
