"""Modeloid axioms, closure, and the derivative operator.

Derived expectations (closure sizes, derivative fixpoints) are computed by
independent brute-force oracles in this file and frozen as literals.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st
from reference_scans import (
    check_modeloid_by_pairs,
    closure_by_frontier,
    derivative_by_restrictions,
    eager_fixpoint_chain,
)

from modeloids import modeloid
from modeloids.derived import Chain, fixpoint_chain, padded
from modeloids.errors import InputError
from modeloids.verdict import Verdict
from modeloids.modeloid import (
    Modeloid,
    _check_modeloid,
    derivative,
    full_modeloid,
    iterate_derivative,
    modeloid_closure,
    verify_modeloid,
)
from modeloids.partial_bijections import (
    Carrier,
    PartialBijection,
    empty_map,
    enumerate_all,
    identity_map,
    partial_identity,
)


def oracle_derivative(M: Modeloid) -> frozenset[PartialBijection]:
    """Literal double-quantifier check, written independently of the
    library implementation: extensions are pair-set unions and membership
    is tested on the raw pair sets."""
    n = M.carrier.size
    by_pairs = {f.pairs for f in M.members}

    def union_ok(f, extra):
        pairs = set(f.pairs) | {extra}
        sources = [a for a, _ in pairs]
        targets = [b for _, b in pairs]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            return False
        return tuple(sorted(pairs)) in by_pairs

    survivors = set()
    for f in M.members:
        if all(any(union_ok(f, (a, b)) for b in range(n)) for a in range(n)) and all(
            any(union_ok(f, (b, a)) for b in range(n)) for a in range(n)
        ):
            survivors.add(f)
    return frozenset(survivors)


def random_modeloid(rng: random.Random, n: int) -> Modeloid:
    """Up to three random maps, closed up to a modeloid."""
    carrier = Carrier(n)
    pool = sorted(enumerate_all(carrier), key=lambda f: f.pairs)
    seed = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
    return modeloid_closure(seed, carrier)


class TestVerify:
    def test_full_set_is_a_modeloid(self):
        for n in (1, 2, 3):
            assert verify_modeloid(full_modeloid(Carrier(n))).ok

    def test_identity_alone_fails_restriction(self):
        c = Carrier(2)
        result = verify_modeloid(Modeloid.from_members(c, [identity_map(c)]))
        assert not result.ok
        assert result.axiom == "restriction"

    def test_missing_identity(self):
        c = Carrier(2)
        result = verify_modeloid(Modeloid.from_members(c, [empty_map(c)]))
        assert not result.ok
        assert result.axiom == "identity"

    def test_missing_inverse(self):
        c = Carrier(2)
        f = PartialBijection.from_pairs(c, [(0, 1)])
        members = [identity_map(c), empty_map(c), partial_identity(c, [0]),
                   partial_identity(c, [1]), f]
        result = verify_modeloid(Modeloid.from_members(c, members))
        assert not result.ok
        # f composed with itself is empty (present), so the inverse axiom
        # is the first to break.
        assert result.axiom in ("composition", "inverse")

    def test_missing_composite(self):
        c = Carrier(3)
        f = PartialBijection.from_pairs(c, [(0, 1)])
        h = PartialBijection.from_pairs(c, [(1, 2)])
        partial_ids = [partial_identity(c, s) for s in
                       [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]]
        members = partial_ids + [f, h, f.inverse(), h.inverse()]
        # h after f is {0 -> 2}, which is absent.
        result = verify_modeloid(Modeloid.from_members(c, members))
        assert not result.ok
        assert result.axiom == "composition"

    def test_verdict_carries_witness(self):
        c = Carrier(2)
        result = verify_modeloid(Modeloid.from_members(c, [identity_map(c)]))
        assert result.witness is not None
        assert "restriction" in result.describe()

    def test_matches_the_pair_scan_with_each_member_removed(self):
        full = full_modeloid(Carrier(3))
        cases = [full] + [
            Modeloid(full.carrier, full.members - {f}) for f in full.members
        ]
        for M in cases:
            assert _check_modeloid(M) == check_modeloid_by_pairs(M)
        # every member is a product of others, so each removal breaks
        # composition and the witness comes from the pair scan
        assert all(_check_modeloid(M).axiom == "composition" for M in cases[1:])
        # partial identities compose by intersection, so removing one that
        # no two others meet in breaks restriction (or identity) first
        axioms = set()
        for n in (2, 3):
            ids = modeloid_closure([], Carrier(n))
            for f in ids.members:
                M = Modeloid(ids.carrier, ids.members - {f})
                assert _check_modeloid(M) == check_modeloid_by_pairs(M)
                axioms.add(_check_modeloid(M).axiom)
        assert axioms == {"composition", "restriction", "identity"}

    def test_restriction_witness_names_the_missing_domain(self):
        c = Carrier(2)
        ident = ((0, 0), (1, 1))
        alone = Modeloid.from_members(c, [identity_map(c)])
        without_0 = Modeloid(c, modeloid_closure([], c).members - {partial_identity(c, [0])})
        for M, witness in [(alone, (ident, ())), (without_0, (ident, (0,)))]:
            assert _check_modeloid(M) == check_modeloid_by_pairs(M)
            assert _check_modeloid(M) == Verdict(False, "restriction", witness)

    def test_identity_is_sought_among_the_members(self, monkeypatch):
        # one empty map over a carrier of 10**8 elements: the verdict must
        # not build the identity of the carrier
        def refuse(carrier):
            raise AssertionError("built the identity of the carrier")

        monkeypatch.setattr(modeloid, "identity_map", refuse)
        c = Carrier(10**8)
        M = Modeloid.from_members(c, [empty_map(c)])
        assert verify_modeloid(M) == Verdict(False, "identity", ())
        with pytest.raises(InputError, match="identity"):
            derivative(M)

    def test_member_carrier_mismatch_rejected(self):
        with pytest.raises(InputError):
            Modeloid.from_members(Carrier(2), [identity_map(Carrier(3))])


class TestClosure:
    def test_empty_seed_gives_partial_identities(self):
        M = modeloid_closure([], Carrier(2))
        assert M.members == {
            empty_map(Carrier(2)),
            partial_identity(Carrier(2), [0]),
            partial_identity(Carrier(2), [1]),
            identity_map(Carrier(2)),
        }

    def test_single_transposition_seed_frozen_size(self):
        # Frozen: closing {0 -> 1} over carrier 2 yields 6 of the 7 maps;
        # the swap (0 1) is not generated.
        c = Carrier(2)
        M = modeloid_closure([PartialBijection.from_pairs(c, [(0, 1)])], c)
        assert len(M.members) == 6
        swap = PartialBijection.from_pairs(c, [(0, 1), (1, 0)])
        assert swap not in M.members

    def test_closure_is_a_modeloid(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                assert verify_modeloid(random_modeloid(rng, n)).ok

    def test_closure_is_extensive_and_idempotent(self):
        c = Carrier(3)
        f = PartialBijection.from_pairs(c, [(0, 2), (1, 0)])
        M = modeloid_closure([f], c)
        assert f in M.members
        again = modeloid_closure(sorted(M.members, key=lambda g: g.pairs), c)
        assert again.members == M.members

    def test_matches_the_frontier_loop(self):
        rng = random.Random(11)
        for _ in range(200):
            c = Carrier(rng.randint(1, 4))
            pool = sorted(enumerate_all(c), key=lambda f: f.pairs)
            seed = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            assert modeloid_closure(seed, c) == closure_by_frontier(seed, c)

    def test_swap_and_cycle_give_every_map_at_carrier_5(self):
        # the frontier loop takes seconds here, so compare with the full set
        c = Carrier(5)
        swap = PartialBijection.from_pairs(c, [(0, 1), (1, 0), (2, 2), (3, 3), (4, 4)])
        cycle = PartialBijection.from_pairs(c, [(x, (x + 1) % 5) for x in range(5)])
        assert modeloid_closure([swap, cycle], c) == full_modeloid(c)

    def test_one_right_product_per_member_and_generator(self, monkeypatch):
        # G: the swap and the 4-cycle, the cycle's inverse and the four
        # identities missing one point; 209 members times 7 generators
        c = Carrier(4)
        swap = PartialBijection.from_pairs(c, [(0, 1), (1, 0), (2, 2), (3, 3)])
        cycle = PartialBijection.from_pairs(c, [(x, (x + 1) % 4) for x in range(4)])
        calls = []
        real = PartialBijection.compose

        def counted(f, g):
            calls.append((f, g))
            return real(f, g)

        monkeypatch.setattr(PartialBijection, "compose", counted)
        M = modeloid_closure([swap, cycle], c)
        assert len(M.members) == 209
        assert len(calls) <= 209 * 7

    def test_seed_over_another_carrier_rejected(self):
        with pytest.raises(InputError, match="seed map is over a different carrier"):
            modeloid_closure([identity_map(Carrier(3))], Carrier(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_closure_minimality_random(self, seed, n):
        # Dropping any non-seed-forced member breaks an axiom, so the
        # closure is contained in every modeloid containing the seed.
        rng = random.Random(seed)
        M = random_modeloid(rng, n)
        full = full_modeloid(Carrier(n))
        assert M.members <= full.members


class TestDerivative:
    def test_full_set_is_its_own_derivative(self):
        # Frozen: D(F) = F for n = 2, 3; every map extends to a larger one.
        for n in (2, 3):
            M = full_modeloid(Carrier(n))
            D = derivative(M)
            assert D.members == M.members
            assert oracle_derivative(M) == M.members

    def test_partial_identities_all_survive(self):
        # Frozen: over carrier 2 the partial-identity modeloid is stable.
        M = modeloid_closure([], Carrier(2))
        assert derivative(M).members == M.members
        assert oracle_derivative(M) == M.members

    def test_derivative_is_contained_in_input(self):
        rng = random.Random(21)
        for n in (2, 3, 4):
            for _ in range(10):
                M = random_modeloid(rng, n)
                D = derivative(M)
                assert D.members <= M.members
                assert D.members == oracle_derivative(M)

    @given(st.data())
    def test_matches_the_restriction_walk(self, data):
        # closures of up to three drawn maps over carriers 1-4
        c = Carrier(data.draw(st.integers(1, 4)))
        maps = st.builds(
            lambda image, domain: PartialBijection(c, tuple((a, image[a]) for a in sorted(domain))),
            st.permutations(range(c.size)),
            st.sets(st.integers(0, c.size - 1)),
        )
        M = modeloid_closure(data.draw(st.lists(maps, max_size=3)), c)
        assert derivative(M).members == derivative_by_restrictions(M)

    def test_full_carrier_five_matches_the_restriction_walk(self):
        M = full_modeloid(Carrier(5))
        assert derivative(M).members == derivative_by_restrictions(M) == M.members

    def test_derivative_is_a_modeloid(self):
        # checked afresh: the derived level carries its input's verdict
        rng = random.Random(22)
        for _ in range(10):
            M = random_modeloid(rng, 3)
            assert modeloid._check_modeloid(derivative(M)).ok

    def test_one_index_per_step(self, monkeypatch):
        # the closure of a 3-cycle on carrier 4 shrinks 30 -> 16 members
        # and then is stable: each of the two steps indexes its input's
        # one-point extensions once (one call of the reader, with the
        # input as both its lower and its upper) and looks each input
        # member up once
        calls = []
        real = modeloid._unextended

        def counted(lower, upper, sources, targets):
            calls.append((len(lower), lower is upper))
            return real(lower, upper, sources, targets)

        monkeypatch.setattr(modeloid, "_unextended", counted)
        c = Carrier(4)
        M = modeloid_closure([PartialBijection(c, ((0, 1), (1, 2), (2, 0)))], c)
        chain, stabilized = iterate_derivative(M, 3)
        assert (stabilized, len(M.members), len(chain[1].members)) == (1, 30, 16)
        assert calls == [(30, True), (16, True)]

    def test_rejects_non_modeloid(self):
        c = Carrier(2)
        with pytest.raises(InputError):
            derivative(Modeloid.from_members(c, [identity_map(c)]))


class TestIteration:
    def test_full_set_stabilizes_immediately(self):
        chain, stabilized = iterate_derivative(full_modeloid(Carrier(3)), 2)
        assert [len(m.members) for m in chain] == [34, 34, 34]
        assert stabilized == 0

    def test_chain_length_and_monotonicity(self):
        rng = random.Random(5)
        M = random_modeloid(rng, 3)
        chain, stabilized = iterate_derivative(M, 4)
        assert len(chain) == 5
        for earlier, later in zip(chain, chain[1:]):
            assert later.members <= earlier.members
        if stabilized is not None:
            assert chain[stabilized].members == chain[-1].members

    def test_zero_rounds(self):
        M = full_modeloid(Carrier(2))
        chain, stabilized = iterate_derivative(M, 0)
        assert chain == [M]
        assert stabilized is None

    def test_negative_rounds_rejected(self):
        with pytest.raises(InputError):
            iterate_derivative(full_modeloid(Carrier(2)), -1)

    def test_every_level_matches_the_oracle(self):
        rng = random.Random(31)
        cases = [random_modeloid(rng, n) for n in (1, 2, 3, 4) for _ in range(8)]
        # frozen: these seeds give chains 27, 19, 16 and 59, 51, 39, 31
        c = Carrier(4)
        for seed in [
            [((0, 2), (1, 3), (2, 0))],
            [((0, 3), (1, 2), (2, 1)), ((0, 2), (1, 3), (2, 0), (3, 1)), ((2, 3), (3, 2))],
        ]:
            cases.append(modeloid_closure([PartialBijection(c, p) for p in seed], c))
        indices, sizes = set(), []
        for M in cases:
            chain, stabilized = iterate_derivative(M, 4)
            for earlier, later in zip(chain, chain[1:]):
                assert later.members == oracle_derivative(earlier)
            indices.add(stabilized)
            sizes.append([len(N.members) for N in chain])
        assert sizes[-2:] == [[27, 19, 16, 16, 16], [59, 51, 39, 31, 31]]
        assert {0, 1, 2, 3} <= indices

    def test_a_lazy_chain_asked_in_any_order_matches_the_eager_loop(self):
        # one Chain per closure, asked for rounds 0..6 in a shuffled order;
        # each answer, padded, must be what the eager loop gives anew
        rng = random.Random(41)
        indices = set()
        for _ in range(60):
            M = random_modeloid(rng, rng.randint(1, 4))
            chain = Chain(M, derivative)
            rounds = list(range(7))
            rng.shuffle(rounds)
            for r in rounds:
                levels = chain.upto(r)
                expected = eager_fixpoint_chain(M, derivative, r)
                assert fixpoint_chain(M, derivative, r) == expected
                assert padded(levels, r) == expected[0]
                assert len(levels) == len(set(N.members for N in levels))
                if expected[1] is not None:
                    assert chain.stabilized == expected[1]
                    assert len(levels) == expected[1] + 1
            indices.add(chain.stabilized)
        assert {0, 1, 2} <= indices

    def test_stabilization_within_member_count(self):
        rng = random.Random(99)
        for _ in range(5):
            M = random_modeloid(rng, 3)
            _, stabilized = iterate_derivative(M, len(M.members))
            assert stabilized is not None
            assert stabilized <= len(M.members)
