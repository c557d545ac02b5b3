import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairalloc import (
    Allocation,
    AllocationMismatchError,
    EnvyWitness,
    Ef1Violation,
    Profile,
    allocation_utilities,
    is_ef,
    is_ef1,
    is_pareto_optimal,
    maximize_welfare,
)
from fairalloc import fairness, model
from fairalloc.welfarist import Affine, LogAffine


def random_instance(rng, max_agents=3, max_goods=6, max_utility=3):
    n = rng.randint(1, max_agents)
    m = rng.randint(0, max_goods)
    profile = Profile(
        [[rng.randint(0, max_utility) for _ in range(m)] for _ in range(n)]
    )
    allocation = Allocation(tuple(rng.randrange(n) for _ in range(m)))
    return profile, allocation


class TestEf1:
    def test_violation_with_full_removal_gaps(self):
        # agent 1 envies agent 0's two goods; removing either leaves 1 > 1/2
        profile = Profile([[0, 2, 2], ["1/2", 1, 1]])
        verdict = is_ef1(profile, Allocation((1, 0, 0)))
        assert not verdict.holds
        assert len(verdict.violations) == 1
        violation = verdict.violations[0]
        assert (violation.envier, violation.envied) == (1, 0)
        assert violation.own_utility == Fraction(1, 2)
        assert violation.removal_gaps == ((1, Fraction(1)), (2, Fraction(1)))

    def test_single_agent_trivially_holds(self):
        profile = Profile([[3, 1, 4]])
        assert is_ef1(profile, Allocation((0, 0, 0))).holds

    def test_identical_utilities_split(self):
        profile = Profile([[1, 1], [1, 1]])
        assert is_ef1(profile, Allocation((0, 1))).holds

    def test_witness_revalidates_against_definition(self):
        profile = Profile([[0, 2, 2], ["1/2", 1, 1]])
        allocation = Allocation((1, 0, 0))
        bundles = allocation.bundles(profile.n)
        for violation in is_ef1(profile, allocation).violations:
            envied = bundles[violation.envied]
            assert envied
            listed = {good for good, _ in violation.removal_gaps}
            assert listed == envied
            for good, remaining in violation.removal_gaps:
                assert remaining == oracles.bundle_value(
                    profile, violation.envier, envied - {good}
                )
                assert violation.own_utility < remaining

    def test_dimension_mismatch(self):
        profile = Profile([[1, 2], [2, 1]])
        with pytest.raises(AllocationMismatchError):
            is_ef1(profile, Allocation((0,)))
        with pytest.raises(AllocationMismatchError):
            is_ef1(profile, Allocation((0, 5)))

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(1311)
        for _ in range(300):
            profile, allocation = random_instance(rng)
            assert (
                is_ef1(profile, allocation).holds
                == oracles.ef1_holds(profile, allocation.assignment)
            )

    def test_invariant_under_good_relabeling(self):
        rng = random.Random(97)
        for _ in range(100):
            profile, allocation = random_instance(rng, max_goods=5)
            perm = list(range(profile.m))
            rng.shuffle(perm)
            permuted_profile = Profile(
                [tuple(row[perm[j]] for j in range(profile.m)) for row in profile.utilities]
            )
            permuted_allocation = Allocation(
                tuple(allocation.assignment[perm[j]] for j in range(profile.m))
            )
            assert (
                is_ef1(profile, allocation).holds
                == is_ef1(permuted_profile, permuted_allocation).holds
            )


class TestEf:
    def test_identical_split_is_envy_free(self):
        profile = Profile([[1, 1], [1, 1]])
        assert is_ef(profile, Allocation((0, 1))).holds

    def test_witnessed_envy(self):
        profile = Profile([[2, 1], [2, 1]])
        verdict = is_ef(profile, Allocation((0, 1)))
        assert not verdict.holds
        witness = verdict.violations[0]
        assert (witness.envier, witness.envied) == (1, 0)
        assert (witness.own_utility, witness.envied_utility) == (1, 2)

    def test_ef_implies_ef1(self):
        rng = random.Random(2024)
        seen_ef = 0
        for _ in range(200):
            profile, allocation = random_instance(rng)
            if is_ef(profile, allocation).holds:
                seen_ef += 1
                assert is_ef1(profile, allocation).holds
        # balanced hand-made instances so the implication is not vacuous
        profile = Profile([[1, 1], [1, 1]])
        assert is_ef(profile, Allocation((0, 1))).holds
        assert is_ef1(profile, Allocation((0, 1))).holds
        assert seen_ef > 0


class TestParetoOptimality:
    def test_swap_is_dominated(self):
        profile = Profile([[1, 0], [0, 1]])
        verdict = is_pareto_optimal(profile, Allocation((1, 0)))
        assert not verdict.optimal
        # the returned dominator must actually dominate
        dominators = oracles.pareto_dominators(profile, (1, 0))
        assert verdict.dominator.assignment in dominators

    def test_matched_goods_are_optimal(self):
        profile = Profile([[1, 0], [0, 1]])
        assert is_pareto_optimal(profile, Allocation((0, 1))).optimal

    def test_agrees_with_oracle_exhaustively_small(self):
        # all profiles with n=2, m=2, utilities in {0, 1}, all 4 allocations
        from itertools import product as cartesian

        for entries in cartesian((0, 1), repeat=4):
            profile = Profile([entries[:2], entries[2:]])
            for assignment in cartesian(range(2), repeat=2):
                verdict = is_pareto_optimal(profile, Allocation(assignment))
                assert verdict.optimal == (
                    not oracles.pareto_dominators(profile, assignment)
                )

    def test_agrees_with_oracle_on_sampled_grid(self):
        rng = random.Random(52)
        for _ in range(150):
            profile = Profile(
                [[rng.randint(0, 2) for _ in range(4)] for _ in range(2)]
            )
            assignment = tuple(rng.randrange(2) for _ in range(4))
            verdict = is_pareto_optimal(profile, Allocation(assignment))
            assert verdict.optimal == (
                not oracles.pareto_dominators(profile, assignment)
            )

    def test_a_check_reads_the_walk_a_solve_kept_and_builds_none_itself(self):
        profile = Profile([[1, 4, 1, 3, 3, 4, 1, 2, 3, 4, 3], [1, 4, 2, 3, 3, 1, 0, 2, 4, 2, 1]])
        answer = Allocation((0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0))  # its MNW allocation
        least = Allocation((0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1))  # each good to an agent valuing it least
        dominator = Allocation(tuple(oracles.pareto_dominators(profile, least.assignment)[0]))
        with mock.patch.object(model, "_groups", side_effect=AssertionError("a walk built by a check")):
            assert is_pareto_optimal(profile, answer).optimal
            assert is_pareto_optimal(profile, least).dominator == dominator
        assert model._kept(profile) is None
        assert maximize_welfare(profile, LogAffine()).allocation == answer
        walk = AssertionError("a walk past the kept one")
        with mock.patch.object(model, "_blocks", side_effect=walk), mock.patch.object(fairness, "_blocks", side_effect=walk):
            assert is_pareto_optimal(profile, answer).optimal
        assert is_pareto_optimal(profile, least).dominator == dominator

    def test_utilitarian_outputs_are_optimal(self):
        rng = random.Random(7)
        for _ in range(100):
            m = rng.randint(1, 6)
            profile = Profile(
                [[rng.randint(1, 9) for _ in range(m)] for _ in range(2)]
            )
            result = maximize_welfare(profile, Affine(1, 0))
            assert is_pareto_optimal(profile, result.allocation).optimal


@st.composite
def instances(draw):
    """A profile of integers or rationals with mixed denominators, numerators
    up to 2**60 with zeros, and an allocation of its goods."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, {1: 6, 2: 6, 3: 5}[n]))
    numerators = st.one_of(
        st.just(0), st.integers(1, 9), st.integers(1, 2**60), st.sampled_from((2**53, 2**53 + 1, 2**60))
    )
    entries = st.one_of(numerators, st.builds(Fraction, numerators, st.sampled_from((2, 3, 5, 7, 12))))
    profile = Profile([[draw(entries) for _ in range(m)] for _ in range(n)])
    allocation = Allocation(tuple(draw(st.integers(0, n - 1)) for _ in range(m)))
    return profile, allocation


def exact_fractions(*values):
    return all(type(value) is Fraction for value in values)


class TestIntegerChecks:
    """The checks compare integer totals on one common scale; every verdict,
    dominator and witness value must be what the rational definitions give."""

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_ef_verdict_and_witnesses_match_the_definition(self, instance):
        profile, allocation = instance
        bundles = oracles.bundles_of(allocation.assignment, profile.n)
        expected = []
        for i in range(profile.n):
            own = oracles.bundle_value(profile, i, bundles[i])
            for j in range(profile.n):
                envied = oracles.bundle_value(profile, i, bundles[j])
                if i != j and own < envied:
                    expected.append(EnvyWitness(i, j, own, envied))
        verdict = is_ef(profile, allocation)
        assert verdict.holds == oracles.ef_holds(profile, allocation.assignment)
        assert list(verdict.violations) == expected
        assert all(exact_fractions(w.own_utility, w.envied_utility) for w in verdict.violations)

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_ef1_verdict_and_witnesses_match_the_definition(self, instance):
        profile, allocation = instance
        bundles = oracles.bundles_of(allocation.assignment, profile.n)
        expected = []
        for i in range(profile.n):
            own = oracles.bundle_value(profile, i, bundles[i])
            for j in range(profile.n):
                gaps = tuple((g, oracles.bundle_value(profile, i, bundles[j] - {g})) for g in sorted(bundles[j]))
                if i != j and gaps and all(own < remaining for _, remaining in gaps):
                    expected.append(Ef1Violation(i, j, own, gaps))
        verdict = is_ef1(profile, allocation)
        assert verdict.holds == oracles.ef1_holds(profile, allocation.assignment)
        assert list(verdict.violations) == expected
        for violation in verdict.violations:
            assert exact_fractions(violation.own_utility, *(r for _, r in violation.removal_gaps))

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_pareto_verdict_and_first_dominator_match_the_definition(self, instance):
        profile, allocation = instance
        verdict = is_pareto_optimal(profile, allocation)
        dominators = oracles.pareto_dominators(profile, allocation.assignment)
        assert verdict.optimal == (not dominators)
        assert verdict.dominator == (Allocation(dominators[0]) if dominators else None)

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_allocation_utilities_match_the_definition(self, instance):
        profile, allocation = instance
        utilities = allocation_utilities(profile, allocation)
        assert list(utilities) == oracles.utilities_of(profile, allocation.assignment)
        assert exact_fractions(*utilities)
