"""The shared enumeration kernel, checked against the brute-force oracles.

Every exact scan (the welfare solvers, branch-and-bound, the Nash solver and
the Pareto check) walks the allocations through one integer-scaled kernel,
which walks a prefix of the goods and hands the rest over as one block per
prefix.  These tests feed it rational profiles whose rows have different
denominators, with zeros that leave some agent at utility 0, and compare
each consumer with the definitions in ``oracles``, which go through the
allocations one at a time; the block tests do so at several block sizes.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fairalloc import (
    Allocation,
    EnumerationBudgetError,
    InvalidWelfareFunctionError,
    Profile,
    is_pareto_optimal,
    max_nash_welfare,
    maximize_welfare,
)
from fairalloc.model import _assignments, _scaled_rows
from fairalloc import model, welfarist
from fairalloc.welfarist import (
    TIE_TOLERANCE,
    Affine,
    CustomExpression,
    Exp,
    ExtendedWelfare,
    LogAffine,
    Power,
    SolveResult,
    WelfareFunction,
    _Terms,
    _terms,
    allocation_welfare,
    solve,
    welfare_maximizers,
)


@st.composite
def rational_profiles(draw, max_agents=3, max_goods=5):
    """Rows with a denominator of their own; about a third of entries are 0."""
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(0, max_goods))
    rows = []
    for _ in range(n):
        denominator = draw(st.integers(1, 12))
        numerators = st.one_of(st.just(0), st.integers(1, 9), st.integers(1, 9))
        rows.append([
            Fraction(draw(numerators), denominator * draw(st.sampled_from((1, 1, 2, 5))))
            for _ in range(m)
        ])
    return Profile(rows)


HUGE_ENTRIES = st.one_of(st.just(0), st.integers(1, 2**60), st.sampled_from((2**53, 2**53 + 1, 2**60)))


@st.composite
def huge_profiles(draw, max_agents=3, max_goods=5):
    """Integer utilities up to 2**60, with zeros."""
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(0, max_goods))
    return Profile([[draw(HUGE_ENTRIES) for _ in range(m)] for _ in range(n)])


def assignments_of(profile, draw):
    return Allocation(tuple(draw(st.integers(0, profile.n - 1)) for _ in range(profile.m)))


def check_nash(profile):
    result = max_nash_welfare(profile)
    assignment, key, ties = oracles.best_nash(profile)
    assert result.allocation.assignment == assignment
    assert result.maximizer_set_size == ties
    assert result.welfare.neg_inf_count == profile.n - key[0]


def check_pareto(profile, allocation):
    verdict = is_pareto_optimal(profile, allocation)
    dominators = oracles.pareto_dominators(profile, allocation.assignment)
    assert verdict.optimal == (not dominators)
    if dominators:
        assert verdict.dominator.assignment == dominators[0]


def best_of(profile, f):
    """The oracle's first maximizer, its -inf count and its float welfare: the
    Nash key ranks log-affine ``f`` exactly, float sums rank any other ``f``."""
    if not isinstance(f, LogAffine):
        return oracles.best_welfare(profile, f.value)
    assignment = oracles.best_nash(profile)[0]
    return next(row for row in oracles.welfare_table(profile, f.value) if row[0] == assignment)


def band_of(profile, f):
    """Every maximizer in order: the exact Nash ties for log-affine ``f``, else
    every allocation within the tie band of the oracle's maximum."""
    if isinstance(f, LogAffine):
        return oracles.nash_members(profile)
    _, best_neg, best_finite = oracles.best_welfare(profile, f.value)
    return [
        candidate
        for candidate, neg, finite in oracles.welfare_table(profile, f.value)
        if neg == best_neg and finite >= best_finite - TIE_TOLERANCE
    ]


class TestWalk:
    @given(rational_profiles(max_goods=4))
    @settings(max_examples=60)
    def test_visits_every_assignment_in_order_with_scaled_totals(self, profile):
        rows, scale = _scaled_rows(profile, budget=10**7)
        seen = []
        for assignment, totals in _assignments(rows):
            utilities = oracles.utilities_of(profile, assignment)
            assert [Fraction(t, scale) for t in totals] == utilities
            seen.append(tuple(assignment))
        assert seen == list(product(range(profile.n), repeat=profile.m))

    @given(rational_profiles(max_goods=4), st.data())
    @settings(max_examples=60)
    def test_prune_skips_exactly_the_completions_of_pruned_prefixes(self, profile, data):
        rows, _ = _scaled_rows(profile, budget=10**7)
        depths = data.draw(st.sets(st.integers(1, max(profile.m, 1))))
        agent = data.draw(st.integers(0, profile.n - 1))
        threshold = data.draw(st.integers(0, max(map(sum, rows)) + 1))

        def prune(depth, totals):
            return depth in depths and totals[agent] >= threshold

        def pruned(assignment):
            totals = [0] * profile.n
            for depth, (good, owner) in enumerate(enumerate(assignment), start=1):
                totals[owner] += rows[owner][good]
                if prune(depth, totals):
                    return True
            return False

        seen = [tuple(assignment) for assignment, _ in _assignments(rows, prune)]
        expected = [a for a in product(range(profile.n), repeat=profile.m) if not pruned(a)]
        assert seen == expected

    def test_scale_is_one_common_factor(self):
        rows, scale = _scaled_rows(Profile([["1/3"], ["1/2"]]), budget=10)
        assert scale == 6
        assert rows == ((2,), (3,))


class TestExactScans:
    @given(rational_profiles())
    @example(Profile([["1/3"], ["1/2"]]))  # per-row scales would call it a tie
    @example(Profile([["1/3", 0], ["1/2", 0], [0, "1/4"]]))
    @settings(max_examples=150, deadline=None)
    def test_nash_matches_oracle_on_rationals(self, profile):
        check_nash(profile)

    @given(huge_profiles())
    @settings(max_examples=80, deadline=None)
    def test_nash_matches_oracle_up_to_2_pow_60(self, profile):
        check_nash(profile)

    @given(rational_profiles(max_goods=4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pareto_matches_oracle_on_rationals(self, profile, data):
        check_pareto(profile, assignments_of(profile, data.draw))

    @given(huge_profiles(max_goods=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pareto_matches_oracle_up_to_2_pow_60(self, profile, data):
        check_pareto(profile, assignments_of(profile, data.draw))

    def test_pareto_checks_the_budget_before_the_allocation(self):
        profile = Profile([[1] * 5] * 3)
        wrong_size = Allocation((0,))
        with pytest.raises(EnumerationBudgetError):
            is_pareto_optimal(profile, wrong_size, budget=10)


WELFARE_FUNCTIONS = (LogAffine(), LogAffine(2, -1), Affine(1, 0), Power(0.5), Power(2))


class TestWelfareScans:
    @given(rational_profiles(max_goods=4), st.sampled_from(WELFARE_FUNCTIONS))
    @example(Profile([["1/3"], ["1/2"]]), LogAffine())
    @settings(max_examples=120, deadline=None)
    def test_both_methods_match_oracle_on_rationals(self, profile, f):
        assignment, neg, finite = best_of(profile, f)
        band = band_of(profile, f)
        for method in ("exhaustive", "branch-and-bound"):
            result = maximize_welfare(profile, f, method=method)
            assert result.allocation.assignment == assignment
            assert result.welfare == ExtendedWelfare(neg, finite)
            assert result.welfare.finite_part == finite
            assert result.maximizer_set_size == len(band)

    @given(rational_profiles(max_goods=4), st.sampled_from(WELFARE_FUNCTIONS))
    @settings(max_examples=80, deadline=None)
    def test_maximizer_set_matches_oracle_on_rationals(self, profile, f):
        result, members = welfare_maximizers(profile, f)
        band = band_of(profile, f)
        assert [a.assignment for a in members] == band
        assert result == maximize_welfare(profile, f)


class TestTermMemo:
    def test_keeps_at_most_the_cap_and_still_answers_past_it(self):
        f = LogAffine()
        terms = _Terms(f, 7)
        for total in range(welfarist._TERMS_CAP + 50):
            assert terms[total] == f.value(Fraction(total, 7))
        assert len(terms) == welfarist._TERMS_CAP

    @given(rational_profiles(max_goods=4), st.sampled_from(WELFARE_FUNCTIONS))
    @settings(max_examples=60, deadline=None)
    def test_scans_past_a_full_memo_give_the_same_results(self, profile, f):
        expected = [maximize_welfare(profile, f, method=m) for m in ("exhaustive", "branch-and-bound")]
        expected_band = welfare_maximizers(profile, f)
        # memos filled by earlier calls would answer without reaching the cap
        with mock.patch.object(welfarist, "_TERMS_CAP", 2), mock.patch.dict(welfarist._memos, clear=True):
            assert [maximize_welfare(profile, f, method=m) for m in ("exhaustive", "branch-and-bound")] == expected
            assert welfare_maximizers(profile, f) == expected_band
            assert all(len(terms) <= 2 for terms in welfarist._memos.values())

    def test_functions_with_the_same_scale_never_share_terms(self):
        profile = Profile([[3, 5], [4, 0]])
        allocation = Allocation((0, 1))
        for a in (1, 2, 1, 2):
            f = LogAffine(a, 0)  # a fresh object each time; the last one may be freed
            assert allocation_welfare(profile, allocation, f) == ExtendedWelfare(1, a * math.log(3))
            assert maximize_welfare(profile, f).welfare == ExtendedWelfare(0, a * math.log(20))
        assert _terms(LogAffine(1, 0), 1)[5] != _terms(LogAffine(2, 0), 1)[5]

    def test_a_raising_total_raises_on_every_call(self):
        f = Exp()
        profile = Profile([[1000, 1], [1, 1]])
        for _ in range(3):
            with pytest.raises(InvalidWelfareFunctionError, match="exp overflowed"):
                maximize_welfare(profile, f)
            with pytest.raises(InvalidWelfareFunctionError, match="exp overflowed"):
                allocation_welfare(profile, Allocation((0, 0)), f)
        assert all(total < 1000 for total in _terms(f, 1))

    def test_the_number_of_memos_kept_is_bounded(self):
        profile = Profile([[1, 2], [2, 1]])
        for a in range(1, 3 * welfarist._MEMO_COUNT):
            maximize_welfare(profile, Affine(a, 0))
            assert len(welfarist._memos) <= welfarist._MEMO_COUNT

    def test_an_unhashable_welfare_function_still_solves(self):
        @dataclass
        class Linear(WelfareFunction):
            a: float = 1.0

            def value(self, x):
                return self.a * float(x)

        f = Linear()
        with pytest.raises(TypeError):
            hash(f)
        profile = Profile([[3, 1, 4], [1, 5, 9]])
        for _ in range(2):
            assert solve(profile, f) == solve(profile, Affine(1, 0))


@st.composite
def block_profiles(draw):
    """Shapes on both sides of one 256-allocation block; small integers,
    rationals with mixed denominators, or integers up to 2**60, with zeros."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, {1: 9, 2: 9, 3: 6, 4: 4}[n]))
    entries = draw(st.sampled_from((
        st.integers(0, 9),
        st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2, 3, 5, 7, 12))),
        HUGE_ENTRIES,
    )))
    return Profile([[draw(entries) for _ in range(m)] for _ in range(n)])


BLOCK_FUNCTIONS = (
    LogAffine(), Affine(1, 0), Power(0.5), Power(2), Exp(),
    CustomExpression.from_text("ln(x+1)"), CustomExpression.from_text("ln(x)"),
)


def outcome(call):
    """The call's result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # the error is the answer under comparison
        return type(exc), str(exc)


def leaf_order_welfare(profile, f):
    """First maximizer, -inf count, float welfare bits, tie count and
    maximizers, one allocation at a time in lexicographic order."""
    assignment, neg, finite = best_of(profile, f)
    band = band_of(profile, f)
    return assignment, neg, finite.hex(), len(band), band


def block_welfare(profile, f):
    result = maximize_welfare(profile, f)
    same, members = welfare_maximizers(profile, f)
    assert same == result
    welfare = result.welfare
    return (result.allocation.assignment, welfare.neg_inf_count, welfare.finite_part.hex(),
            result.maximizer_set_size, [a.assignment for a in members])


def block_sizes(profile):
    return sorted({1, 2, profile.n, 256})


class TestBlocks:
    @given(block_profiles(), st.sampled_from(BLOCK_FUNCTIONS))
    @example(Profile([[]]), LogAffine())
    @example(Profile([[0], [0], [0]]), CustomExpression.from_text("ln(x)"))
    @example(Profile([[0, 0, 0, 0, 0], [1, 2, 0, 3, 1], [2, 2, 2, 2, 2]]), CustomExpression.from_text("ln(x)"))
    @example(Profile([[1] * 8, [2] * 8]), Power(0.5))  # 256: one block
    @example(Profile([[1] * 9, [2] * 9]), Power(0.5))  # 512: two blocks
    @example(Profile([[0, 1, 0, 2, 0, 3], [1, 0, 2, 0, 3, 0], [0, 0, 0, 0, 0, 9]]),
             CustomExpression.from_text("ln(x)"))  # 729: three blocks
    @example(Profile([[10**5, 0, 800], [1, 1, 1]]), Exp())  # 800 overflows first bundle by bundle
    @example(Profile([[1, 0], [0, 1]]), CustomExpression.from_text("-(1-x)"))  # f(1) = -0.0; best sum 0.0
    @settings(max_examples=150, deadline=None)
    def test_welfare_scans_match_the_leaf_order_at_every_block_size(self, profile, f):
        expected = outcome(lambda: leaf_order_welfare(profile, f))
        for size in block_sizes(profile):
            with mock.patch.object(model, "_BLOCK", size):
                assert outcome(lambda: block_welfare(profile, f)) == expected

    @given(block_profiles(), st.randoms(use_true_random=False))
    @example(Profile([[]]), random.Random(0))
    @example(Profile([[1] * 9, [2] * 9]), random.Random(0))
    @settings(max_examples=100, deadline=None)
    def test_nash_and_pareto_match_the_leaf_order_at_every_block_size(self, profile, rng):
        allocation = Allocation(tuple(rng.randrange(profile.n) for _ in range(profile.m)))
        for size in block_sizes(profile):
            with mock.patch.object(model, "_BLOCK", size):
                check_nash(profile)
                check_pareto(profile, allocation)
                check_pareto(profile, max_nash_welfare(profile).allocation)

    @given(rational_profiles(max_goods=6), st.sampled_from(WELFARE_FUNCTIONS))
    @settings(max_examples=60, deadline=None)
    def test_branch_and_bound_matches_the_scan_at_every_block_size(self, profile, f):
        expected = maximize_welfare(profile, f)
        for size in block_sizes(profile):
            with mock.patch.object(model, "_BLOCK", size):
                assert maximize_welfare(profile, f, method="branch-and-bound") == expected

    @given(huge_profiles(max_goods=7), st.sampled_from((Affine(1, 0), Power(Fraction(1, 2)))))
    @example(Profile([[7, 2**53, 3, 2**53, 3, 3002399751580330], [2, 1, 3, 1, 3, 3002399751580330],
                      [3, 1, 2**53, 1, 2, 1]]), Affine(1, 0))  # a prefix bound within rounding of the band
    @settings(max_examples=100, deadline=None)
    def test_branch_and_bound_matches_the_scan_up_to_2_pow_60(self, profile, f):
        expected = maximize_welfare(profile, f)
        for size in (1, 256):
            with mock.patch.object(model, "_BLOCK", size):
                assert maximize_welfare(profile, f, method="branch-and-bound") == expected


LOG_AFFINE = (LogAffine(), LogAffine(2, -1), LogAffine(Fraction(1, 2), 3))


class TestOneNashPath:
    """Every entry point ranks a log-affine ``f`` by the exact Nash key, so all
    of them give the oracle's answer."""

    @given(block_profiles(), st.sampled_from(LOG_AFFINE))
    @example(Profile([[0, 0, 0], [0, 1, 999998112]]), LogAffine())  # ln(999998113/999998112) < 1e-9
    @example(Profile([[1, 9, 6, 0, 4], [2, 4, 1, 0, 2]]), LogAffine())  # a later tie's ln sum is 1 ulp larger
    @settings(max_examples=150, deadline=None)
    def test_every_entry_point_gives_the_oracles_answer(self, profile, f):
        assignment, neg, finite = best_of(profile, f)
        members = oracles.nash_members(profile)
        expected = SolveResult(Allocation(assignment), ExtendedWelfare(neg, finite), len(members))
        assert solve(profile, f) == expected
        for method in ("exhaustive", "branch-and-bound"):
            assert maximize_welfare(profile, f, method=method) == expected
        assert welfare_maximizers(profile, f) == (expected, tuple(map(Allocation, members)))
        nash = max_nash_welfare(profile)
        assert (nash.allocation, nash.maximizer_set_size) == (expected.allocation, len(members))
        if f == LogAffine():
            assert nash == expected


@dataclass(frozen=True)
class FlooredLog(WelfareFunction):
    """``ln(x)``, but ``-inf`` below 3: the excluded terms of a column depend on
    the prefix total, not only on which agents are at 0."""

    def value(self, x):
        return math.log(x) if x >= 3 else -math.inf


@st.composite
def walked_profiles(draw, entries):
    """Shapes whose walk has several prefixes at a 256-allocation block."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers({2: 9, 3: 6, 4: 5}[n], {2: 10, 3: 7, 4: 5}[n]))
    return Profile([[draw(entries) for _ in range(m)] for _ in range(n)])


def every_scan(profile, allocation):
    """Every kernel consumer's answer, the welfare scans' errors included."""
    answers = [outcome(lambda: block_welfare(profile, f)) for f in BLOCK_FUNCTIONS]
    answers += [outcome(lambda: maximize_welfare(profile, f, method="branch-and-bound")) for f in WELFARE_FUNCTIONS]
    return answers + [solve(profile, LogAffine()), is_pareto_optimal(profile, allocation)]


class TestColumnMemo:
    """A scan memoizes each agent's block column by its prefix total, and a
    block's fewest-excluded entries by the flagged ``(agent, total)`` pairs."""

    @pytest.mark.parametrize("profile", [
        # every column of the first prefixes is memoized before 800 overflows
        Profile([[0] + [1] * 5, [0] + [1] * 5, [800] + [1] * 5]),
        Profile([[0] + [1] * 8, [800] + [1] * 8]),
        # two prefix goods: the second prefix overflows at 10^5, not at 800
        Profile([[0, 0] + [1] * 5, [0, 10**5] + [1] * 5, [800, 0] + [1] * 5]),
    ])
    @pytest.mark.parametrize("cap", [1, model._COLUMN_CAP])
    def test_an_overflow_in_a_later_prefix_raises_the_leaf_order_error(self, profile, cap):
        expected = outcome(lambda: leaf_order_welfare(profile, Exp()))
        assert expected[0] is InvalidWelfareFunctionError
        for size in block_sizes(profile):
            with mock.patch.object(model, "_BLOCK", size), mock.patch.object(model, "_COLUMN_CAP", cap):
                assert outcome(lambda: block_welfare(profile, Exp())) == expected

    @given(walked_profiles(st.integers(0, 9)))
    @example(Profile([[1, 2, 0, 0, 0, 0, 0, 0, 0], [2, 1, 0, 0, 0, 0, 0, 0, 0]]))
    @settings(max_examples=40, deadline=None)
    def test_excluded_terms_at_a_positive_total_match_the_leaf_order(self, profile):
        f = FlooredLog()
        expected = outcome(lambda: leaf_order_welfare(profile, f))
        for size in sorted({1, profile.n, 256}):
            with mock.patch.object(model, "_BLOCK", size):
                assert outcome(lambda: block_welfare(profile, f)) == expected

    @given(walked_profiles(HUGE_ENTRIES), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_a_cap_of_one_column_gives_the_same_answers_up_to_2_pow_60(self, profile, rng):
        allocation = Allocation(tuple(rng.randrange(profile.n) for _ in range(profile.m)))
        expected = every_scan(profile, allocation)
        with mock.patch.object(model, "_COLUMN_CAP", 1):
            assert every_scan(profile, allocation) == expected
        check_nash(profile)
        check_pareto(profile, allocation)

    def test_a_walk_of_one_prefix_builds_no_memo(self):
        def build(total):
            return total

        one, two = (_scaled_rows(Profile([[1] * m] * 2), budget=10**7)[0] for m in (8, 9))
        suffixes = model._suffix_table(2, model._suffix_length(2, 8))[0]
        assert model._memo(build, one, suffixes) is build
        assert model._memo(build, two, suffixes) is not build
