"""The shared enumeration kernel, checked against the brute-force oracles.

Every exact scan (the welfare solvers, the Nash solver and the Pareto check)
walks the allocations through one integer-scaled kernel,
which walks a prefix of the goods and hands the rest over as one block per
prefix.  These tests feed it rational profiles whose rows have different
denominators, with zeros that leave some agent at utility 0, and compare
each consumer with the definitions in ``oracles``, which go through the
allocations one at a time; the block tests do so at several block sizes.
The ranking's walk groups the prefixes by their totals, and is checked to
hand over each allocation once, and every Pareto-optimal one on the frontier.
The maxima filter behind the frontier rankings is checked against the
definition of a maximal point.  A welfare function whose tree is proved rising
is checked against ``oracles.exact_maximizers``, an mpmath brute force.
"""

import copy
import functools
import logging
import math
import operator
import pickle
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
    ParetoVerdict,
    Profile,
    is_pareto_optimal,
    max_nash_welfare,
    maximize_welfare,
)
from fairalloc.model import _assignments, _scaled_rows
from fairalloc import fairness, model, welfarist
from fairalloc.funcparse import BinOp, Num, Var, parse_expression
from fairalloc.welfarist import (
    Affine,
    CustomExpression,
    Exp,
    ExtendedWelfare,
    LogAffine,
    Power,
    SolveResult,
    WelfareFunction,
    _Terms,
    _keys,
    allocation_welfare,
    solve,
    welfare_function_from_spec,
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
RATIONAL_ENTRIES = st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2, 3, 5, 7, 12)))


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


def form_of(f):
    """``"ln"`` or ``"x"`` where ``f``'s tree is recognised as log-affine or affine, else None."""
    return f._form and f._form[0]


@functools.lru_cache(maxsize=4)
def band_of(profile, f):
    """Every maximizer in order: the exact Nash ties for a recognised log-affine
    ``f``, the exact ties of the total for a recognised affine ``f``, else those
    of ``oracles.exact_maximizers``, an mpmath brute force over ``f``'s tree."""
    if form_of(f) == "ln":
        return oracles.nash_members(profile)
    if form_of(f) == "x":
        return oracles.best_utilitarian(profile)[2]
    return oracles.exact_maximizers(profile, f.ast())


def best_of(profile, f):
    """The oracle's first maximizer, its -inf count and its float welfare, ``f.value``
    summed in agent order; raises what ``f.value`` raises first in lexicographic order."""
    table = oracles.welfare_table(profile, f.value)
    first = band_of(profile, f)[0]
    return next(row for row in table if row[0] == first)


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


@st.composite
def point_sets(draw):
    """Distinct points with 1 to 5 coordinates: small values (ties in single coordinates,
    zeros) or values up to 2**60, and, half the time, an antichain of one coordinate sum, as
    the block entries of identical rows are."""
    n = draw(st.integers(1, 5))
    values = draw(st.sampled_from((st.integers(0, 3), HUGE_ENTRIES)))
    points = draw(st.lists(st.tuples(*[values] * n), min_size=1, max_size=40))
    if draw(st.booleans()):
        total = max(sum(point[1:]) for point in points)
        points = [(total - sum(point[1:]), *point[1:]) for point in points]
    return list(dict.fromkeys(points))


class TestMaxima:
    @given(point_sets())
    @example([c for c in product(range(5), repeat=4) if sum(c) == 4])  # every sum equal
    @example([(0, 2**60, 1, 1, 1), (0, 2**60, 1, 1, 0), (2**60, 0, 0, 0, 0), (2**60, 0, 0, 0, 1)])
    @example([(3, 0, 1), (3, 1, 0), (2, 1, 1), (3, 1, 1), (1, 1, 3)])  # (3, 1, 1) beats three of them
    @settings(max_examples=300, deadline=None)
    def test_keeps_exactly_the_points_no_other_weakly_exceeds(self, points):
        assert model._maxima(points) == maxima(points)

    @given(point_sets(), st.integers(1, 3))
    @example([(9, 0, 0, 0), (0, 9, 0, 0), (0, 0, 9, 0), (0, 0, 8, 0)], 2)  # only the third beats the last
    @settings(max_examples=200, deadline=None)
    def test_past_a_window_of_kept_points_keeps_the_maxima_and_order(self, points, window):
        with mock.patch.object(model, "_BLOCK", window):
            kept = model._maxima(points)
        assert set(maxima(points)) <= set(kept)
        assert kept == [p for p in points if p in kept]
        if len(points[0]) <= 3:  # the staircase has no window
            assert kept == maxima(points)


def maxima(points):
    return [p for p in points if not any(q != p and all(map(operator.ge, q, p)) for q in points)]


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
        terms, past = _Terms(f, 7), welfarist._LADDER_CAP + 49
        assert terms.keys([0]) == [-math.inf]
        for total in range(1, past + 1):  # the float nearest the midpoint of the enclosure
            assert terms.keys([total]) == [float(sum(f._ladder.enclose(Fraction(total, 7), 12)) / 2)]
        assert [len(memo) for memo in _keys(f, 7)] == [welfarist._LADDER_CAP] * 2
        assert _Terms(f, 7).keys([past, 1]) == [terms.entry(past)[0], terms.entry(1)[0]]

    @given(rational_profiles(max_goods=4), st.sampled_from(WELFARE_FUNCTIONS))
    @settings(max_examples=60, deadline=None)
    def test_scans_past_a_full_memo_give_the_same_results(self, profile, f):
        expected = [maximize_welfare(profile, f, method=m) for m in ("exhaustive", "branch-and-bound")]
        expected_band = welfare_maximizers(profile, f)
        f = copy.copy(f)  # no memo: one filled by earlier calls would answer without reaching the cap
        assert "_keys" not in vars(f)
        with mock.patch.object(welfarist, "_LADDER_CAP", 2):
            assert [maximize_welfare(profile, f, method=m) for m in ("exhaustive", "branch-and-bound")] == expected
            assert welfare_maximizers(profile, f) == expected_band
            assert len(vars(f).get("_keys", (0, (), ()))[1]) <= 2

    def test_functions_with_the_same_scale_never_share_terms(self):
        profile = Profile([[3, 5], [4, 0]])
        allocation = Allocation((0, 1))
        for a in (1, 2, 1, 2):
            f = LogAffine(a, 0)  # a fresh object each time; the last one may be freed
            assert allocation_welfare(profile, allocation, f) == ExtendedWelfare(1, a * math.log(3))
            assert maximize_welfare(profile, f).welfare == ExtendedWelfare(0, a * math.log(20))
        assert _Terms(LogAffine(1, 0), 1).keys([5]) != _Terms(LogAffine(2, 0), 1).keys([5])

    def test_a_raising_total_raises_on_every_call(self):
        f = Exp()
        profile = Profile([[1000, 1], [1, 1]])
        for _ in range(3):
            with pytest.raises(InvalidWelfareFunctionError, match="exp overflowed"):
                maximize_welfare(profile, f)
            with pytest.raises(InvalidWelfareFunctionError, match="exp overflowed"):
                allocation_welfare(profile, Allocation((0, 0)), f)
        assert all(total < 1000 for total in _keys(f, 1)[0])

    def test_the_number_of_memos_kept_is_bounded(self):  # one per function, at the scale it last ranked at
        f = Power(Fraction(1, 2))
        for scale in (1, 2, 3, 1):
            profile, twin = Profile([[Fraction(1, scale), 2], [2, 1]]), copy.copy(f)  # equal, but no memo
            assert maximize_welfare(profile, f) == maximize_welfare(profile, twin)
            memos = [value for value in vars(f).values() if isinstance(value, tuple)]
            assert len(memos) == 1 and memos[0][0] == scale and memos[0][1] is _keys(f, scale)[0]
            assert vars(twin)["_keys"][1] is not memos[0][1]
        assert "_keys" not in vars(pickle.loads(pickle.dumps(f)))

    def test_the_band_is_as_wide_as_the_totals_of_the_scan_alone(self):
        f, fresh, profile = Exp(), Exp(), Profile([[1, 2], [2, 1]])
        solve(Profile([[700, 0], [0, 700]]), f)  # a huge term, at the same scale: its bound is kept with its key
        seen = []

        def certified(profile, f, terms, members):
            seen.append(terms)
            return members

        with mock.patch.object(welfarist, "_certified", certified):
            assert solve(profile, f) == solve(profile, fresh)
        assert seen[0].bound == seen[1].bound < 10**-6
        assert 700 in _keys(f, 1)[0]

    def test_an_unhashable_welfare_function_still_solves(self):
        @dataclass
        class Square(WelfareFunction):
            a: Fraction = Fraction(1)

            def ast(self):
                return BinOp("*", Num(self.a), BinOp("^", Var(), Num(Fraction(2))))

        f = Square()
        with pytest.raises(TypeError):
            hash(f)
        profile = Profile([[3, 1, 4], [1, 5, 9]])
        for _ in range(2):
            assert solve(profile, f) == solve(profile, Power(2))


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


SQRT_2_POW_53 = [[0] * 9, [0] * 7 + [1, 2**53]]  # sqrt(2**53 + 1) rounds to sqrt(2**53)

BLOCK_FUNCTIONS = (
    LogAffine(), Affine(1, 0), Power(0.5), Power(2), Exp(),
    *map(CustomExpression.from_text, ("ln(x+1)", "ln(x)", "x*x+x", "ln(x)+x/10^12")),
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


@st.composite
def walked_profiles(draw, entries):
    """Shapes whose walk has several prefixes at a 256-allocation block."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers({2: 9, 3: 6, 4: 5}[n], {2: 10, 3: 7, 4: 5}[n]))
    return Profile([[draw(entries) for _ in range(m)] for _ in range(n)])


@st.composite
def frontier_profiles(draw, entries):
    """Shapes whose walk has over ``n**2`` prefixes at a 16-, 64- or 256-allocation block."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(*{2: (8, 11), 3: (6, 7), 4: (6, 6)}[n]))
    return Profile([[draw(entries) for _ in range(m)] for _ in range(n)])


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
    @example(Profile(SQRT_2_POW_53), Power(Fraction(1, 2)))  # a dominated band member at every split
    @settings(max_examples=150, deadline=None)
    def test_welfare_scans_match_the_leaf_order_at_every_block_size(self, profile, f):
        expected = outcome(lambda: leaf_order_welfare(profile, f))
        for size in block_sizes(profile):
            with mock.patch.object(model, "_BLOCK", size):
                assert outcome(lambda: block_welfare(profile, f)) == expected

    @given(block_profiles())
    @example(Profile([[]]))
    @example(Profile([[1, 4, 1, 3, 3, 4, 1, 2, 3, 4], [1, 4, 2, 3, 3, 1, 0, 2, 4, 2]]))
    @settings(max_examples=100, deadline=None)
    def test_the_ranking_walk_hands_over_each_allocation_once_in_groups_of_equal_totals(self, profile):
        rows, _ = _scaled_rows(profile, budget=10**7)

        def totals_of(assignment):
            totals = [0] * profile.n
            for good, agent in enumerate(assignment):
                totals[agent] += rows[agent][good]
            return tuple(totals)

        every = list(product(range(profile.n), repeat=profile.m))
        optimal = []  # the allocations' totals that no other's weakly exceed, by a sweep in descending sum
        for vector in sorted(set(map(totals_of, every)), key=sum, reverse=True):
            if not any(all(map(operator.ge, kept, vector)) for kept in optimal):
                optimal.append(vector)
        optimal = set(optimal)
        for size in sorted({1, 2, profile.n, 16, 64, 256}):
            with mock.patch.object(model, "_BLOCK", size):
                suffixes, _, _, groups = model._groups(rows)
            groups = list(groups)
            assert [group[0] for group, _ in groups] == sorted(group[0] for group, _ in groups)
            for group, totals in groups:
                assert group == sorted(group) and {totals_of(prefix) for prefix in group} == {totals}
            walked = [p + q for group, _ in groups for qs in suffixes for p in group for q in qs]
            assert len(walked) == len(set(walked))
            assert {a for a in every if totals_of(a) in optimal} <= set(walked)  # and perhaps others

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


LOG_AFFINE = (
    LogAffine(), LogAffine(2, -1), LogAffine(Fraction(1, 2), 3),
    *map(welfare_function_from_spec, ("expr:ln(x)", "expr:3*ln(x)+2", "expr:ln(x^2)")),
    *map(welfare_function_from_spec, ("expr:ln(sqrt(x))", "expr:ln(exp(ln(x)))", "expr:ln(x*x)")),
)
NEAR_TIE = Profile([[0, 0, 0], [0, 1, 999998112]])  # ln(999998113/999998112) < 1e-9
ULP_LATER = Profile([[1, 9, 6, 0, 4], [2, 4, 1, 0, 2]])  # a later tie's ln sum is 1 ulp larger
# three prefix goods; of the winning (prefix totals, entry totals) pairs ((4, 3), (12, 12)), ((1, 6), (15, 9)),
# ((1, 6), (14, 10)) and ((0, 7), (15, 9)), the first maximizer (0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0) is in the second
PROPORTIONAL = Profile([[2**j for j in range(11)], [3 * 2**j for j in range(11)]])  # all subset sums differ
LATER_PAIR = Profile([[1, 4, 1, 3, 3, 4, 1, 2, 3, 4, 3], [1, 4, 2, 3, 3, 1, 0, 2, 4, 2, 1]])


class TestOneNashPath:
    """Every entry point ranks a log-affine ``f``, in any recognised spelling, by the
    exact Nash key, so all of them give the oracle's answer."""

    @given(block_profiles(), st.sampled_from(LOG_AFFINE))
    @example(NEAR_TIE, LogAffine())
    @example(ULP_LATER, LogAffine())
    @example(NEAR_TIE, LOG_AFFINE[3])  # float sums counted 4 maximizers for expr:ln(x)
    @example(ULP_LATER, LOG_AFFINE[3])  # float sums chose (1, 1, 0, 0, 0) for expr:ln(x)
    @example(ULP_LATER, LOG_AFFINE[5])  # and for expr:ln(x^2)
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


    @given(st.sampled_from((HUGE_ENTRIES, RATIONAL_ENTRIES)).flatmap(frontier_profiles))
    @example(Profile([[1] * 9] * 2))  # 252 maximizers, the first (0, 0, 0, 0, 0, 1, 1, 1, 1)
    @example(Profile([[1] * 6] * 3))
    @example(Profile([[0] * 7, [1, 2, 3, 0, 0, 0, 1], [3, 0, 1, 2, 0, 0, 0]]))  # the fewest zeros decide
    @example(LATER_PAIR)
    @example(PROPORTIONAL)
    @settings(max_examples=20, deadline=None)
    def test_walks_of_several_prefixes_give_the_oracles_answer(self, profile):
        assignment, neg, finite = best_of(profile, LogAffine())
        members = tuple(map(Allocation, oracles.nash_members(profile)))
        expected = SolveResult(Allocation(assignment), ExtendedWelfare(neg, finite), len(members))
        for size in sorted({*block_sizes(profile), 16, 64}):
            with mock.patch.object(model, "_BLOCK", size):
                assert every_entry_point(profile, LogAffine()) == (expected, members)
                assert max_nash_welfare(profile) == expected

    def test_the_frontier_is_skipped_where_most_block_entries_are_maxima(self):
        def walk(profile):
            suffixes, _, _, prefixes = model._groups(_scaled_rows(profile, budget=10**7)[0])
            return [group for group, _ in prefixes], suffixes

        groups, suffixes = walk(LATER_PAIR)  # 8 prefixes: 6 prefix totals and 12 of the 256 entries' are kept
        assert len(groups) == 6 and len(suffixes) == 12
        groups, suffixes = walk(PROPORTIONAL)  # every allocation is Pareto optimal
        assert groups == [[prefix] for prefix in product((0, 1), repeat=3)]
        assert suffixes == tuple((suffix,) for suffix in model._suffix_table(2, 8)[0])

    def test_every_log_spelling_answers_as_log_on_3000_profiles(self):
        # ln(sqrt(x)) was ranked by float sums, and differed from log on 276 of these
        rng, log = random.Random(5), LogAffine()
        spellings = [welfare_function_from_spec(f"expr:{text}") for text in ("ln(sqrt(x))", "ln(exp(ln(x)))", "ln(x*x)")]
        entries = (0, 1, 2, 3, 10**6, 10**6 + 1, 2**40)
        for _ in range(3000):
            m = rng.randint(2, 5)
            profile = Profile([[rng.choice(entries) for _ in range(m)] for _ in range(2)])
            expected = solve(profile, log)
            for f in spellings:
                result = solve(profile, f)
                assert (result.allocation, result.maximizer_set_size) == (expected.allocation, expected.maximizer_set_size)

    def test_the_log_spellings_count_one_maximizer_where_log_does(self):
        profile = Profile([[1000001, 2, 2**40, 1000001], [2**40, 1000001, 1000001, 1000000]])
        for f in (LogAffine(), *LOG_AFFINE[6:]):
            result = solve(profile, f)
            assert (result.allocation.assignment, result.maximizer_set_size) == ((1, 1, 0, 0), 1)

    def test_identical_rows_count_every_even_split(self):
        result, members = welfare_maximizers(Profile([[1] * 9] * 2), LogAffine())
        assert (result.allocation.assignment, result.maximizer_set_size) == ((0, 0, 0, 0, 0, 1, 1, 1, 1), 252)
        assert [a.assignment for a in members] == [a for a in product((0, 1), repeat=9) if sum(a) in (4, 5)]


AFFINE = (
    Affine(1, 0), Affine(2, -1), Affine(Fraction(1, 3), 5),
    *map(welfare_function_from_spec, ("expr:x", "power:1", "expr:2*x+1")),
)
NEAR_2_POW_53 = [[2, 2, 2**53, 1], [3, 2, 2, 1], [2, 1, 3, 3002399751580330]]
FLOAT_SUMS_GOT_WRONG = [  # each good to an agent who values it most; float sums chose otherwise
    # (1,2,0,2) totals 1 less than (1,0,0,2), but float sums do not show it
    (NEAR_2_POW_53, Affine(1, 0), (1, 0, 0, 2), 2),
    # a later exact tie's float sum is 1 ulp larger
    ([[3, "3/7", 2], ["4/3", "7/12", 2]], Affine(1, 0), (0, 1, 0), 2),
    ([[9, 4, 7, 4, 1], [7, 4, 0, 9, 2], [5, 4, 5, 5, 4]], Affine(Fraction(1, 3), 5), (0, 0, 0, 1, 2), 3),
    # expr:x and power:1 chose (1,2,0,2) with 1 maximizer, and expr:2*x+1 counted 3
    *((NEAR_2_POW_53, f, (1, 0, 0, 2), 2) for f in AFFINE[3:]),
]


def every_entry_point(profile, f):
    """``solve``, ``maximize_welfare`` under both methods and ``welfare_maximizers``,
    after checking that they agree; the answer is ``(SolveResult, maximizers)``."""
    result, members = welfare_maximizers(profile, f)
    assert solve(profile, f) == result
    for method in ("exhaustive", "branch-and-bound"):
        assert maximize_welfare(profile, f, method=method) == result
    return result, members


class TestOneUtilitarianPath:
    """Every entry point ranks an affine ``f`` in closed form, by giving each good to
    an agent who values it most, so all of them give the exact oracle's answer."""

    @given(st.one_of(rational_profiles(), huge_profiles()), st.sampled_from(AFFINE))
    @example(Profile(FLOAT_SUMS_GOT_WRONG[0][0]), FLOAT_SUMS_GOT_WRONG[0][1])
    @example(Profile(FLOAT_SUMS_GOT_WRONG[1][0]), FLOAT_SUMS_GOT_WRONG[1][1])
    @example(Profile(FLOAT_SUMS_GOT_WRONG[2][0]), FLOAT_SUMS_GOT_WRONG[2][1])
    @example(Profile(FLOAT_SUMS_GOT_WRONG[3][0]), FLOAT_SUMS_GOT_WRONG[3][1])
    @example(Profile(FLOAT_SUMS_GOT_WRONG[4][0]), FLOAT_SUMS_GOT_WRONG[4][1])
    @example(Profile(FLOAT_SUMS_GOT_WRONG[5][0]), FLOAT_SUMS_GOT_WRONG[5][1])
    @example(Profile([[], []]), Affine(1, 0))  # no goods: one empty allocation
    @example(Profile([[1, 0, "1/2"]]), Affine(2, -1))  # one agent
    @example(Profile([[0, 1], [0, 2], [0, 0]]), Affine(Fraction(1, 3), 5))  # nobody values good 0
    @settings(max_examples=150, deadline=None)
    def test_every_entry_point_gives_the_oracles_answer(self, profile, f):
        assignment, ties, members = oracles.best_utilitarian(profile)
        allocation = Allocation(assignment)
        expected = SolveResult(allocation, allocation_welfare(profile, allocation, f), ties)
        assert every_entry_point(profile, f) == (expected, tuple(map(Allocation, members)))

    @pytest.mark.parametrize("rows, f, assignment, ties", FLOAT_SUMS_GOT_WRONG)
    def test_where_float_sums_chose_another_allocation(self, rows, f, assignment, ties):
        profile = Profile(rows)
        assert oracles.best_utilitarian(profile)[:2] == (assignment, ties)
        result, members = every_entry_point(profile, f)
        assert (result.allocation.assignment, result.maximizer_set_size, len(members)) == (assignment, ties, ties)

    def test_the_budget_is_checked_before_any_work(self):
        profile = Profile([[10**400] * 3] * 3)  # any welfare term overflows
        with pytest.raises(InvalidWelfareFunctionError, match="^affine:1,0 overflowed at a utility with 401 digits$"):
            solve(profile, Affine(1, 0), budget=27)
        for call in (solve, maximize_welfare, welfare_maximizers):
            with pytest.raises(EnumerationBudgetError):
                call(profile, Affine(1, 0), budget=26)
        with pytest.raises(EnumerationBudgetError):
            maximize_welfare(profile, Affine(1, 0), budget=26, method="branch-and-bound")


RISING = tuple(map(welfare_function_from_spec, ("power:1/2", "power:2", "exp", "expr:ln(x+1)", "expr:x^2+x")))
DOMINATED_IN_THE_BAND = [  # a float tie band also held allocations that these answers Pareto-dominate
    ([[9, 8, 9, 4, 8, 0, 8], [5, 4, 5, 9, 2, 9, 4]], Exp(), (0, 0, 0, 0, 0, 1, 0), 1),  # exp(46)+exp(9) rounds
    (SQRT_2_POW_53, Power(Fraction(1, 2)), (0,) * 7 + (1, 1), 128),  # good 7 to agent 0 tied
]


class TestRisingRules:
    """An ``f`` that ``funcparse.increasing`` proves rising is ranked over the kernel's Pareto frontier by the
    certified order of its exact sums; a dominated allocation is strictly below its dominator there."""

    @given(st.sampled_from((HUGE_ENTRIES, RATIONAL_ENTRIES)).flatmap(frontier_profiles), st.sampled_from(RISING))
    @example(Profile(SQRT_2_POW_53), RISING[0])
    @example(Profile([[1] * 9] * 2), RISING[0])  # every even split ties, and none dominates another
    @example(Profile([[1] * 6] * 3), RISING[4])
    # leaf order overflows first at 800 (agent 2 gets good 5); the frontier (good 0 to agent 1) at 10^5
    @example(Profile([[0] * 6, [10**5] + [0] * 5, [0] * 5 + [800]]), RISING[2])
    @settings(max_examples=25, deadline=None)
    def test_frontier_walks_give_the_oracles_answer_at_every_block_size(self, profile, f):
        expected = outcome(lambda: leaf_order_welfare(profile, f))
        for size in sorted({1, 2, profile.n, 16, 64, 256}):
            with mock.patch.object(model, "_BLOCK", size):
                assert outcome(lambda: block_welfare(profile, f)) == expected

    @pytest.mark.parametrize("rows, f, assignment, ties", DOMINATED_IN_THE_BAND)
    def test_a_dominated_band_member_is_no_maximizer(self, rows, f, assignment, ties):
        profile = Profile(rows)
        result, members = every_entry_point(profile, f)
        assert (result.allocation.assignment, result.maximizer_set_size, len(members)) == (assignment, ties, ties)
        assert [a.assignment for a in members] == oracles.exact_maximizers(profile, f.ast())
        assert all(is_pareto_optimal(profile, allocation).optimal for allocation in members)

    def test_an_unproven_tree_is_refused(self):
        # x - x^2/100 falls past x = 50: on [[120, 0], [0, 0]] a float band returned the dominated (1, 0), 2 ties
        with pytest.raises(InvalidWelfareFunctionError, match=r"^expr:x-x\^2/100 is not proved increasing"):
            welfare_function_from_spec("expr:x-x^2/100")

        @dataclass(frozen=True)
        class Falling(WelfareFunction):
            def ast(self):
                return parse_expression("x-x^2/100")

        for call in (solve, maximize_welfare, welfare_maximizers):
            with pytest.raises(InvalidWelfareFunctionError, match="not proved increasing"):
                call(Profile([[120, 0], [0, 0]]), Falling())

    def test_a_function_without_a_tree_is_refused_by_every_solver(self):
        @dataclass(frozen=True)
        class Bare(WelfareFunction):
            def value(self, x):
                return float(x)

        for call in (solve, maximize_welfare, welfare_maximizers):
            with pytest.raises(InvalidWelfareFunctionError, match="^Bare supplies no expression tree$"):
                call(Profile([[1, 2], [2, 1]]), Bare())


CERTIFIED = tuple(map(welfare_function_from_spec, ("exp", "power:1/2", "power:2", "expr:ln(x+1)", "expr:ln(x)+x/10^12")))


class TestCertifiedOrder:
    """Every rising rule's first maximizer, tie count and maximizers are those of an mpmath brute force."""

    @given(st.sampled_from((HUGE_ENTRIES, RATIONAL_ENTRIES)).flatmap(walked_profiles), st.sampled_from(CERTIFIED))
    @example(Profile([[4, 5], [0, 1]]), CERTIFIED[1])  # sqrt: 3 + 0 = 2 + 1, no term in common
    @example(Profile([[2**60, 1, 3], [2**60, 2, 2]]), CERTIFIED[4])  # x/10^12 splits what ln ties
    @example(Profile([["1/3", "2/3", 1], ["2/3", "1/3", 1]]), CERTIFIED[2])  # permuted totals tie exactly
    @settings(max_examples=60, deadline=None)
    def test_every_answer_is_the_mpmath_oracles(self, profile, f):
        expected = outcome(lambda: leaf_order_welfare(profile, f))
        assert outcome(lambda: block_welfare(profile, f)) == expected

    def test_a_tie_the_last_rung_cannot_split_is_counted_and_logged_once(self, caplog):
        for scale, digits in ((1, 2), (10**100, 102)):  # sqrt(9) + sqrt(0) = sqrt(4) + sqrt(1): enclosures never split
            profile = Profile([[4 * scale, 5 * scale], [0, scale]])
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="fairalloc.welfarist"):
                result, members = welfare_maximizers(profile, CERTIFIED[1])
            expected = oracles.exact_maximizers(profile, CERTIFIED[1].ast())
            assert [a.assignment for a in members] == expected == [(0, 0), (0, 1)]
            (record,) = caplog.records
            assert "uncertified" in record.getMessage() and f"totals of at most {digits} digits" in record.getMessage()
            assert str(9 * scale) not in record.getMessage()  # the totals' sizes, not their digits

    def test_points_finer_than_the_trees_last_rung_are_split(self, caplog):
        # the tree of power:1/2 gives an 80-digit last rung; sqrt(1 + 10^-100) - 1 needs the points' own digits
        f, profile = CERTIFIED[1], Profile([[1, 1], [1, 1 + Fraction(1, 10**100)]])
        with caplog.at_level(logging.INFO, logger="fairalloc.welfarist"):
            result, members = welfare_maximizers(profile, f)
        assert [a.assignment for a in members] == oracles.exact_maximizers(profile, f.ast(), digits=300) == [(0, 1)]
        assert result.maximizer_set_size == 1 and not caplog.records
        assert f._ladder.last_rung([Fraction(1, 10**100)]) > f._ladder.rungs[-1] == 80

    def test_a_term_at_0_that_floats_lose_is_finite(self):
        # 10^-400 is 0.0 in floats, so the float tree gives -inf at 0; f(0) = ln(10^-400) is about -921.03
        f = welfare_function_from_spec("expr:ln(x+10^-400)")
        profile = Profile([[10**60, 0, 0], [10**307, 10**60, 0], [0, 10**307, 10**60]])
        result, members = welfare_maximizers(profile, f)
        # (1, 2, 2) beats (1, 2, 0) and (1, 2, 1) by about 10^-247: ties at the oracle's default 150 digits
        assert oracles.exact_maximizers(profile, f.ast()) == [(1, 2, 0), (1, 2, 1), (1, 2, 2)]
        assert [a.assignment for a in members] == oracles.exact_maximizers(profile, f.ast(), digits=1000) == [(1, 2, 2)]
        assert result.welfare == allocation_welfare(profile, result.allocation, f)
        assert result.welfare.neg_inf_count == 0
        assert f.value(0) == f.value(Fraction(0)) == pytest.approx(-400 * math.log(10), rel=2**-52)
        for spec in ("log", "expr:ln(x)", "expr:ln(x)+x/10^12"):  # no enclosure of f(0): -inf stands
            assert welfare_function_from_spec(spec).value(0) == -math.inf
        with pytest.raises(InvalidWelfareFunctionError, match="overflowed at a utility 0"):
            welfare_function_from_spec("expr:ln(x+10^-400)*10^307").value(0)

    def test_a_term_that_floats_underflow_gives_one_answer_at_every_block_size(self):
        # (2/10^110)^3 is 0.0 in floats, but f is read from enclosures alone, so no walk meets a failing term
        profile = Profile([[0, 0, 0, 1], [Fraction(2, 10**110), 2, Fraction(2, 10**110), 0]])
        expected = oracles.exact_maximizers(profile, parse_expression("ln(x^3)+x"), digits=400)
        assert expected == [(1, 1, 1, 0)]
        for size in (1, 2, 256):
            with mock.patch.object(model, "_BLOCK", size):
                result, members = welfare_maximizers(Profile(profile.utilities), welfare_function_from_spec("expr:ln(x^3)+x"))
            assert (result.allocation.assignment, result.maximizer_set_size) == (expected[0], len(expected))
            assert [a.assignment for a in members] == expected

    def test_a_term_below_every_decimal_is_enclosed(self):
        # 10^-1001000 is 0.0 in floats and below decimal's exponents: its enclosure is [0, 10^-1000010]
        lo, hi = Power(1001)._ladder.enclose(Fraction(1, 10**1000), 12)
        assert lo == 0 < hi < Fraction(1, 10**1000000)
        profile = Profile([[Fraction(1, 10**1000), 1], [1, Fraction(1, 10**1000)]])
        assert solve(profile, Power(1001)) == SolveResult(Allocation((1, 0)), ExtendedWelfare(0, 2.0), 1)

    def test_a_gap_below_float_resolution_decides(self):
        # ln(x) + x/10^12: the two allocations' float sums tie; their exact sums differ by 10^-12
        f = CERTIFIED[4]
        profile = Profile([[2**52, 2], [2**52, 1]])
        result, members = welfare_maximizers(profile, f)
        assert [a.assignment for a in members] == oracles.exact_maximizers(profile, f.ast())


class TestKeptWalk:
    """A profile keeps the kernel's grouped frontier walk for the block size it was last ranked at, built once the
    budget is checked, so that every ranking of one profile reads one walk."""

    RULES = (LogAffine(), Power(Fraction(1, 2)), Power(2), CustomExpression.from_text("ln(x+1)"), Exp())

    @given(st.sampled_from((HUGE_ENTRIES, RATIONAL_ENTRIES)).flatmap(walked_profiles))
    @example(LATER_PAIR)
    @settings(max_examples=20, deadline=None)
    def test_later_scans_build_no_walk_and_answer_as_a_fresh_profile(self, profile):
        expected = [outcome(lambda: every_entry_point(Profile(profile.utilities), f)) for f in self.RULES]
        solve(profile, LogAffine())
        with mock.patch.object(model, "_blocks", side_effect=AssertionError("a second walk of one profile")):
            assert [outcome(lambda: every_entry_point(profile, f)) for f in self.RULES] == expected

    def test_a_walk_is_not_reused_under_another_block_size(self):
        profile, rows = Profile(LATER_PAIR.utilities), _scaled_rows(LATER_PAIR, budget=10**7)[0]
        expected = welfare_maximizers(LATER_PAIR, Power(2))
        for size in (256, 2, 1, 256):
            with mock.patch.object(model, "_BLOCK", size):
                assert welfare_maximizers(profile, Power(2)) == expected
                suffixes, _, _, groups = model._frontier(profile, 10**7)
                fresh, length = model._groups(rows), model._suffix_length(2, 11)
            assert {len(q) for qs in suffixes for q in qs} == {length}  # 8 goods at 256, 1 at 2, none at 1
            assert (suffixes, groups) == (fresh[0], fresh[3])

    def test_a_kept_walk_is_no_part_of_equality_hash_repr_or_pickling(self):
        profile, twin = Profile(LATER_PAIR.utilities), Profile(LATER_PAIR.utilities)
        seen = hash(profile), repr(profile)
        solve(profile, Power(2))
        assert "_walk" in vars(profile) and "_walk" not in vars(twin)
        assert profile == twin and (hash(profile), repr(profile)) == seen == (hash(twin), repr(twin))
        restored = pickle.loads(pickle.dumps(profile))
        assert restored == profile and "_walk" not in vars(restored)

    @given(st.sampled_from((HUGE_ENTRIES, RATIONAL_ENTRIES)).flatmap(walked_profiles))
    @example(LATER_PAIR)
    @example(PROPORTIONAL)
    @settings(max_examples=20, deadline=None)
    def test_an_optimal_verdict_on_a_solved_profile_reads_the_kept_walk_alone(self, profile):
        allocation = solve(profile, LogAffine()).allocation
        walk = AssertionError("a walk past the kept one")
        with mock.patch.object(model, "_blocks", side_effect=walk), mock.patch.object(fairness, "_blocks", side_effect=walk):
            assert is_pareto_optimal(profile, allocation) == ParetoVerdict(True, None)

    def test_the_budget_is_checked_before_the_kept_walk_is_read(self):
        profile = Profile(LATER_PAIR.utilities)
        for f in self.RULES:
            solve(profile, f)
            for call in (solve, maximize_welfare, welfare_maximizers):
                with pytest.raises(EnumerationBudgetError):
                    call(profile, f, budget=1)
        with pytest.raises(EnumerationBudgetError):
            model._frontier(profile, 2**11 - 1)
        assert model._frontier(profile, 2**11) is model._frontier(profile, 10**7)


@st.composite
def five_agent_profiles(draw):
    """Five agents over four or five goods, with many zeros, so that the frontier filters some walks and
    :func:`model._maxima`'s window past three coordinates keeps points that only later ones exceed."""
    entries = draw(st.sampled_from((st.sampled_from((0, 0, 1, 2, 9)), HUGE_ENTRIES)))
    m = draw(st.integers(4, 5))
    return Profile([[draw(entries) for _ in range(m)] for _ in range(5)])


def with_assignment(profile):
    return st.tuples(st.just(profile), st.tuples(*[st.integers(0, profile.n - 1)] * profile.m))


# one of the four dominators of (0, 1, 0, 1), the first (0, 1, 1, 0), is itself dominated by (1, 1, 1, 0)
OFF_THE_FRONTIER = Profile([[0, 0, 1, 3], [1, 2, 3, 2]])
# at a 16-allocation block one of the five entries is kept, and 70 prefix totals against 45 maxima
EXTRA_MAXIMA = Profile([[9, 0, 9, 9, 2], [0, 0, 0, 9, 0], [1, 2, 0, 9, 0], [9, 1, 9, 0, 0], [9, 9, 0, 1, 0]])


class TestParetoFromTheKeptWalk:
    """The Pareto check answers "optimal" from the profile's kept frontier walk, and walks for the first dominator
    only where one exists or no walk is kept: both agree with the oracle at every block size, on walks the frontier
    filters too, and a check of a profile with no kept walk builds none."""

    @given(st.one_of(
        walked_profiles(HUGE_ENTRIES), walked_profiles(RATIONAL_ENTRIES), block_profiles(), five_agent_profiles(),
    ).flatmap(with_assignment))
    @example((PROPORTIONAL, (0, 1) * 5 + (0,)))  # every allocation is Pareto optimal: the walk is left unfiltered
    @example((OFF_THE_FRONTIER, (0, 1, 0, 1)))
    @example((EXTRA_MAXIMA, (0, 1, 2, 3, 4)))
    @example((EXTRA_MAXIMA, (4, 4, 4, 4, 4)))
    @settings(max_examples=60, deadline=None)
    def test_the_verdict_and_first_dominator_are_the_oracles_at_every_block_size(self, instance):
        profile, assignment = instance
        allocations = (Allocation(assignment), max_nash_welfare(profile).allocation)
        expected = []
        for allocation in allocations:
            dominators = oracles.pareto_dominators(profile, allocation.assignment)
            expected.append(ParetoVerdict(not dominators, Allocation(dominators[0]) if dominators else None))
        for size in sorted({*block_sizes(profile), 16, 64}):
            with mock.patch.object(model, "_BLOCK", size):
                cold = Profile(profile.utilities)
                assert [is_pareto_optimal(cold, allocation) for allocation in allocations] == expected
                assert model._kept(cold) is None
                model._frontier(profile, 10**7)
                assert [is_pareto_optimal(profile, allocation) for allocation in allocations] == expected

    def test_the_examples_walk_what_they_name(self):
        rows = _scaled_rows(EXTRA_MAXIMA, budget=10**7)[0]
        with mock.patch.object(model, "_BLOCK", 16):
            suffixes, _, _, groups = model._groups(rows)
        prefixes = {tuple(totals) for _, totals in _assignments(tuple(row[:4] for row in rows))}
        assert (len(suffixes), len(groups), len(maxima(prefixes))) == (1, 70, 45)
        assert is_pareto_optimal(OFF_THE_FRONTIER, Allocation((0, 1, 0, 1))).dominator == Allocation((0, 1, 1, 0))
        assert not is_pareto_optimal(OFF_THE_FRONTIER, Allocation((0, 1, 1, 0))).optimal


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
