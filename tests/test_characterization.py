import logging
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairalloc import characterization
from fairalloc import (
    Profile,
    constancy_check,
    counterexample_profile,
    extend_profile,
    find_ef1_counterexample,
    fit_log,
    is_ef1,
    maximize_welfare,
    scaled_difference,
)
from fairalloc.errors import InvalidWelfareFunctionError
from fairalloc.fairness import Ef1Verdict
from fairalloc.funcparse import BinOp, Num, Var, parse_expression
from fairalloc.welfarist import (
    Affine,
    CustomExpression,
    Exp,
    LogAffine,
    Power,
    WelfareFunction,
    welfare_function_from_spec,
)


class TestScaledDifference:
    def test_log_is_flat(self):
        for x in (0.5, 1.0, 2.0, 5.0):
            assert scaled_difference(LogAffine(), 2, x) == pytest.approx(
                math.log(Fraction(3, 2)), abs=1e-12
            )

    def test_identity_is_linear(self):
        assert scaled_difference(Affine(1, 0), 1, 3.0) == pytest.approx(3.0)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            scaled_difference(Affine(1, 0), 0, 1.0)


class TestConstancyCheck:
    def test_log_constant(self):
        report = constancy_check(LogAffine(), 2, [0.5, 1, 2, 5])
        assert report.constant
        assert report.spread <= 1e-9
        assert report.level == pytest.approx(math.log(1.5), abs=1e-12)
        assert [x for x, _ in report.samples] == [0.5, 1, 2, 5]

    def test_identity_not_constant(self):
        report = constancy_check(Affine(1, 0), 1, [1, 2])
        assert not report.constant
        assert report.spread == pytest.approx(1.0)
        assert report.level is None

    def test_scaled_log_levels(self):
        f = LogAffine(3, 2)
        for k in range(1, 6):
            report = constancy_check(f, k, [0.5, 1, 2, 5])
            assert report.constant
            assert report.level == pytest.approx(3 * math.log(1 + 1 / k), abs=1e-12)
            assert report.level / math.log1p(1 / k) == pytest.approx(3, rel=1e-12)
        # whereas k*level only converges like O(1/k): at k=5 it is
        # 15*ln(6/5) = 2.7348, still 8.8% below 3
        level5 = constancy_check(f, 5, [0.5, 1, 2, 5]).level
        assert 5 * level5 == pytest.approx(15 * math.log(1.2), abs=1e-9)
        assert abs(5 * level5 - 3) / 3 > 0.05

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            constancy_check(LogAffine(), 1, [])
        with pytest.raises(ValueError):
            constancy_check(LogAffine(), 1, [0.0, 1.0])


class TestFitLog:
    def test_recovers_scaled_log_parameters(self):
        outcome = fit_log(LogAffine(3, 2), k_max=50, grid=[0.5, 1, 2, 5, 10])
        assert outcome.is_log_affine
        fit = outcome.fit
        assert abs(fit.a - 3) / 3 <= 1e-9
        assert fit.b == 2.0
        assert fit.max_residual <= 1e-9

    def test_identity_fails_at_k_one(self):
        outcome = fit_log(Affine(1, 0), k_max=5, grid=[1, 2])
        assert not outcome.is_log_affine
        assert outcome.failed.k == 1

    def test_square_fails_at_k_one(self):
        outcome = fit_log(Power(2), k_max=5, grid=[1, 2])
        assert not outcome.is_log_affine
        assert outcome.failed.k == 1
        assert outcome.failed.spread > 1e-9


class Tree(WelfareFunction):
    """Any expression tree, increasing or not, as a welfare function."""

    def __init__(self, tree):
        self.tree = tree

    def ast(self):
        return self.tree


@st.composite
def polynomials(draw):
    """``(coefficients, tree)`` for ``c0 + c1*x + c2*x^2 + ...``, rational, often with zeros."""
    coefficient = st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=6))
    coefficients = draw(st.lists(coefficient, min_size=1, max_size=4))
    tree = Num(coefficients[0])
    for power, c in enumerate(coefficients[1:], 1):
        tree = BinOp("+", tree, BinOp("*", Num(c), BinOp("^", Var(), Num(Fraction(power)))))
    return coefficients, tree


class TestCertifiedConstancy:
    """Constancy and the fit are decided by the search's certified sign test, never by a float spread."""

    @pytest.mark.parametrize("spec,slope", [
        ("log", 1), ("log:3,2", 3), ("log:1/2,-1", Fraction(1, 2)), ("log:1,100000000000000000", 1),
        ("expr:ln(x)", 1), ("expr:3*ln(x)+2", 3), ("expr:ln(x^2)", 2), ("expr:ln(2*x)", 1),
        ("expr:ln(x)/2-3", Fraction(1, 2)), ("expr:ln(x/3)+ln(x)", 2), ("expr:ln(x)+10^17", 1),
    ])
    def test_recognised_log_affine_spellings(self, spec, slope):
        f = welfare_function_from_spec(spec)
        assert f._form == ("ln", slope)
        for k in range(1, 51):
            assert constancy_check(f, k, [Fraction(1, 3), 1, 2, 5, 10]).constant
        outcome = fit_log(f)
        assert outcome.is_log_affine
        assert abs(outcome.fit.a - slope) <= 1e-12 * slope

    @pytest.mark.parametrize("spec", ["log:1,100000000000000000", "expr:ln(x)+10^17"])
    def test_a_large_intercept_does_not_hide_the_slope(self, spec):
        # in floats 10^17 + ln(x) is 10^17 on the whole grid, so every sample of d_k is 0
        fit = fit_log(welfare_function_from_spec(spec)).fit
        assert (fit.a, fit.b) == (1.0, 1e17)

    @pytest.mark.parametrize("spec,slope", [("expr:ln(x*x)", 2), ("expr:ln(x)+x-x", 1)])
    def test_unrecognised_log_affine_trees_tie_at_80_digits(self, spec, slope):
        # as welfare functions, ln(x*x) is recognised and ln(x)+x-x is refused: here both are bare trees, unrecognised
        f = Tree(parse_expression(spec.removeprefix("expr:")))
        f._form = None
        for k in range(1, 6):
            assert constancy_check(f, k, [Fraction(1, 2), 1, 2, 5]).constant
        outcome = fit_log(f, k_max=10)
        assert outcome.is_log_affine
        assert abs(outcome.fit.a - slope) <= 1e-12 * slope

    @pytest.mark.parametrize("digits", [12, 30, 60, 100])  # 10^100 lifts the last rung to 222 digits
    def test_a_gap_below_float_resolution_is_not_constant(self, digits):
        # d_1(x) = ln 2 + x/10^c: floats see a spread of 1e-11 at most, or 0
        f = welfare_function_from_spec(f"expr:ln(x)+x/10^{digits}")
        report = constancy_check(f, 1, [0.5, 1, 2, 5, 10])
        assert not report.constant and report.level is None
        assert report.spread < 1e-10
        outcome = fit_log(f)
        assert not outcome.is_log_affine
        assert outcome.failed.k == 1 and not outcome.failed.constant

    @settings(max_examples=80, deadline=None)
    @given(
        polynomials(),
        st.lists(st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=5), min_size=1, max_size=4),
        st.integers(1, 4),
    )
    def test_polynomial_verdicts_match_exact_arithmetic(self, polynomial, grid, k):
        coefficients, tree = polynomial
        p = lambda x: sum(c * x**i for i, c in enumerate(coefficients))  # noqa: E731
        constant = lambda k: len({p((k + 1) * x) - p(k * x) for x in grid}) == 1  # noqa: E731
        f = Tree(tree)
        assert constancy_check(f, k, grid).constant == constant(k)
        outcome = fit_log(f, k_max=3, grid=grid)
        failing = next((k for k in range(1, 4) if not constant(k)), None)
        if failing is not None:
            assert outcome.failed.k == failing
        else:  # a fit needs a positive slope d_1(x0) / ln 2
            assert outcome.is_log_affine == (p(2 * Fraction(grid[0])) > p(Fraction(grid[0])))

    def test_function_without_expression_tree_is_refused(self):
        class Bare(WelfareFunction):
            def value(self, x):
                return float(x)

        with pytest.raises(NotImplementedError, match="Bare supplies no expression tree"):
            constancy_check(Bare(), 1, [1, 2])
        with pytest.raises(NotImplementedError, match="Bare supplies no expression tree"):
            fit_log(Bare())

    def test_a_huge_constant_power_is_enclosed_fast(self):
        # (1 + 1/10^6)^(10^6) has some 20 million bits exactly; it is enclosed as exp(10^6 ln(1 + 1/10^6))
        f = welfare_function_from_spec("expr:x*(1+1/10^6)^(10^6)")
        start = time.perf_counter()
        outcome = fit_log(f)
        report = find_ef1_counterexample(f, k_max=1)
        assert time.perf_counter() - start < 5
        assert outcome.failed.k == 1
        assert report is not None and not report.ef1.holds


class TestCounterexampleProfile:
    def test_shape(self):
        profile = counterexample_profile(1, Fraction(2), Fraction(1), Fraction(1, 2))
        assert profile.utilities == (
            (Fraction(0), Fraction(2), Fraction(2)),
            (Fraction(1, 2), Fraction(1), Fraction(1)),
        )

    def test_discount_bounds(self):
        with pytest.raises(ValueError):
            counterexample_profile(1, 1, 1, 1)
        with pytest.raises(ValueError):
            counterexample_profile(1, 1, 1, 0)


class TestFindCounterexample:
    def test_utilitarian_on_two_point_grid(self):
        report = find_ef1_counterexample(Affine(1, 0), grid=[1, 2])
        assert report is not None
        assert (report.k, report.agent0_value, report.agent1_value) == (
            1,
            Fraction(2),
            Fraction(1),
        )
        assert report.discount == Fraction(1, 2)
        assert report.profile.utilities == (
            (Fraction(0), Fraction(2), Fraction(2)),
            (Fraction(1, 2), Fraction(1), Fraction(1)),
        )
        assert report.solve.allocation.assignment == (1, 0, 0)
        assert report.solve.welfare.finite_part == 4.5
        assert report.solve.maximizer_set_size == 1
        assert not report.ef1.holds
        assert report.all_maximizers_violate

    def test_square_on_two_point_grid(self):
        f = Power(2)
        report = find_ef1_counterexample(f, grid=[1, 2])
        assert report.profile.utilities == (
            (Fraction(0), Fraction(2), Fraction(2)),
            (Fraction(1, 2), Fraction(1), Fraction(1)),
        )
        # the strict gap: 16 - 4 = 12 on one side, 2.25 - 0.25 = 2 on the other
        lhs = f.value(2 * report.agent0_value) - f.value(report.agent0_value)
        rhs = f.value(2 * report.agent1_value - report.discount) - f.value(
            report.agent1_value - report.discount
        )
        assert (lhs, rhs) == (12.0, 2.0)
        assert report.solve.allocation.assignment == (1, 0, 0)
        assert report.solve.welfare.finite_part == 16.25
        assert not report.ef1.holds

    @pytest.mark.parametrize("f", [Affine(1, 0), Power(0.5), Power(2), Exp()])
    def test_default_grid_finds_k_one(self, f):
        report = find_ef1_counterexample(f, k_max=5)
        assert report is not None
        assert report.k == 1
        # soundness: the report re-validates from its own fields
        assert not is_ef1(report.profile, report.solve.allocation).holds
        assert report.all_maximizers_violate
        k, y, z, eps = report.k, report.agent0_value, report.agent1_value, report.discount
        assert 0 < eps < z
        lhs = f.value((k + 1) * y) - f.value(k * y)
        rhs = f.value((k + 1) * z - eps) - f.value(k * z - eps)
        assert lhs > rhs
        assert report.profile.utilities == counterexample_profile(k, y, z, eps).utilities

    @pytest.mark.parametrize(
        "a,b", [(0.5, -1.0), (1.0, 0.0), (3.0, 2.0)]
    )
    def test_log_family_yields_nothing(self, a, b):
        assert find_ef1_counterexample(LogAffine(a, b), k_max=5) is None

    def test_scaled_log_constancy_across_parameters(self):
        for a in (0.5, 1.0, 3.0):
            for b in (-1.0, 0.0, 2.0):
                for k in range(1, 6):
                    report = constancy_check(LogAffine(a, b), k, [0.5, 1, 2, 5])
                    assert report.constant

    def test_custom_log_expression_yields_nothing(self):
        f = CustomExpression.from_text("3*ln(x)+2")
        assert find_ef1_counterexample(f, k_max=3) is None

    def test_log_affine_search_builds_no_candidate(self, caplog, monkeypatch):
        scans = []
        real = characterization.welfare_maximizers
        monkeypatch.setattr(
            characterization, "welfare_maximizers",
            lambda *args, **kwargs: scans.append(args) or real(*args, **kwargs),
        )
        with caplog.at_level(logging.WARNING, logger="fairalloc.characterization"):
            assert find_ef1_counterexample(LogAffine(), k_max=2) is None
        # every d_k comparison is a certified tie, so nothing is scanned
        assert scans == []
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_rejected_candidates_are_logged(self, caplog, monkeypatch):
        # the construction verifies for every non-log f, so a checker that passes every allocation makes rejections
        monkeypatch.setattr(characterization, "is_ef1", lambda profile, allocation: Ef1Verdict(True))
        f = CustomExpression.from_text("ln(x)+x/10^12")
        with caplog.at_level(logging.DEBUG, logger="fairalloc.characterization"):
            assert find_ef1_counterexample(f, k_max=1) is None
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(debug) == 45 and all("the chosen maximizer passes" in m and "skipping" in m for m in debug)
        # one summary for the whole search, counted by reason, and nothing louder
        (summary,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.INFO]
        assert summary == (
            "search for expr:ln(x)+x/10^12 to k=1: found k=None; "
            "rejected {'candidates whose chosen maximizer passes EF1': 45}"
        )

    @pytest.mark.parametrize("text, rejected", [
        ("exp(exp(4*x))", {"candidates whose solve failed": 4, "pairs whose comparison failed": 86}),
        ("exp(x)*exp(3^8*x)", {"candidates whose solve failed": 90}),
        ("exp(x)*exp(8^8*x)", {"pairs whose comparison failed": 90}),
    ])
    def test_a_pair_or_candidate_that_fails_is_a_counted_rejection(self, caplog, text, rejected):
        # the float keys of a solve overflow, or an enclosure of a comparison leaves decimal's range
        f = welfare_function_from_spec(f"expr:{text}")
        with caplog.at_level(logging.DEBUG, logger="fairalloc.characterization"):
            assert find_ef1_counterexample(f, k_max=2) is None
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(debug) == sum(rejected.values()) and all("failed" in m and "skipping" in m for m in debug)
        (summary,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.INFO]
        assert summary == f"search for expr:{text} to k=2: found k=None; rejected {rejected}"

    @pytest.mark.parametrize("text, error", [
        ("1/(x+1)", "is not proved increasing"),  # falls
        ("exp(ln(x))", "failed at a utility 0"),  # rises, with no value at 0
    ])
    def test_a_rule_no_scan_can_rank_raises_before_the_search(self, monkeypatch, text, error):
        # a solve of every candidate would fail alike: that is no counted rejection and no "not found"
        class Unchecked(CustomExpression):
            def __post_init__(self):
                pass

        monkeypatch.setattr(characterization, "_candidates", pytest.fail)
        with pytest.raises(InvalidWelfareFunctionError, match=error):
            find_ef1_counterexample(Unchecked.from_text(text), k_max=2)

    def test_a_gap_below_float_resolution_yields_an_instance(self, caplog):
        # a float tie band of 1e-9 rejected every candidate of ln(x) + x/10^12, and the search returned None
        f = CustomExpression.from_text("ln(x)+x/10^12")
        with caplog.at_level(logging.INFO, logger="fairalloc"):
            report = find_ef1_counterexample(f)
        assert (report.k, report.agent0_value, report.agent1_value) == (1, 1, Fraction(1, 2))
        maximizers = oracles.exact_maximizers(report.profile, f.ast())
        assert maximizers == [report.solve.allocation.assignment]
        assert not any(oracles.ef1_holds(report.profile, a) for a in maximizers)
        assert [r.getMessage() for r in caplog.records] == ["search for expr:ln(x)+x/10^12 to k=5: found k=1; rejected {}"]

    def test_function_without_expression_tree_is_refused(self):
        class Bare(WelfareFunction):
            def value(self, x):
                return float(x)

        with pytest.raises(NotImplementedError, match="Bare supplies no expression tree"):
            find_ef1_counterexample(Bare())

    def test_discount_bisection_descends_below_half(self):
        # for the square root, larger discounts push the gap the wrong way;
        # with y = 51/50 and z = 1 the first discount satisfying the strict
        # gap is 1/64
        report = find_ef1_counterexample(Power(0.5), grid=[Fraction(1), Fraction(51, 50)])
        assert report is not None
        assert (report.agent0_value, report.agent1_value) == (Fraction(51, 50), Fraction(1))
        assert report.discount == Fraction(1, 64)
        assert not report.ef1.holds

    def test_epsilon_override(self):
        report = find_ef1_counterexample(
            Affine(1, 0), grid=[1, 2], epsilon=Fraction(1, 4)
        )
        assert report.discount == Fraction(1, 4)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            find_ef1_counterexample(Affine(1, 0), grid=[])
        with pytest.raises(ValueError):
            find_ef1_counterexample(Affine(1, 0), grid=[0])
        with pytest.raises(ValueError):
            find_ef1_counterexample(Affine(1, 0), k_max=0)


class TestExtendProfile:
    def test_block_structure(self):
        base = Profile([[0, 2, 2], ["1/2", 1, 1]])
        extended = extend_profile(base, 4)
        assert (extended.n, extended.m) == (4, 5)
        assert extended.utilities[0] == (0, 2, 2, 0, 0)
        assert extended.utilities[1] == (Fraction(1, 2), 1, 1, 0, 0)
        assert extended.utilities[2] == (0, 0, 0, 1, 0)
        assert extended.utilities[3] == (0, 0, 0, 0, 1)

    def test_smallest_extension(self):
        base = Profile([[1, 2], [2, 1]])
        extended = extend_profile(base, 3)
        assert (extended.n, extended.m) == (3, 3)
        assert extended.utilities[2] == (0, 0, 1)

    def test_requires_two_agent_base(self):
        with pytest.raises(ValueError):
            extend_profile(Profile([[1]]), 3)
        with pytest.raises(ValueError):
            extend_profile(Profile([[1], [1]]), 2)

    def test_extension_preserves_the_violation(self):
        report = find_ef1_counterexample(Affine(1, 0), grid=[1, 2])
        for n in (3, 4):
            extended = extend_profile(report.profile, n)
            result = maximize_welfare(extended, Affine(1, 0))
            # each extra good lands with its extra agent
            for t in range(n - 2):
                assert result.allocation.assignment[report.profile.m + t] == 2 + t
            verdict = is_ef1(extended, result.allocation)
            assert not verdict.holds
            assert any(
                {v.envier, v.envied} == {0, 1} for v in verdict.violations
            )


class TestDerivativeConsistency:
    def test_log_slope_times_x_is_one(self):
        f = LogAffine()
        h = 1e-6
        for x in (0.5, 1.0, 2.0, 5.0):
            derivative = (f.value(x + h) - f.value(x - h)) / (2 * h)
            assert abs(x * derivative - 1) <= 1e-5
