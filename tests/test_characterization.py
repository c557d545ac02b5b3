import logging
import math
import random
from fractions import Fraction

import pytest

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
from fairalloc.welfarist import (
    Affine,
    CustomExpression,
    Exp,
    LogAffine,
    Power,
    WelfareFunction,
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
        report = constancy_check(LogAffine(), 2, [0.5, 1, 2, 5], tolerance=1e-9)
        assert report.constant
        assert report.spread <= 1e-9
        assert report.level == pytest.approx(math.log(1.5), abs=1e-12)
        assert [x for x, _ in report.samples] == [0.5, 1, 2, 5]

    def test_identity_not_constant(self):
        report = constancy_check(Affine(1, 0), 1, [1, 2], tolerance=1e-9)
        assert not report.constant
        assert report.spread == pytest.approx(1.0)
        assert report.level is None

    def test_scaled_log_levels(self):
        f = LogAffine(3, 2)
        for k in range(1, 6):
            report = constancy_check(f, k, [0.5, 1, 2, 5], tolerance=1e-9)
            assert report.constant
            assert report.level == pytest.approx(3 * math.log(1 + 1 / k), abs=1e-12)
            assert report.level / math.log1p(1 / k) == pytest.approx(3, rel=1e-12)
        # whereas k*level only converges like O(1/k): at k=5 it is
        # 15*ln(6/5) = 2.7348, still 8.8% below 3
        level5 = constancy_check(f, 5, [0.5, 1, 2, 5], tolerance=1e-9).level
        assert 5 * level5 == pytest.approx(15 * math.log(1.2), abs=1e-9)
        assert abs(5 * level5 - 3) / 3 > 0.05

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            constancy_check(LogAffine(), 1, [])
        with pytest.raises(ValueError):
            constancy_check(LogAffine(), 1, [0.0, 1.0])
        with pytest.raises(ValueError):
            constancy_check(LogAffine(), 1, [1.0], tolerance=0)


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
                    report = constancy_check(
                        LogAffine(a, b), k, [0.5, 1, 2, 5], tolerance=1e-9
                    )
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

    def test_rejected_candidates_are_logged(self, caplog):
        # d_k of ln(x) + x/10^12 really varies, so candidates are built, but
        # their welfare gaps sit inside the scans' 1e-9 tie band, where an
        # EF1 maximizer ties with the violating one
        f = CustomExpression.from_text("ln(x)+x/10^12")
        with caplog.at_level(logging.WARNING, logger="fairalloc.characterization"):
            assert find_ef1_counterexample(f, k_max=1) is None
        messages = [record.getMessage() for record in caplog.records]
        assert any("a tied maximizer (1, 0, 1) passes" in m and "skipping" in m for m in messages)

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
