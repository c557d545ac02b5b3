import random

import pytest

from fairalloc.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    experiment_csv,
    format_welfare,
    random_profile,
    run_experiment,
)
from fairalloc.welfarist import Affine, ExtendedWelfare, LogAffine


class TestRandomProfile:
    def test_range_and_shape(self):
        rng = random.Random(0)
        profile = random_profile(rng, 3, 5, max_utility=4, min_utility=1)
        assert (profile.n, profile.m) == (3, 5)
        assert all(1 <= v <= 4 for row in profile.utilities for v in row)

    def test_positive_row_resampling(self):
        rng = random.Random(0)
        for _ in range(200):
            profile = random_profile(
                rng, 2, 3, max_utility=1, min_utility=0, require_positive_row=True
            )
            assert all(any(row) for row in profile.utilities)

    def test_impossible_positive_row(self):
        with pytest.raises(ValueError):
            random_profile(random.Random(0), 2, 0, 3, require_positive_row=True)
        with pytest.raises(ValueError):
            random_profile(random.Random(0), 2, 3, 0, require_positive_row=True)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            random_profile(random.Random(0), 2, 3, max_utility=1, min_utility=2)


class TestRunExperiment:
    def base_config(self, **overrides):
        params = dict(
            count=25,
            agents=2,
            goods=5,
            max_utility=9,
            functions=(LogAffine(), Affine(1, 0)),
            seed=7,
            min_utility=1,
        )
        params.update(overrides)
        return ExperimentConfig(**params)

    def test_fixed_seed_reproduces_bytes(self):
        first = experiment_csv(run_experiment(self.base_config()))
        second = experiment_csv(run_experiment(self.base_config()))
        assert first == second

    def test_different_seeds_differ(self):
        first = experiment_csv(run_experiment(self.base_config()))
        second = experiment_csv(run_experiment(self.base_config(seed=8)))
        assert first != second

    def test_row_order_and_columns(self):
        rows = run_experiment(self.base_config(count=3))
        assert [r["index"] for r in rows] == [0, 0, 1, 1, 2, 2]
        assert [r["function"] for r in rows[:2]] == ["log", "affine:1,0"]
        for row in rows:
            assert set(row) == set(CSV_COLUMNS)

    def test_nash_rows_are_all_ef1(self):
        rows = run_experiment(
            self.base_config(
                count=300, goods=6, functions=(LogAffine(),), checks=("ef1",)
            )
        )
        assert len(rows) == 300
        assert all(row["ef1"] == "true" for row in rows)

    def test_nash_rows_are_pareto_optimal(self):
        rows = run_experiment(
            self.base_config(count=40, functions=(LogAffine(),), checks=("po",))
        )
        assert all(row["po"] == "true" for row in rows)

    def test_utilitarian_rows_include_violations(self):
        rows = run_experiment(self.base_config(count=40, goods=6, functions=(Affine(1, 0),), seed=0))
        assert any(row["ef1"] == "false" for row in rows)

    def test_unrequested_checks_left_blank(self):
        rows = run_experiment(self.base_config(count=2, checks=("ef1",)))
        assert all(row["ef"] == "" and row["po"] == "" for row in rows)
        assert all(row["ef1"] in ("true", "false") for row in rows)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            self.base_config(checks=("efx",))

    def test_header_only_csv_for_zero_count(self):
        text = experiment_csv(run_experiment(self.base_config(count=0)))
        assert text == "index,function,ef1,ef,po,welfare\n"

    @pytest.mark.parametrize("overrides, message", [
        (dict(agents=0), "at least one agent"),
        (dict(goods=-1), "nonnegative good count"),
        (dict(min_utility=5, max_utility=2), r"bad utility range \[5, 2\]"),
        (dict(max_utility=0, min_utility=0, require_positive_rows=True), "no positive row"),
    ])
    def test_shape_checked_at_construction_even_for_zero_count(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            self.base_config(count=0, **overrides)


class TestWelfareFormatting:
    def test_finite(self):
        assert format_welfare(ExtendedWelfare(0, 4.5)) == "4.5"

    def test_with_neg_inf_terms(self):
        assert format_welfare(ExtendedWelfare(2, 1.0)) == "-inf*2+1.0"
