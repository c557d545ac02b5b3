import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner

import fairalloc
import oracles
from fairalloc.cli import main
from fairalloc.model import dumps_allocation, dumps_profile, loads_profile
from fairalloc.model import Allocation, Profile
from fairalloc.welfarist import welfare_function_from_spec


@pytest.fixture
def runner():
    return CliRunner()


def write_profile(path, rows):
    path.write_text(dumps_profile(Profile(rows)), encoding="utf-8")
    return str(path)


class TestSolve:
    def test_log_solve_reports_allocation(self, runner, tmp_path):
        path = write_profile(tmp_path / "p.json", [[1, 3], [3, 1]])
        result = runner.invoke(main, ["solve", "--profile", path, "--f", "log"])
        assert result.exit_code == 0
        assert "agent 0: goods [1]" in result.output
        assert "agent 1: goods [0]" in result.output
        assert "maximizers: 1" in result.output

    def test_utilitarian_on_violating_profile(self, runner, tmp_path):
        path = write_profile(tmp_path / "p.json", [[0, 2, 2], ["1/2", 1, 1]])
        result = runner.invoke(
            main, ["solve", "--profile", path, "--f", "affine:1,0", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["assignment"] == [1, 0, 0]
        assert payload["welfare"]["finite_part"] == 4.5
        assert payload["utilities"] == ["4", "1/2"]

    def test_malformed_profile_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        result = runner.invoke(main, ["solve", "--profile", str(bad)])
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_budget_exceeded_exits_3(self, runner, tmp_path):
        path = write_profile(tmp_path / "p.json", [[1, 1, 1], [1, 1, 1]])
        result = runner.invoke(main, ["solve", "--profile", path, "--budget", "7"])
        assert result.exit_code == 3

    def test_bad_function_spec_exits_2(self, runner, tmp_path):
        path = write_profile(tmp_path / "p.json", [[1]])
        result = runner.invoke(main, ["solve", "--profile", path, "--f", "cube"])
        assert result.exit_code == 2


    @pytest.mark.parametrize("spec", ["expr:x", "affine:1,0", "power:2", "exp"])
    def test_utility_beyond_float_range_exits_2(self, runner, tmp_path, spec):
        path = write_profile(tmp_path / "p.json", [[10**400, 1], [1, 2]])
        result = runner.invoke(main, ["solve", "--profile", path, "--f", spec])
        assert result.exit_code == 2
        assert "overflowed at a utility with 401 digits" in result.stderr
        assert len(result.stderr) < 200

    @pytest.mark.parametrize("spec", ["log", "log:2,1", "expr:ln(x)"])
    @pytest.mark.parametrize("rows", [[[10**400, 1], [1, 2]], [[Fraction(1, 10**400), 0], [0, 1]]])
    def test_log_solves_utilities_beyond_float_range(self, runner, tmp_path, spec, rows):
        # only the utilities are beyond float range: f at 10^400 or 10^-400 is a + b times about +-921.03
        path = write_profile(tmp_path / "p.json", rows)
        result = runner.invoke(main, ["solve", "--profile", path, "--f", spec, "--format", "json"])
        assert result.exit_code == 0
        payload, profile = json.loads(result.output), Profile(rows)
        assignment, _, ties = oracles.best_nash(profile)
        assert (tuple(payload["assignment"]), payload["maximizer_set_size"]) == (assignment, ties) == ((0, 1), 1)
        tree = welfare_function_from_spec(spec).ast()
        with mpmath.workdps(60):
            welfare = mpmath.fsum(oracles.mp_value(tree, mpmath.mpf(u.numerator) / u.denominator)
                                  for u in oracles.utilities_of(profile, assignment))
        assert payload["welfare"] == {"neg_inf_count": 0, "finite_part": pytest.approx(float(welfare), rel=2**-52)}

    @pytest.mark.parametrize("spec", ["power:2", "exp"])
    def test_f_overflowing_float_range_names_the_utility_size(self, runner, tmp_path, spec):
        path = write_profile(tmp_path / "p.json", [[10**200, 1], [1, 2]])
        result = runner.invoke(main, ["solve", "--profile", path, "--f", spec])
        assert result.exit_code == 2
        assert "overflowed at a utility with 201 digits" in result.stderr

    def test_expression_literal_beyond_float_range_is_accepted(self, runner, tmp_path):
        # ln(10^400 x) = ln(x) + 400 ln(10): the Nash rule, whatever the literal's size
        path = write_profile(tmp_path / "p.json", [[1, 2], [2, 1]])
        result = runner.invoke(main, ["solve", "--profile", path, "--f", f"expr:ln({10**400}*x)", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert (payload["assignment"], payload["maximizer_set_size"]) == ([1, 0], 1)
        assert payload["welfare"]["finite_part"] == pytest.approx(2 * (400 * math.log(10) + math.log(2)), rel=1e-15)


class TestRefusedWhenBuilt:
    def test_a_rule_with_no_value_at_0_exits_2_before_the_profile_is_read(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        result = runner.invoke(main, ["solve", "--profile", str(bad), "--f", "expr:exp(ln(x))"])
        assert result.exit_code == 2
        assert result.stderr == "error: expr:exp(ln(x)) failed at a utility 0: ln of a value in [0, 0]\n"

    def test_a_search_whose_candidates_overflow_finds_none_and_exits_1(self, runner):
        result = runner.invoke(main, ["counterexample", "--f", "expr:exp(exp(4*x))", "--k-max", "2"])
        assert result.exit_code == 1
        assert result.output.startswith("no counterexample found for expr:exp(exp(4*x)) with k up to 2")

    def test_a_long_literal_is_named_by_its_size(self, runner, tmp_path):
        path = write_profile(tmp_path / "p.json", [[1, 2], [2, 1]])
        result = runner.invoke(main, ["solve", "--profile", path, "--f", f"expr:{10**400}*x"])
        assert result.exit_code == 2
        assert result.stderr == "error: expr:<401 digits>*x overflowed at a utility with 1 digits\n"


class TestCheck:
    def test_all_properties_hold(self, runner, tmp_path):
        profile = write_profile(tmp_path / "p.json", [[1, 0], [0, 1]])
        allocation = tmp_path / "a.json"
        allocation.write_text(dumps_allocation(Allocation((0, 1))), encoding="utf-8")
        result = runner.invoke(
            main, ["check", "--profile", profile, "--allocation", str(allocation)]
        )
        assert result.exit_code == 0
        assert "EF1: holds" in result.output
        assert "PO: holds" in result.output

    def test_violation_exits_1_with_witness(self, runner, tmp_path):
        profile = write_profile(tmp_path / "p.json", [[0, 2, 2], ["1/2", 1, 1]])
        allocation = tmp_path / "a.json"
        allocation.write_text(dumps_allocation(Allocation((1, 0, 0))), encoding="utf-8")
        result = runner.invoke(
            main,
            ["check", "--profile", profile, "--allocation", str(allocation), "--ef1"],
        )
        assert result.exit_code == 1
        assert "EF1: fails" in result.output
        assert "agent 1 envies agent 0" in result.output
        assert "without good 1" in result.output
        assert "without good 2" in result.output

    def test_unassigned_good_exits_2(self, runner, tmp_path):
        profile = write_profile(tmp_path / "p.json", [[1, 2], [2, 1]])
        allocation = tmp_path / "a.json"
        allocation.write_text('{"assignment": [0]}', encoding="utf-8")
        result = runner.invoke(
            main, ["check", "--profile", profile, "--allocation", str(allocation)]
        )
        assert result.exit_code == 2

    def test_allocation_not_fitting_the_profile_names_its_file(self, runner, tmp_path):
        profile = write_profile(tmp_path / "p.json", [[1, 2], [2, 1]])
        for name, assignment in (("short.json", [0]), ("agent.json", [0, 2])):
            allocation = tmp_path / name
            allocation.write_text(json.dumps({"assignment": assignment}), encoding="utf-8")
            result = runner.invoke(
                main, ["check", "--profile", profile, "--allocation", str(allocation), "--po"]
            )
            assert result.exit_code == 2
            assert result.stderr.startswith(f"error: {allocation}: ")

    def test_json_format(self, runner, tmp_path):
        profile = write_profile(tmp_path / "p.json", [[2, 1], [2, 1]])
        allocation = tmp_path / "a.json"
        allocation.write_text(dumps_allocation(Allocation((0, 1))), encoding="utf-8")
        result = runner.invoke(
            main,
            [
                "check", "--profile", profile, "--allocation", str(allocation),
                "--ef", "--format", "json",
            ],
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["ef"]["holds"] is False
        assert payload["ef"]["violations"][0]["envier"] == 1


class TestCounterexample:
    def test_found_writes_files_and_checks_round_trip(self, runner, tmp_path):
        profile_out = tmp_path / "ce_profile.json"
        allocation_out = tmp_path / "ce_allocation.json"
        report_out = tmp_path / "ce_report.json"
        result = runner.invoke(
            main,
            [
                "counterexample", "--f", "affine:1,0",
                "--grid-min", "1", "--grid-max", "2", "--grid-step", "1",
                "--profile-out", str(profile_out),
                "--allocation-out", str(allocation_out),
                "--report-out", str(report_out),
            ],
        )
        assert result.exit_code == 0
        assert "k=1, y=2, z=1, discount=1/2" in result.output
        report = json.loads(report_out.read_text())
        assert report["all_maximizers_violate"] is True
        assert loads_profile(profile_out.read_text()).m == 3

        # the emitted files reproduce the violation through `check`
        check = runner.invoke(
            main,
            [
                "check", "--profile", str(profile_out),
                "--allocation", str(allocation_out), "--ef1",
            ],
        )
        assert check.exit_code == 1
        assert "EF1: fails" in check.output

    def test_none_found_exits_1(self, runner):
        result = runner.invoke(
            main,
            [
                "counterexample", "--f", "log",
                "--grid-min", "1", "--grid-max", "2", "--grid-step", "1/2",
                "--k-max", "2",
            ],
        )
        assert result.exit_code == 1
        assert "no counterexample" in result.output

    def test_log_on_default_grid_exits_1_with_empty_stderr(self):
        # a child process, so that log records reach stderr as for a user
        env = {**os.environ, "PYTHONPATH": str(Path(fairalloc.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "fairalloc.cli", "counterexample", "--f", "log"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert "no counterexample" in done.stdout
        assert done.stderr == ""

    def test_epsilon_override(self, runner):
        result = runner.invoke(
            main,
            [
                "counterexample", "--f", "power:2",
                "--grid-min", "1", "--grid-max", "2", "--grid-step", "1",
                "--epsilon", "1/4", "--format", "json",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert list(payload) == [
            "k", "agent0_value", "agent1_value", "discount", "profile", "solver",
            "ef1_holds", "all_maximizers_violate",
        ]
        assert payload["discount"] == "1/4"

    def test_a_grid_past_the_budget_is_refused_before_it_is_built(self, runner):
        # 4,500,000,001 points: building them would exhaust memory
        start = time.perf_counter()
        result = runner.invoke(main, ["counterexample", "--f", "power:2", "--grid-step", "1/1000000000"])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert "--grid-step 1/1000000000 gives 4500000001 points" in result.stderr

    def test_the_default_grid_is_within_the_budget(self, runner):
        # 10 points, 45 pairs, 5 values of k: 225 comparisons
        result = runner.invoke(main, ["counterexample", "--f", "power:2", "--budget", "225"])
        assert result.exit_code == 0
        assert "k=1, y=1, z=1/2, discount=1/4" in result.output
        refused = runner.invoke(main, ["counterexample", "--f", "power:2", "--budget", "224"])
        assert refused.exit_code == 2
        assert "225 pair comparisons" in refused.stderr

    def test_bad_grid_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["counterexample", "--f", "exp", "--grid-min", "2", "--grid-max", "1"],
        )
        assert result.exit_code == 2


class TestLemmaCheck:
    def test_log_is_constant_and_fitted(self, runner):
        result = runner.invoke(main, ["lemma-check", "--f", "log:3,2"])
        assert result.exit_code == 0
        assert result.output.count("constant") >= 5
        assert "NOT" not in result.output
        assert "log-affine fit" in result.output

    def test_identity_is_flagged(self, runner):
        result = runner.invoke(main, ["lemma-check", "--f", "affine:1,0"])
        assert result.exit_code == 0
        assert "NOT constant" in result.output
        assert "not log-affine: first failure at k=1" in result.output

    def test_json_payload(self, runner):
        result = runner.invoke(
            main, ["lemma-check", "--f", "log", "--format", "json", "--fit-k-max", "10"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["log_affine"] is True
        assert len(payload["constancy"]) == 5
        assert payload["fit"]["b"] == 0.0

    def test_expression_spec(self, runner):
        result = runner.invoke(
            main, ["lemma-check", "--f", "expr:3*ln(x)+2", "--k-max", "3"]
        )
        assert result.exit_code == 0
        assert "log-affine fit" in result.output

    def test_a_gap_below_float_resolution_is_not_log_affine(self, runner):
        result = runner.invoke(main, ["lemma-check", "--f", "expr:ln(x)+x/10^12", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["log_affine"] is False
        assert payload["first_failure"]["k"] == 1
        assert not any(entry["constant"] for entry in payload["constancy"])

    def test_a_large_intercept_is_log_affine(self, runner):
        result = runner.invoke(main, ["lemma-check", "--f", "log:1,100000000000000000", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["log_affine"] is True
        assert (payload["fit"]["a"], payload["fit"]["b"]) == (1.0, 1e17)

    def test_grid_points_are_exact_rationals(self, runner):
        result = runner.invoke(main, ["lemma-check", "--f", "log", "--grid", "1/3,2/3,7", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["log_affine"] is True
        result = runner.invoke(main, ["lemma-check", "--f", "log", "--tolerance", "1e-9"])
        assert result.exit_code == 2 and "No such option" in result.output


class TestExperiment:
    def test_csv_deterministic_for_fixed_seed(self, runner):
        args = [
            "experiment", "--count", "12", "--goods", "5", "--min-utility", "1",
            "--seed", "3", "--f", "log", "--f", "affine:1,0",
        ]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
        header, *rows = first.output.strip().split("\n")
        assert header == "index,function,ef1,ef,po,welfare"
        assert len(rows) == 24

    def test_zero_count_header_only(self, runner):
        result = runner.invoke(main, ["experiment", "--count", "0"])
        assert result.exit_code == 0
        assert result.output == "index,function,ef1,ef,po,welfare\n"

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "rows.csv"
        result = runner.invoke(
            main,
            [
                "experiment", "--count", "4", "--goods", "4", "--min-utility", "1",
                "--seed", "1", "--output", str(out),
            ],
        )
        assert result.exit_code == 0
        assert out.read_text().startswith("index,function")

    def test_nash_column_all_true(self, runner):
        result = runner.invoke(
            main,
            [
                "experiment", "--count", "30", "--goods", "6",
                "--min-utility", "1", "--seed", "11", "--f", "log",
                "--checks", "ef1",
            ],
        )
        assert result.exit_code == 0
        rows = result.output.strip().split("\n")[1:]
        assert len(rows) == 30
        assert all(row.split(",")[2] == "true" for row in rows)

    def test_unknown_check_exits_2(self, runner):
        result = runner.invoke(main, ["experiment", "--count", "1", "--checks", "efx"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--agents", "0"], "at least one agent"),
        (["--min-utility", "5", "--max-utility", "2"], "bad utility range [5, 2]"),
    ])
    def test_bad_shape_exits_2_even_for_zero_count(self, runner, flags, message):
        result = runner.invoke(main, ["experiment", "--count", "0", *flags])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert message in result.stderr


class TestJsonSchema:
    """The full JSON reports: keys are the result dataclasses' field names,
    rationals are exact strings, absent optional fields are omitted."""

    PROFILE = [[0, 2, 2], ["1/2", 1, 1]]

    def check_json(self, runner, tmp_path, assignment, *flags):
        profile = write_profile(tmp_path / "p.json", self.PROFILE)
        allocation = tmp_path / "a.json"
        allocation.write_text(dumps_allocation(Allocation(assignment)), encoding="utf-8")
        return runner.invoke(
            main,
            ["check", "--profile", profile, "--allocation", str(allocation),
             *flags, "--format", "json"],
        )

    def test_check_payload_with_every_witness(self, runner, tmp_path):
        result = self.check_json(runner, tmp_path, (0, 0, 0))
        assert result.exit_code == 1
        expected = {
            "ef1": {
                "holds": False,
                "violations": [
                    {
                        "envier": 1,
                        "envied": 0,
                        "own_utility": "0",
                        "removal_gaps": [[0, "2"], [1, "3/2"], [2, "3/2"]],
                    }
                ],
            },
            "ef": {
                "holds": False,
                "violations": [
                    {"envier": 1, "envied": 0, "own_utility": "0", "envied_utility": "5/2"}
                ],
            },
            "po": {"optimal": False, "dominator": [1, 0, 0]},
        }
        assert result.output == json.dumps(expected, indent=2) + "\n"

    def test_pareto_optimal_has_no_dominator_key(self, runner, tmp_path):
        result = self.check_json(runner, tmp_path, (1, 0, 0), "--po")
        assert result.exit_code == 0
        assert json.loads(result.output) == {"po": {"optimal": True}}

    def test_solve_keys(self, runner, tmp_path):
        path = write_profile(tmp_path / "p.json", self.PROFILE)
        result = runner.invoke(main, ["solve", "--profile", path, "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert list(payload) == [
            "function", "assignment", "bundles", "utilities", "welfare",
            "maximizer_set_size",
        ]
        assert list(payload["welfare"]) == ["neg_inf_count", "finite_part"]
        assert payload["utilities"] == ["2", "3/2"]

    def test_lemma_check_keys(self, runner):
        fitted = json.loads(
            runner.invoke(
                main, ["lemma-check", "--f", "log", "--format", "json", "--k-max", "2"]
            ).output
        )
        assert list(fitted) == ["function", "constancy", "log_affine", "fit"]
        assert list(fitted["fit"]) == ["a", "b", "max_residual"]
        assert [list(entry) for entry in fitted["constancy"]] == [
            ["k", "spread", "constant", "level"]
        ] * 2

        failed = json.loads(
            runner.invoke(main, ["lemma-check", "--f", "power:2", "--format", "json"]).output
        )
        assert list(failed) == ["function", "constancy", "log_affine", "first_failure"]
        assert failed["first_failure"] == {"k": 1, "spread": failed["constancy"][0]["spread"]}
        assert failed["constancy"][0]["level"] is None
