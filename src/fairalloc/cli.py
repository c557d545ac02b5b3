"""Command-line front end.

Exit codes: 0 success (all requested properties hold / a counterexample was
found), 1 a requested property is false or no counterexample exists, 2 parse
or validation errors, 3 enumeration budget exceeded.

``--format json`` reports are rendered from the result dataclasses by one
serializer: keys are the dataclasses' field names, rationals are exact
``"p/q"`` strings (``"4"`` when integral), allocations are assignment lists,
and optional fields that are absent (the ``dominator`` of a Pareto-optimal
allocation) are omitted.
"""

import functools
import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import click

from .characterization import (
    DEFAULT_CONSTANCY_GRID,
    CounterexampleReport,
    constancy_check,
    find_ef1_counterexample,
    fit_log,
)
from .errors import EnumerationBudgetError
from .experiment import ExperimentConfig, experiment_csv, run_experiment
from .fairness import (
    Ef1Verdict,
    EfVerdict,
    ParetoVerdict,
    is_ef,
    is_ef1,
    is_pareto_optimal,
)
from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    Allocation,
    Profile,
    allocation_utilities,
    check_allocation,
    dumps_allocation,
    dumps_profile,
    loads_allocation,
    loads_profile,
    _rational,
)
from .welfarist import (
    ExtendedWelfare,
    SolveResult,
    solve as run_solver,
    welfare_function_from_spec,
)


class RationalParam(click.ParamType):
    """Accepts integers, decimals, and p/q rationals, kept exact."""

    name = "rational"

    def convert(self, value, param, ctx):
        try:
            return _rational(value, "rational")
        except ValueError:
            self.fail(f"{value!r} is not an integer, decimal, or p/q rational", param, ctx)


RATIONAL = RationalParam()


def mapped_errors(fn):
    """Translate package exceptions into documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except EnumerationBudgetError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _read(path: Path, loads, validate=None):
    """``loads`` of the file, then ``validate`` of that; errors name the file."""
    try:
        value = loads(path.read_text(encoding="utf-8"))
        if validate is not None:
            validate(value)
        return value
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _jsonable(value):
    """``value`` in JSON-ready form: a dataclass as a dict of its fields that
    are not ``None``, a ``Fraction`` as its exact ``str`` (``"4"``, ``"1/2"``),
    an ``Allocation`` as its assignment list, a tuple as a list."""
    if isinstance(value, Allocation):
        return list(value.assignment)
    if is_dataclass(value):
        value = {
            field.name: getattr(value, field.name)
            for field in fields(value)
            if getattr(value, field.name) is not None
        }
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2)


def _welfare_text(welfare: ExtendedWelfare) -> str:
    if welfare.neg_inf_count:
        return (
            f"{welfare.neg_inf_count} agent(s) at -inf, "
            f"finite part {welfare.finite_part:g}"
        )
    return f"{welfare.finite_part:g}"


def _solve_json(profile: Profile, result: SolveResult) -> dict:
    return {
        "assignment": result.allocation,
        "bundles": [sorted(bundle) for bundle in result.allocation.bundles(profile.n)],
        "utilities": allocation_utilities(profile, result.allocation),
        "welfare": result.welfare,
        "maximizer_set_size": result.maximizer_set_size,
    }


def _print_solution(profile: Profile, result: SolveResult, function_label: str):
    bundles = result.allocation.bundles(profile.n)
    utilities = allocation_utilities(profile, result.allocation)
    click.echo(f"function: {function_label}")
    click.echo("allocation:")
    for agent in range(profile.n):
        goods = ", ".join(str(g) for g in sorted(bundles[agent])) or "-"
        click.echo(f"  agent {agent}: goods [{goods}]  utility {utilities[agent]}")
    click.echo(f"welfare: {_welfare_text(result.welfare)}")
    click.echo(f"maximizers: {result.maximizer_set_size}")


def _ef1_lines(verdict: Ef1Verdict) -> list[str]:
    lines = []
    for v in verdict.violations:
        lines.append(
            f"  agent {v.envier} envies agent {v.envied} (own utility {v.own_utility}):"
        )
        for good, remaining in v.removal_gaps:
            lines.append(f"    without good {good} the bundle is still worth {remaining}")
    return lines


def _ef_lines(verdict: EfVerdict) -> list[str]:
    return [
        f"  agent {v.envier} values agent {v.envied}'s bundle at "
        f"{v.envied_utility}, own bundle at {v.own_utility}"
        for v in verdict.violations
    ]


def _po_lines(verdict: ParetoVerdict) -> list[str]:
    if verdict.optimal:
        return []
    return [f"  dominated by assignment {list(verdict.dominator.assignment)}"]


budget_option = click.option(
    "--budget",
    type=int,
    default=DEFAULT_ENUMERATION_BUDGET,
    show_default=True,
    help="Most allocations a scan may need (else exit 3), or counterexample pair comparisons (else exit 2).",
)
format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
    help="Report style.",
)
function_option = click.option(
    "--f",
    "spec",
    default="log",
    show_default=True,
    help="Welfare function: log | log:a,b | affine:a,b | power:p | exp | expr:'...'.",
)


_input_file = click.Path(exists=True, dir_okay=False, path_type=Path)
_output_file = click.Path(dir_okay=False, path_type=Path)
profile_option = click.option(
    "--profile", "profile_path", type=_input_file, required=True, help="Profile JSON file."
)


@click.group()
def main():
    """Fair allocation of indivisible goods: welfarist solvers, EF/EF1/PO
    checks, and a welfare-function characterization lab."""


@main.command()
@profile_option
@function_option
@budget_option
@format_option
@mapped_errors
def solve(profile_path, spec, budget, fmt):
    """Compute a welfare-maximizing allocation for a profile."""
    f = welfare_function_from_spec(spec)
    profile = _read(profile_path, loads_profile)
    result = run_solver(profile, f, budget=budget)
    if fmt == "json":
        click.echo(_json_text({"function": str(f), **_solve_json(profile, result)}))
    else:
        _print_solution(profile, result, str(f))


@main.command()
@profile_option
@click.option("--allocation", "allocation_path", type=_input_file, required=True)
@click.option("--ef", "want_ef", is_flag=True, help="Check envy-freeness.")
@click.option("--ef1", "want_ef1", is_flag=True, help="Check envy-freeness up to one good.")
@click.option("--po", "want_po", is_flag=True, help="Check Pareto optimality.")
@budget_option
@format_option
@mapped_errors
def check(profile_path, allocation_path, want_ef, want_ef1, want_po, budget, fmt):
    """Check fairness and efficiency of an allocation (all three by default).

    Exits 0 when every requested property holds, 1 when any fails.
    """
    profile = _read(profile_path, loads_profile)
    allocation = _read(allocation_path, loads_allocation, lambda a: check_allocation(profile, a))
    if not (want_ef or want_ef1 or want_po):
        want_ef = want_ef1 = want_po = True
    wanted = {"ef1": want_ef1, "ef": want_ef, "po": want_po}
    checks = (
        ("ef1", lambda: is_ef1(profile, allocation), _ef1_lines),
        ("ef", lambda: is_ef(profile, allocation), _ef_lines),
        ("po", lambda: is_pareto_optimal(profile, allocation, budget=budget), _po_lines),
    )

    all_hold = True
    payload = {}
    lines = []
    for name, checker, witness_lines in checks:
        if not wanted[name]:
            continue
        payload[name] = verdict = checker()
        witnesses = witness_lines(verdict)  # empty exactly when the property holds
        all_hold &= not witnesses
        lines.append(f"{name.upper()}: {'fails' if witnesses else 'holds'}")
        lines.extend(witnesses)

    if fmt == "json":
        click.echo(_json_text(payload))
    else:
        for line in lines:
            click.echo(line)
    if not all_hold:
        sys.exit(1)


def _counterexample_json(report: CounterexampleReport) -> dict:
    return {
        "k": report.k,
        "agent0_value": report.agent0_value,
        "agent1_value": report.agent1_value,
        "discount": report.discount,
        "profile": json.loads(dumps_profile(report.profile)),
        "solver": _solve_json(report.profile, report.solve),
        "ef1_holds": report.ef1.holds,
        "all_maximizers_violate": report.all_maximizers_violate,
    }


@main.command()
@function_option
@click.option("--k-max", type=int, default=5, show_default=True)
@click.option("--grid-min", type=RATIONAL, default=Fraction(1, 2), show_default="1/2")
@click.option("--grid-max", type=RATIONAL, default=Fraction(5), show_default="5")
@click.option("--grid-step", type=RATIONAL, default=Fraction(1, 2), show_default="1/2")
@click.option(
    "--epsilon",
    type=RATIONAL,
    default=None,
    help="Override the discount instead of halving from z/2.",
)
@click.option(
    "--profile-out", type=_output_file, help="Write the constructed profile JSON here."
)
@click.option(
    "--allocation-out", type=_output_file, help="Write the solver's allocation JSON here."
)
@click.option("--report-out", type=_output_file, help="Write the full report JSON here.")
@budget_option
@format_option
@mapped_errors
def counterexample(
    spec, k_max, grid_min, grid_max, grid_step, epsilon,
    profile_out, allocation_out, report_out, budget, fmt,
):
    """Build a profile on which every welfare maximizer for --f fails EF1.

    Exits 0 when a verified instance is found, 1 when none exists on the
    searched grid (as for log-affine functions).
    """
    f = welfare_function_from_spec(spec)
    if grid_step <= 0 or grid_min <= 0 or grid_max < grid_min:
        raise ValueError("the grid needs 0 < min <= max and a positive step")
    points = (grid_max - grid_min) // grid_step + 1
    comparisons = k_max * points * (points - 1) // 2
    if comparisons > budget:
        raise ValueError(
            f"--grid-step {grid_step} gives {points} points and {comparisons} "
            f"pair comparisons, over the budget {budget}"
        )
    grid = [grid_min + i * grid_step for i in range(points)]
    report = find_ef1_counterexample(
        f, k_max=k_max, grid=grid, epsilon=epsilon, budget=budget
    )
    if report is None:
        click.echo(
            f"no counterexample found for {f} with k up to {k_max} "
            f"on the grid [{grid_min}, {grid_max}] step {grid_step}"
        )
        sys.exit(1)
    if profile_out is not None:
        profile_out.write_text(dumps_profile(report.profile), encoding="utf-8")
    if allocation_out is not None:
        allocation_out.write_text(
            dumps_allocation(report.solve.allocation), encoding="utf-8"
        )
    payload = _json_text(_counterexample_json(report))
    if report_out is not None:
        report_out.write_text(payload + "\n", encoding="utf-8")
    if fmt == "json":
        click.echo(payload)
        return
    click.echo(f"function: {f}")
    click.echo(
        f"k={report.k}, y={report.agent0_value}, z={report.agent1_value}, "
        f"discount={report.discount}"
    )
    click.echo(f"profile: {report.profile.n} agents, {report.profile.m} goods")
    for i, row in enumerate(report.profile.utilities):
        click.echo(f"  agent {i} values: {', '.join(map(str, row))}")
    _print_solution(report.profile, report.solve, str(f))
    click.echo("EF1: fails for every welfare-maximizing allocation")


@main.command("lemma-check")
@function_option
@click.option("--k-min", type=int, default=1, show_default=True)
@click.option("--k-max", type=int, default=5, show_default=True)
@click.option(
    "--grid",
    default=",".join(str(g) for g in DEFAULT_CONSTANCY_GRID),
    show_default=True,
    callback=lambda ctx, param, text: [
        RATIONAL.convert(piece, param, ctx) for piece in text.split(",") if piece.strip()
    ],
    help="Comma-separated positive rationals, taken exactly.",
)
@click.option(
    "--fit-k-max",
    type=int,
    default=50,
    show_default=True,
    help="Largest k used for the log-affine parameter fit.",
)
@format_option
@mapped_errors
def lemma_check(spec, k_min, k_max, grid, fit_k_max, fmt):
    """Test whether --f behaves log-affinely.

    Decides for each k, by the counterexample search's certified comparison,
    whether f((k+1)x) - f(kx) is constant over the grid, as it is exactly for
    f(x) = a*ln(x) + b; spreads and levels are float samples, shown only.
    When every k up to --fit-k-max passes, the parameters are recovered.
    """
    f = welfare_function_from_spec(spec)
    if k_min < 1 or k_max < k_min:
        raise ValueError("need 1 <= k-min <= k-max")
    reports = [constancy_check(f, k, grid) for k in range(k_min, k_max + 1)]
    outcome = fit_log(f, k_max=fit_k_max, grid=grid)

    if fmt == "json":
        payload = {
            "function": str(f),
            "constancy": [
                {"k": r.k, "spread": r.spread, "constant": r.constant, "level": r.level}
                for r in reports
            ],
            "log_affine": outcome.is_log_affine,
        }
        if outcome.fit is not None:
            payload["fit"] = outcome.fit
        else:
            payload["first_failure"] = {"k": outcome.failed.k, "spread": outcome.failed.spread}
        click.echo(_json_text(payload))
        return

    click.echo(f"function: {f}")
    for r in reports:
        if r.constant:
            click.echo(f"k={r.k}: constant (spread {r.spread:.3g}, level {r.level:.10g})")
        else:
            click.echo(f"k={r.k}: NOT constant (spread {r.spread:.6g})")
    if outcome.fit is not None:
        click.echo(
            f"log-affine fit: a={outcome.fit.a:.10g} b={outcome.fit.b:.10g} "
            f"max residual {outcome.fit.max_residual:.3g}"
        )
    else:
        click.echo(
            f"not log-affine: first failure at k={outcome.failed.k} "
            f"(spread {outcome.failed.spread:.6g})"
        )


@main.command()
@click.option("--count", type=int, default=100, show_default=True)
@click.option("--agents", type=int, default=2, show_default=True)
@click.option("--goods", type=int, default=6, show_default=True)
@click.option("--max-utility", type=int, default=9, show_default=True)
@click.option("--min-utility", type=int, default=0, show_default=True)
@click.option(
    "--require-positive-rows",
    is_flag=True,
    help="Resample any all-zero utility row.",
)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--f",
    "specs",
    multiple=True,
    default=("log",),
    show_default=True,
    help="Welfare function; repeatable.",
)
@click.option(
    "--checks",
    default="ef1,ef,po",
    show_default=True,
    help="Comma-separated subset of ef1, ef, po.",
)
@click.option("--output", type=_output_file, help="Write the CSV here instead of stdout.")
@budget_option
@mapped_errors
def experiment(specs, checks, output, **config_fields):
    """Run seeded random-profile experiments and emit one CSV row per
    (profile, function)."""
    config = ExperimentConfig(
        functions=tuple(welfare_function_from_spec(spec) for spec in specs),
        checks=tuple(piece.strip() for piece in checks.split(",") if piece.strip()),
        **config_fields,
    )
    text = experiment_csv(run_experiment(config))
    if output is not None:
        output.write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
