"""Seeded random-profile experiments: one CSV row per (profile, function).

A fixed seed reproduces the profiles, the rows, and the CSV bytes exactly.
"""

import csv
import io
import random
from dataclasses import dataclass

from .fairness import is_ef, is_ef1, is_pareto_optimal
from .model import DEFAULT_ENUMERATION_BUDGET, Profile
from .welfarist import ExtendedWelfare, WelfareFunction, solve

CSV_COLUMNS = ("index", "function", "ef1", "ef", "po", "welfare")

KNOWN_CHECKS = ("ef1", "ef", "po")


def _check_shape(agents, goods, max_utility, min_utility, require_positive_row):
    if agents < 1 or goods < 0:
        raise ValueError("need at least one agent and a nonnegative good count")
    if min_utility < 0 or max_utility < min_utility:
        raise ValueError(
            f"bad utility range [{min_utility}, {max_utility}]"
        )
    if require_positive_row and (goods == 0 or max_utility == 0):
        raise ValueError("no positive row is possible with these parameters")


def random_profile(
    rng: random.Random,
    agents: int,
    goods: int,
    max_utility: int,
    min_utility: int = 0,
    require_positive_row: bool = False,
) -> Profile:
    """Uniform integer utilities in [min_utility, max_utility].

    With ``require_positive_row``, any all-zero row is resampled so every
    agent can be given positive utility.
    """
    _check_shape(agents, goods, max_utility, min_utility, require_positive_row)
    rows = []
    for _ in range(agents):
        while True:
            row = tuple(rng.randint(min_utility, max_utility) for _ in range(goods))
            if not require_positive_row or any(row):
                break
        rows.append(row)
    return Profile(tuple(rows))


@dataclass(frozen=True)
class ExperimentConfig:
    count: int
    agents: int
    goods: int
    max_utility: int
    functions: tuple[WelfareFunction, ...]
    seed: int = 0
    min_utility: int = 0
    require_positive_rows: bool = False
    checks: tuple[str, ...] = KNOWN_CHECKS
    budget: int = DEFAULT_ENUMERATION_BUDGET

    def __post_init__(self):
        unknown = set(self.checks) - set(KNOWN_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(sorted(unknown))}")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        _check_shape(self.agents, self.goods, self.max_utility, self.min_utility, self.require_positive_rows)
        if not self.functions:
            raise ValueError("at least one welfare function is required")


def format_welfare(welfare: ExtendedWelfare) -> str:
    if welfare.neg_inf_count:
        return f"-inf*{welfare.neg_inf_count}+{welfare.finite_part!r}"
    return repr(welfare.finite_part)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Generate seeded profiles, solve each with every function, run the
    requested checks, and return the rows in instance order."""
    rng = random.Random(config.seed)
    rows = []
    for index in range(config.count):
        profile = random_profile(
            rng,
            config.agents,
            config.goods,
            config.max_utility,
            config.min_utility,
            config.require_positive_rows,
        )
        for f in config.functions:
            result = solve(profile, f, budget=config.budget)
            row = {
                "index": index,
                "function": str(f),
                "ef1": "",
                "ef": "",
                "po": "",
                "welfare": format_welfare(result.welfare),
            }
            if "ef1" in config.checks:
                row["ef1"] = _flag(is_ef1(profile, result.allocation).holds)
            if "ef" in config.checks:
                row["ef"] = _flag(is_ef(profile, result.allocation).holds)
            if "po" in config.checks:
                row["po"] = _flag(
                    is_pareto_optimal(
                        profile, result.allocation, budget=config.budget
                    ).optimal
                )
            rows.append(row)
    return rows


def _flag(value: bool) -> str:
    return "true" if value else "false"


def experiment_csv(rows: list[dict]) -> str:
    """Render rows as CSV text, header included, byte-stable across runs."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
