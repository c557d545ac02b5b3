"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction
from itertools import product

import oracles
from fairalloc import (
    Allocation,
    Profile,
    constancy_check,
    extend_profile,
    find_ef1_counterexample,
    fit_log,
    is_ef,
    is_ef1,
    is_pareto_optimal,
    max_nash_welfare,
    maximize_welfare,
)
from fairalloc.welfarist import (
    Affine,
    CustomExpression,
    Exp,
    LogAffine,
    Power,
    welfare_function_from_spec,
)

SEED = 20260809


def seeded_profiles(count, goods_choices=(4, 5, 6), lo=1, hi=9, agents=2):
    rng = random.Random(SEED)
    out = []
    for index in range(count):
        m = goods_choices[index % len(goods_choices)]
        out.append(
            Profile([[rng.randint(lo, hi) for _ in range(m)] for _ in range(agents)])
        )
    return out


def report(number, description, started):
    print(f"ACCEPTANCE {number} PASS ({time.time() - started:.1f}s): {description}")


def test_criterion_1_nash_maximizers_are_ef1():
    started = time.time()
    for profile in seeded_profiles(500):
        result = max_nash_welfare(profile)
        assert is_ef1(profile, result.allocation).holds
    report(1, "Nash maximizer passes EF1 on 500 seeded profiles, exact arithmetic", started)


def test_criterion_2_welfarist_outputs_are_pareto_optimal():
    started = time.time()
    functions = (LogAffine(), Affine(1, 0), Power(2))
    for profile in seeded_profiles(200):
        for f in functions:
            result = maximize_welfare(profile, f)
            if result.welfare.finite:
                assert is_pareto_optimal(profile, result.allocation).optimal
    report(2, "welfarist outputs are Pareto optimal for log, affine:1,0, power:2", started)


def test_criterion_3_counterexamples_exactly_for_non_log_functions():
    started = time.time()
    for spec in ("affine:1,0", "power:1/2", "power:2", "exp"):
        found = find_ef1_counterexample(welfare_function_from_spec(spec), k_max=5)
        assert found is not None, spec
        assert found.all_maximizers_violate
        assert not found.ef1.holds
        assert not is_ef1(found.profile, found.solve.allocation).holds
    for spec in ("log", "expr:3*ln(x)+2"):
        assert find_ef1_counterexample(welfare_function_from_spec(spec), k_max=5) is None, spec
    report(
        3,
        "verified EF1 counterexamples for affine/power/exp; none for log-affine",
        started,
    )


def test_criterion_4_constancy_and_log_fit():
    started = time.time()
    grid = (0.5, 1.0, 2.0, 5.0, 10.0)
    for a in (0.5, 1.0, 3.0):
        for b in (-1.0, 0.0, 2.0):
            f = LogAffine(a, b)
            for k in range(1, 6):
                check = constancy_check(f, k, grid)
                assert check.constant and check.spread <= 1e-9
            outcome = fit_log(f, k_max=50, grid=grid)
            assert outcome.is_log_affine
            assert abs(outcome.fit.a - a) / a <= 1e-9
            assert outcome.fit.b == f.value(1)
            assert outcome.fit.max_residual <= 1e-9
    identity = constancy_check(Affine(1, 0), 1, grid)
    assert not identity.constant
    assert identity.spread >= 0.5
    report(4, "scaled differences constant for a*ln(x)+b, slope within 1e-9 relative, intercept exact", started)


def test_criterion_5_extension_to_more_agents_preserves_the_violation():
    started = time.time()
    base = find_ef1_counterexample(Affine(1, 0), k_max=5)
    assert base is not None and base.k == 1
    for n in (3, 4):
        extended = extend_profile(base.profile, n)
        assert extended.n**extended.m <= 4**5
        result = maximize_welfare(extended, Affine(1, 0))
        assert not is_ef1(extended, result.allocation).holds
    report(5, "padding the utilitarian counterexample to 3 and 4 agents keeps EF1 broken", started)


def test_criterion_6_branch_and_bound_is_bit_identical():
    started = time.time()
    rng = random.Random(SEED + 6)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = rng.randint(0, 6)
        profile = Profile([[rng.randint(0, 9) for _ in range(m)] for _ in range(n)])
        for f in (LogAffine(), Affine(1, 0)):
            plain = maximize_welfare(profile, f, method="exhaustive")
            pruned = maximize_welfare(profile, f, method="branch-and-bound")
            assert plain == pruned
    report(6, "branch-and-bound equals the plain scan on 100 instances for log and affine", started)


def test_criterion_7_checker_cross_validation():
    started = time.time()
    rng = random.Random(SEED + 7)
    # EF implies EF1 on every tested instance
    ef_seen = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        m = rng.randint(0, 6)
        profile = Profile([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)])
        allocation = Allocation(tuple(rng.randrange(n) for _ in range(m)))
        if is_ef(profile, allocation).holds:
            ef_seen += 1
            assert is_ef1(profile, allocation).holds
    assert ef_seen > 0
    # Pareto checker agrees with the independent dominance scan on sampled
    # profiles with n=2, m=4, utilities in {0, 1, 2}
    for _ in range(1000):
        profile = Profile([[rng.randint(0, 2) for _ in range(4)] for _ in range(2)])
        assignment = tuple(rng.randrange(2) for _ in range(4))
        verdict = is_pareto_optimal(profile, Allocation(assignment))
        assert verdict.optimal == (not oracles.pareto_dominators(profile, assignment))
        if not verdict.optimal:
            assert verdict.dominator.assignment in oracles.pareto_dominators(
                profile, assignment
            )
    report(7, "EF implies EF1 everywhere tested; Pareto checker matches the independent scan", started)
