"""Separating log-affine welfare functions from everything else.

The pivotal quantity is the scaled difference ``d_k(x) = f((k+1)x) - f(kx)``.
For ``f(x) = a*ln(x) + b`` it equals ``a*ln(1 + 1/k)`` for every ``x``; for
any other increasing differentiable ``f`` it varies in ``x`` for some ``k``,
and two grid points exposing the variation can be turned into a concrete
two-agent instance on which *every* welfare-maximizing allocation fails the
one-good-removal envy check.  This module provides the constancy test, a
log-affine parameter fit built on it, and the instance construction with an
exhaustive verification of the failure.

The constancy test and the fit sample ``d_k`` in floats under a tolerance;
the search compares ``d_k`` values by certified signs, exact in integers for
a tree recognised as ``a*ln(x) + c`` and from rational enclosures of ``f``
otherwise, so for log-affine ``f`` every comparison ties and no instance is built.
"""

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from .fairness import Ef1Verdict, is_ef1
from .funcparse import enclose_expression
from .model import DEFAULT_ENUMERATION_BUDGET, Profile
from .welfarist import SolveResult, WelfareFunction, welfare_maximizers

logger = logging.getLogger(__name__)

#: Default positive rationals scanned for a constancy failure: 1/2, 1, ..., 5.
DEFAULT_SEARCH_GRID = tuple(Fraction(i, 2) for i in range(1, 11))

#: Default grid for constancy reports and the log fit.
DEFAULT_CONSTANCY_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)

#: Significant digits of the search's enclosures of ``f``, coarsest first.
_DIGITS = (12, 80)


def scaled_difference(f: WelfareFunction, k: int, x) -> float:
    """d_k(x) = f((k+1)*x) - f(k*x); constant in x exactly for log-affine f."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return f.value((k + 1) * x) - f.value(k * x)


@dataclass(frozen=True)
class ConstancyReport:
    """Samples of ``d_k`` over a grid.

    ``constant`` holds iff ``spread = max - min`` is within the tolerance;
    ``level`` is then the common value (mean of the samples).
    """

    k: int
    samples: tuple[tuple[float, float], ...]
    spread: float
    constant: bool
    level: float | None


def constancy_check(
    f: WelfareFunction, k: int, grid, tolerance: float = 1e-9
) -> ConstancyReport:
    """Sample ``d_k`` on a positive grid and test whether it is constant."""
    points = [float(g) for g in grid]
    if not points:
        raise ValueError("the grid must not be empty")
    if any(p <= 0 for p in points):
        raise ValueError("the grid must contain only positive values")
    if not tolerance > 0:
        raise ValueError("the tolerance must be positive")
    samples = tuple((x, scaled_difference(f, k, x)) for x in points)
    values = [d for _, d in samples]
    spread = max(values) - min(values)
    constant = spread <= tolerance
    level = sum(values) / len(values) if constant else None
    return ConstancyReport(k, samples, spread, constant, level)


@dataclass(frozen=True)
class LogFit:
    """Estimated log-affine parameters and the worst grid residual."""

    a: float
    b: float
    max_residual: float


@dataclass(frozen=True)
class LogFitResult:
    """Either a fit (constancy held for every k) or the first failing report."""

    fit: LogFit | None
    failed: ConstancyReport | None

    @property
    def is_log_affine(self) -> bool:
        return self.fit is not None


def fit_log(
    f: WelfareFunction,
    *,
    k_max: int = 50,
    grid=DEFAULT_CONSTANCY_GRID,
    tolerance: float = 1e-9,
) -> LogFitResult:
    """Fit ``a*ln(x) + b`` to ``f`` via the constancy levels.

    If ``d_k`` is constant for every ``k <= k_max``, the slope is
    ``level(1) / ln 2`` (for log-affine ``f`` every ``level(k) / log1p(1/k)``
    is the slope, and ``k = 1`` cancels least) and the intercept is ``f(1)``.
    Otherwise the first failing report is returned.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max!r}")
    level = None
    for k in range(1, k_max + 1):
        report = constancy_check(f, k, grid, tolerance)
        if not report.constant:
            return LogFitResult(None, report)
        level = report.level if level is None else level
    a = level / math.log(2)
    if not a > 0:
        return LogFitResult(None, report)
    b = f.value(1)
    residual = max(abs(f.value(x) - (a * math.log(float(x)) + b)) for x in grid)
    return LogFitResult(LogFit(a, b, residual), None)


def counterexample_profile(k: int, y, z, discount) -> Profile:
    """The two-agent instance built from a constancy failure.

    There are ``2k + 1`` goods.  Good 0 is worthless to agent 0 and worth
    ``z - discount`` to agent 1; every other good is worth ``y`` to agent 0
    and ``z`` to agent 1.  All values are exact rationals.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    y, z, discount = Fraction(y), Fraction(z), Fraction(discount)
    if y <= 0 or z <= 0:
        raise ValueError("y and z must be positive")
    if not 0 < discount < z:
        raise ValueError(f"the discount must lie strictly between 0 and {z}")
    row0 = (Fraction(0),) + (y,) * (2 * k)
    row1 = (z - discount,) + (z,) * (2 * k)
    return Profile((row0, row1))


@dataclass(frozen=True)
class CounterexampleReport:
    """A verified instance on which the welfarist rule for ``f`` cannot be fair.

    ``agent0_value`` / ``agent1_value`` are the two grid points (y, z) with
    ``d_k(y) > d_k(z)``; ``discount`` is the amount shaved off agent 1's
    value for good 0 so that the strict gap

        f((k+1)y) - f(ky) > f((k+1)z - discount) - f(kz - discount)

    holds.  ``solve`` is the solver's output on the constructed profile and
    ``ef1`` its (failing) one-good-removal verdict; ``all_maximizers_violate``
    records that the exhaustive sweep found no welfare-maximizing allocation
    that passes, so no tie-breaking choice could rescue the rule.
    """

    k: int
    agent0_value: Fraction
    agent1_value: Fraction
    discount: Fraction
    profile: Profile
    solve: SolveResult
    ef1: Ef1Verdict
    all_maximizers_violate: bool


def _log_sign(first, second):
    """The sign of ``a*ln(p*s / (q*r))`` for ``first = (p, q)``, ``second = (r, s)``,
    positive rationals, and ``a > 0``: ``p*s`` against ``q*r``, cleared of denominators."""
    (p, q), (r, s) = first, second
    left = p.numerator * s.numerator * q.denominator * r.denominator
    right = q.numerator * r.numerator * p.denominator * s.denominator
    return (left > right) - (left < right)


def _sign_test(f):
    """``sign(first, second)``: the sign of ``(f(a) - f(b)) - (f(c) - f(d))`` for
    ``first = (a, b)`` and ``second = (c, d)``, positive rationals: :func:`_log_sign` for
    a tree recognised as ``a*ln(x) + c``, else from enclosures of ``f`` refined over
    :data:`_DIGITS`, or 0 ("tied") when they still overlap at the last rung.
    Enclosures are memoized per (point, rung) for one search."""
    expression = f.ast()
    if f._form is not None and f._form[0] == "ln":
        return _log_sign
    at = cache(lambda x, digits: enclose_expression(expression, x, digits))

    @cache
    def difference(pair, digits):
        (a_lo, a_hi), (b_lo, b_hi) = at(pair[0], digits), at(pair[1], digits)
        return a_lo - b_hi, a_hi - b_lo

    def sign(first, second):
        for digits in _DIGITS:
            lo, hi = difference(first, digits)
            other_lo, other_hi = difference(second, digits)
            if lo > other_hi:
                return 1
            if hi < other_lo:
                return -1
            if lo == hi == other_lo == other_hi:  # exactly equal: no rung splits them
                return 0
        return 0

    return sign


def _choose_discount(sign, k, y, z, override, max_halvings=60):
    # continuity guarantees a small enough discount works; halve from z/2
    def gap_holds(eps):  # f((k+1)y) - f(ky) > f((k+1)z - eps) - f(kz - eps)
        return sign(((k + 1) * y, k * y), ((k + 1) * z - eps, k * z - eps)) > 0

    if override is not None:
        eps = Fraction(override)
        return eps if 0 < eps < z and gap_holds(eps) else None
    eps = z / 2
    for _ in range(max_halvings):
        if gap_holds(eps):
            return eps
        eps /= 2
    return None


def _verify_candidate(f, k, y, z, discount, budget):
    profile = counterexample_profile(k, y, z, discount)
    result, band = welfare_maximizers(profile, f, budget=budget)
    verdict = is_ef1(profile, result.allocation)
    if verdict.holds:
        logger.warning(
            "candidate k=%d y=%s z=%s discount=%s: the chosen maximizer "
            "passes the one-good-removal check; skipping",
            k, y, z, discount,
        )
        return None
    for allocation in band:
        if allocation != result.allocation and is_ef1(profile, allocation).holds:
            logger.warning(
                "candidate k=%d y=%s z=%s discount=%s: a tied maximizer "
                "%s passes the one-good-removal check; skipping",
                k, y, z, discount, allocation.assignment,
            )
            return None
    return CounterexampleReport(
        k=k,
        agent0_value=y,
        agent1_value=z,
        discount=discount,
        profile=profile,
        solve=result,
        ef1=verdict,
        all_maximizers_violate=True,
    )


def find_ef1_counterexample(
    f: WelfareFunction,
    *,
    k_max: int = 5,
    grid=None,
    epsilon=None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> CounterexampleReport | None:
    """Search for a profile on which every welfare maximizer for ``f`` fails EF1.

    Scans ``k = 1..k_max`` and ordered grid pairs for ``d_k(y) > d_k(z)``
    (roles swap when the difference points the other way), picks the discount
    by halving from ``z/2`` (or uses the ``epsilon`` override where it fits),
    builds the exact-rational profile, and certifies the result by exhaustive
    enumeration: the report is returned only if every allocation within the
    welfare tie band fails the one-good-removal check.  Both comparisons are
    certified signs of ``f.ast()``, exact if it is recognised as log-affine, and
    pairs they cannot tell apart are skipped, so log-affine ``f`` builds no candidate.
    Candidates whose certified gap held but whose verification failed are
    logged, never silently dropped.  Returns the first verified report in
    scan order, or ``None``.
    """
    points = tuple(Fraction(g) for g in (DEFAULT_SEARCH_GRID if grid is None else grid))
    if not points:
        raise ValueError("the search grid must not be empty")
    if any(p <= 0 for p in points):
        raise ValueError("the search grid must contain only positive values")
    if k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max!r}")
    sign = _sign_test(f)
    for k in range(1, k_max + 1):
        d_k = cache(lambda x, k=k: ((k + 1) * x, k * x))  # d_k(x) = f((k+1)x) - f(kx)
        for first, second in combinations(points, 2):
            order = sign(d_k(first), d_k(second))
            if order == 0:
                continue
            y, z = (first, second) if order > 0 else (second, first)
            discount = _choose_discount(sign, k, y, z, epsilon)
            if discount is None:
                continue
            report = _verify_candidate(f, k, y, z, discount, budget)
            if report is not None:
                return report
    return None


def extend_profile(base: Profile, n: int) -> Profile:
    """Pad a two-agent profile with ``n - 2`` extra agents and goods.

    Each extra agent values exactly one dedicated extra good at 1 and
    everything else at 0; the original agents value every extra good at 0.
    A welfare maximizer therefore hands each extra good to its extra agent,
    and the original two-agent conflict survives intact.
    """
    if base.n != 2:
        raise ValueError(f"only two-agent profiles can be extended, got {base.n} agents")
    if n < 3:
        raise ValueError(f"the target agent count must be at least 3, got {n}")
    extras = n - 2
    zero = Fraction(0)
    rows = [row + (zero,) * extras for row in base.utilities]
    for t in range(extras):
        row = [zero] * (base.m + extras)
        row[base.m + t] = Fraction(1)
        rows.append(tuple(row))
    return Profile(tuple(rows))
