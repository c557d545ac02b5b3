"""Separating log-affine welfare functions from everything else.

The pivotal quantity is the scaled difference ``d_k(x) = f((k+1)x) - f(kx)``.
For ``f(x) = a*ln(x) + b`` it equals ``a*ln(1 + 1/k)`` for every ``x``; for
any other increasing differentiable ``f`` it varies in ``x`` for some ``k``,
and two grid points exposing the variation can be turned into a concrete
two-agent instance on which *every* welfare-maximizing allocation fails the
one-good-removal envy check.  This module provides the constancy test, a
log-affine parameter fit built on it, and the instance construction with an
exhaustive verification of the failure.

The constancy test, the fit and the search judge ``d_k`` by the certified sign
of ``f``'s one :class:`~fairalloc.funcparse._Ladder`, whose enclosures the
verification of a candidate shares; a tie means equal to the ladder's last rung.
A tree recognised as ``a*ln(x) + c`` needs none: its ``d_k`` is the same at
every point, so it ties every comparison and the search compares nothing.
The float samples and the fit are shown only: each is ``f.value``, the float
nearest the midpoint of an enclosure from the same ladder.
"""

import logging
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ExpressionEvalError, InvalidWelfareFunctionError
from .fairness import Ef1Verdict, is_ef1
from .model import DEFAULT_ENUMERATION_BUDGET, Profile, _rational
from .welfarist import SolveResult, WelfareFunction, welfare_maximizers

logger = logging.getLogger(__name__)

#: Default positive rationals scanned for a constancy failure: 1/2, 1, ..., 5.
DEFAULT_SEARCH_GRID = tuple(Fraction(i, 2) for i in range(1, 11))

#: Default grid for constancy reports and the log fit.
DEFAULT_CONSTANCY_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)


def _positive_grid(grid):
    """``grid``'s points, read as rationals into a tuple, refused unless non-empty and positive."""
    points = tuple(_rational(point, "grid point") for point in grid)
    if not points:
        raise ValueError("the grid must not be empty")
    if any(p <= 0 for p in points):
        raise ValueError("the grid must contain only positive values")
    return points


def scaled_difference(f: WelfareFunction, k: int, x) -> float:
    """d_k(x) = f((k+1)*x) - f(k*x); constant in x exactly for log-affine f."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return f.value((k + 1) * x) - f.value(k * x)


@dataclass(frozen=True)
class ConstancyReport:
    """The verdict on ``d_k`` over a grid: ``constant`` iff the search's sign test
    ties ``d_k`` at every grid point with ``d_k`` at the first.  ``samples``,
    ``spread = max - min`` and ``level`` (their mean, ``None`` unless constant)
    are floats, shown only."""

    k: int
    samples: tuple[tuple[float, float], ...]
    spread: float
    constant: bool
    level: float | None


def _ties(sign, k, points):
    """Whether ``sign`` ties ``d_k`` at every point with ``d_k`` at the first (always for ``None``)."""
    y = points[0]  # d_k(y) - d_k(x) = f((k+1)y) + f(kx) - f(ky) - f((k+1)x)
    return sign is None or not any(sign(((k + 1) * y, k * x), (k * y, (k + 1) * x)) for x in points[1:])


def _report(f, k, points, constant):
    """The float samples of ``d_k`` with the verdict ``constant``."""
    samples = tuple((float(x), scaled_difference(f, k, x)) for x in points)
    values = [d for _, d in samples]
    level = sum(values) / len(values) if constant else None
    return ConstancyReport(k, samples, max(values) - min(values), constant, level)


def constancy_check(f: WelfareFunction, k: int, grid) -> ConstancyReport:
    """Decide whether ``d_k`` is constant on a positive grid, taken exactly."""
    points, sign = _positive_grid(grid), _sign_test(f)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return _report(f, k, points, _ties(sign, k, points))


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


def fit_log(f: WelfareFunction, *, k_max: int = 50, grid=DEFAULT_CONSTANCY_GRID) -> LogFitResult:
    """Fit ``a*ln(x) + b`` to ``f`` once ``d_k`` is constant for every ``k <= k_max``.

    One sign test decides every ``k`` as :func:`constancy_check` does; the first
    ``k`` that fails gets the returned report.  The slope is ``d_1`` at the first
    grid point, from its enclosure at the ladder's last rung, over ``ln 2``, and the
    intercept is ``f(1)``.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max!r}")
    points = _positive_grid(grid)
    sign = _sign_test(f)
    failed = next((k for k in range(1, k_max + 1) if not _ties(sign, k, points)), None)
    if failed is not None:
        return LogFitResult(None, _report(f, failed, points, False))
    (lo2, hi2), (lo1, hi1) = (f._ladder.enclose(x, f._ladder.rungs[-1]) for x in (2 * points[0], points[0]))
    a = float((lo2 + hi2 - lo1 - hi1) / 2) / math.log(2)
    if not a > 0:
        return LogFitResult(None, _report(f, k_max, points, True))
    b = f.value(1)
    residual = max(abs(f.value(x) - (a * math.log(x) + b)) for x in points)
    return LogFitResult(LogFit(a, b, residual), None)


def counterexample_profile(k: int, y, z, discount) -> Profile:
    """The two-agent instance built from a constancy failure.

    There are ``2k + 1`` goods.  Good 0 is worthless to agent 0 and worth
    ``z - discount`` to agent 1; every other good is worth ``y`` to agent 0
    and ``z`` to agent 1.  All values are exact rationals.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    y, z, discount = _rational(y, "y"), _rational(z, "z"), _rational(discount, "discount")
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


def _sign_test(f):
    """``None`` for a tree that :func:`~fairalloc.funcparse.linear_form` recognises as ``a*ln(x) + c``,
    whose ``d_k`` is the same at every point, so every comparison of it ties; else the certified
    sign of ``f``'s ladder, whose enclosures ``f`` keeps."""
    return None if f._form is not None and f._form[0] == "ln" else f._ladder.sign


def _choose_discount(sign, k, y, z, override):
    # continuity guarantees a small enough discount works; halve from z/2
    def gap_holds(eps):  # f((k+1)y) - f(ky) > f((k+1)z - eps) - f(kz - eps)
        return sign(((k + 1) * y, k * z - eps), (k * y, (k + 1) * z - eps)) == 1

    if override is not None:
        return override if 0 < override < z and gap_holds(override) else None
    eps = z / 2
    for _ in range(60):
        if gap_holds(eps):
            return eps
        eps /= 2
    return None


def _candidates(sign, points, k_max, epsilon, rejected):
    """``(k, y, z, discount)`` for each grid pair with a certified gap, in scan order; one that fails is rejected."""
    for k in range(1, k_max + 1):
        for first, second in combinations(points, 2):  # the sign of d_k(first) - d_k(second)
            try:
                order = sign(((k + 1) * first, k * second), (k * first, (k + 1) * second))
                if not order:
                    continue
                y, z = (first, second) if order == 1 else (second, first)
                discount = _choose_discount(sign, k, y, z, epsilon)
            except (InvalidWelfareFunctionError, ExpressionEvalError) as exc:
                rejected["pairs whose comparison failed"] += 1
                logger.debug("pair k=%d %s, %s: the comparison failed (%s); skipping", k, first, second, exc)
                continue
            if discount is None:
                rejected["pairs with no discount"] += 1
                continue
            yield k, y, z, discount


def _verify_candidate(f, k, y, z, discount, budget, rejected):
    """The report, or ``None`` with the rejection, a failed solve too, counted in ``rejected`` and logged at DEBUG."""
    profile = counterexample_profile(k, y, z, discount)
    try:
        result, band = welfare_maximizers(profile, f, budget=budget)
    except (InvalidWelfareFunctionError, ExpressionEvalError) as exc:
        rejected["candidates whose solve failed"] += 1
        logger.debug("candidate k=%d y=%s z=%s discount=%s: the solve failed (%s); skipping", k, y, z, discount, exc)
        return None
    verdict = is_ef1(profile, result.allocation)
    if verdict.holds:
        rejected["candidates whose chosen maximizer passes EF1"] += 1
        logger.debug("candidate k=%d y=%s z=%s discount=%s: the chosen maximizer passes the one-good-removal check;"
                     " skipping", k, y, z, discount)
        return None
    for allocation in band:
        if allocation != result.allocation and is_ef1(profile, allocation).holds:
            rejected["candidates with a tied maximizer passing EF1"] += 1
            logger.debug("candidate k=%d y=%s z=%s discount=%s: a tied maximizer %s passes the one-good-removal"
                         " check; skipping", k, y, z, discount, allocation.assignment)
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
    enumeration: the report is returned only if every welfare maximizer, in the
    certified order, fails the one-good-removal check.  Both comparisons are
    certified signs of ``f.ast()``, and pairs they cannot tell apart are skipped.
    A tree recognised as log-affine ties every pair, so it compares none and
    builds no candidate.  Each search logs one INFO summary counting the pairs
    and candidates it rejected, by reason (tied pairs are not counted), and
    each rejected candidate, one whose solve fails too, at DEBUG; an ``f`` no
    scan can rank raises.  Returns the first verified report, or ``None``.
    """
    points = _positive_grid(DEFAULT_SEARCH_GRID if grid is None else grid)
    if k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max!r}")
    epsilon = None if epsilon is None else _rational(epsilon, "epsilon")
    rejected = Counter()
    sign = _sign_test(f)
    f._ranking()  # raises here, not as a failed solve of every candidate
    candidates = () if sign is None else _candidates(sign, points, k_max, epsilon, rejected)
    report = next(filter(None, (_verify_candidate(f, *c, budget, rejected) for c in candidates)), None)
    logger.info("search for %s to k=%d: found k=%s; rejected %s", f, k_max, report and report.k, dict(rejected))
    return report


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
