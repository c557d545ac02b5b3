"""Envy-freeness, EF1, and Pareto-optimality checks with auditable witnesses.

All comparisons are exact integers on the profile's one common scale; only
the values a verdict reports become ``Fraction``s.  Verdicts carry enough data
to re-check the decision by hand: an EF1 violation lists, for every single
good in the envied bundle, the value that remains after removing it.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import and_

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    Allocation,
    Profile,
    _blocks,
    _memo,
    _row_sums,
    _scaled_rows,
    _suffix_length,
    _totals,
    check_allocation,
)


@dataclass(frozen=True)
class EnvyWitness:
    """Agent ``envier`` strictly prefers agent ``envied``'s bundle to their own."""

    envier: int
    envied: int
    own_utility: Fraction
    envied_utility: Fraction


@dataclass(frozen=True)
class EfVerdict:
    holds: bool
    violations: tuple[EnvyWitness, ...] = ()


@dataclass(frozen=True)
class Ef1Violation:
    """Envy that no single-good removal eliminates.

    ``removal_gaps`` holds ``(good, remaining)`` pairs: for every good in the
    envied bundle, the envier's value for that bundle without the good.
    Every listed remainder strictly exceeds ``own_utility``.
    """

    envier: int
    envied: int
    own_utility: Fraction
    removal_gaps: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class Ef1Verdict:
    holds: bool
    violations: tuple[Ef1Violation, ...] = ()


@dataclass(frozen=True)
class ParetoVerdict:
    """``dominator``, present iff not optimal, weakly improves every agent and
    strictly improves at least one."""

    optimal: bool
    dominator: Allocation | None = None


def _valuations(profile, allocation):
    """Scaled rows and scale, each agent's sorted goods, and ``values[i][j]``: ``i``'s total for ``j``'s bundle."""
    check_allocation(profile, allocation)
    rows, scale = profile._scaled
    goods = [sorted(bundle) for bundle in allocation.bundles(len(rows))]
    values = [[sum(map(row.__getitem__, bundle)) for bundle in goods] for row in rows]
    return rows, scale, goods, values


def is_ef(profile: Profile, allocation: Allocation) -> EfVerdict:
    """Envy-freeness: every agent weakly prefers their own bundle to every other."""
    _, scale, _, values = _valuations(profile, allocation)
    violations = tuple(
        EnvyWitness(i, j, Fraction(value[i], scale), Fraction(envied, scale))
        for i, value in enumerate(values)
        for j, envied in enumerate(value)
        if value[i] < envied
    )
    return EfVerdict(not violations, violations)


def is_ef1(profile: Profile, allocation: Allocation) -> Ef1Verdict:
    """Envy-freeness up to one good.

    Holds iff for every ordered pair ``(i, j)`` with a nonempty bundle
    ``A_j`` there is some good ``g`` in ``A_j`` with
    ``u_i(A_i) >= u_i(A_j \\ {g})``.  Pairs with an empty ``A_j`` are skipped,
    which keeps the removal step well-defined (with nonnegative utilities an
    empty bundle cannot be envied anyway).
    """
    rows, scale, goods, values = _valuations(profile, allocation)
    violations = []
    for i, (row, value) in enumerate(zip(rows, values)):
        own = value[i]
        for j, bundle in enumerate(goods):
            if i == j or not bundle or own >= value[j] - max(map(row.__getitem__, bundle)):
                continue
            gaps = tuple((g, Fraction(value[j] - row[g], scale)) for g in bundle)
            violations.append(Ef1Violation(i, j, Fraction(own, scale), gaps))
    return Ef1Verdict(not violations, tuple(violations))


def is_pareto_optimal(
    profile: Profile,
    allocation: Allocation,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ParetoVerdict:
    """Exhaustive Pareto check.

    Scans every allocation; returns the first dominator in lexicographic
    assignment order, so the result does not depend on how the scan might be
    partitioned.  The budget is checked before anything else.  A prefix is skipped once
    some agent's total plus all it values in the goods left is below its current utility:
    no completion of it can dominate.  Each agent's mask of the block entries that meet
    its need is gathered once per need in a scan (:func:`_memo`, capped), not per prefix."""
    rows, _ = _scaled_rows(profile, budget)
    current = _totals(profile, allocation)
    _, rest = _row_sums(rows, _suffix_length(profile.n, profile.m))

    def prune(depth, totals):
        return any(t + r[depth] < c for t, r, c in zip(totals, rest, current))

    suffixes, gathers, bundles, prefixes = _blocks(rows, prune)
    split = profile.m - len(suffixes[0])
    mask_of = _memo(lambda agent, need: gathers[agent]([need <= v for v in bundles[agent]]), rows, suffixes)
    for prefix, totals in prefixes:
        needs = [c - t for c, t in zip(current, totals)]
        fits = None  # entries giving every agent at least its need
        for agent, need in enumerate(needs):
            if need > 0:
                fits = mask_of(agent, need) if fits is None else list(map(and_, fits, mask_of(agent, need)))
        candidates = range(len(suffixes)) if fits is None else compress(range(len(suffixes)), fits)
        for k in candidates:
            # a candidate meets every need: it dominates iff it exceeds one
            if sum(rows[agent][split + j] for j, agent in enumerate(suffixes[k])) > sum(needs):
                return ParetoVerdict(False, Allocation(tuple(prefix) + suffixes[k]))
    return ParetoVerdict(True, None)
