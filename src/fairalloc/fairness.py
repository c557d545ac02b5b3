"""Envy-freeness, EF1, and Pareto-optimality checks with auditable witnesses.

All comparisons are exact integers on the profile's one common scale; only
the values a verdict reports become ``Fraction``s.  Verdicts carry enough data
to re-check the decision by hand: an EF1 violation lists, for every single
good in the envied bundle, the value that remains after removing it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from operator import and_

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    Allocation,
    Profile,
    _blocks,
    _kept,
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


def _dominating(rows, walk, current):
    """``(prefix, k)`` for each prefix of ``walk`` (:func:`_blocks`, or grouped, :func:`_frontier`) with an entry that
    dominates the totals ``current``, ``k`` the first: one in every agent's mask of the entries that meet its need
    (gathered once per need in a walk by :func:`_memo`, capped) whose sum exceeds the needs', as any does where a
    need is below 0: then no entry's values are gathered."""
    suffixes, gathers, bundles, prefixes = walk
    columns = cache(lambda: [gather(values) for gather, values in zip(gathers, bundles)])  # each agent's, per entry
    mask_of = _memo(lambda agent, need: gathers[agent]([need <= v for v in bundles[agent]]), rows, suffixes)
    for prefix, totals in prefixes:
        needs = [c - t for c, t in zip(current, totals)]
        fits = None  # entries giving every agent at least its need
        for agent, need in enumerate(needs):
            if need > 0:
                fits = mask_of(agent, need) if fits is None else list(map(and_, fits, mask_of(agent, need)))
        for k in range(len(suffixes)) if fits is None else compress(range(len(suffixes)), fits):
            if min(needs) < 0 or sum(column[k] for column in columns()) > sum(needs):  # then it dominates
                yield prefix, k
                break


def is_pareto_optimal(
    profile: Profile,
    allocation: Allocation,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ParetoVerdict:
    """Exact Pareto check, once the budget is checked.  An allocation is dominated iff a Pareto-optimal one dominates
    it, so "optimal" is read from a frontier walk a ranking kept on the profile (:func:`_frontier`) alone.  Otherwise,
    or with none kept (to build one costs more than most checks), the first dominator in lexicographic assignment
    order is walked for, skipping each prefix from which some agent can no longer reach its current utility."""
    rows, _ = _scaled_rows(profile, budget)
    current = _totals(profile, allocation)
    if (kept := _kept(profile)) and next(_dominating(rows, kept, current), None) is None:
        return ParetoVerdict(True, None)
    _, rest = _row_sums(rows, _suffix_length(profile.n, profile.m))
    walk = _blocks(rows, prune=lambda depth, totals: any(t + r[depth] < c for t, r, c in zip(totals, rest, current)))
    for prefix, k in _dominating(rows, walk, current):  # the first dominator
        return ParetoVerdict(False, Allocation(tuple(prefix) + walk[0][k]))
    return ParetoVerdict(True, None)
