"""Profiles, allocations, and exhaustive allocation enumeration.

Utilities are exact rationals (`fractions.Fraction`), read by every exact
path as integers on one common scale that the profile computes once.  Fairness
checks and the Nash-product solver compare exact integer totals, so strict
inequalities cannot be flipped by rounding; floats enter only when a welfare
function is applied.  Every rational from outside, a utility, a welfare
parameter, a grid point or a CLI option, is read once, by :func:`_rational`.

Every exhaustive scan in the package runs on one private kernel here: the
assignments of a prefix of the goods are walked in lexicographic order with
incrementally updated integer bundle totals, and each prefix brings a
precomputed block of every assignment of the last goods, evaluated a column
at a time.  The welfare ranking walks them grouped by their totals, each
group once, and only the Pareto frontier of the groups and of the block
entries: every rule it ranks rises, so its maximizers are Pareto optimal.
That walk is built once per profile and block size and kept on the profile
(:func:`_frontier`).  The Pareto check decides "optimal" from a kept walk,
and goes prefix by prefix for a first dominator, which may lie off the
frontier, or where none is kept; only a memo of columns is made per scan.
"""

import json
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, product
from operator import itemgetter

from .errors import (
    AllocationFormatError,
    AllocationMismatchError,
    EnumerationBudgetError,
    ProfileFormatError,
)

#: Upper bound on the number of allocations an exhaustive scan may visit.
DEFAULT_ENUMERATION_BUDGET = 10**7

#: Most assignments of the last goods that the kernel hands over as one block.
_BLOCK = 256
#: Most block columns (or other values) that one scan's :func:`_memo` keeps.
_COLUMN_CAP = 64


def _rational(value, what):
    """``value``, an int, ``Fraction``, finite float or ``Decimal``, or a string such as ``"1/2"`` or ``"1e400"``,
    as an exact ``Fraction``.  Anything else, a bool included, raises ``ValueError`` naming ``what``, as does a
    decimal exponent past the interpreter's integer-digit limit, whose power of ten would take too long to build."""
    if type(value) is Fraction:  # immutable, and already exact
        return value
    try:
        if isinstance(value, bool):
            raise TypeError("a bool is not a number")
        if isinstance(value, (str, Decimal)):
            _, e, exponent = str(value).lower().partition("e")
            limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
            if e and limit and abs(int(exponent)) > limit:  # limit 0: none set, or Python before 3.10.7
                raise ValueError(f"decimal exponent beyond {limit}")
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ValueError(f"unreadable {what}: {value!r}") from exc


def _to_utility(value, agent, good):
    if type(value) is int and value >= 0:
        return Fraction(value)
    utility = _rational(value, f"utility for agent {agent}, good {good}")
    if utility < 0:
        raise ValueError(f"negative utility for agent {agent}, good {good}: {value!r}")
    return utility


@dataclass(frozen=True)
class Profile:
    """An allocation instance: one row of per-good utilities per agent.

    ``utilities[i][j]`` is agent ``i``'s value for good ``j``.  Rows may be any
    iterables of what :func:`_rational` reads; they are normalized to tuples of
    nonnegative ``Fraction``s, a bad entry raising ``ValueError`` naming its
    agent and good.  Bundle values are additive over goods.
    """

    utilities: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(_to_utility(value, i, j) for j, value in enumerate(row))
            for i, row in enumerate(self.utilities)
        )
        if not rows:
            raise ValueError("a profile needs at least one agent")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"agent {i} has {len(row)} utilities, expected {width}")
        object.__setattr__(self, "utilities", rows)

    @property
    def n(self) -> int:
        """Number of agents."""
        return len(self.utilities)

    @property
    def m(self) -> int:
        """Number of goods."""
        return len(self.utilities[0])

    @cached_property
    def _scaled(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The rows times ``L``, the lcm of every denominator, as ints; and ``L``.
        One factor for all rows keeps sums, comparisons and products of positive
        totals in the order of the rationals, across agents too.  Computed on
        first use; no part of equality, hash, repr or pickling."""
        scale = math.lcm(*[value.denominator for row in self.utilities for value in row])
        return tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in self.utilities), scale

    def __getstate__(self):
        return {"utilities": self.utilities}


@dataclass(frozen=True)
class Allocation:
    """A total assignment of goods to agents.

    ``assignment[j]`` is the (0-based) agent that receives good ``j``.  The
    vector representation makes "every good goes to exactly one agent"
    structural; range validity against a profile is checked separately.
    """

    assignment: tuple[int, ...]

    def __post_init__(self):
        for j, agent in enumerate(self.assignment):
            if isinstance(agent, bool) or not isinstance(agent, int) or agent < 0:
                raise ValueError(f"good {j} assigned to invalid agent {agent!r}")
        object.__setattr__(self, "assignment", tuple(self.assignment))

    @property
    def m(self) -> int:
        return len(self.assignment)

    def bundles(self, n: int) -> tuple[frozenset[int], ...]:
        """The induced bundles ``(A_0, ..., A_{n-1})``; they partition the goods."""
        sets: list[set[int]] = [set() for _ in range(n)]
        for good, agent in enumerate(self.assignment):
            sets[agent].add(good)
        return tuple(frozenset(s) for s in sets)


def check_allocation(profile: Profile, allocation: Allocation) -> None:
    """Raise :class:`AllocationMismatchError` unless the allocation fits the profile."""
    if allocation.m != profile.m:
        raise AllocationMismatchError(f"allocation assigns {allocation.m} goods, profile has {profile.m}")
    for good, agent in enumerate(allocation.assignment):
        if agent >= profile.n:
            raise AllocationMismatchError(
                f"good {good} assigned to agent {agent}, but the profile has only {profile.n} agents")


def _totals(profile: Profile, allocation: Allocation) -> list[int]:
    """Each agent's total for their own bundle, on the profile's common scale."""
    check_allocation(profile, allocation)
    rows, _ = profile._scaled
    totals = [0] * profile.n
    for good, agent in enumerate(allocation.assignment):
        totals[agent] += rows[agent][good]
    return totals


def allocation_utilities(profile: Profile, allocation: Allocation) -> tuple[Fraction, ...]:
    """Each agent's exact utility for their own bundle."""
    return tuple(Fraction(total, profile._scaled[1]) for total in _totals(profile, allocation))


def allocation_count(profile: Profile) -> int:
    """Number of distinct allocations: every good can go to every agent."""
    return profile.n**profile.m


def _scaled_rows(profile: Profile, budget: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``profile._scaled``; raises :class:`EnumerationBudgetError` first if the scan would exceed ``budget``."""
    total = allocation_count(profile)
    if total > budget:
        raise EnumerationBudgetError(total, budget)
    return profile._scaled


def _assignments(rows, prune=None):
    """Walk every assignment of ``len(rows[0])`` goods to ``len(rows)`` agents.

    Yields ``(assignment, totals)`` in lexicographic assignment order (good 0
    most significant, agents increasing), where ``totals[i]`` is the sum of
    ``rows[i]`` over agent ``i``'s goods.  Both are lists updated in place
    (only the goods whose agent changed are touched), so a consumer copies
    what it keeps.

    ``prune(depth, totals)``, if given, is asked after each of goods
    ``0..depth-1`` has been placed; a true answer skips every completion of
    that prefix.
    """
    n, m = len(rows), len(rows[0])
    assignment = [-1] * m  # -1: not placed yet
    totals = [0] * n
    good = 0
    while good >= 0:
        if good == m:
            yield assignment, totals
            good -= 1
            continue
        agent = assignment[good]
        if agent >= 0:
            totals[agent] -= rows[agent][good]
        agent += 1
        if agent == n:
            assignment[good] = -1
            good -= 1
        else:
            assignment[good] = agent
            totals[agent] += rows[agent][good]
            if prune is None or not prune(good + 1, totals):
                good += 1


@lru_cache(maxsize=64)
def _suffix_table(n: int, s: int):
    """Every assignment of ``s`` goods to ``n`` agents in lexicographic order; per
    agent a getter of its bundle in each, out of the ``2**s`` subsets of the goods
    (bit ``s - 1 - j`` set when the bundle holds good ``j``); and each assignment
    alone in a 1-tuple."""
    suffixes = tuple(product(range(n), repeat=s))
    gathers = []
    for agent in range(n):
        index = [0]
        for _ in range(s):
            index = [2 * bundle + (owner == agent) for bundle in index for owner in range(n)]
        # itemgetter of one index returns the item itself, not a 1-tuple
        gathers.append(itemgetter(*index) if len(index) > 1 else lambda values, i=index[0]: (values[i],))
    return suffixes, tuple(gathers), tuple((suffix,) for suffix in suffixes)


def _blocks(rows, prune=None):
    """The kernel's walk, as ``(suffixes, gathers, bundles, prefixes)``.

    The last ``s`` goods, ``s`` the largest count with ``n**s <= _BLOCK``
    (0 for one agent, who has one bundle per allocation), form the suffix.  ``prefixes`` is :func:`_assignments`
    over the other goods; each ``(prefix, totals)`` stands for the block
    ``prefix + suffixes[k]``, in order, where agent ``i``'s total is
    ``totals[i] + gathers[i](bundles[i])[k]`` and ``bundles[i]`` is its value
    for each subset of the suffix.  So a consumer evaluates the ``2**s``
    bundles (each some agent's in some entry) and gathers, not ``n**s`` entries.
    """
    n, m = len(rows), len(rows[0])
    s = _suffix_length(n, m)
    suffixes, gathers, _ = _suffix_table(n, s)
    return suffixes, gathers, _row_sums(rows, s)[0], _assignments(tuple(row[: m - s] for row in rows), prune)


def _groups(rows):
    """The ranking's walk: :func:`_blocks` with ``prefixes`` grouped as ``(group, totals)``, each group a list of
    the prefixes of those totals in order, the groups in order of their first prefix, and each ``suffixes[k]`` a
    tuple of suffixes: the block of a group is every ``p + q``, ``p`` in the group and ``q`` in ``suffixes[k]``.
    For a key that rises when a total rises and none falls, it keeps on each side only the totals that no
    other's weakly exceed (:func:`_maxima`), each ``suffixes[k]`` then holding every suffix of one kept totals,
    unless the walk has at most ``n**2`` prefixes or a block keeps at least three in four entries."""
    suffixes, gathers, bundles, prefixes = _blocks(rows)
    n, m, s = len(rows), len(rows[0]), len(suffixes[0])
    groups = {}
    for prefix, totals in prefixes:
        groups.setdefault(tuple(totals), []).append(tuple(prefix))
    walk = _suffix_table(n, s)[2], gathers, bundles, list(zip(groups.values(), groups))
    if m - s <= 2:  # on at most n**2 prefixes, filtering costs as much as a few whole blocks
        return walk
    entries = {}
    for k, vector in enumerate(zip(*[gather(values) for gather, values in zip(gathers, bundles)])):
        entries.setdefault(vector, []).append(k)
    top = _maxima(entries)
    if 4 * len(top) >= 3 * len(suffixes):  # rows near proportional: likely most prefixes are kept too
        return walk
    kept = [(groups[totals], totals) for totals in _maxima(groups)]
    suffixes = [tuple(map(suffixes.__getitem__, entries[vector])) for vector in top]
    if len(top) <= 2**s:  # no more terms to evaluate per column than the suffix has bundles
        return suffixes, [tuple] * n, list(zip(*top)), kept
    indices = [gather(range(2**s)) for gather in gathers]  # per agent, its subset of the suffix in each entry
    return suffixes, [itemgetter(*[index[entries[v][0]] for v in top]) for index in indices], bundles, kept


def _frontier(profile: Profile, budget: int):
    """:func:`_groups` of the profile's rows once the budget is checked, kept on the profile for the :data:`_BLOCK`
    it was last built at (no part of equality, hash, repr or pickling), so that every ranking of it reads one walk."""
    rows, _ = _scaled_rows(profile, budget)
    if _kept(profile) is None:
        vars(profile)["_walk"] = {_BLOCK: _groups(rows)}
    return _kept(profile)


def _kept(profile: Profile):
    """The walk :func:`_frontier` keeps on ``profile`` for the current :data:`_BLOCK`, or ``None`` if none is kept."""
    return vars(profile).get("_walk", {}).get(_BLOCK)


def _maxima(points):
    """The points, distinct tuples of nonnegative ints, that no other weakly exceeds everywhere (the maxima of Kung,
    Luccio and Preparata, JACM 1975), in order; past three coordinates, also any only the later kept ones exceed."""
    points, kept = list(points), set()
    if len(points[0]) <= 3:  # sorted descending, a dominator comes first: a staircase of the kept
        ys, ws = [], []  # points' last two coordinates, y rising and w = -z too, holds one iff it dominates
        for point in sorted(points, reverse=True):
            _, y, z = (*point, 0, 0)[:3]
            i = bisect_left(ys, y)
            if i == len(ys) or ws[i] > -z:  # no kept point has y' >= y and z' >= z
                lo = bisect_left(ws, -z, 0, i)  # the steps the point covers
                ys[lo:i], ws[lo:i] = [y], [-z]
                kept.add(point)
        return list(filter(kept.__contains__, points))
    # A dominator has a larger sum.  Ranked, a coordinate is a field under a guard bit, and ``stack`` a block per
    # point of the first ``_BLOCK`` kept: subtracting a point leaves a block's guard bits set iff it is no smaller.
    columns = [list(map({v: r for r, v in enumerate(sorted(set(c)))}.__getitem__, c)) for c in zip(*points)]
    n, width = len(columns), len(points).bit_length() + 1
    size, guard = n * width // 8 + 1, sum(1 << (width * i + width - 1) for i in range(n))
    fill, one, blocks, last, count = (1 << 8 * size - 1) - 1 - guard, (1).to_bytes(size, "little"), [], None, 0
    packed = map(sum, zip(*[[r << width * i for r in c] for i, c in enumerate(columns)]))
    for total, value, point in sorted(zip(map(sum, points), packed, points), reverse=True):
        if total != last and count < min(len(blocks), _BLOCK):  # points of one sum never dominate each other
            count = min(len(blocks), _BLOCK)
            stack, ones = int.from_bytes(b"".join(blocks[:count]), "little"), int.from_bytes(one * count, "little")
            filled, tops = fill * ones, ones << 8 * size - 1
        last = total
        if not count or not ((stack - value * ones | filled) + ones) & tops:  # no block carries into its top bit
            blocks.append((value | guard).to_bytes(size, "little"))
            kept.add(point)
    return list(filter(kept.__contains__, points))


def _suffix_length(n: int, m: int) -> int:
    return 0 if n == 1 else max(s for s in range(m + 1) if n**s <= _BLOCK)


@lru_cache(maxsize=16)
def _row_sums(rows, s: int):
    """``(bundles, rest)`` of the scaled rows, once per profile and suffix length
    ``s``: each agent's value for each subset of the last ``s`` goods, and
    ``rest[i][t]``, agent ``i``'s for goods ``t..m-1``; tuples, as scans share them."""
    bundles = []
    for row in rows:
        sums = [0]
        for value in reversed(row[len(row) - s:]):  # good j is bit s - 1 - j: from the last good up
            sums += list(map(value.__add__, sums))
        bundles.append(tuple(sums))
    rest = tuple(tuple(accumulate(reversed(row), initial=0))[::-1] for row in rows)
    return tuple(bundles), rest


def _memo(build, rows, suffixes):
    """``build`` of what a block column depends on (an agent and its prefix total, say), memoized for the
    last :data:`_COLUMN_CAP` arguments if the block has fewer entries than allocations (else none recurs)."""
    return lru_cache(_COLUMN_CAP)(build) if len(suffixes) < len(rows) ** len(rows[0]) else build


# ---------------------------------------------------------------------------
# File formats.
#
# A profile is a JSON object {"agents": n, "goods": m, "utilities": [[...]]}
# where each entry is an integer or a string rational such as "1/2".  Floats
# are rejected so that values survive a round trip bit for bit.  An
# allocation is {"assignment": [a_0, ..., a_{m-1}]} with 0-based agent
# indices, one per good.
# ---------------------------------------------------------------------------


def _parsed(text: str, error):
    """``json.loads(text)``; invalid JSON raises ``error`` naming its line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def loads_profile(text: str) -> Profile:
    """Parse profile JSON text, preserving rationals exactly."""
    data = _parsed(text, ProfileFormatError)
    if not isinstance(data, dict):
        raise ProfileFormatError("profile must be a JSON object")
    missing = {"agents", "goods", "utilities"} - data.keys()
    if missing:
        raise ProfileFormatError(f"profile is missing fields: {', '.join(sorted(missing))}")
    agents, goods, matrix = data["agents"], data["goods"], data["utilities"]
    if isinstance(agents, bool) or not isinstance(agents, int) or agents < 1:
        raise ProfileFormatError(f"\"agents\" must be a positive integer, got {agents!r}")
    if isinstance(goods, bool) or not isinstance(goods, int) or goods < 0:
        raise ProfileFormatError(f"\"goods\" must be a nonnegative integer, got {goods!r}")
    if not isinstance(matrix, list):
        raise ProfileFormatError("\"utilities\" must be a list of rows")
    if len(matrix) != agents:
        raise ProfileFormatError(f"\"agents\" is {agents} but \"utilities\" has {len(matrix)} rows")
    for i, row in enumerate(matrix):
        if not isinstance(row, list):
            raise ProfileFormatError(f"utilities row for agent {i} must be a list")
        if len(row) != goods:
            raise ProfileFormatError(
                f"\"goods\" is {goods} but agent {i} has {len(row)} utilities"
            )
        for j, value in enumerate(row):
            if type(value) is not int and type(value) is not str:  # JSON's floats, bools, nulls, lists, objects
                where = f"utility for agent {i}, good {j}"
                if isinstance(value, bool):
                    raise ProfileFormatError(f'{where} must be an integer or a "p/q" string, got {value!r}')
                if isinstance(value, float):
                    raise ProfileFormatError(
                        f'{where} is a float ({value!r}); write non-integers as "p/q" strings to keep them exact'
                    )
                raise ProfileFormatError(f"{where} has unsupported type {type(value).__name__}")
    try:
        return Profile(matrix)
    except ValueError as exc:
        raise ProfileFormatError(str(exc)) from exc


def _fraction_entry(value: Fraction):
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def dumps_profile(profile: Profile) -> str:
    """Serialize a profile to JSON; :func:`loads_profile` inverts this exactly."""
    payload = {
        "agents": profile.n,
        "goods": profile.m,
        "utilities": [[_fraction_entry(v) for v in row] for row in profile.utilities],
    }
    return json.dumps(payload, indent=2) + "\n"


def loads_allocation(text: str) -> Allocation:
    """Parse allocation JSON text."""
    data = _parsed(text, AllocationFormatError)
    if not isinstance(data, dict) or "assignment" not in data:
        raise AllocationFormatError('allocation must be an object with an "assignment" list')
    assignment = data["assignment"]
    if not isinstance(assignment, list):
        raise AllocationFormatError('"assignment" must be a list of agent indices')
    try:
        return Allocation(tuple(assignment))
    except ValueError as exc:
        raise AllocationFormatError(str(exc)) from None


def dumps_allocation(allocation: Allocation) -> str:
    """Serialize an allocation to JSON."""
    return json.dumps({"assignment": list(allocation.assignment)}, indent=2) + "\n"
