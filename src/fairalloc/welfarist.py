"""Welfare functions, extended-real welfare, and exact welfare maximization.

An additive welfarist rule applies an increasing function ``f``, defined by
its exact expression tree, whose enclosures ``value`` reads as floats, to each
agent's bundle utility and picks an allocation maximizing the sum.  Every entry point
ranks an ``f`` whose tree :func:`~fairalloc.funcparse.linear_form` recognises as
``a*ln(x) + c`` (maximum Nash welfare) by exact rational products, and one it
recognises as ``a*x + c`` (utilitarian welfare) in closed form, by giving each good
to an agent who values it most; any other ``f`` that
:func:`~fairalloc.funcparse.increasing` proves rising by the certified order of
its exact sums, and no other ``f`` at all.  Every solver breaks ties by the
lexicographically smallest assignment vector.  Each class reads its own
parameters, numbers or a spec's strings, as exact rationals.

Both rankings that are not closed form share one scan over the Pareto frontier
of the kernel of :mod:`fairalloc.model`, grouped by prefix totals, one block of
the last goods per group, a walk the profile keeps per block size.  The Nash
product's integer keys are exact; a rising ``f`` is scanned by the floats
nearest its terms' enclosures, within a band as wide as their error, whose
totals its :class:`~fairalloc.funcparse._Ladder` then orders.  Only the memo of
columns by prefix total, up to a cap, is per scan; ``f`` keeps its keys per
total and its enclosures across calls.
"""

import decimal
import logging
import math
import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import compress, product, repeat
from operator import add, le, mul

from .errors import InvalidWelfareFunctionError
from .funcparse import (
    BinOp,
    Call,
    Expression,
    Num,
    Var,
    _LADDER_CAP,
    _Ladder,
    _rise,
    _sized,
    increasing,
    linear_form,
    parse_expression,
)
from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    Allocation,
    Profile,
    _assignments,
    _frontier,
    _memo,
    _rational,
    _scaled_rows,
    _totals,
)

logger = logging.getLogger(__name__)

NEG_INF = float("-inf")


def _named(spec) -> str:
    """``spec``, a function's name for an error, with each literal of over 20 digits named by its length."""
    return re.sub(r"\d{21,}", lambda literal: f"<{len(literal[0])} digits>", str(spec))


def _exact(f, what):
    """Store ``f``'s parameters, read as ``Fraction``s that a float can hold; the first, ``what``, is positive."""
    for field in fields(f):
        try:
            value = _rational(getattr(f, field.name), f"parameter {field.name}")
        except ValueError as exc:
            raise InvalidWelfareFunctionError(str(exc)) from exc
        if value and not math.ulp(0.0) <= abs(value) <= sys.float_info.max:
            raise InvalidWelfareFunctionError(f"parameter {field.name} is beyond float range")
        object.__setattr__(f, field.name, value)
    first = getattr(f, fields(f)[0].name)
    if not first > 0:
        raise InvalidWelfareFunctionError(f"{what} must be positive, got {first}")


class WelfareFunction:
    """An increasing function from [0, inf) into [-inf, inf), defined once by its tree ``ast`` with exact
    parameters and read only from the tree's one :class:`~fairalloc.funcparse._Ladder` of enclosures, by which the
    solvers and the search compare it.  ``value`` is the float nearest the midpoint of an enclosure, memoized per
    instance, as are the tree's proofs and its ladder (no part of equality, hash, repr or pickling).  The solvers
    refuse a tree neither recognised nor proved rising, and a subclass with no tree.  Instances are immutable and safe
    to share."""

    def value(self, x) -> float:
        """The float nearest the midpoint of ``f(x)``'s enclosure at the ladder's last rung for ``x``, ``-inf`` only
        at 0 (see :meth:`_read`)."""
        if x < 0:
            raise ValueError(f"welfare functions are defined on x >= 0, got {x!r}")
        return self._values(x)

    @cached_property
    def _values(self):
        """:meth:`value` for the last :data:`~fairalloc.funcparse._LADDER_CAP` points."""
        return lru_cache(_LADDER_CAP)(lambda x: self._read(x)[0])

    def _read(self, x, digits=None):
        """The float nearest the midpoint of ``f(x)``'s enclosure at ``digits`` (the last rung for ``x`` if None, or
        where ``digits`` leaves the domain) and a bound on both its distance from ``f(x)`` and its magnitude times
        2^-52.  ``(-inf, 0.0)`` at 0, where no enclosure exists and ``f`` is recognised as ``a*ln(x) + c`` or proved
        rising from a lower bound of ``-inf``: an ``ln`` of exactly 0 that no ``exp`` takes back.  Any other failure
        raises, naming ``x`` by its size."""
        try:
            x = Fraction(x)
            lo, hi = self._ladder.enclose(x, digits or self._ladder.last_rung([x]))
            middle = (lo + hi) / 2
            key = float(middle)
        except (ArithmeticError, ValueError) as exc:
            if isinstance(exc, OverflowError) or isinstance(exc.__cause__, decimal.Overflow):
                raise InvalidWelfareFunctionError(f"{_named(self)} overflowed at a {_sized(x, 'utility')}") from None
            if digits:  # a coarser rung may round an argument out of its domain: the last rung decides
                return self._read(x)
            if x == 0 and (self._form and self._form[0] == "ln" or self._increasing and _rise(self.ast()) == NEG_INF):
                return NEG_INF, 0.0
            raise InvalidWelfareFunctionError(f"{_named(self)} failed at a {_sized(x, 'utility')}: {exc}") from None
        return key, max(math.nextafter(float(hi - middle + abs(Fraction(key) - middle)), math.inf), abs(key) * 2.0**-52)

    @cached_property
    def _form(self):
        """The tree's :func:`~fairalloc.funcparse.linear_form`."""
        return linear_form(self.ast())

    @cached_property
    def _increasing(self):
        """Whether :func:`~fairalloc.funcparse.increasing` proves the tree rising."""
        return increasing(self.ast())

    @cached_property
    def _ladder(self):
        return _Ladder(self.ast())

    def _ranking(self):
        """``"ln"`` or ``"x"``, the recognised form, else ``"rising"`` if the tree is proved increasing and has a value
        at 0, as every scan reads an empty bundle; any other, or none, raises :class:`InvalidWelfareFunctionError`."""
        try:
            if self._form:
                return self._form[0]
            if self._increasing:
                self.value(0)  # where no enclosure reaches f(0) and no ln takes it to -inf, this names the failure
                return "rising"
        except NotImplementedError as exc:
            raise InvalidWelfareFunctionError(str(exc)) from None
        raise InvalidWelfareFunctionError(f"{_named(self)} is not proved increasing by funcparse.increasing")

    def __getstate__(self):
        cached = ("_values", "_form", "_increasing", "_ladder", "_keys")
        return {name: item for name, item in vars(self).items() if name not in cached}

    def ast(self) -> Expression:
        raise NotImplementedError(f"{type(self).__name__} supplies no expression tree")


@dataclass(frozen=True)
class LogAffine(WelfareFunction):
    """f(x) = a*ln(x) + b with a > 0; f(0) = -inf."""

    a: Fraction = Fraction(1)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        _exact(self, "log-affine slope")

    def ast(self) -> Expression:
        return BinOp("+", BinOp("*", Num(self.a), Call("ln", Var())), Num(self.b))

    def __str__(self):
        return "log" if (self.a, self.b) == (1, 0) else f"log:{self.a},{self.b}"


@dataclass(frozen=True)
class Affine(WelfareFunction):
    """f(x) = a*x + b with a > 0 (a = 1, b = 0 is utilitarian welfare)."""

    a: Fraction = Fraction(1)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        _exact(self, "affine slope")

    def ast(self) -> Expression:
        return BinOp("+", BinOp("*", Num(self.a), Var()), Num(self.b))

    def __str__(self):
        return f"affine:{self.a},{self.b}"


@dataclass(frozen=True)
class Power(WelfareFunction):
    """f(x) = x**p with p > 0."""

    p: Fraction

    def __post_init__(self):
        _exact(self, "power exponent")

    def ast(self) -> Expression:
        return BinOp("^", Var(), Num(self.p))

    def __str__(self):
        return f"power:{self.p}"


@dataclass(frozen=True)
class Exp(WelfareFunction):
    """f(x) = e**x."""

    def ast(self) -> Expression:
        return Call("exp", Var())

    def __str__(self):
        return "exp"


@dataclass(frozen=True)
class CustomExpression(WelfareFunction):
    """A user-supplied expression in x, refused at construction unless
    :func:`~fairalloc.funcparse.linear_form` recognises it or
    :func:`~fairalloc.funcparse.increasing` proves it rising."""

    expression: Expression
    source: str

    def __post_init__(self):
        self._ranking()

    @classmethod
    def from_text(cls, text: str) -> "CustomExpression":
        return cls(parse_expression(text), text)

    def ast(self) -> Expression:
        return self.expression

    def __str__(self):
        return f"expr:{self.source}"


def welfare_function_from_spec(spec: str) -> WelfareFunction:
    """Build a welfare function from a CLI-style spec string.

    Accepted forms: ``log``, ``log:a,b``, ``affine:a,b`` (or bare
    ``affine``), ``power:p``, ``exp``, ``expr:<expression in x>``.  Numeric
    parameters may be integers, decimals, or ``p/q`` rationals, read by the
    function's class; an error names the spec.
    """
    name, sep, args = spec.partition(":")
    name = name.strip().lower()
    if name == "expr":
        if not sep or not args.strip():
            raise InvalidWelfareFunctionError("expr needs a body, e.g. expr:3*ln(x)+2")
        return CustomExpression.from_text(args)
    kind = {"log": LogAffine, "affine": Affine, "power": Power, "exp": Exp}.get(name)
    if kind is None:
        raise InvalidWelfareFunctionError(f"unknown welfare function spec {_named(repr(spec))}")
    pieces = [piece.strip() for piece in args.split(",")] if args.strip() else []
    if len(pieces) != len(fields(kind)) and (pieces or kind is Power):  # log and affine default to a = 1, b = 0
        count = len(fields(kind))
        raise InvalidWelfareFunctionError(f"{_named(repr(spec))} should have {count} comma-separated parameters")
    try:
        return kind(*pieces)
    except InvalidWelfareFunctionError as exc:
        raise InvalidWelfareFunctionError(f"{exc} in {_named(repr(spec))}") from exc


@dataclass(frozen=True)
class ExtendedWelfare:
    """Welfare with -inf terms counted separately: their number and the sum of the finite terms."""

    neg_inf_count: int
    finite_part: float

    def __post_init__(self):
        if self.neg_inf_count < 0:
            raise ValueError("neg_inf_count must be nonnegative")

    @property
    def finite(self) -> bool:
        return self.neg_inf_count == 0


def allocation_welfare(
    profile: Profile, allocation: Allocation, f: WelfareFunction
) -> ExtendedWelfare:
    """Sum of ``f.value`` over the agents' bundle utilities, -inf terms counted
    apart, the finite ones summed in agent order."""
    scale = profile._scaled[1]
    terms = [f.value(total if scale == 1 else Fraction(total, scale)) for total in _totals(profile, allocation)]
    finite = 0.0
    for term in terms:
        if term != NEG_INF:
            finite += term
    return ExtendedWelfare(terms.count(NEG_INF), finite)


@dataclass(frozen=True)
class SolveResult:
    """A welfare-maximizing allocation, its :func:`allocation_welfare` under ``f``,
    and the number of maximizers.

    For ``f`` recognised as affine these are the allocations that give each good to an
    agent who values it most.  Any other ``f`` ranks by the fewest -inf terms, then the
    others: for ``f`` recognised as log-affine the maximizers are the exact ties of the
    Nash product (see :func:`max_nash_welfare`), for ``f`` proved rising the ties of the
    exact sum of the others, by certified signs; a tie that the ladder's last rung cannot
    split counts as one, and is logged at INFO.
    """

    allocation: Allocation
    welfare: ExtendedWelfare
    maximizer_set_size: int


class _Terms:
    """One scan's float keys of ``f(t / scale)`` for integer bundle totals ``t``: the float nearest the midpoint of
    its first-rung enclosure by ``f``'s ladder, or ``-inf`` at 0, as :meth:`WelfareFunction._read` gives them.
    ``bound`` is the most, over the totals this scan met, of how far a key lies from its term and of its magnitude
    times 2^-52.  Keys and bounds are kept across scans by :func:`_keys`, as enclosures are by the ladder."""

    def __init__(self, f, scale):
        self.f, self.scale, self.bound = f, scale, 0.0
        self.memo, self.bounds = _keys(f, scale)

    def keys(self, totals):
        """The keys of ``totals``, their bounds counted in this scan's."""
        try:
            self.bound = max(self.bound, max(map(self.bounds.__getitem__, totals)))
        except KeyError:  # a total not kept: read every one
            keys, bounds = zip(*map(self.entry, totals))
            self.bound = max(self.bound, *bounds)
            return list(keys)
        return list(map(self.memo.__getitem__, totals))

    def entry(self, total):
        if total in self.bounds:
            return self.memo[total], self.bounds[total]
        key, bound = self.f._read(Fraction(total, self.scale), self.f._ladder.rungs[0])
        if len(self.bounds) < _LADDER_CAP:
            self.memo[total], self.bounds[total] = key, bound
        return key, bound

    def width(self, n):
        """More than twice the most by which a float sum of ``n`` keys can miss the exact sum of their terms: each
        key's error, and ``n - 1`` roundings of partial sums of at most ``n`` times the largest key."""
        return 3 * n * (n + 1) * self.bound


def _keys(f, scale):
    """``f``'s keys and bounds by total at ``scale``, up to :data:`_LADDER_CAP` totals (not where ``f`` raises), kept
    on ``f`` for its last scale (no part of equality, hash, repr or pickling): two functions never share them."""
    memo = vars(f).get("_keys")
    if memo is None or memo[0] != scale:
        memo = vars(f)["_keys"] = (scale, {}, {})
    return memo[1:]


class _TieTracker:
    """Running maximum of ``(primary, secondary)`` keys, plus the members of its tie band: the same primary part,
    secondary at most ``width()`` below.  When a key is offered, every offered key lies within half the current
    width of its exact value, so a key below the band is certified lower than the maximum's, and never wins."""

    def __init__(self, width):
        self.width = width
        self.best = None
        self.members = []  # (key, prefixes, suffixes): every allocation p + q, p in prefixes, q in suffixes

    def offer_block(self, prefixes, suffixes, primary, secondaries):
        """Offer each ``p + q``, ``p`` in ``prefixes`` and ``q`` in ``suffixes[k]``, under the key
        ``(primary, secondaries[k])`` for every ``k`` in order; the scan drops lower primaries first."""
        top = max(secondaries)
        if self.best is None or (primary, top) > self.best:
            self.best = (primary, top)
            self.members = [m for m in self.members if m[0] >= (primary, top - self.width())]
        floor = self.best[1] - self.width()
        if (primary, top) >= (self.best[0], floor):
            for k in compress(range(len(secondaries)), map(le, repeat(floor), secondaries)):
                self.members.append(((primary, secondaries[k]), prefixes, suffixes[k]))


def _scan_blocks(rows, walk, tracker, terms, excluded, neutral, combine):
    """Offer every allocation of ``walk``, the profile's kept frontier walk of ``rows`` (:func:`~model._frontier`), to
    ``tracker`` under the key ``(-e, the others' terms combined in agent order)``, ``e`` the number of agents whose
    term is ``excluded``.  ``terms`` maps an agent's totals, one per bundle of the last goods, to their terms, which
    are gathered into a column per block.  The scan's own :func:`_memo` keeps an agent's column and excluded terms'
    flags by prefix total, and a block's fewest-excluded entries by its flagged ``(agent, total)`` pairs."""
    suffixes, gathers, bundles, prefixes = walk

    def build(agent, total):
        gather, column = gathers[agent], terms([total + value for value in bundles[agent]])
        if excluded not in column:
            return gather(column), None
        flags = [value == excluded for value in column]
        return gather([neutral if flag else value for flag, value in zip(flags, column)]), gather(flags)

    def fewest(flagged):  # from the flags the loop has just gathered for ``flagged``
        counts = list(reduce(partial(map, add), flag_columns))
        keep = list(map(min(counts).__eq__, counts))
        return min(counts), keep, list(compress(suffixes, keep))

    column_of, fewest_of = _memo(build, rows, suffixes), _memo(fewest, rows, suffixes)
    for prefix, totals in prefixes:
        keys, flagged, flag_columns = None, [], []
        for agent, total in enumerate(totals):
            column, flags = column_of(agent, total)
            if flags is not None:
                flagged.append((agent, total))
                flag_columns.append(flags)
            keys = column if keys is None else list(map(combine, keys, column))
        if flagged:
            least, keep, kept = fewest_of(tuple(flagged))
            tracker.offer_block(prefix, kept, -least, list(compress(keys, keep)))
        else:
            tracker.offer_block(prefix, suffixes, 0, keys)


def _certified(profile, f, terms, members):
    """The members at the top of the exact order of their finite terms' sums, compared by the certified sign of
    ``f``'s ladder from the highest float key down; a tie that the last rung cannot split counts, logged at INFO."""
    if len(members) == 1:
        return members
    vectors = {}
    for member in members:  # a member's allocations share their totals
        vectors.setdefault(tuple(_totals(profile, Allocation(member[1][0] + member[2][0]))), []).append(member)
    points = {v: [Fraction(t, terms.scale) for t in v if terms.entry(t)[0] != NEG_INF] for v in vectors}
    first, *rest = sorted(vectors, key=lambda v: vectors[v][0][0], reverse=True)
    top, uncertified = [first], False
    for vector in rest:
        sign = f._ladder.sign(points[vector], points[top[0]])
        if sign == 1:
            top, uncertified = [vector], False
        elif not sign:
            top.append(vector)
            uncertified |= sign is None
    if uncertified:  # the totals' sizes, not their digits: those may run to hundreds
        bits, last = max(t.bit_length() for v in top for t in v), f._ladder.last_rung(p for v in top for p in points[v])
        logger.info("%s: %d welfare ties that %d digits cannot split counted as ties, uncertified: totals of at most "
                    "%d digits", f, len(top), last, math.ceil(bits * math.log10(2)))
    return [member for vector in top for member in vectors[vector]]


def _scan_welfare(profile, f, budget, keep_members=False):
    """The one ranking behind every solver, once the budget is checked, by ``f``'s :meth:`~WelfareFunction._ranking`.
    ``a*x + c`` has ``a > 0``, so its welfare is ``a/L`` times the value of each good to its owner, plus ``n*c``: its
    maximizers give each good to any of the agents who value it most, and the first one to the smallest.  Any other
    ``f`` goes through one scan of the frontier: ``a*ln(x) + c`` by the exact Nash key (the fewest zero totals, then
    the product of the others), and a rising ``f`` by the float keys of :class:`_Terms` summed in agent order, within
    a band as wide as their error, whose totals :func:`_certified` orders exactly.  The welfare is
    :func:`allocation_welfare` of the first maximizer; ``members``, if kept, lists every one."""
    rows, scale = _scaled_rows(profile, budget)
    kind = f._ranking()
    if kind == "x":
        winners = [list(compress(range(profile.n), map(max(column).__eq__, column))) for column in zip(*rows)]
        assignment, count = tuple(agents[0] for agents in winners), math.prod(map(len, winners))
        members = list(product(*winners)) if keep_members else None
    else:
        walk = _frontier(profile, budget)
        if kind == "ln":
            _scan_blocks(rows, walk, tracker := _TieTracker(lambda: 0), terms=list, excluded=0, neutral=1, combine=mul)
            top = tracker.members
        else:
            terms = _Terms(f, scale)
            tracker = _TieTracker(partial(terms.width, profile.n))
            try:
                _scan_blocks(rows, walk, tracker, terms=terms.keys, excluded=NEG_INF, neutral=0.0, combine=add)
            except InvalidWelfareFunctionError:  # raise what a walk in lexicographic order meets first
                for _, totals in _assignments(rows):
                    terms.keys(totals)
                raise
            top = _certified(profile, f, terms, tracker.members)
        assignment, count = min(ps[0] + qs[0] for _, ps, qs in top), sum(len(ps) * len(qs) for _, ps, qs in top)
        members = sorted(p + q for _, ps, qs in top for p, q in product(ps, qs)) if keep_members else None
    allocation = Allocation(assignment)
    return SolveResult(allocation, allocation_welfare(profile, allocation, f), count), members


def maximize_welfare(
    profile: Profile,
    f: WelfareFunction,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    method: str = "exhaustive",
) -> SolveResult:
    """Maximize the additive welfare over all allocations; ``f`` recognised as
    log-affine is maximum Nash welfare, ranked exactly (see :func:`max_nash_welfare`),
    ``f`` recognised as affine is ranked exactly in closed form, and ``f`` proved rising
    by the certified order of its exact sums; any other ``f`` is refused.

    ``method`` is ``"exhaustive"`` or ``"branch-and-bound"``; it is validated
    and has no effect, as both run the same ranking.
    """
    if method not in ("exhaustive", "branch-and-bound"):
        raise ValueError(f"unknown solve method {method!r}")
    return _scan_welfare(profile, f, budget)[0]


def welfare_maximizers(
    profile: Profile,
    f: WelfareFunction,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[SolveResult, tuple[Allocation, ...]]:
    """Like :func:`maximize_welfare`, but also return the whole maximizer set.

    The second element lists every maximizer in lexicographic order: the exact
    ties of the Nash key for recognised log-affine ``f``, every allocation that gives
    each good to an agent who values it most for recognised affine ``f``, and the ties of
    the certified order for ``f`` proved rising.  Its length equals ``maximizer_set_size``.
    """
    result, members = _scan_welfare(profile, f, budget, keep_members=True)
    return result, tuple(map(Allocation, members))


_LN = LogAffine()  # one instance, so that every max_nash_welfare call shares its memos


def max_nash_welfare(
    profile: Profile, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> SolveResult:
    """Maximum Nash welfare with exact arithmetic, as every entry point ranks
    log-affine ``f``.

    First maximizes the number of agents with positive utility; among those
    allocations, maximizes the exact product of the positive utilities,
    compared as integers on the kernel's common scale ``L`` (which multiplies
    every product of ``k`` totals by ``L**k``).  No logs, no floats, so strict
    comparisons cannot be flipped by rounding.  Ties break to the
    lexicographically smallest assignment, and ``maximizer_set_size`` counts the optima exactly.
    The reported welfare is the winner's under ``ln`` (zero utilities give -inf terms).
    """
    return maximize_welfare(profile, _LN, budget=budget)


def solve(
    profile: Profile,
    f: WelfareFunction,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SolveResult:
    """Run the welfarist rule for ``f``: :func:`maximize_welfare`, which ranks recognised log-affine
    ``f`` exactly, as :func:`max_nash_welfare`, and affine ``f`` exactly, and reports welfare under ``f``."""
    return maximize_welfare(profile, f, budget=budget)
