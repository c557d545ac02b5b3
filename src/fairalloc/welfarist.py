"""Welfare functions, extended-real welfare, and exact welfare maximization.

An additive welfarist rule applies an increasing function ``f``, defined by
its exact expression tree that ``value`` compiles to floats, to each agent's
bundle utility and picks an allocation maximizing the sum.  Every entry point
ranks an ``f`` whose tree :func:`~fairalloc.funcparse.linear_form` recognises as
``a*ln(x) + c`` (maximum Nash welfare) by exact rational products, and one it
recognises as ``a*x + c`` (utilitarian welfare) in closed form, by giving each good
to an agent who values it most, so their argmax and tie count are immune to
rounding; any other ``f`` by float sums within a tie band, whose Pareto-optimal members
alone count if :func:`~fairalloc.funcparse.increasing` proves ``f`` rising.  Every
solver breaks ties by the lexicographically smallest assignment vector.  Each class
reads its own parameters, numbers or a spec's strings, as exact rationals.

Both rankings that are not closed form share one scan over the kernel of
:mod:`fairalloc.model`, which groups the prefixes of the goods by their totals
and hands over the allocations of the last goods as one block per group; they
differ only in the term, how terms combine and the tie tolerance.  A scan
memoizes each agent's column by its prefix total, up to a cap; ``f`` keeps
``f(t / L)`` per integer total ``t`` across calls.  A rule proved rising, the
Nash product among them, walks only the Pareto frontier of the groups and block
entries and keeps only the band's undominated members, as its maximizers are
Pareto optimal; any other ``f`` walks everything, as its band may hold a
dominated allocation.
"""

import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import compress, product, repeat
from operator import add, ge, le, mul

from .errors import ExpressionEvalError, InvalidWelfareFunctionError
from .funcparse import (
    BinOp,
    Call,
    Expression,
    Num,
    Var,
    check_increasing,
    compile_expression,
    increasing,
    linear_form,
    parse_expression,
)
from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    Allocation,
    Profile,
    _groups,
    _memo,
    _rational,
    _scaled_rows,
    _totals,
)

NEG_INF = float("-inf")

#: Absolute tolerance on float welfare used to detect ties among the maximizers
#: of an ``f`` not recognised as log-affine or affine; ordering itself is strict
#: comparison.
TIE_TOLERANCE = 1e-9

#: Grid on which custom expressions are validated to be strictly increasing.
INCREASING_VALIDATION_GRID = tuple(i / 10 for i in range(1, 101))

#: Most distinct bundle totals whose welfare terms one memo keeps.
_TERMS_CAP = 1 << 12


def _sized(x) -> str:
    # a huge or tiny utility's repr runs to hundreds of characters; its size does not
    if 1 <= x < math.inf:
        return f"utility with {len(str(math.trunc(x)))} digits"
    if 0 < x < 1 and isinstance(x, Fraction):
        return f"utility of at most 10^-{len(str(math.floor(1 / x))) - 1}"
    return f"utility {x}"


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
    """An increasing function from [0, inf) into [-inf, inf), defined once by its tree
    ``ast`` with exact parameters.  ``value`` evaluates the tree in floats, ``-inf`` only
    at 0, compiled once per instance (no part of equality, hash, repr or pickling); the
    search encloses the same tree.  Instances are immutable and safe to share."""

    def value(self, x) -> float:
        if x < 0:
            raise ValueError(f"welfare functions are defined on x >= 0, got {x!r}")
        compiled = self._compiled
        try:
            result = compiled(float(x))
        except OverflowError:  # from float(x): the compiled tree raises ExpressionEvalError
            raise InvalidWelfareFunctionError(f"{_sized(x)} is too large for float arithmetic") from None
        except ExpressionEvalError as exc:
            if isinstance(exc.__cause__, OverflowError):
                raise InvalidWelfareFunctionError(f"{self} overflowed at a {_sized(x)}") from None
            raise InvalidWelfareFunctionError(f"{self} failed at a {_sized(x)}: {exc}") from None
        if NEG_INF < result < math.inf or result == NEG_INF and x == 0:
            return result
        raise InvalidWelfareFunctionError(f"{self} evaluated to {result} at a {_sized(x)}")

    @cached_property
    def _compiled(self):
        return compile_expression(self.ast())

    @cached_property
    def _form(self):
        """The tree's :func:`~fairalloc.funcparse.linear_form`; ``None`` without a tree."""
        return self._proof(linear_form)

    @cached_property
    def _increasing(self):
        """Whether :func:`~fairalloc.funcparse.increasing` proves the tree rising; false without a tree."""
        return bool(self._proof(increasing))

    def _proof(self, prove):
        try:
            return prove(self.ast())
        except NotImplementedError:
            return None

    def __getstate__(self):
        cached = ("_compiled", "_form", "_increasing", "_terms")
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
    """A user-supplied expression in x, validated to be strictly increasing
    on a sample grid at construction time."""

    expression: Expression
    source: str

    def __post_init__(self):
        report = check_increasing(self.expression, INCREASING_VALIDATION_GRID)
        if not report.increasing:
            x1, x2 = report.failure
            raise InvalidWelfareFunctionError(
                f"expression {self.source!r} is not increasing: "
                f"f({x1:g}) >= f({x2:g})"
            )

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
            raise InvalidWelfareFunctionError(
                "expr needs a body, e.g. expr:3*ln(x)+2"
            )
        return CustomExpression.from_text(args)
    kind = {"log": LogAffine, "affine": Affine, "power": Power, "exp": Exp}.get(name)
    if kind is None:
        raise InvalidWelfareFunctionError(f"unknown welfare function spec {spec!r}")
    pieces = [piece.strip() for piece in args.split(",")] if args.strip() else []
    if len(pieces) != len(fields(kind)) and (pieces or kind is Power):  # log and affine default to a = 1, b = 0
        raise InvalidWelfareFunctionError(f"{spec!r} should have {len(fields(kind))} comma-separated parameters")
    try:
        return kind(*pieces)
    except InvalidWelfareFunctionError as exc:
        raise InvalidWelfareFunctionError(f"{exc} in {spec!r}") from exc


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
    """Sum of ``f`` over the agents' bundle utilities, -inf terms counted
    apart, the finite ones summed in agent order."""
    memo = _terms(f, profile._scaled[1])
    terms = [memo[total] for total in _totals(profile, allocation)]
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
    Nash product (see :func:`max_nash_welfare`), for any other the allocations within
    :data:`TIE_TOLERANCE` of the maximum finite part, found by strict comparison.  Of
    these, if ``f`` is log-affine or :func:`~fairalloc.funcparse.increasing` proves it
    rising, only those that are Pareto optimal count (every Nash tie is).
    """

    allocation: Allocation
    welfare: ExtendedWelfare
    maximizer_set_size: int


class _Terms(dict):
    """``f(t / scale)`` for integer bundle totals ``t``, memoized up to
    :data:`_TERMS_CAP` distinct totals (not those where ``f`` raises).

    Small integer utilities repeat their totals across calls with the same
    ``f`` object, so ``f`` runs once per total; with generic utilities nearly
    every subset sum is distinct, and the cap keeps the memo's memory fixed.
    """

    def __init__(self, f, scale):
        super().__init__()
        self.f = f
        self.scale = scale

    def __missing__(self, total):
        term = self.f.value(Fraction(total, self.scale))
        if len(self) < _TERMS_CAP:
            self[total] = term
        return term


def _terms(f, scale):
    """The memo of ``f`` at ``scale``, kept on ``f`` for the last scale it was used at (no part of
    equality, hash, repr or pickling), so ``f`` need not be hashable and two functions never share one."""
    terms = vars(f).get("_terms")
    if terms is None or terms.scale != scale:
        terms = vars(f)["_terms"] = _Terms(f, scale)
    return terms


class _TieTracker:
    """Running maximum of ``(primary, secondary)`` keys, plus the members of its
    tie band: the same primary part, secondary at most ``tolerance`` below.
    Keys that fall out of the band never re-enter it (the maximum only grows),
    so dropping them on each improvement is safe.
    """

    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.best = None
        self.floor = None  # lowest secondary part in the band
        self.assignment = None
        self.members = []  # (key, prefixes, suffixes): every allocation p + q, p in prefixes, q in suffixes

    def _in_band(self, key):
        return key[0] == self.best[0] and key[1] >= self.floor

    def offer_block(self, prefixes, suffixes, primary, secondaries):
        """Offer each ``p + q``, ``p`` in ``prefixes`` and ``q`` in ``suffixes[k]``, under the key
        ``(primary, secondaries[k])`` for every ``k`` in order; the scan drops lower primaries first."""
        top = max(secondaries)
        best = self.best
        if best is not None and (primary, top) < (best[0], self.floor):
            return
        if best is None or (primary, top) > best:
            self.best, self.floor = (primary, top), top - self.tolerance
            self.assignment = prefixes[0] + suffixes[secondaries.index(top)][0]
            self.members = [m for m in self.members if self._in_band(m[0])]
        for k in compress(range(len(secondaries)), map(le, repeat(self.floor), secondaries)):
            self.members.append(((primary, secondaries[k]), prefixes, suffixes[k]))

    def drop_dominated(self, profile):
        """Keep the members whose totals no other member's weakly exceed everywhere, and take the first
        allocation at the top key left: for a rising ``f``, the band's Pareto-optimal allocations."""
        if len(self.members) < 2 or not self.tolerance:  # one totals vector; or no band: a dominator's key is higher
            return
        # a member's allocations share their totals
        vectors, top = [tuple(_totals(profile, Allocation(ps[0] + qs[0]))) for _, ps, qs in self.members], []
        for vector in sorted(set(vectors), key=sum, reverse=True):  # a dominator has a larger sum
            if not any(all(map(ge, kept, vector)) for kept in top):
                top.append(vector)
        if len(top) < len(set(vectors)):  # else the first allocation at the top key is already the tracker's
            self.members = list(compress(self.members, map(set(top).__contains__, vectors)))
            best = max(key for key, _, _ in self.members)
            self.assignment = min(ps[0] + qs[0] for key, ps, qs in self.members if key == best)


def _scan_blocks(rows, tracker, term, excluded, neutral, combine, frontier):
    """Offer every allocation of the kernel's grouped walk to ``tracker`` under the key ``(-e, the
    others' terms combined in agent order)``, ``e`` the number of agents whose term is ``excluded``.
    An agent's terms are computed once per bundle of the last goods and gathered into a
    column per block.  The scan's :func:`_memo` keeps an agent's column and excluded terms'
    flags by prefix total, and a block's fewest-excluded entries by its flagged ``(agent, total)`` pairs.
    ``frontier`` (see :func:`~fairalloc.model._groups`) is only for a key that no rising total lowers."""
    suffixes, gathers, bundles, prefixes = _groups(rows, frontier)

    def build(agent, total):
        gather, terms = gathers[agent], [term(total + value) for value in bundles[agent]]
        if excluded not in terms:
            return gather(terms), None
        flags = [value == excluded for value in terms]
        return gather([neutral if flag else value for flag, value in zip(flags, terms)]), gather(flags)

    def fewest(flagged):  # from the flags the loop has just gathered for ``flagged``
        counts = list(reduce(partial(map, add), flag_columns))
        keep = list(map(min(counts).__eq__, counts))
        return min(counts), keep, list(compress(suffixes, keep))

    column_of, fewest_of = _memo(build, rows, suffixes), _memo(fewest, rows, suffixes)
    for prefix, totals in prefixes:
        keys, flagged, flag_columns = None, [], []
        try:
            for agent, total in enumerate(totals):
                column, flags = column_of(agent, total)
                if flags is not None:
                    flagged.append((agent, total))
                    flag_columns.append(flags)
                keys = column if keys is None else list(map(combine, keys, column))
        except Exception:  # raise the error that an allocation-by-allocation scan meets first
            subsets = [gather(values) for gather, values in zip(gathers, bundles)]
            for k, (total, subset) in product(range(len(suffixes)), zip(totals, subsets)):
                term(total + subset[k])
            raise
        if flagged:
            least, keep, kept = fewest_of(tuple(flagged))
            tracker.offer_block(prefix, kept, -least, list(compress(keys, keep)))
        else:
            tracker.offer_block(prefix, suffixes, 0, keys)


def _scan_welfare(profile, f, budget, keep_members=False):
    """The one ranking behind every solver, once the budget is checked, by ``f``'s recognised
    form.  ``a*x + c`` has ``a > 0``, so its welfare is ``a/L`` times the value of each good to
    its owner, plus ``n*c``: its maximizers give each good to any of the agents who value it
    most, and the first one to the smallest.  Any other ``f`` goes through one scan: ``a*ln(x) + c``
    by the exact Nash key (the fewest zero totals, then the product of the others), with no tie
    band, and the rest by float terms summed in agent order within the tie band.  A rule proved
    rising, the Nash key among them, walks the frontier and drops the band's dominated members.
    The welfare is :func:`allocation_welfare` of the first maximizer; ``members``, if kept, lists every one."""
    rows, scale = _scaled_rows(profile, budget)
    kind = f._form and f._form[0]
    if kind == "x":
        winners = [list(compress(range(profile.n), map(max(column).__eq__, column))) for column in zip(*rows)]
        assignment, count = tuple(agents[0] for agents in winners), math.prod(map(len, winners))
        members = list(product(*winners)) if keep_members else None
    else:  # a dominator of a proven f's band member is in the band, and fails where it fails
        if kind == "ln":
            tolerance, scan = 0, partial(_scan_blocks, rows, term=int, excluded=0, neutral=1, combine=mul)
        else:
            tolerance, scan = TIE_TOLERANCE, partial(
                _scan_blocks, rows, term=_terms(f, scale).__getitem__, excluded=NEG_INF, neutral=0.0, combine=add)
        proven = kind == "ln" or f._increasing
        try:
            scan(tracker := _TieTracker(tolerance), frontier=proven)
        except InvalidWelfareFunctionError:  # raise what the full walk meets first
            if not proven:
                raise
            scan(tracker := _TieTracker(tolerance), frontier=False)
        if proven:
            tracker.drop_dominated(profile)
        assignment, count = tracker.assignment, sum(len(ps) * len(qs) for _, ps, qs in tracker.members)
        members = sorted(p + q for _, ps, qs in tracker.members for p, q in product(ps, qs)) if keep_members else None
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
    and ``f`` recognised as affine is ranked exactly in closed form; any other by float
    sums, its maximizers the allocations within the tie band (and Pareto optimal if rising).

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
    each good to an agent who values it most for recognised affine ``f``, every allocation
    within the tie band otherwise, and Pareto optimal if ``f`` is proved rising.  Its length
    equals ``maximizer_set_size``.
    """
    result, members = _scan_welfare(profile, f, budget, keep_members=True)
    return result, tuple(map(Allocation, members))


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
    return maximize_welfare(profile, LogAffine(), budget=budget)


def solve(
    profile: Profile,
    f: WelfareFunction,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SolveResult:
    """Run the welfarist rule for ``f``: :func:`maximize_welfare`, which ranks recognised log-affine
    ``f`` exactly, as :func:`max_nash_welfare`, and affine ``f`` exactly, and reports welfare under ``f``."""
    return maximize_welfare(profile, f, budget=budget)
