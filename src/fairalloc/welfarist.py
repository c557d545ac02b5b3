"""Welfare functions, extended-real welfare, and exact welfare maximization.

An additive welfarist rule applies an increasing function ``f``, defined by
its exact expression tree that ``value`` compiles to floats, to each agent's
bundle utility and picks an allocation maximizing the sum.  Every entry point
ranks a log-affine ``f`` (maximum Nash welfare) by exact rational products
instead of float log sums, so its argmax and tie count are immune to
rounding; any other ``f`` is ranked by float sums within a tie band.  Every
solver breaks ties by the lexicographically smallest assignment vector.

All solvers walk the shared integer kernel of :mod:`fairalloc.model`, a
prefix walk that hands over the allocations of the last goods as one block
per prefix, in one scan that differs only in the key it builds a column at a
time.  A scan memoizes each agent's column by its prefix total, up to a cap;
the float scans keep ``f(t / L)`` per integer total ``t`` across calls;
branch-and-bound prunes prefixes.
"""

import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, partial, reduce, total_ordering
from itertools import compress, product, repeat
from operator import add, le, mul

from .errors import ExpressionEvalError, InvalidWelfareFunctionError
from .funcparse import (
    BinOp,
    Call,
    Expression,
    Num,
    Var,
    check_increasing,
    compile_expression,
    parse_expression,
)
from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    Allocation,
    Profile,
    _blocks,
    _memo,
    _scaled_rows,
    _totals,
)

NEG_INF = float("-inf")

#: Absolute tolerance on float welfare used to detect ties; ordering itself
#: is strict comparison.
TIE_TOLERANCE = 1e-9

#: Grid on which custom expressions are validated to be strictly increasing.
INCREASING_VALIDATION_GRID = tuple(i / 10 for i in range(1, 101))

#: Most distinct bundle totals whose welfare terms one memo keeps.
_TERMS_CAP = 1 << 12
#: Most (function, scale) pairs whose memos are kept across calls.
_MEMO_COUNT = 8


def _sized(x) -> str:
    # a huge or tiny utility's repr runs to hundreds of characters; its size does not
    if 1 <= x < math.inf:
        return f"utility with {len(str(math.trunc(x)))} digits"
    if 0 < x < 1 and isinstance(x, Fraction):
        return f"utility of at most 10^-{len(str(math.floor(1 / x))) - 1}"
    return f"utility {x}"


def _exact(f, what):
    """Store ``f``'s parameters as ``Fraction``s that a float can hold; the first, ``what``, is positive."""
    for field in fields(f):
        value = Fraction(getattr(f, field.name))
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

    def __getstate__(self):
        return {name: item for name, item in vars(self).items() if name != "_compiled"}

    def ast(self) -> Expression:
        raise NotImplementedError(f"{type(self).__name__} supplies no expression tree")

    def is_concave(self) -> bool:
        """Whether the solver may use the concavity-based pruning bound."""
        return False


@dataclass(frozen=True)
class LogAffine(WelfareFunction):
    """f(x) = a*ln(x) + b with a > 0; f(0) = -inf."""

    a: Fraction = Fraction(1)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        _exact(self, "log-affine slope")

    def ast(self) -> Expression:
        return BinOp("+", BinOp("*", Num(self.a), Call("ln", Var())), Num(self.b))

    def is_concave(self) -> bool:
        return True

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

    def is_concave(self) -> bool:
        return True

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

    def is_concave(self) -> bool:
        return self.p <= 1

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
    parameters may be integers, decimals, or ``p/q`` rationals.
    """
    name, sep, args = spec.partition(":")
    name = name.strip().lower()
    if name == "expr":
        if not sep or not args.strip():
            raise InvalidWelfareFunctionError(
                "expr needs a body, e.g. expr:3*ln(x)+2"
            )
        return CustomExpression.from_text(args)
    if name in ("log", "affine"):
        a, b = _parse_params(spec, args, count=2, defaults=(1, 0))
        return LogAffine(a, b) if name == "log" else Affine(a, b)
    if name == "power":
        if not args.strip():
            raise InvalidWelfareFunctionError("power needs an exponent, e.g. power:2")
        (p,) = _parse_params(spec, args, count=1, defaults=())
        return Power(p)
    if name == "exp":
        if args.strip():
            raise InvalidWelfareFunctionError("exp takes no parameters")
        return Exp()
    raise InvalidWelfareFunctionError(f"unknown welfare function spec {spec!r}")


def _parse_params(spec, args, count, defaults):
    text = args.strip()
    if not text:
        return defaults
    pieces = [piece.strip() for piece in text.split(",")]
    if len(pieces) != count:
        raise InvalidWelfareFunctionError(
            f"{spec!r} should have {count} comma-separated parameters"
        )
    values = []
    for piece in pieces:
        try:
            values.append(Fraction(piece))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidWelfareFunctionError(
                f"bad numeric parameter {piece!r} in {spec!r}"
            ) from exc
    return tuple(values)


@total_ordering
@dataclass(frozen=True)
class ExtendedWelfare:
    """Welfare with -inf terms counted separately.

    Fewer -inf terms is strictly greater; equal counts compare by the finite
    sum.  This is a total order.
    """

    neg_inf_count: int
    finite_part: float

    def __post_init__(self):
        if self.neg_inf_count < 0:
            raise ValueError("neg_inf_count must be nonnegative")

    def __lt__(self, other):
        if not isinstance(other, ExtendedWelfare):
            return NotImplemented
        if self.neg_inf_count != other.neg_inf_count:
            return self.neg_inf_count > other.neg_inf_count
        return self.finite_part < other.finite_part

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

    For log-affine ``f`` these are the exact ties of the Nash key (see
    :func:`max_nash_welfare`).  For any other ``f`` they are the allocations
    within :data:`TIE_TOLERANCE` of the maximum finite part, with the same
    number of -inf terms; the maximum itself is found by strict comparison.
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


_memos = OrderedDict()  # (id(f), scale) -> _Terms, least recently used first


def _terms(f, scale):
    """The memo of ``f`` at ``scale``, kept for the last :data:`_MEMO_COUNT`
    pairs used.  It is keyed by the identity of ``f`` and holds ``f``, so the
    identity is not reused while it lives, and ``f`` need not be hashable."""
    key = (id(f), scale)
    terms = _memos.pop(key, None)
    if terms is None:
        terms = _Terms(f, scale)
        if len(_memos) >= _MEMO_COUNT:
            _memos.popitem(last=False)
    _memos[key] = terms
    return terms


class _TieTracker:
    """Running maximum of ``(primary, secondary)`` keys, plus a census of the
    keys in its tie band: the same primary part, secondary at most
    ``tolerance`` below.  Keys that fall out of the band never re-enter it
    (the maximum only grows), so dropping them on each improvement is safe.
    """

    def __init__(self, tolerance, keep_members=False):
        self.tolerance = tolerance
        self.best = None
        self.floor = None  # lowest secondary part in the band
        self.assignment = None
        self.near = {}  # key -> count
        self.members = [] if keep_members else None  # (key, assignment)

    def _in_band(self, key):
        return key[0] == self.best[0] and key[1] >= self.floor

    def offer_block(self, prefix, suffixes, primary, secondaries):
        """Offer ``prefix + suffixes[k]`` under the key ``(primary, secondaries[k])`` for
        every ``k`` in order; the scan drops the entries with a lower primary part first."""
        top = max(secondaries)
        best = self.best
        if best is not None and (primary, top) < (best[0], self.floor):
            return
        prefix = tuple(prefix)
        if best is None or (primary, top) > best:
            self.best = (primary, top)
            self.floor = top - self.tolerance
            self.assignment = prefix + suffixes[secondaries.index(top)]
            self.near = {k: count for k, count in self.near.items() if self._in_band(k)}
            if self.members is not None:
                self.members = [m for m in self.members if self._in_band(m[0])]
        for k in compress(range(len(secondaries)), map(le, repeat(self.floor), secondaries)):
            key = (primary, secondaries[k])
            self.near[key] = self.near.get(key, 0) + 1
            if self.members is not None:
                self.members.append((key, prefix + suffixes[k]))


def _scan_blocks(rows, tracker, term, excluded, neutral, combine, primary, prune=None):
    """Offer every allocation of the kernel's walk to ``tracker`` under the key ``(primary -
    number of agents whose term is excluded, the others' terms combined in agent order)``.
    An agent's terms are computed once per bundle of the last goods and gathered into a
    column per block.  The scan's :func:`_memo` keeps an agent's column and excluded terms'
    flags by prefix total, and a block's fewest-excluded entries by its flagged ``(agent, total)`` pairs."""
    suffixes, gathers, bundles, prefixes = _blocks(rows, prune)

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
            tracker.offer_block(prefix, kept, primary - least, list(compress(keys, keep)))
        else:
            tracker.offer_block(prefix, suffixes, primary, keys)


def _concavity_prune(rows, terms, tracker):
    """Branch-and-bound's prefix test for concave ``f`` with finite ``f(0)``: true when no
    completion of the prefix can reach the running maximum's tie band.  The bound adds
    to the agents' terms, per remaining good, the best single-good gain any agent could
    realize (valid since ``f`` is concave), and must fall below the band by more than
    ``2(n+m)*2^-52`` times its summands' magnitudes, which bounds the rounding of the
    terms, of the bound's sum and of any completion's sum in agent order.  The bound
    plus ``offset`` covers those magnitudes, as every term is at least ``f(0)``."""
    n, m = len(rows), len(rows[0])
    relative, offset = 2 * (n + m) * 2.0**-52, 2 * n * max(0.0, -terms[0])

    def prune(t, totals):
        if tracker.best is None:
            return False
        current = [terms[total] for total in totals]
        upper = sum(current)
        for good in range(t, m):
            gain = 0.0
            for i, term in enumerate(current):
                candidate = terms[totals[i] + rows[i][good]] - term
                if candidate > gain:
                    gain = candidate
            upper += gain
        return upper < tracker.floor - relative * (upper + offset)

    return prune


def _scan_welfare(profile, f, budget, keep_members=False, bounded=False):
    """The one scan behind every solver.  Log-affine ``f`` is ranked by the exact Nash
    key, with no tie band; any other ``f`` by its float terms summed in agent order,
    where ``bounded`` prunes with the concavity bound if ``f(0)`` (so every term) is finite.
    Either way the welfare equals :func:`allocation_welfare` of the first maximizer."""
    rows, scale = _scaled_rows(profile, budget)
    if isinstance(f, LogAffine):
        tracker = _TieTracker(0, keep_members)
        _scan_blocks(rows, tracker, term=int, excluded=0, neutral=1, combine=mul, primary=profile.n)
        allocation = Allocation(tracker.assignment)
        welfare = allocation_welfare(profile, allocation, f)
    else:
        terms = _terms(f, scale)
        tracker = _TieTracker(TIE_TOLERANCE, keep_members)
        prune = _concavity_prune(rows, terms, tracker) if bounded and terms[0] > NEG_INF else None
        _scan_blocks(rows, tracker, term=terms.__getitem__, excluded=NEG_INF, neutral=0.0,
                     combine=add, primary=0, prune=prune)
        allocation = Allocation(tracker.assignment)
        neg_inf, finite = tracker.best  # allocation_welfare's sum but for the sign of a zero sum
        welfare = ExtendedWelfare(-neg_inf, finite + 0.0)
    return SolveResult(allocation, welfare, sum(tracker.near.values())), tracker.members


def maximize_welfare(
    profile: Profile,
    f: WelfareFunction,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    method: str = "exhaustive",
) -> SolveResult:
    """Maximize the additive welfare over all allocations; log-affine ``f`` is
    maximum Nash welfare, ranked exactly (see :func:`max_nash_welfare`).

    ``method`` is ``"exhaustive"`` (plain scan) or ``"branch-and-bound"``;
    both return identical results, the latter merely prunes prefixes that
    provably cannot reach the running maximum's tie band.  The bound holds
    only for concave ``f`` with finite ``f(0)``; for any other ``f``, log-affine
    ones included, branch-and-bound scans.
    """
    if method not in ("exhaustive", "branch-and-bound"):
        raise ValueError(f"unknown solve method {method!r}")
    bounded = method == "branch-and-bound" and f.is_concave()
    return _scan_welfare(profile, f, budget, bounded=bounded)[0]


def welfare_maximizers(
    profile: Profile,
    f: WelfareFunction,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[SolveResult, tuple[Allocation, ...]]:
    """Like :func:`maximize_welfare`, but also return the whole maximizer set.

    The second element lists every maximizer in lexicographic order: the exact
    ties of the Nash key for log-affine ``f``, every allocation within the tie
    band otherwise.  Its length equals ``maximizer_set_size``.
    """
    result, members = _scan_welfare(profile, f, budget, keep_members=True)
    return result, tuple(Allocation(assignment) for _, assignment in members)


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
    """Run the welfarist rule for ``f``: :func:`maximize_welfare`'s plain scan, which
    ranks log-affine ``f`` exactly, as :func:`max_nash_welfare`, and reports welfare under ``f``."""
    return maximize_welfare(profile, f, budget=budget)
