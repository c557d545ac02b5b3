"""A tiny arithmetic-expression language for user-supplied welfare functions.

One variable (``x``), rational and decimal literals, the binary operators
``+ - * / ^``, and the unary functions ``ln``, ``exp``, ``sqrt``, ``neg``.
Grammar, loosest binding first::

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' unary]          right-associative
    atom   := NUMBER | 'x' | NAME '(' expr ')' | '(' expr ')'

Literals are exact ``Fraction``s in the tree, which one evaluator reads:
:func:`enclose_expression`, rational bounds at a number of significant digits.

Two sound, incomplete proofs read a tree unevaluated: :func:`linear_form` and
:func:`increasing`.  Every other verdict on its values, an order of two sums of
them included, is a certified sign of one :class:`_Ladder` per function.
"""

import decimal
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import ExpressionEvalError, ExpressionSyntaxError


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    """The single free variable, x."""


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class Call:
    name: str  # "ln" | "exp" | "sqrt"
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # "+" | "-" | "*" | "/" | "^"
    left: "Expression"
    right: "Expression"


Expression = Union[Num, Var, Neg, Call, BinOp]

_FUNCTIONS = ("ln", "exp", "sqrt", "neg")

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d+|\d+|\.\d+)|(?P<name>[A-Za-z_]+)|(?P<op>[-+*/^()])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, text):
        kind, value, pos = self.peek()
        if kind != "op" or value != text:
            raise ExpressionSyntaxError(
                f"expected {text!r}, found {value!r}" if kind != "end" else f"expected {text!r}",
                pos,
            )
        self.advance()

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.unary())
            else:
                return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(Fraction(value))
        if kind == "name":
            if value == "x":
                return Var()
            if value in _FUNCTIONS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Neg(inner) if value == "neg" else Call(value, inner)
            raise ExpressionSyntaxError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        found = "end of input" if kind == "end" else repr(value)
        raise ExpressionSyntaxError(
            f"expected a number, 'x', a function call, or '(', found {found}", pos
        )


def parse_expression(text: str) -> Expression:
    """Parse expression text into its unique AST under the grammar above."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"unexpected {value!r} after the expression", pos)
    return node


@lru_cache(maxsize=None)
def _context(digits):
    return decimal.Context(prec=digits, traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow])


def _sized(x, noun):
    """``noun`` and the digits of ``x >= 1``, or the power of ten a rational ``0 < x < 1`` is at most (counted up to
    4000), else ``x``: a huge or tiny rational's own digits run to hundreds, or past Python's integer-string limit."""
    if not (1 <= x < math.inf or 0 < x < 1 and isinstance(x, Fraction)):
        return f"{noun} {x}"
    whole = math.trunc(x) if x >= 1 else x.denominator // x.numerator  # 1 / x would reduce a fraction anew
    digits = len(str(whole)) if whole.bit_length() <= 13287 else None  # below 10^4000: quick to write out
    if x >= 1:
        return f"{noun} with {digits or 'at least 4000'} digits"
    return f"{noun} of at most 10^-{(digits or 4000) - 1}"


def _increasing(name, interval, digits):
    """Bounds on the increasing ``ln``, ``exp`` or ``sqrt`` over ``interval``:
    ends rounded outward to ``digits`` digits, correctly rounded results moved
    one unit in the last place outward, subnormal ones included (0 comes only
    exactly, or as an ``exp`` below every decimal, whose upper end is the least)."""
    lo, hi = interval
    if name != "exp" and (lo < 0 or name == "ln" and lo == 0):
        ends = (str(end) if max(end.numerator.bit_length(), end.denominator.bit_length()) <= 64
                else "-" * (end < 0) + _sized(abs(end), "a number") for end in interval)
        raise ExpressionEvalError(f"{name} of a value in [{', '.join(ends)}]")
    ctx = _context(digits)
    outwards = (ctx.next_minus, ctx.next_plus)
    results = []
    try:
        for end, outward in zip(interval, outwards):
            ctx.clear_flags()
            arg = ctx.divide(end.numerator, end.denominator)
            if ctx.flags[decimal.Inexact]:
                results.append(getattr(ctx, name)(outward(arg)))
            else:
                reuse = results and end is lo  # an exact point: one evaluation
                results.append(results[0] if reuse else getattr(ctx, name)(arg))
    except decimal.DecimalException as exc:
        raise ExpressionEvalError(f"{name} out of range ({exc!r})") from exc
    return tuple(
        Fraction(outward(result)) if result or name == "exp" and outward is outwards[1] else Fraction(0)
        for result, outward in zip(results, outwards)
    )


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _point(value):
    return value, value


def _ends(interval):
    return interval[:1] if interval[0] is interval[1] else interval


def _combine(op, left, right):
    """Exact ``+ - * /`` on intervals; a point (one object twice) stays one."""
    values = [op(a, b) for a in _ends(left) for b in _ends(right)]
    return _point(values[0]) if len(values) == 1 else (min(values), max(values))


#: Most bits an integer power's numerator or denominator may reach to be taken exactly.
_POWER_BITS = 1 << 16
#: Significant digits of the enclosures that decide a comparison, coarsest first; the last is the least last rung.
_DIGITS = (12, 80)
#: Most ``(x, digits)`` enclosures that one :class:`_Ladder` keeps.
_LADDER_CAP = 1 << 14


def _small_power(interval, n):
    """Whether ``x**n`` stays within :data:`_POWER_BITS` bits at both ends ``x`` of ``interval``."""
    return all(abs(n) * max(x.numerator.bit_length(), x.denominator.bit_length()) <= _POWER_BITS for x in interval)


def _power(base, exponent, digits):
    (lo, hi), (e_lo, e_hi) = base, exponent
    if e_lo == e_hi and e_lo.denominator == 2:  # x^(n/2) = sqrt(x^n)
        return _increasing("sqrt", _power(base, _point(2 * e_lo), digits), digits)
    if lo == hi == 0 < e_lo:  # 0^p = 0 for p > 0, which exp(p ln 0) cannot give
        return _point(lo)
    n = e_lo.numerator
    if e_lo != e_hi or e_lo.denominator != 1 or not _small_power(base, n):  # x^p = exp(p ln x), x > 0
        logarithm = _increasing("ln", base, digits)
        return _increasing("exp", _combine(operator.mul, logarithm, exponent), digits)
    if n < 0 and lo <= 0 <= hi:
        raise ExpressionEvalError("division by zero")
    if lo is hi:
        return _point(lo**n)
    ends = (lo**n, hi**n)
    return (Fraction(0) if n % 2 == 0 and lo < 0 < hi else min(ends)), max(ends)


def _enclose(node, x, digits):
    if isinstance(node, Num):
        return _point(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return _combine(operator.sub, _point(0), _enclose(node.operand, x, digits))
    if isinstance(node, Call):
        return _increasing(node.name, _enclose(node.operand, x, digits), digits)
    left = _enclose(node.left, x, digits)
    right = _enclose(node.right, x, digits)
    if node.op == "^":
        return _power(left, right, digits)
    if node.op == "/" and right[0] <= 0 <= right[1]:
        raise ExpressionEvalError("division by zero")
    return _combine(_ARITHMETIC[node.op], left, right)


def enclose_expression(expr: Expression, x, digits: int) -> tuple[Fraction, Fraction]:
    """Rationals ``lo <= expr(x) <= hi`` at a rational ``x >= 0``.

    ``+ - * /`` and integer powers within :data:`_POWER_BITS` are exact, so
    ``lo == hi`` and no ``decimal`` call unless ``ln``, ``exp``, ``sqrt`` or
    another power occurs; those work at ``digits`` significant digits, and a
    step outside their domain (``ln`` of a value that may be 0) raises
    :class:`ExpressionEvalError`.
    """
    return _enclose(expr, _point(Fraction(x)), digits)


def _linear(node):
    """``(a, g, c)`` with ``node = a*g(x) + c`` on ``x >= 0`` (``-inf`` at 0 included): ``g`` is
    ``"ln"``, a rational ``p > 0`` for ``x^p``, or ``None`` for a node free of ``x`` (``a = 0``);
    ``c`` is exact, or ``None`` when only its freedom from ``x`` is proved.  ``None`` when no
    rule applies: ``ln`` terms never cancel (NaN at 0), and nothing is multiplied by 0."""
    if isinstance(node, Num):
        return Fraction(0), None, node.value
    if isinstance(node, Var):
        return Fraction(1), Fraction(1), Fraction(0)
    if isinstance(node, Neg):
        return _linear(BinOp("*", Num(Fraction(-1)), node.operand))
    if isinstance(node, Call):
        inner = node.operand
        if node.name == "ln" and isinstance(inner, Call) and inner.name != "ln":  # ln(exp(u)) = u, ln(sqrt(u)) = ln(u)/2
            return _linear(inner.operand if inner.name == "exp" else BinOp("/", Call("ln", inner.operand), Num(Fraction(2))))
        a, g, c = _linear(inner) or (0, "unknown", 0)
        if g is None:
            return Fraction(0), None, None
        if node.name == "ln" and isinstance(g, Fraction) and a > 0 and c == 0:  # ln(a x^p) = p ln(x) + ln(a)
            return g, "ln", Fraction(0) if a == 1 else None
        return None
    left, right = _linear(node.left), _linear(node.right)
    if left is None or right is None:
        return None
    (a, g, c), (b, h, d) = left, right
    if g is None and h is None:  # exact where the value is a small rational
        if c is None or d is None or node.op == "/" and d == 0:
            return Fraction(0), None, None
        if node.op != "^":
            return Fraction(0), None, _ARITHMETIC[node.op](c, d)
        small = d.denominator == 1 and _small_power(_point(c), d) and not (c == 0 and d < 0)
        return Fraction(0), None, c**d if small else None
    if node.op in "+-":
        if node.op == "-":
            b, d = -b, None if d is None else -d
        if g is not None and h is not None and (g != h or g == "ln" and a * b < 0):
            return None
        return a + b, (h if g is None else g) if a + b else None, None if c is None or d is None else c + d
    if node.op == "*" and isinstance(g, Fraction) and isinstance(h, Fraction) and c == d == 0:  # a x^g * b x^h
        return a * b, g + h, Fraction(0)
    if node.op == "*" and g is None:  # the constant factor goes right
        (a, g, c), (b, h, d) = right, left
    if node.op in "*/" and h is None and d:
        k = d if node.op == "*" else 1 / d
        return a * k, g, None if c is None else c * k
    if node.op == "^" and isinstance(g, Fraction) and (a, c) == (1, 0) and h is None and d is not None and d > 0:
        return Fraction(1), g * d, Fraction(0)
    return None


def linear_form(expr: Expression) -> tuple[str, Fraction] | None:
    """``("ln", a)`` when ``expr`` is ``a*ln(x) + c``, ``("x", a)`` when it is ``a*x + c``, with
    a rational ``a > 0`` and ``c`` free of ``x``.  Sound, not complete: ``None`` means no proof
    was found.  No ``ln``, ``exp``, ``sqrt`` or power beyond :data:`_POWER_BITS` is evaluated."""
    try:
        form = _linear(expr)
    except RecursionError:  # deeper than the walk can go: not recognised
        return None
    if form is not None and form[0] > 0 and form[1] in ("ln", 1):
        return ("ln" if form[1] == "ln" else "x"), form[0]
    return None


def _rise(node, guarded=False):
    """A lower bound on ``node`` at ``x = 0`` (``-inf`` included) where the rules of :func:`increasing` apply;
    ``guarded`` under ``ln``, ``sqrt`` or ``^``, where no constant may be taken away."""
    if isinstance(node, Var):
        return Fraction(0)
    if isinstance(node, Call):
        low = _rise(node.operand, guarded or node.name != "exp")
        if low is None or node.name != "exp" and low < 0:
            return None
        if node.name == "exp":
            return max(Fraction(0), 1 + low)  # e^y >= 1 + y
        return min(low, Fraction(1)) if node.name == "sqrt" else Fraction(0) if low >= 1 else -math.inf
    if not isinstance(node, BinOp):  # a number, or the falling Neg
        return None
    left, right = _rise(node.left, guarded or node.op == "^"), _rise(node.right, guarded)
    if left is not None and right is not None:  # two rising parts: their sum, or their product if both are >= 0
        return left + right if node.op == "+" else left * right if node.op == "*" and min(left, right) >= 0 else None
    if node.op in "+*" and left is None:  # a constant goes right
        node, left = BinOp(node.op, node.right, node.left), right
    form = None if left is None else _linear(node.right)
    c = form[2] if form is not None and form[1] is None else None  # exact and free of x
    if form is not None and form[1] is None and c is None and node.op in "*/":  # a factor free of x, but inexact
        try:
            lo, hi = enclose_expression(node.right, 0, _DIGITS[0])
        except ExpressionEvalError:
            return None
        c = None if lo <= 0 else lo if (left >= 0) == (node.op == "*") else hi  # the end that bounds the part below
    if c is None or node.op in "*/^" and c <= 0 or node.op == "^" and left < 0:
        return None
    if guarded and (node.op == "-" or c < 0):  # rounding might cancel to 0 or below
        return None
    return Fraction(left >= 1) if node.op == "^" else _ARITHMETIC[node.op](left, c)


def increasing(expr: Expression) -> bool:
    """Whether rules prove ``expr`` strictly increasing on ``x >= 0`` and finite for ``x > 0`` (sound, not complete).
    A part rises if it is ``x``; a sum of rising parts and exact constants, one rising; a product of two rising parts
    at least 0 at ``x = 0``; a rising part minus an exact constant, or times or over a positive one (exact, or free of
    ``x`` with a positive first-rung enclosure); ``exp`` of a rising part; or, of a rising part at least 0 at ``x = 0``,
    its ``sqrt``, its ``ln`` or its power to a positive constant, if no constant is taken away inside it.  Each rounds
    monotonically and nothing cancels under ``ln``, ``sqrt`` or ``^``, so the floats of its enclosures fail only
    upwards, by overflow, short of an argument of ``ln`` below every decimal."""
    try:
        return _rise(expr) is not None
    except RecursionError:  # deeper than the walk can go: not proved
        return False


def _constant_bits(expr):
    """The most bits of a numerator or denominator of ``expr``'s exact constants."""
    bits, nodes = 0, [expr]
    while nodes:
        node = nodes.pop()
        form = _linear(node) if isinstance(node, (Num, BinOp)) else None
        if form is not None and form[1] is None and form[2] is not None:
            bits = max(bits, form[2].numerator.bit_length(), form[2].denominator.bit_length())
        nodes += [child for child in vars(node).values() if isinstance(child, (Num, Var, Neg, Call, BinOp))]
    return bits


class _Ladder:
    """Certified comparisons of sums of ``f = expr`` at rationals ``x >= 0``, from enclosures refined over
    ``rungs``, :data:`_DIGITS` with the tree's :meth:`last_rung`, raised in each comparison to split its points.
    ``enclose(x, digits)`` memoizes the enclosures for the last :data:`_LADDER_CAP` keys, for every caller."""

    def __init__(self, expr):
        self.bits = _constant_bits(expr)
        self.rungs = (*_DIGITS[:-1], self.last_rung())
        self.enclose = lru_cache(_LADDER_CAP)(lambda x, digits: enclose_expression(expr, x, digits))

    def sign(self, plus, minus=()):
        """The sign of ``sum(f(p) for p in plus) - sum(f(q) for q in minus)``: 1 or -1, 0 for an exact tie, and
        ``None`` where the last rung cannot split them.  A point on both sides cancels first, so permuted sums
        tie exactly and no enclosure is made for them.  Only the last rung's domain errors raise."""
        plus, minus = Counter(plus), Counter(minus)
        plus, minus = plus - minus, minus - plus
        for rung in (*self.rungs[:-1], None):
            digits = rung or self.last_rung([*plus, *minus])  # fit to the points, once the coarser rungs fail
            try:
                ups, downs = ([self.enclose(x, digits) for x in side.elements()] for side in (plus, minus))
            except ExpressionEvalError:  # a coarser rung may round an argument out of its domain: refine
                if rung is None:
                    raise
                continue
            lo = sum(a for a, _ in ups) - sum(b for _, b in downs)
            hi = sum(b for _, b in ups) - sum(a for a, _ in downs)
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            if lo == hi:  # both 0: exactly equal
                return 0
        return None

    def last_rung(self, points=()):
        """The last of :data:`_DIGITS`, or twice the most digits of the tree's constants and ``points``, and 20."""
        bits = max([self.bits, *(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in points)])
        return max(_DIGITS[-1], 2 * math.ceil(bits * math.log10(2)) + 20)
