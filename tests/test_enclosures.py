"""Certified enclosures of welfare functions and the search's sign test.

``enclose_expression`` must bound the true value at every precision of the
search's ladder; rational-valued functions must come out exact, without a
``decimal`` call; and the sign test must call every ``d_k`` comparison of a
log-affine function a tie.
"""

import operator
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairalloc import funcparse
from fairalloc.characterization import DEFAULT_SEARCH_GRID, _DIGITS, _sign_test
from fairalloc.errors import ExpressionEvalError
from fairalloc.funcparse import BinOp, Call, Neg, Num, Var, enclose_expression, parse_expression
from fairalloc.welfarist import welfare_function_from_spec

IRRATIONAL_SPECS = [
    "log", "log:1/2,-1", "power:1/2", "exp", "expr:ln(x+1)", "expr:3*ln(x)+2",
    "expr:sqrt(x)*2", "expr:x^(1/3)",
]
RATIONAL_SPECS = [
    "affine:1,0", "affine:3/2,-2", "power:2", "power:3", "expr:x^2+x", "expr:x^3-1/x",
]
LOG_AFFINE_SPECS = ["log", "expr:3*ln(x)+2", "expr:ln(2*x)"]
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

positive_rationals = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**3), max_denominator=10**6
).filter(lambda x: x > 0)


def _mp_value(node, x, mpmath):
    """The expression at ``x`` in mpmath arithmetic (the reference)."""
    if isinstance(node, Num):
        return mpmath.mpf(node.value.numerator) / node.value.denominator
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_mp_value(node.operand, x, mpmath)
    if isinstance(node, Call):
        function = {"ln": mpmath.log, "exp": mpmath.exp, "sqrt": mpmath.sqrt}[node.name]
        return function(_mp_value(node.operand, x, mpmath))
    left, right = _mp_value(node.left, x, mpmath), _mp_value(node.right, x, mpmath)
    return mpmath.power(left, right) if node.op == "^" else ARITHMETIC[node.op](left, right)


def _exact_value(node, x):
    """The expression at ``x`` in ``Fraction`` arithmetic (rational trees only)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_exact_value(node.operand, x)
    assert isinstance(node, BinOp), node
    left, right = _exact_value(node.left, x), _exact_value(node.right, x)
    if node.op == "^":
        assert right.denominator == 1
        return left ** int(right)
    return ARITHMETIC[node.op](left, right)


@pytest.mark.parametrize("spec", IRRATIONAL_SPECS)
@settings(max_examples=40, deadline=None)
@given(x=positive_rationals)
def test_enclosure_holds_the_true_value_at_every_rung(spec, x):
    mpmath = pytest.importorskip("mpmath")
    tree = welfare_function_from_spec(spec).ast()
    # 60 digits cannot check an 80-digit enclosure; 20 more than the
    # finest rung can
    with mpmath.workdps(max(_DIGITS) + 20):
        true = _mp_value(tree, mpmath.mpf(x.numerator) / x.denominator, mpmath)
        for digits in _DIGITS:
            lo, hi = enclose_expression(tree, x, digits)
            assert lo < hi
            assert mpmath.mpf(lo.numerator) / lo.denominator <= true
            assert true <= mpmath.mpf(hi.numerator) / hi.denominator


@pytest.mark.parametrize("spec", RATIONAL_SPECS)
@settings(max_examples=40, deadline=None)
@given(x=positive_rationals)
def test_rational_functions_are_exact_without_decimal(spec, x):
    tree = welfare_function_from_spec(spec).ast()
    exact = _exact_value(tree, x)
    with mock.patch.object(funcparse, "_context", side_effect=AssertionError("decimal used")):
        for digits in _DIGITS:
            assert enclose_expression(tree, x, digits) == (exact, exact)


@pytest.mark.parametrize("spec", LOG_AFFINE_SPECS)
def test_sign_test_ties_every_log_affine_grid_pair(spec):
    sign = _sign_test(welfare_function_from_spec(spec))
    for k in range(1, 6):
        for a, b in combinations(DEFAULT_SEARCH_GRID, 2):
            assert sign(((k + 1) * a, k * a), ((k + 1) * b, k * b)) == 0


@pytest.mark.parametrize("spec", ["affine:1,0", "power:2", "power:1/2", "exp", "expr:ln(x+1)"])
def test_sign_test_orders_non_log_grid_pairs_like_the_float_difference(spec):
    f = welfare_function_from_spec(spec)
    sign = _sign_test(f)
    for k in (1, 3):
        for a, b in combinations(DEFAULT_SEARCH_GRID, 2):
            gap = (f.value((k + 1) * a) - f.value(k * a)) - (f.value((k + 1) * b) - f.value(k * b))
            assert abs(gap) > 1e-6  # far above float noise on this grid
            assert sign(((k + 1) * a, k * a), ((k + 1) * b, k * b)) == (1 if gap > 0 else -1)


def test_sign_test_separates_a_gap_below_float_resolution():
    # d_1(1) - d_1(2) = -1/10^30 exactly for ln(x) + x/10^30: floats see 0
    sign = _sign_test(welfare_function_from_spec("expr:ln(x)+x/10^30"))
    assert sign((Fraction(2), Fraction(1)), (Fraction(4), Fraction(2))) == -1


def test_enclosure_errors_are_expression_errors():
    with pytest.raises(ExpressionEvalError, match="ln of a value"):
        enclose_expression(parse_expression("ln(x-1)"), Fraction(1, 2), _DIGITS[0])
    with pytest.raises(ExpressionEvalError, match="division by zero"):
        enclose_expression(parse_expression("1/(x-1)"), Fraction(1), _DIGITS[0])
