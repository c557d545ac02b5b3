"""Certified enclosures of welfare functions and the search's sign test.

``enclose_expression`` must bound the true value at every precision of the
search's ladder; rational-valued functions must come out exact, without a
``decimal`` call; trees that ``linear_form`` recognises must have the form it
proves; and the sign test from enclosures must call every ``d_k`` comparison
of a log-affine function a tie, while a recognised log-affine tree needs no
comparison at all.
"""

import operator
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_funcparse import expression_trees

from fairalloc import funcparse
from fairalloc.characterization import DEFAULT_SEARCH_GRID, _sign_test, _ties, find_ef1_counterexample
from fairalloc.errors import ExpressionEvalError
from fairalloc.funcparse import (
    _DIGITS, BinOp, Call, Neg, Num, Var, _Ladder, enclose_expression, linear_form, parse_expression,
)
from fairalloc.model import Allocation
from fairalloc.welfarist import CustomExpression, ExtendedWelfare, SolveResult, welfare_function_from_spec

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
    # an expr: tree is parsed, not built: x^3 - 1/x is no welfare function, as no rule proves it rising
    tree = parse_expression(spec.removeprefix("expr:")) if spec.startswith("expr:") else welfare_function_from_spec(spec).ast()
    exact = _exact_value(tree, x)
    with mock.patch.object(funcparse, "_context", side_effect=AssertionError("decimal used")):
        for digits in _DIGITS:
            assert enclose_expression(tree, x, digits) == (exact, exact)


def _gap(sign, first, second):
    """The sign of ``(f(a) - f(b)) - (f(c) - f(d))`` for ``first = (a, b)`` and ``second = (c, d)``."""
    return sign((first[0], second[1]), (first[1], second[0]))


class Unrecognised(CustomExpression):
    """The same tree with no recognised form: the search falls back on enclosures."""

    _form = None


def unrecognised(f):
    return Unrecognised(f.ast(), str(f))


def ties_every_grid_pair(sign):
    return not any(
        _gap(sign, ((k + 1) * a, k * a), ((k + 1) * b, k * b))
        for k in range(1, 6) for a, b in combinations(DEFAULT_SEARCH_GRID, 2)
    )


@pytest.mark.parametrize("spec", LOG_AFFINE_SPECS)
def test_sign_test_ties_every_log_affine_grid_pair(spec):
    sign = _sign_test(welfare_function_from_spec(spec))
    assert sign is None
    assert all(_ties(sign, k, DEFAULT_SEARCH_GRID) for k in range(1, 6))


def test_a_recognised_log_affine_search_makes_no_comparison():
    grid = [Fraction(50 + i, 100) for i in range(451)]
    with mock.patch.object(_Ladder, "sign", side_effect=AssertionError("a comparison was made")):
        assert find_ef1_counterexample(welfare_function_from_spec("expr:3*ln(x)+2"), k_max=50, grid=grid) is None


@pytest.mark.parametrize("spec", LOG_AFFINE_SPECS)
def test_enclosures_tie_every_log_affine_grid_pair_without_recognition(spec):
    assert ties_every_grid_pair(_sign_test(unrecognised(welfare_function_from_spec(spec))))


@pytest.mark.parametrize("spec", ["affine:1,0", "power:2", "power:1/2", "exp", "expr:ln(x+1)"])
def test_sign_test_orders_non_log_grid_pairs_like_the_float_difference(spec):
    f = welfare_function_from_spec(spec)
    sign = _sign_test(f)
    for k in (1, 3):
        for a, b in combinations(DEFAULT_SEARCH_GRID, 2):
            gap = (f.value((k + 1) * a) - f.value(k * a)) - (f.value((k + 1) * b) - f.value(k * b))
            assert abs(gap) > 1e-6  # far above float noise on this grid
            assert _gap(sign, ((k + 1) * a, k * a), ((k + 1) * b, k * b)) == (1 if gap > 0 else -1)


def test_sign_test_separates_a_gap_below_float_resolution():
    # d_1(1) - d_1(2) = -1/10^30 exactly for ln(x) + x/10^30: floats see 0
    sign = _sign_test(welfare_function_from_spec("expr:ln(x)+x/10^30"))
    assert _gap(sign, (Fraction(2), Fraction(1)), (Fraction(4), Fraction(2))) == -1


def test_enclosure_errors_are_expression_errors():
    with pytest.raises(ExpressionEvalError, match="ln of a value"):
        enclose_expression(parse_expression("ln(x-1)"), Fraction(1, 2), _DIGITS[0])
    with pytest.raises(ExpressionEvalError, match="division by zero"):
        enclose_expression(parse_expression("1/(x-1)"), Fraction(1), _DIGITS[0])


def _constant_terms(draw):
    """An x-free tree with an exact or an irrational value."""
    small = st.fractions(min_value=-9, max_value=9, max_denominator=8)
    return draw(st.one_of(
        st.builds(Num, small),
        st.builds(lambda v: Call("ln", Num(v)), st.integers(1, 9).map(Fraction)),
        st.builds(lambda v: Call("sqrt", Num(v)), st.integers(0, 9).map(Fraction)),
        st.builds(lambda v, e: BinOp("^", Num(v), Num(e)), st.integers(1, 5).map(Fraction), st.integers(-3, 3).map(Fraction)),
    ))


@st.composite
def linear_trees(draw, max_steps=4):
    """``ln`` of ``x``, ``k*x`` or ``x^q``, or ``x`` itself, put through steps that
    keep the form: adding constants, scaling by nonzero constants, negating twice,
    and adding two trees of the same form and slope sign."""
    positive = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8)
    base = draw(st.sampled_from(["x", "ln(x)", "ln(k*x)", "ln(x^q)"]))
    tree = {
        "x": Var(),
        "ln(x)": Call("ln", Var()),
        "ln(k*x)": Call("ln", BinOp("*", Num(draw(positive)), Var())),
        "ln(x^q)": Call("ln", BinOp("^", Var(), Num(draw(positive)))),
    }[base]
    for _ in range(draw(st.integers(0, max_steps))):
        step = draw(st.sampled_from(["+c", "c+", "-c", "c-", "*k", "k*", "/k", "--", "+same"]))
        if step in ("+c", "-c"):
            tree = BinOp(step[0], tree, _constant_terms(draw))
        elif step == "c+":
            tree = BinOp("+", _constant_terms(draw), tree)
        elif step == "c-":  # c - (-tree) = tree + c
            tree = BinOp("-", _constant_terms(draw), Neg(tree))
        elif step in ("*k", "/k"):
            tree = BinOp(step[0], tree, Num(draw(positive)))
        elif step == "k*":
            tree = BinOp("*", Num(draw(positive)), tree)
        elif step == "--":
            tree = Neg(Neg(tree))
        else:
            tree = BinOp("+", tree, tree)
    return tree


@settings(max_examples=120, deadline=None)
@given(linear_trees(), positive_rationals, positive_rationals)
def test_recognised_trees_have_the_form_they_are_given(tree, x, y):
    mpmath = pytest.importorskip("mpmath")
    form, a = linear_form(tree)
    digits = max(_DIGITS)
    if form == "ln":  # f(2x) - f(x) = a*ln 2
        (lo2, hi2), (lo1, hi1) = enclose_expression(tree, 2 * x, digits), enclose_expression(tree, x, digits)
        with mpmath.workdps(digits + 20):
            expected = mpmath.mpf(a.numerator) / a.denominator * mpmath.log(2)
            lo, hi = lo2 - hi1, hi2 - lo1
            assert mpmath.mpf(lo.numerator) / lo.denominator <= expected <= mpmath.mpf(hi.numerator) / hi.denominator
    else:  # f(x) - a*x is the same constant at x and y
        (lo_x, hi_x), (lo_y, hi_y) = (enclose_expression(tree, t, digits) for t in (x, y))
        assert lo_x - a * x <= hi_y - a * y and lo_y - a * y <= hi_x - a * x


@st.composite
def point_pairs(draw):
    """``((p, q), (r, s))``, positive rationals, about half of them exact ties ``p*s == q*r``."""
    p, q, r = (draw(positive_rationals) for _ in range(3))
    s = draw(st.one_of(positive_rationals, st.just(q * r / p)))
    return (p, q), (r, s)


@pytest.mark.parametrize("spec", LOG_AFFINE_SPECS + ["expr:ln(x)/2-3", "expr:ln(x^2)"])
@settings(max_examples=60, deadline=None)
@given(pairs=point_pairs())
def test_the_exact_sign_agrees_with_every_enclosure_that_decides(spec, pairs):
    # a*ln(p/q) - a*ln(r/s) = a*ln(p*s / (q*r)) with a > 0
    (p, q), (r, s) = pairs
    exact = (p * s > q * r) - (p * s < q * r)
    enclosed = _gap(_sign_test(unrecognised(welfare_function_from_spec(spec))), *pairs)
    assert enclosed in (0, None, exact)


#: The benchmark's ``characterize`` functions that are not log-affine.
NON_LOG_SPECS = ["affine:1,0", "power:2", "power:1/2", "expr:x^2+x", "expr:ln(x+1)"]


def _mp_difference(tree, pair, mpmath):
    a, b = (_mp_value(tree, mpmath.mpf(x.numerator) / x.denominator, mpmath) for x in pair)
    return a - b


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(expression_trees(), st.sampled_from(NON_LOG_SPECS).map(lambda spec: welfare_function_from_spec(spec).ast())),
    point_pairs(),
)
def test_the_ladder_is_antisymmetric_and_agrees_with_mpmath_where_it_decides(tree, pairs):
    mpmath = pytest.importorskip("mpmath")
    sign = _Ladder(tree).sign
    first, second = pairs
    try:  # equal points cancel unenclosed, so each point is enclosed once here
        [enclose_expression(tree, x, _DIGITS[0]) for x in first + second]
        decided, alone = _gap(sign, first, second), sign(first[:1], first[1:])
    except ExpressionEvalError:  # an enclosure leaves the domain: no verdict to check
        return
    assert _gap(sign, second, first) == (None if decided is None else -decided)
    assert sign(first[1:], first[:1]) == (None if alone is None else -alone)
    with mpmath.workdps(100):
        step = _mp_difference(tree, first, mpmath)
        gap = step - _mp_difference(tree, second, mpmath)
    assert decided in (0, None, (gap > 0) - (gap < 0))
    assert alone in (0, None, (step > 0) - (step < 0))


SEARCH_SPECS_AT_THE_PARENT = {
    # the benchmark's nine: the first found (k, y, z, discount) and the solve result on that profile
    "affine:1,0": 2.25, "power:2": 4.0625, "power:1/2": 1.9142135623730951, "expr:x^2+x": 6.3125,
    "expr:ln(x+1)": 1.3217558399823195,
    "log": None, "log:1/2,-1": None, "log:3,2": None, "expr:3*ln(x)+2": None,
    "expr:ln(2*x)": None, "expr:ln(x)/2-3": None,
}


@pytest.mark.parametrize("spec, welfare", SEARCH_SPECS_AT_THE_PARENT.items())
def test_the_search_finds_what_it_found_with_enclosures_alone(spec, welfare):
    report = find_ef1_counterexample(welfare_function_from_spec(spec))
    if welfare is None:
        assert report is None
        return
    assert (report.k, report.agent0_value, report.agent1_value, report.discount) == (
        1, Fraction(1), Fraction(1, 2), Fraction(1, 4))
    assert report.solve == SolveResult(Allocation((1, 0, 0)), ExtendedWelfare(0, welfare), 1)
