import decimal
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mpmath
import oracles

from fairalloc.characterization import _positive_grid
from fairalloc.errors import (
    ExpressionError,
    ExpressionEvalError,
    ExpressionSyntaxError,
)
from fairalloc.funcparse import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    _Ladder,
    enclose_expression,
    increasing,
    linear_form,
    parse_expression,
)
from fairalloc.errors import InvalidWelfareFunctionError
from fairalloc.model import Profile
from fairalloc.welfarist import solve, welfare_function_from_spec


class TestParsing:
    def test_single_call(self):
        assert parse_expression("ln(x)") == Call("ln", Var())

    def test_precedence(self):
        assert parse_expression("3*ln(x)+2") == BinOp(
            "+", BinOp("*", Num(Fraction(3)), Call("ln", Var())), Num(Fraction(2))
        )

    def test_power_is_right_associative(self):
        hand_built = BinOp("^", Num(Fraction(2)), BinOp("^", Num(Fraction(3)), Num(Fraction(2))))
        assert parse_expression("2^3^2") == hand_built
        assert enclose_expression(hand_built, 1, 12) == enclose_expression(parse_expression("2^3^2"), 7, 12) == (512, 512)

    def test_unary_binds_looser_than_power(self):
        assert parse_expression("-x^2") == Neg(BinOp("^", Var(), Num(Fraction(2))))

    def test_neg_function_form(self):
        assert parse_expression("neg(x)") == Neg(Var())

    def test_decimal_literals_are_exact(self):
        assert parse_expression("0.5") == Num(Fraction(1, 2))

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError, match="unknown identifier 'y'"):
            parse_expression("y + 1")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_expression("1 + ")
        assert excinfo.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError, match="after the expression"):
            parse_expression("x 2")

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("ln(x")


class TestEvaluation:
    """The one evaluator, :func:`enclose_expression`: exact where the tree is rational, and an error where a step
    leaves its domain (``value`` alone turns an ``ln`` of exactly 0 into ``-inf``)."""

    def test_identity(self):
        assert enclose_expression(parse_expression("x"), 5, 12) == (5, 5)

    def test_ln_at_one(self):
        assert enclose_expression(parse_expression("ln(x)"), 1, 12) == (0, 0)

    @pytest.mark.parametrize("text, x, ends", [
        ("ln(x-1/20)", 0, "-1/20, -1/20"),  # short ends as they are
        ("ln(x-10^500)", 1, "-a number with 500 digits, -a number with 500 digits"),
        ("sqrt(x-1/10^500)", 0, "-a number of at most 10^-500, -a number of at most 10^-500"),
        ("sqrt(x-1/10^5000)", 0, "-a number of at most 10^-3999, -a number of at most 10^-3999"),  # past 4000 digits
    ])
    def test_a_domain_error_names_long_ends_by_their_sizes(self, text, x, ends):
        name = text.partition("(")[0]
        with pytest.raises(ExpressionEvalError, match=rf"^{name} of a value in \[{re.escape(ends)}\]$"):
            enclose_expression(parse_expression(text), x, 12)

    def test_square(self):
        assert enclose_expression(parse_expression("x^2"), Fraction(3, 2), 12) == (Fraction(9, 4), Fraction(9, 4))

    def test_ln_at_zero_has_no_enclosure(self):
        with pytest.raises(ExpressionEvalError, match=r"^ln of a value in \[0, 0\]$"):
            enclose_expression(parse_expression("ln(x)"), 0, 12)

    def test_division_by_zero(self):
        with pytest.raises(ExpressionEvalError, match="division by zero"):
            enclose_expression(parse_expression("1/x"), 0, 12)

    def test_sqrt_of_negative_intermediate(self):
        with pytest.raises(ExpressionEvalError, match="sqrt"):
            enclose_expression(parse_expression("sqrt(x - 5)"), 1, 12)

    def test_exp_beyond_every_decimal_is_chained_to_the_overflow(self):
        with pytest.raises(ExpressionEvalError, match="exp out of range") as excinfo:
            enclose_expression(parse_expression("exp(x)"), 10**7, 12)
        assert isinstance(excinfo.value.__cause__, decimal.Overflow)

    def test_argument_beyond_float_range_is_exact(self):
        assert enclose_expression(parse_expression("x"), 10**400, 12) == (10**400, 10**400)

    def test_agrees_with_math_on_composite(self):
        expr = parse_expression("3*ln(x)+2")
        for x in (0.5, 1, 2, 7.25):
            lo, hi = enclose_expression(expr, x, 12)
            assert float((lo + hi) / 2) == pytest.approx(3 * math.log(x) + 2, abs=1e-10)

    def test_deep_trees_enclose(self):
        tree = parse_expression("sqrt(" * 150 + "x+9" + ")" * 150 + "+x" * 300)
        lo, hi = enclose_expression(tree, 2, 80)
        assert float((lo + hi) / 2) == pytest.approx(oracles._eval(tree, 2.0), rel=2**-52)

    @pytest.mark.parametrize("text,x,reference,message", [
        ("ln(x-1)", Fraction(1, 2), "ln of a negative value (-0.5)", "ln of a value in [-1/2, -1/2]"),
        ("sqrt(x-5)", Fraction(1), "sqrt of a negative value (-4.0)", "sqrt of a value in [-4, -4]"),
        ("1/(x-2)", Fraction(2), "division by zero", "division by zero"),
        ("(x-3)^0.5", Fraction(1), "invalid power: base -2.0, exponent 0.5", "sqrt of a value in [-2, -2]"),
    ])
    def test_domain_errors_match_the_reference(self, text, x, reference, message):
        # a step outside its domain raises at every rung, as in the float reference
        tree = parse_expression(text)
        with pytest.raises(ExpressionEvalError, match=f"^{re.escape(reference)}$"):
            oracles._eval(tree, float(x))
        for digits in (12, 80):
            with pytest.raises(ExpressionEvalError, match=f"^{re.escape(message)}$"):
                enclose_expression(tree, x, digits)

    @pytest.mark.parametrize("text,x,reference", [
        ("exp(x)", 1000, "exp overflow at argument 1000.0"),
        ("x^400", 10, "power overflow: base 10.0, exponent 400.0"),
    ])
    def test_float_overflow_is_no_domain_error(self, text, x, reference):
        # beyond float range, yet within decimal's: the enclosure holds the 60-digit value
        tree = parse_expression(text)
        with pytest.raises(ExpressionEvalError, match=f"^{re.escape(reference)}$"):
            oracles._eval(tree, float(x))
        with mpmath.workdps(60):
            true = oracles.mp_value(tree, mpmath.mpf(x))
            for digits in (12, 80):
                lo, hi = enclose_expression(tree, x, digits)
                assert mpmath.mpf(lo.numerator) / lo.denominator <= true <= mpmath.mpf(hi.numerator) / hi.denominator
                assert hi - lo <= abs(lo) * Fraction(1, 10**(digits - 2))

    @pytest.mark.parametrize("text", ["3*ln(x)+2", "2^3^2", "sqrt(x)+exp(x)", "(x+1)/(x+2)", "-x^0.5", "ln(x+1)*exp(-x)"])
    def test_matches_the_reference(self, text):
        # well-conditioned trees: the float reference is within a few ulps of f, and so is the last rung's midpoint
        tree = parse_expression(text)
        for x in (Fraction(1, 3), Fraction(2), Fraction(29, 4), Fraction(19)):
            lo, hi = enclose_expression(tree, x, 80)
            assert float((lo + hi) / 2) == pytest.approx(oracles._eval(tree, float(x)), rel=1e-14)


# hypothesis strategy for random well-formed trees; Num values stick to what
# numeric literals can spell (integers and exact decimals)
def expression_trees(max_depth=4):
    leaves = st.one_of(
        st.builds(
            Num,
            st.fractions(min_value=0, max_value=9, max_denominator=8).filter(
                lambda f: f.denominator in (1, 2, 4, 5, 8)
            ),
        ),
        st.just(Var()),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Call, st.sampled_from(["ln", "exp", "sqrt"]), children),
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestFuzz:
    def test_mutated_corpus_never_crashes(self):
        rng = random.Random(4242)
        corpus = ["3*ln(x)+2", "2^3^2", "sqrt(x)+exp(x)", "(x+1)/(x+2)", "-x^0.5"]
        alphabet = "x0123456789+-*/^()lnexpsqrt. "
        for _ in range(500):
            text = list(rng.choice(corpus))
            for _ in range(rng.randint(1, 4)):
                op = rng.randrange(3)
                pos = rng.randrange(len(text) + 1)
                if op == 0 and text:
                    del text[min(pos, len(text) - 1)]
                elif op == 1:
                    text.insert(pos, rng.choice(alphabet))
                elif text:
                    text[min(pos, len(text) - 1)] = rng.choice(alphabet)
            mutated = "".join(text)
            try:
                parse_expression(mutated)
            except ExpressionError:
                pass  # rejecting is fine; any other exception is a bug

    @settings(max_examples=200)
    @given(st.text(alphabet="x0123456789+-*/^()lnexpsqrt. ", max_size=25))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_expression(text)
        except ExpressionError:
            pass


class TestIncreasingCheck:
    """An ``expr:`` function is built only if ``linear_form`` recognises it or ``increasing`` proves it."""

    def test_ln_is_increasing(self):
        assert increasing(parse_expression("ln(x)"))
        welfare_function_from_spec("expr:ln(x)")  # constructs

    def test_negated_identity_fails_with_witness(self):
        # the ladder witnesses the fall, f(1) > f(2); no rule proves the tree rising, so it is refused
        assert _Ladder(parse_expression("-x")).sign([Fraction(1)], [Fraction(2)]) == 1
        with pytest.raises(InvalidWelfareFunctionError, match=r"^expr:-x is not proved increasing"):
            welfare_function_from_spec("expr:-x")

    def test_dipping_parabola_fails_at_first_pair(self):
        # f(1) = -3 > f(2) = -4
        assert _Ladder(parse_expression("x^2 - 4*x")).sign([Fraction(1)], [Fraction(2)]) == 1
        with pytest.raises(InvalidWelfareFunctionError, match="not proved increasing"):
            welfare_function_from_spec("expr:x^2 - 4*x")

    @pytest.mark.parametrize("text", ["x-x^2/100", "x-ln(x+1)", "ln(x)+x-x"])
    def test_an_unproven_tree_is_refused_by_name(self, text):
        # x-x^2/100 falls past 50; the other two rise, but no rule shows it
        with pytest.raises(InvalidWelfareFunctionError, match=rf"^expr:{re.escape(text)} is not proved increasing"):
            welfare_function_from_spec(f"expr:{text}")

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="must not be empty"):
            _positive_grid([])
        with pytest.raises(ValueError, match="only positive"):
            _positive_grid([0.0, 1.0])
        assert _positive_grid(["1/2", 2]) == (Fraction(1, 2), Fraction(2))

    def test_evaluation_errors_propagate(self):
        with pytest.raises(ExpressionEvalError):
            enclose_expression(parse_expression("sqrt(x-10)"), Fraction(1), 12)
        assert not increasing(parse_expression("sqrt(x-10)"))

    @pytest.mark.parametrize("text", ["ln(x)+10^17", "x+10^16", "x/10^20+1"])
    def test_a_large_constant_does_not_hide_the_increase(self, text):
        # the float terms tie; the ladder orders the exact values
        tree = parse_expression(text)
        assert increasing(tree)
        assert _Ladder(tree).sign([Fraction(1, 10)], [Fraction(1, 5)]) == -1
        welfare_function_from_spec(f"expr:{text}")  # constructs

    def test_a_pair_tied_at_80_digits_still_fails(self):
        # f(1) = f(2) exactly for x+10^100-x, and 10^17-x falls: neither is proved, so neither is built
        assert _Ladder(parse_expression("x+10^100-x")).sign([Fraction(1)], [Fraction(2)]) == 0
        assert _Ladder(parse_expression("10^17-x")).sign([Fraction(1)], [Fraction(2)]) == 1
        for text in ("x+10^100-x", "10^17-x"):
            with pytest.raises(InvalidWelfareFunctionError, match="not proved increasing"):
                welfare_function_from_spec(f"expr:{text}")

    def test_a_large_constant_log_is_ranked_by_the_nash_key(self):
        # ln(x) + 10^17 is log-affine: the exact Nash scan, not float sums, ranks it
        f = welfare_function_from_spec("expr:ln(x)+10^17")
        assert f._form == ("ln", 1)
        profile = Profile(((0, 0, 0), (0, 1, 999998112)))
        result, nash = solve(profile, f), solve(profile, welfare_function_from_spec("log"))
        assert (result.allocation, result.maximizer_set_size) == (nash.allocation, 2)


class TestLinearForm:
    """``linear_form`` proves ``a*ln(x) + c`` or ``a*x + c``, or answers None."""

    @pytest.mark.parametrize("text,form,slope", [
        ("ln(x)", "ln", 1), ("3*ln(x)+2", "ln", 3), ("ln(x^2)", "ln", 2), ("ln(x)/2", "ln", Fraction(1, 2)),
        ("ln(2*x)", "ln", 1), ("-(1-ln(x))", "ln", 1), ("ln(x)/2-3", "ln", Fraction(1, 2)),
        ("ln(x^(1/2))", "ln", Fraction(1, 2)), ("ln(x/3)+ln(x)", "ln", 2), ("ln(x)+exp(2)", "ln", 1),
        ("2^3*ln(x)", "ln", 8), ("neg(neg(ln(x)))", "ln", 1), ("(ln(x)+1)*0.5", "ln", Fraction(1, 2)),
        ("x", "x", 1), ("x^1", "x", 1), ("2*x+1", "x", 2), ("-(1-x)", "x", 1), ("x/(1/3)", "x", 3),
        ("(x^2)^(1/2)", "x", 1), ("x+x-x/2", "x", Fraction(3, 2)), ("x*(2-1)^5+sqrt(2)", "x", 1),
        ("ln(sqrt(x))", "ln", Fraction(1, 2)), ("ln(exp(ln(x)))", "ln", 1), ("ln(x*x)", "ln", 2),
        ("ln(x*x^(1/2)*3)", "ln", Fraction(3, 2)), ("ln(sqrt(x*x))+ln(exp(2))", "ln", 1), ("ln(exp(x))", "x", 1),
    ])
    def test_recognised_trees_and_their_slopes(self, text, form, slope):
        assert linear_form(parse_expression(text)) == (form, slope)

    @pytest.mark.parametrize("text", [
        "ln(x+1)", "ln(x)+x/10^12", "ln(x)*ln(x)", "x^2+x", "exp(ln(x))", "ln(x)*(1+1/10^6)^(10^6)",
        "ln(x)-ln(x)+ln(x)",  # NaN at 0, not ln(0) = -inf
        "ln(x)*0+x", "ln(x)*0+ln(x)",  # NaN at 0 too
        "-ln(x)", "-x", "x^2", "sqrt(x)", "ln(sqrt(x+1))", "ln(exp(x)+1)", "ln(x*(x+1))", "2^x", "ln(x)^1", "x*x", "x*ln(2)", "1/x",
        "x^(1-1)", "5", "ln(2)",
    ])
    def test_unrecognised_trees(self, text):
        assert linear_form(parse_expression(text)) is None

    def test_a_huge_constant_power_is_not_evaluated(self):
        # (1000001/1000000)^(10^6) has some 20 million bits: exact evaluation takes seconds
        tree = parse_expression("ln(x)*(1+1/10^6)^(10^6)")
        start = time.perf_counter()
        assert linear_form(tree) is None
        assert time.perf_counter() - start < 0.5

    def test_a_huge_constant_power_is_enclosed_not_expanded(self):
        mpmath = pytest.importorskip("mpmath")
        tree = parse_expression("(1+1/10^6)^(10^6)")
        start = time.perf_counter()
        lo, hi = enclose_expression(tree, Fraction(1), 12)
        assert time.perf_counter() - start < 0.5
        with mpmath.workdps(40):
            true = mpmath.power(1 + mpmath.mpf(10) ** -6, 10**6)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= true <= mpmath.mpf(hi.numerator) / hi.denominator
        assert hi - lo < Fraction(1, 10**9)
        with pytest.raises(ExpressionEvalError, match="ln of a value"):
            enclose_expression(parse_expression("(x-3)^(10^6)"), Fraction(1), 12)
        assert enclose_expression(parse_expression("(x-3)^3"), Fraction(1), 12) == (-8, -8)

    def test_a_tree_deeper_than_the_walk_is_not_recognised(self):
        assert linear_form(parse_expression("x" + "+x" * 5000)) is None

    @settings(max_examples=60)
    @given(
        st.sampled_from(["log", "affine"]),
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    )
    def test_every_built_in_log_or_affine_tree(self, name, a, b):
        f = welfare_function_from_spec(f"{name}:{a},{b}")
        assert linear_form(f.ast()) == ({"log": "ln", "affine": "x"}[name], a)
        assert f._form == linear_form(f.ast())

    def test_the_utilitarian_power(self):
        assert linear_form(welfare_function_from_spec("power:1").ast()) == ("x", 1)


def rising_candidates():
    """Trees shaped by the rules of ``increasing``, with constants that may break them (0, or a
    negative value at ``x = 0`` under ``ln``, ``sqrt`` or ``^``)."""
    constants = st.builds(Num, st.fractions(min_value=0, max_value=9, max_denominator=8))

    def extend(rising):
        return st.one_of(
            st.builds(Call, st.sampled_from(["ln", "exp", "sqrt"]), rising),
            st.builds(BinOp, st.just("+"), rising, st.one_of(rising, constants)),
            st.builds(BinOp, st.sampled_from(["-", "*", "/", "^"]), rising, constants),
            st.builds(BinOp, st.sampled_from(["+", "*"]), constants, rising),
        )

    return st.recursive(st.just(Var()), extend, max_leaves=8)


#: Ascending points from 1/1000 to 10^12 at which ``increasing`` trees are checked.
RISING_GRID = tuple(map(Fraction, ("1/1000", "1/10", "1/2", 1, 2, 3, 10, 100, 10**4, 10**6, 10**9, 10**12)))


class TestIncreasingProof:
    """``increasing`` proves a tree strictly increasing on ``x >= 0``, finite for ``x > 0``, or answers False."""

    @pytest.mark.parametrize("text", [
        "x^(1/2)", "x^2", "x^3", "exp(x)", "ln(x+1)", "x^2+x", "ln(x)+x/10^12", "2*exp(x)-1",
        "x*x", "x*x+x", "sqrt(x)*exp(x)", "ln(x*x+1)", "x*(1+1/10^6)^(10^6)", "x*ln(2)", "x/sqrt(2)", "ln(x)*ln(2)",
        "x", "ln(x)", "sqrt(x)", "sqrt(ln(x+1))", "(x+1)^2/3+7", "exp(ln(x))", "ln(x+1/2)", "exp(x-5)", "ln(x)-1",
    ])
    def test_proven_trees(self, text):
        assert increasing(parse_expression(text))

    @pytest.mark.parametrize("text", [
        "x-x^2/100", "-1/x", "x-ln(x+1)",  # falls past x = 50; divides by 0 at 0; rises, but no rule shows it
        "5", "-x", "x*0+x", "(x-1)*x", "ln(x)*x", "x*ln(1/2)", "x/(1-sqrt(2))", "x+ln(2)", "x+ln(0)", "sqrt(x-1)", "ln(x-1)", "(x-1)^2", "x^(-1)", "2^x",
        "-(1-x)", "x/0", "x*(0-1)",
        # rising, but floats may cancel to 0 or below near 0: exp(x)-1 is 0 at x = 10^-20
        "ln(exp(x)-1)", "sqrt(x+3/10-1/10-2/10)", "(x+1-1)^(1/2)", "ln(x+(0-1)+2)", "ln(exp(x-800))",
    ])
    def test_unproven_trees(self, text):
        assert not increasing(parse_expression(text))

    def test_a_tree_deeper_than_the_walk_is_not_proven(self):
        assert not increasing(parse_expression("x" + "+x" * 5000))

    @given(st.one_of(rising_candidates(), expression_trees()))
    @example(parse_expression("ln(ln(exp(x^4)))"))  # 12 digits round exp(10^-12) to 1 and the inner ln below 0
    @settings(max_examples=300, deadline=None)
    def test_every_proven_tree_rises_and_fails_in_floats_only_upwards(self, tree):
        assume(increasing(tree))
        fails = [float_fails(tree, x) for x in (Fraction(1, 10**20), *RISING_GRID)]
        assert fails == sorted(fails)  # past the first failing point, every one fails: the floats overflow
        ladder = _Ladder(tree)
        last = ladder.rungs[-1]
        for a, b, failed in zip(RISING_GRID, RISING_GRID[1:], fails[2:]):
            if not failed:  # no verdict only where f(b) - f(a) is below every decimal, as for x^(7^8) near 1/10
                sign = ladder.sign([a], [b])
                assert sign == -1 or sign is None and tiny(ladder.enclose(b, last)[1] - ladder.enclose(a, last)[0])


def tiny(d):
    """Whether the rational ``d`` is below 2^-3000000 (about 10^-903090), past decimal's least exponent."""
    return d.denominator.bit_length() - d.numerator.bit_length() > 3_000_000


def float_fails(tree, x):
    """Whether the reference float evaluator fails at ``x``: overflow, ``sqrt`` or a power of a value rounded below
    0, or a NaN or ``+inf`` result (``ln`` of a value rounded to 0 gives ``-inf``, as where a tiny ``x`` underflows)."""
    try:
        result = oracles._eval(tree, float(x))
    except ExpressionEvalError:
        return True
    return math.isnan(result) or result == math.inf
