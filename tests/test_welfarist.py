import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairalloc import (
    Allocation,
    EnumerationBudgetError,
    InvalidWelfareFunctionError,
    Profile,
    allocation_welfare,
    is_ef1,
    is_pareto_optimal,
    max_nash_welfare,
    maximize_welfare,
)
from fairalloc.funcparse import BinOp, Call, Neg, Num, Var, compile_expression
from fairalloc.welfarist import (
    Affine,
    CustomExpression,
    Exp,
    ExtendedWelfare,
    LogAffine,
    Power,
    solve,
    welfare_function_from_spec,
    welfare_maximizers,
)


def random_positive_profile(rng, n=2, max_goods=6, max_utility=9, min_goods=1):
    m = rng.randint(min_goods, max_goods)
    return Profile([[rng.randint(1, max_utility) for _ in range(m)] for _ in range(n)])


class TestWelfareFunctions:
    def test_log_at_zero_is_neg_inf(self):
        assert LogAffine(1, 0).value(0) == -math.inf

    def test_identity(self):
        assert Affine(1, 0).value(5) == 5.0

    def test_power_on_rational(self):
        assert Power(2).value(Fraction(3, 2)) == 2.25

    def test_exp(self):
        assert Exp().value(1) == pytest.approx(math.e)

    def test_exp_overflow_is_invalid(self):
        with pytest.raises(InvalidWelfareFunctionError):
            Exp().value(1000)

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(InvalidWelfareFunctionError):
            LogAffine(0, 1)
        with pytest.raises(InvalidWelfareFunctionError):
            Affine(-1, 0)
        with pytest.raises(InvalidWelfareFunctionError):
            Power(0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            Affine(1, 0).value(-1)

    def test_custom_expression_must_increase(self):
        with pytest.raises(InvalidWelfareFunctionError, match="not increasing"):
            CustomExpression.from_text("-x")
        with pytest.raises(InvalidWelfareFunctionError, match="not increasing"):
            CustomExpression.from_text("x^2 - 4*x")

    def test_custom_matches_builtin_family(self):
        expr = CustomExpression.from_text("x^2")
        built_in = Power(2)
        for x in [Fraction(i, 4) for i in range(1, 41)]:
            assert expr.value(x) == pytest.approx(built_in.value(x), abs=1e-12)
        log_expr = CustomExpression.from_text("3*ln(x)+2")
        log_built_in = LogAffine(3, 2)
        for x in [Fraction(i, 4) for i in range(1, 41)]:
            assert log_expr.value(x) == pytest.approx(log_built_in.value(x), abs=1e-12)


class TestFunctionSpecs:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("log", LogAffine(1, 0)),
            ("log:3,2", LogAffine(3, 2)),
            ("affine:1,0", Affine(1, 0)),
            ("affine", Affine(1, 0)),
            ("power:2", Power(2)),
            ("power:1/2", Power(0.5)),
            ("exp", Exp()),
        ],
    )
    def test_parse(self, spec, expected):
        assert welfare_function_from_spec(spec) == expected

    def test_expr_spec(self):
        f = welfare_function_from_spec("expr:3*ln(x)+2")
        assert f.value(1) == pytest.approx(2.0)

    def test_labels_round_trip(self):
        for spec in ("log", "log:3,2", "affine:1,0", "power:2", "exp"):
            assert str(welfare_function_from_spec(spec)) == spec

    @pytest.mark.parametrize("spec,parameter", [
        ("power:1/3", Fraction(1, 3)),
        ("log:1/3,0", Fraction(1, 3)),
        ("power:0.1", Fraction(1, 10)),
        ("affine:3/2,-2", Fraction(3, 2)),
        ("log:0.5,-1", Fraction(1, 2)),
    ])
    def test_parameters_are_exact(self, spec, parameter):
        f = welfare_function_from_spec(spec)
        assert welfare_function_from_spec(str(f)) == f
        assert str(welfare_function_from_spec(str(f))) == str(f)
        assert Num(parameter) in _nodes(f.ast())

    @pytest.mark.parametrize("spec", ["nope", "power", "exp:1", "affine:1", "expr:"])
    def test_bad_specs(self, spec):
        with pytest.raises(InvalidWelfareFunctionError):
            welfare_function_from_spec(spec)

    @pytest.mark.parametrize("spec", ["power:1e-400", "log:1e400,0", "affine:1,-1e-400", "log:1,1e400"])
    def test_parameters_beyond_float_range(self, spec):
        # exact, but a float evaluation would turn them into 0 or overflow
        with pytest.raises(InvalidWelfareFunctionError, match="beyond float range"):
            welfare_function_from_spec(spec)


def _nodes(tree):
    yield tree
    for child in vars(tree).values():
        if isinstance(child, (Num, Var, Neg, Call, BinOp)):
            yield from _nodes(child)


class TestCompiledValue:
    """``value`` evaluates ``ast()``, compiled once and kept out of the
    instance's identity."""

    SPECS = ["log", "log:1/2,-1", "affine:3,2", "power:1/3", "exp", "expr:3*ln(x)+2"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_identity_is_unchanged_by_evaluation(self, spec):
        f = welfare_function_from_spec(spec)
        fresh = {"pickle": pickle.dumps(f), "repr": repr(f), "hash": hash(f), "copy": copy.deepcopy(f)}
        assert f.value(2) == compile_expression(f.ast())(2.0)
        assert "_compiled" in vars(f)
        assert pickle.dumps(f) == fresh["pickle"]
        assert (repr(f), hash(f)) == (fresh["repr"], fresh["hash"])
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), fresh["copy"]):
            assert twin == f and hash(twin) == hash(f)
            assert twin.value(3) == f.value(3)

    @pytest.mark.parametrize("spec", SPECS)
    def test_minus_inf_only_at_zero(self, spec):
        f = welfare_function_from_spec(spec)
        tiny = Fraction(1, 10**400)
        if isinstance(f, (Affine, Power, Exp)):
            assert f.value(tiny) == compile_expression(f.ast())(0.0)
            return
        assert f.value(0) == -math.inf
        with pytest.raises(InvalidWelfareFunctionError, match=r"-inf at a utility of at most 10\^-400$"):
            f.value(tiny)

    def test_errors_name_the_utility_by_its_size(self):
        with pytest.raises(InvalidWelfareFunctionError, match="^utility with 401 digits is too large"):
            Affine(1, 0).value(10**400)
        with pytest.raises(InvalidWelfareFunctionError, match="^power:2 overflowed at a utility with 201 digits$"):
            Power(2).value(Fraction(10**201, 7))
        with pytest.raises(InvalidWelfareFunctionError, match=r"failed at a utility of at most 10\^-2: ln of a"):
            CustomExpression.from_text("ln(x-1/20)").value(Fraction(1, 100))
        with pytest.raises(InvalidWelfareFunctionError, match=r"failed at a utility 0: ln of a negative value \(-0\.05\)$"):
            CustomExpression.from_text("ln(x-1/20)").value(0)
        with pytest.raises(InvalidWelfareFunctionError, match="^affine:2,0 evaluated to inf at a utility with 309 digits$"):
            Affine(2, 0).value(10**308)


class TestExtendedWelfare:
    def test_examples(self):
        # one agent at ln(1)=0, one at ln(0)=-inf
        w = allocation_welfare(Profile([[1, 0], [0, 0]]), Allocation((0, 1)), LogAffine())
        assert (w.neg_inf_count, w.finite_part) == (1, 0.0)
        w = allocation_welfare(Profile([[4, 0], [0, "1/2"]]), Allocation((0, 1)), Affine(1, 0))
        assert (w.neg_inf_count, w.finite_part) == (0, 4.5)
        w = allocation_welfare(Profile([[3, 0], [0, 3]]), Allocation((0, 1)), LogAffine())
        assert w.finite_part == pytest.approx(2 * math.log(3))

    def test_fewer_neg_inf_wins(self):
        assert ExtendedWelfare(0, -100.0) > ExtendedWelfare(1, 100.0)
        assert ExtendedWelfare(1, 2.0) > ExtendedWelfare(1, 1.0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.floats(-50, 50)),
            min_size=3,
            max_size=3,
        )
    )
    def test_total_order(self, triples):
        a, b, c = [ExtendedWelfare(n, f) for n, f in triples]
        # antisymmetry
        assert not (a < b and b < a)
        assert (a < b or b < a or a == b)
        # transitivity
        if a < b and b < c:
            assert a < c


class TestMaximizeWelfare:
    def test_utilitarian_example(self):
        profile = Profile([[0, 2, 2], ["1/2", 1, 1]])
        result = maximize_welfare(profile, Affine(1, 0))
        assert result.allocation.assignment == (1, 0, 0)
        assert result.welfare == ExtendedWelfare(0, 4.5)
        assert result.maximizer_set_size == 1
        # cross-check against the brute-force table
        assignment, neg, finite = oracles.best_welfare(
            profile, lambda u: float(u)
        )
        assert assignment == result.allocation.assignment
        assert finite == result.welfare.finite_part

    def test_log_example(self):
        profile = Profile([[1, 3], [3, 1]])
        result = maximize_welfare(profile, LogAffine())
        assert result.allocation.assignment == (1, 0)
        assert result.welfare.finite_part == pytest.approx(math.log(9))

    def test_single_agent_gets_everything(self):
        profile = Profile([[1, 2, 3]])
        result = maximize_welfare(profile, LogAffine())
        assert result.allocation.assignment == (0, 0, 0)

    def test_welfare_matches_allocation_welfare(self):
        rng = random.Random(5)
        for _ in range(20):
            profile = random_positive_profile(rng)
            for f in (LogAffine(), Affine(2, 1), Power(2)):
                result = maximize_welfare(profile, f)
                assert result.welfare == allocation_welfare(
                    profile, result.allocation, f
                )

    def test_maximizer_band(self):
        profile = Profile([[1, 1], [1, 1]])
        result, band = welfare_maximizers(profile, Affine(1, 0))
        assert result.maximizer_set_size == 4 == len(band)
        assert result.allocation.assignment == (0, 0)

    def test_budget_error(self):
        profile = Profile([[0] * 25, [0] * 25])
        with pytest.raises(EnumerationBudgetError):
            maximize_welfare(profile, Affine(1, 0))

    def test_argmax_invariant_under_scale_and_shift(self):
        rng = random.Random(11)
        for _ in range(30):
            profile = random_positive_profile(rng)
            base = LogAffine(1, 0)
            rescaled = LogAffine(2.5, -3)
            first = maximize_welfare(profile, base)
            second = maximize_welfare(profile, rescaled)
            w1 = allocation_welfare(profile, first.allocation, base)
            w2 = allocation_welfare(profile, second.allocation, base)
            assert w1.neg_inf_count == w2.neg_inf_count
            assert w1.finite_part == pytest.approx(w2.finite_part, abs=1e-9)
        for _ in range(30):
            profile = random_positive_profile(rng)
            base = Affine(1, 0)
            rescaled = Affine(7, 2)
            first = maximize_welfare(profile, base)
            second = maximize_welfare(profile, rescaled)
            assert allocation_welfare(
                profile, first.allocation, base
            ).finite_part == pytest.approx(
                allocation_welfare(profile, second.allocation, base).finite_part,
                abs=1e-9,
            )

    def test_finite_outputs_are_pareto_optimal(self):
        rng = random.Random(23)
        for _ in range(25):
            profile = random_positive_profile(rng, max_goods=5)
            for f in (LogAffine(), Affine(1, 0), Power(2), Exp()):
                result = maximize_welfare(profile, f)
                if result.welfare.finite:
                    assert is_pareto_optimal(profile, result.allocation).optimal


class TestBranchAndBound:
    def test_bit_identical_to_scan(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 3)
            m = rng.randint(0, 6)
            profile = Profile(
                [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
            )
            for f in (LogAffine(), Affine(1, 0), Power(0.5)):
                plain = maximize_welfare(profile, f, method="exhaustive")
                pruned = maximize_welfare(profile, f, method="branch-and-bound")
                assert plain == pruned

    def test_non_concave_functions_still_match(self):
        rng = random.Random(32)
        for _ in range(10):
            profile = random_positive_profile(rng, max_goods=4, max_utility=3)
            for f in (Power(2), Exp()):
                assert maximize_welfare(profile, f, method="exhaustive") == (
                    maximize_welfare(profile, f, method="branch-and-bound")
                )

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            maximize_welfare(Profile([[1]]), Affine(1, 0), method="magic")


class TestMaxNashWelfare:
    def test_crossed_preferences(self):
        profile = Profile([[1, 3], [3, 1]])
        result = max_nash_welfare(profile)
        assert result.allocation.assignment == (1, 0)
        assert result.maximizer_set_size == 1
        assert result.welfare.finite_part == pytest.approx(math.log(9))
        assignment, key, ties = oracles.best_nash(profile)
        assert assignment == result.allocation.assignment
        assert key == (2, Fraction(9))
        assert ties == 1

    def test_zero_row_maximizes_positive_count_first(self):
        # only agent 0 can get positive utility; the worthless good goes to
        # agent 0 too by the lexicographic tie-break
        profile = Profile([[1, 0], [0, 0]])
        result = max_nash_welfare(profile)
        assert result.allocation.assignment == (0, 0)
        assert result.welfare.neg_inf_count == 1
        assert result.maximizer_set_size == 2

    def test_matches_oracle_on_random_profiles(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(0, 5)
            profile = Profile(
                [[rng.randint(0, 5) for _ in range(m)] for _ in range(n)]
            )
            result = max_nash_welfare(profile)
            assignment, key, ties = oracles.best_nash(profile)
            assert result.allocation.assignment == assignment
            assert result.maximizer_set_size == ties
            assert result.welfare.neg_inf_count == profile.n - key[0]

    def test_outputs_satisfy_ef1(self):
        rng = random.Random(4096)
        for _ in range(300):
            profile = random_positive_profile(rng)
            result = max_nash_welfare(profile)
            assert is_ef1(profile, result.allocation).holds

    def test_scale_invariance_per_agent(self):
        # Scaling one agent's row rescales the Nash product uniformly across
        # allocations that give every agent positive utility, so the argmax
        # and the tie set are unchanged.  (With m < n the rule must instead
        # pick which agent stays at zero, and that choice is genuinely
        # scale-dependent, so such profiles are out of scope here.)
        rng = random.Random(13)
        for _ in range(40):
            profile = random_positive_profile(rng, max_goods=5, min_goods=2)
            baseline_result = max_nash_welfare(profile)
            assert baseline_result.welfare.neg_inf_count == 0
            baseline = baseline_result.allocation.assignment
            agent = rng.randrange(profile.n)
            factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            rows = [
                tuple(v * factor for v in row) if i == agent else row
                for i, row in enumerate(profile.utilities)
            ]
            rescaled = Profile(tuple(rows))
            assert max_nash_welfare(rescaled).allocation.assignment == baseline

    def test_agrees_with_float_log_solver_away_from_ties(self):
        rng = random.Random(3981)
        checked = 0
        for _ in range(120):
            profile = random_positive_profile(rng, max_goods=5)
            log = lambda u: math.log(float(u)) if u > 0 else oracles.NEG_INF
            table = oracles.welfare_table(profile, log)
            finite = sorted({f for _, neg, f in table if neg == 0}, reverse=True)
            if len(finite) > 1 and finite[0] - finite[1] < 1e-6:
                continue  # degenerate near-tie, excluded
            checked += 1
            exact = max_nash_welfare(profile)
            floaty, _, _ = oracles.best_welfare(profile, log)
            assert oracles.utilities_of(
                profile, exact.allocation.assignment
            ) == oracles.utilities_of(profile, floaty)
        assert checked > 50


class TestSolveFrontEnd:
    def test_routes_log_affine_to_exact_solver(self):
        profile = Profile([[1, 3], [3, 1]])
        result = solve(profile, LogAffine(3, 2))
        assert result.allocation.assignment == (1, 0)
        # welfare reported under the requested parameters
        assert result.welfare.finite_part == pytest.approx(3 * math.log(9) + 4)

    def test_other_functions_use_float_scan(self):
        profile = Profile([[0, 2, 2], ["1/2", 1, 1]])
        assert solve(profile, Affine(1, 0)).allocation.assignment == (1, 0, 0)
