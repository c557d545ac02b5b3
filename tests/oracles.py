"""Brute-force reference implementations used as independent checks.

Everything here evaluates the definitions directly on assignment vectors,
without calling the library's own checkers or solvers.
"""

import math
import operator
from fractions import Fraction
from itertools import product

import mpmath

from fairalloc.errors import ExpressionEvalError
from fairalloc.funcparse import Call, Neg, Num, Var

NEG_INF = float("-inf")


def bundle_value(profile, agent, goods):
    return sum((profile.utilities[agent][g] for g in goods), Fraction(0))


def bundles_of(assignment, n):
    out = [set() for _ in range(n)]
    for good, agent in enumerate(assignment):
        out[agent].add(good)
    return out


def utilities_of(profile, assignment):
    totals = [Fraction(0)] * profile.n
    for good, agent in enumerate(assignment):
        totals[agent] += profile.utilities[agent][good]
    return totals


def ef_holds(profile, assignment):
    bundles = bundles_of(assignment, profile.n)
    for i in range(profile.n):
        own = bundle_value(profile, i, bundles[i])
        for j in range(profile.n):
            if i != j and own < bundle_value(profile, i, bundles[j]):
                return False
    return True


def ef1_holds(profile, assignment):
    """Quantifier-by-quantifier evaluation of the one-good-removal condition."""
    bundles = bundles_of(assignment, profile.n)
    for i in range(profile.n):
        own = bundle_value(profile, i, bundles[i])
        for j in range(profile.n):
            if i == j or not bundles[j]:
                continue
            if not any(
                own >= bundle_value(profile, i, bundles[j] - {g})
                for g in bundles[j]
            ):
                return False
    return True


def pareto_dominators(profile, assignment):
    """Every assignment that weakly improves all agents and strictly improves one."""
    current = utilities_of(profile, assignment)
    dominators = []
    for candidate in product(range(profile.n), repeat=profile.m):
        utils = utilities_of(profile, candidate)
        if all(u >= c for u, c in zip(utils, current)) and any(
            u > c for u, c in zip(utils, current)
        ):
            dominators.append(candidate)
    return dominators


def welfare_table(profile, value_fn):
    """(assignment, neg_inf_count, finite_sum) for every assignment."""
    rows = []
    for candidate in product(range(profile.n), repeat=profile.m):
        neg = 0
        finite = 0.0
        for u in utilities_of(profile, candidate):
            v = value_fn(u)
            if v == NEG_INF:
                neg += 1
            else:
                finite += v
        rows.append((candidate, neg, finite))
    return rows


def best_welfare(profile, value_fn):
    """Lexicographically-first strict maximizer under the (fewest -inf,
    largest finite sum) order."""
    best = None
    for candidate, neg, finite in welfare_table(profile, value_fn):
        key = (-neg, finite)
        if best is None or key > best[0]:
            best = ((-neg, finite), candidate)
    (neg_key, finite), candidate = best
    return candidate, -neg_key, finite


def best_utilitarian(profile):
    """Lexicographically-first maximizer of the exact utilitarian total, the tie
    count, and every maximizer in lexicographic order."""
    table = [
        (candidate, sum(utilities_of(profile, candidate)))
        for candidate in product(range(profile.n), repeat=profile.m)
    ]
    best = max(total for _, total in table)
    members = [candidate for candidate, total in table if total == best]
    return members[0], len(members), members


def nash_key(profile, assignment):
    """(number of positive-utility agents, exact product of their utilities)."""
    positive = [u for u in utilities_of(profile, assignment) if u > 0]
    return (len(positive), math.prod(positive, start=Fraction(1)))


def best_nash(profile):
    """Lexicographically-first maximizer of the Nash key, plus the tie count."""
    best_key = None
    best_assignment = None
    ties = 0
    for candidate in product(range(profile.n), repeat=profile.m):
        key = nash_key(profile, candidate)
        if best_key is None or key > best_key:
            best_key, best_assignment, ties = key, candidate, 1
        elif key == best_key:
            ties += 1
    return best_assignment, best_key, ties


def nash_members(profile):
    """Every maximizer of the Nash key, in lexicographic order."""
    _, best_key, _ = best_nash(profile)
    return [
        candidate
        for candidate in product(range(profile.n), repeat=profile.m)
        if nash_key(profile, candidate) == best_key
    ]


def _eval(node, x):
    """The recursive IEEE float evaluator: a reference for well-conditioned values and for domain errors."""
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.operand, x)
    if isinstance(node, Call):
        value = _eval(node.operand, x)
        if node.name == "ln":
            if value == 0:
                return -math.inf
            if value < 0:
                raise ExpressionEvalError(f"ln of a negative value ({value!r})")
            return math.log(value)
        if node.name == "exp":
            try:
                return math.exp(value)
            except OverflowError:
                raise ExpressionEvalError(f"exp overflow at argument {value!r}") from None
        if node.name == "sqrt":
            if value < 0:
                raise ExpressionEvalError(f"sqrt of a negative value ({value!r})")
            return math.sqrt(value)
        raise ExpressionEvalError(f"unknown function {node.name!r}")
    left = _eval(node.left, x)
    right = _eval(node.right, x)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        try:
            return left / right
        except ZeroDivisionError:
            raise ExpressionEvalError("division by zero") from None
    try:
        return math.pow(left, right)
    except ValueError:
        raise ExpressionEvalError(
            f"invalid power: base {left!r}, exponent {right!r}"
        ) from None
    except OverflowError:
        raise ExpressionEvalError(
            f"power overflow: base {left!r}, exponent {right!r}"
        ) from None


_MP_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": mpmath.power}


def mp_value(node, x):
    """The expression at ``x`` in mpmath arithmetic at the working precision (``ln(0) = -inf``)."""
    if isinstance(node, Num):
        return mpmath.mpf(node.value.numerator) / node.value.denominator
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -mp_value(node.operand, x)
    if isinstance(node, Call):
        return {"ln": mpmath.log, "exp": mpmath.exp, "sqrt": mpmath.sqrt}[node.name](mp_value(node.operand, x))
    return _MP_BINARY[node.op](mp_value(node.left, x), mp_value(node.right, x))


def exact_maximizers(profile, tree, digits=150):
    """Every maximizer, in lexicographic order, of the welfare of the rising ``tree``, by mpmath brute force
    at ``digits`` digits: the fewest ``-inf`` terms first, then the largest sum of the others, with sums
    within ``10^-(digits - 40)`` of the largest (relative to it, where it exceeds 1) counted as ties."""
    with mpmath.workdps(digits):
        terms, table = {}, []
        for candidate in product(range(profile.n), repeat=profile.m):
            values = []
            for u in utilities_of(profile, candidate):
                if u not in terms:
                    terms[u] = mp_value(tree, mpmath.mpf(u.numerator) / u.denominator)
                values.append(terms[u])
            finite = [v for v in values if v != mpmath.ninf]
            table.append((candidate, len(finite), mpmath.fsum(finite)))
        most = max(count for _, count, _ in table)
        best = max(total for _, count, total in table if count == most)
        slack = mpmath.mpf(10) ** (40 - digits) * max(1, abs(best))
        return [candidate for candidate, count, total in table if count == most and total >= best - slack]
