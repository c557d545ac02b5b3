"""Brute-force reference implementations used as independent checks.

Everything here evaluates the definitions directly on assignment vectors,
without calling the library's own checkers or solvers.
"""

import math
from fractions import Fraction
from itertools import product

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
    """The recursive float evaluator that ``funcparse.compile_expression`` replaced."""
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
