"""Reference computations for the benchmark, written from the definitions.

Nothing here imports from ``src/`` or ``tests/``.  A profile is given as rows
of nonnegative rationals (ints, ``Fraction``s or ``"p/q"`` strings), one row
per agent; an assignment is a tuple naming each good's agent.  Every scan
walks the allocations in lexicographic order of the assignment vector, good 0
most significant, so "first" always means lexicographically smallest.

The ``check_*`` functions compare an answer of the program with these
references and return a list of problems (empty when the answer is right).
:func:`self_test` feeds each of them a deliberately wrong answer and fails
unless every one is rejected.
"""

import math
from fractions import Fraction
from itertools import product

import mpmath

_MP = mpmath.MPContext()
_MP.dps = 60

#: Two high-precision welfare values closer than this (relative) are a tie.
#: At these magnitudes (utilities below 200, at most 4 agents) distinct sums
#: of square roots or logarithms differ by far more than 1e-40.
PRECISE_TIE = _MP.mpf(10) ** -40

#: Rational-valued welfare functions, evaluated exactly on Fractions.
EXACT_FUNCTIONS = {
    "affine:1,0": lambda x: x,
    "power:2": lambda x: x * x,
    "expr:x^2+x": lambda x: x * x + x,
}

#: Irrational welfare functions, evaluated at 60 significant digits.
PRECISE_FUNCTIONS = {
    "power:1/2": lambda x: _MP.sqrt(x),
    "expr:ln(x+1)": lambda x: _MP.log(x + 1),
}


class Table:
    """One profile, scaled to integers by one common factor.

    A single factor (the LCM of every denominator) keeps each agent's
    comparisons and the ordering of Nash products among allocations with the
    same number of positive agents.  The full enumeration is built on first
    use and cached, as are first dominators.
    """

    def __init__(self, rows):
        values = [[Fraction(v) for v in row] for row in rows]
        self.n, self.m = len(values), len(values[0])
        self.scale = math.lcm(1, *(v.denominator for row in values for v in row))
        self.rows = [[int(v * self.scale) for v in row] for row in values]
        self._assignments = None
        self._vectors = None
        self._dominators = {}
        self._maximizers = {}

    def utilities(self, assignment):
        """Each agent's scaled integer utility for its own bundle."""
        totals = [0] * self.n
        for good, agent in enumerate(assignment):
            totals[agent] += self.rows[agent][good]
        return tuple(totals)

    def _enumerate(self):
        if self._assignments is None:
            self._assignments = list(product(range(self.n), repeat=self.m))
            self._vectors = [self.utilities(a) for a in self._assignments]
        return self._assignments, self._vectors

    # ----- Nash welfare -------------------------------------------------

    def mnw(self):
        """(key, ties, first): key = (agents with positive utility, product of
        their scaled utilities); ties counts allocations with that key."""
        assignments, vectors = self._enumerate()
        best, ties, first = None, 0, None
        for assignment, vector in zip(assignments, vectors):
            positive = [u for u in vector if u > 0]
            key = (len(positive), math.prod(positive))
            if best is None or key > best:
                best, ties, first = key, 1, assignment
            elif key == best:
                ties += 1
        return best, ties, first

    # ----- Utilitarian welfare, closed form ------------------------------

    def utilitarian(self):
        """(total, ties, first): sum over goods of the best agent's value,
        the product of the argmax sizes, and the smallest-agent argmax."""
        total, ties, first = 0, 1, []
        for good in range(self.m):
            column = [self.rows[i][good] for i in range(self.n)]
            top = max(column)
            winners = [i for i, u in enumerate(column) if u == top]
            total += top
            ties *= len(winners)
            first.append(winners[0])
        return Fraction(total, self.scale), ties, tuple(first)

    # ----- General welfare functions ------------------------------------

    def maximizers(self, spec):
        """Every maximizer of sum_i f(u_i) for a spec in EXACT_FUNCTIONS or
        PRECISE_FUNCTIONS, in lexicographic order."""
        return self._maximize(spec)[1]

    def best(self, spec):
        """The maximum of sum_i f(u_i)."""
        return self._maximize(spec)[0]

    def _maximize(self, spec):
        if spec in self._maximizers:
            return self._maximizers[spec]
        if spec in EXACT_FUNCTIONS:
            f = EXACT_FUNCTIONS[spec]
            value = lambda u: f(Fraction(u, self.scale))  # noqa: E731
            near = lambda w, best: w == best  # noqa: E731
        else:
            f = PRECISE_FUNCTIONS[spec]
            value = lambda u: f(_MP.mpf(u) / self.scale)  # noqa: E731
            near = lambda w, best: abs(w - best) <= PRECISE_TIE * max(1, abs(best))  # noqa: E731
        memo = {}

        def term(u):
            if u not in memo:
                memo[u] = value(u)
            return memo[u]

        assignments, vectors = self._enumerate()
        welfare = [sum(term(u) for u in vector) for vector in vectors]
        best = max(welfare)
        found = [a for a, w in zip(assignments, welfare) if near(w, best)]
        self._maximizers[spec] = best, found
        return best, found

    # ----- Fairness and efficiency, from the definitions -----------------

    def bundle_value(self, agent, assignment, owner):
        return sum(self.rows[agent][g] for g, a in enumerate(assignment) if a == owner)

    def envy_free(self, assignment):
        return all(
            self.bundle_value(i, assignment, i) >= self.bundle_value(i, assignment, j)
            for i in range(self.n)
            for j in range(self.n)
        )

    def envy_free_up_to_one(self, assignment):
        for i in range(self.n):
            own = self.bundle_value(i, assignment, i)
            for j in range(self.n):
                goods = [g for g, a in enumerate(assignment) if a == j]
                if i == j or not goods:
                    continue
                envied = sum(self.rows[i][g] for g in goods)
                if not any(own >= envied - self.rows[i][g] for g in goods):
                    return False
        return True

    def first_dominator(self, assignment):
        """The first allocation that Pareto-dominates ``assignment``, or None."""
        assignment = tuple(assignment)
        if assignment not in self._dominators:
            current = self.utilities(assignment)
            found = None
            for candidate, vector in zip(*self._enumerate()):
                if dominates(vector, current):
                    found = candidate
                    break
            self._dominators[assignment] = found
        return self._dominators[assignment]


def dominates(u, v):
    """u weakly improves every coordinate of v and strictly improves one."""
    return all(a >= b for a, b in zip(u, v)) and any(a > b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# Checks of the program's answers.
# ---------------------------------------------------------------------------


def check_mnw(table, assignment, ties, first=True):
    """An MNW answer: exact key, exact tie count, EF1, PO and, with
    ``first``, the first maximizer.  Float log-welfare solvers may return any
    of the exact ties, so they are checked with ``first=False``."""
    assignment = tuple(assignment)
    key, want_ties, lex_first = table.mnw()
    problems = []
    positive = [u for u in table.utilities(assignment) if u > 0]
    if (len(positive), math.prod(positive)) != key:
        problems.append(f"MNW key of {assignment} is not the maximum {key}")
    if ties != want_ties:
        problems.append(f"MNW tie count {ties}, brute force {want_ties}")
    if first and assignment != lex_first:
        problems.append(f"MNW answer {assignment} is not the first maximizer {lex_first}")
    if not table.envy_free_up_to_one(assignment):
        problems.append(f"MNW answer {assignment} is not EF1")
    if table.first_dominator(assignment) is not None:
        problems.append(f"MNW answer {assignment} is not Pareto optimal")
    return problems


def check_utilitarian(table, assignment, ties):
    """A utilitarian answer against the closed form."""
    assignment = tuple(assignment)
    total, want_ties, first = table.utilitarian()
    problems = []
    if Fraction(sum(table.utilities(assignment)), table.scale) != total:
        problems.append(f"utilitarian total of {assignment} is not {total}")
    if ties != want_ties:
        problems.append(f"utilitarian tie count {ties}, closed form {want_ties}")
    if assignment != first:
        problems.append(f"utilitarian answer {assignment} is not the first optimum {first}")
    return problems


def check_maximizer(table, spec, assignment, ties):
    """A welfare-maximizing answer for ``spec``.

    The answer must be a maximizer and the tie count exact.  For rational
    ``f`` the answer must also be the first maximizer; for irrational ``f``
    the program picks the float maximum, which among exact ties may be any.
    """
    assignment = tuple(assignment)
    found = table.maximizers(spec)
    problems = []
    if assignment not in found:
        problems.append(f"{spec}: {assignment} is not a maximizer")
    if ties != len(found):
        problems.append(f"{spec}: tie count {ties}, brute force {len(found)}")
    if spec in EXACT_FUNCTIONS and found and assignment != found[0]:
        problems.append(f"{spec}: {assignment} is not the first maximizer {found[0]}")
    return problems


def check_maximizer_set(table, spec, assignments):
    """The full maximizer set, in lexicographic order."""
    found = table.maximizers(spec)
    if list(map(tuple, assignments)) != found:
        return [f"{spec}: maximizer set of {len(assignments)} differs from brute force ({len(found)})"]
    return []


def check_pareto(table, assignment, optimal, dominator):
    """A Pareto verdict: the first dominator, or none when optimal."""
    want = table.first_dominator(assignment)
    if optimal:
        return [] if want is None else [f"{tuple(assignment)} called optimal, dominated by {want}"]
    if dominator is None:
        return [f"{tuple(assignment)} called dominated without a dominator"]
    dominator = tuple(dominator)
    problems = []
    if not dominates(table.utilities(dominator), table.utilities(assignment)):
        problems.append(f"{dominator} does not dominate {tuple(assignment)}")
    if dominator != want:
        problems.append(f"dominator {dominator} is not the first one, {want}")
    return problems


def check_flags(table, assignment, ef1=None, ef=None, po=None):
    """EF1, EF and PO verdicts of one allocation (None skips a property)."""
    problems = []
    if ef1 is not None and ef1 != table.envy_free_up_to_one(assignment):
        problems.append(f"EF1 verdict {ef1} wrong for {tuple(assignment)}")
    if ef is not None and ef != table.envy_free(assignment):
        problems.append(f"EF verdict {ef} wrong for {tuple(assignment)}")
    if po is not None and po != (table.first_dominator(assignment) is None):
        problems.append(f"PO verdict {po} wrong for {tuple(assignment)}")
    return problems


def check_counterexample(table, spec, assignment, ties):
    """A counterexample profile: the answer is a maximizer with the right tie
    count, and every maximizer fails EF1."""
    problems = check_maximizer(table, spec, assignment, ties)
    passing = [a for a in table.maximizers(spec) if table.envy_free_up_to_one(a)]
    if passing:
        problems.append(f"{spec}: maximizer {passing[0]} passes EF1")
    return problems


def check_log_fit(fit, a, b):
    """A log-affine fit: slope within 2% and intercept exact."""
    if fit is None:
        return [f"no log-affine fit, expected a={a} b={b}"]
    fit_a, fit_b = fit
    problems = []
    if not abs(fit_a - a) <= 0.02 * a:
        problems.append(f"fitted slope {fit_a}, true slope {a}")
    if fit_b != b:
        problems.append(f"fitted intercept {fit_b}, true intercept {b}")
    return problems


def self_test():
    """Show that every check rejects a wrong answer and accepts the right one.

    Returns a list of problems; empty when every check behaves.
    """
    table = Table([[3, 1, 2, 0], [1, 3, 2, 2]])
    _, mnw_ties, mnw_first = table.mnw()
    _, util_ties, util_first = table.utilitarian()
    swapped = tuple(1 - a for a in mnw_first)
    dominated = (1, 0, 0, 0)  # every good to the agent who values it less
    dominator = table.first_dominator(dominated)
    power = table.maximizers("power:2")
    root = table.maximizers("power:1/2")
    tied = table.maximizers("affine:1,0")
    counter = Table([[0, 1, 1], ["3/8", "1/2", "1/2"]])
    counter_max = counter.maximizers("affine:1,0")
    # (name, check, a right answer or None, wrong answers); each answer is
    # the tuple of arguments passed to the check
    cases = [
        ("MNW", lambda s, t: check_mnw(table, s, t),
         (mnw_first, mnw_ties), [(swapped, mnw_ties), (mnw_first, mnw_ties + 1)]),
        ("utilitarian", lambda s, t: check_utilitarian(table, s, t),
         (util_first, util_ties), [(swapped, util_ties), (util_first, util_ties + 1)]),
        ("exact maximizer", lambda s, t: check_maximizer(table, "power:2", s, t),
         (power[0], len(power)), [(swapped, len(power)), (power[0], len(power) + 1)]),
        ("precise maximizer", lambda s, t: check_maximizer(table, "power:1/2", s, t),
         (root[0], len(root)), [(dominated, len(root)), (root[0], len(root) + 1)]),
        ("maximizer set", lambda s: check_maximizer_set(table, "affine:1,0", s),
         (tied,), [(tied[::-1],), (tied[:1],), (tied + [swapped],)]),
        ("Pareto verdict", lambda s, d: check_pareto(table, dominated, s, d),
         (False, dominator), [(True, None), (False, mnw_first), (False, (1, 1, 1, 1))]),
        ("flags", lambda s, f: check_flags(table, s, **f),
         (mnw_first, {"ef1": True, "po": True}),
         [(dominated, {"po": True}), (dominated, {"ef1": True}), (mnw_first, {"ef": not table.envy_free(mnw_first)})]),
        ("counterexample", lambda s, t: check_counterexample(counter, "affine:1,0", s, t),
         (counter_max[0], len(counter_max)), [(counter_max[0], len(counter_max) + 1)]),
        ("counterexample profile", lambda s, t: check_counterexample(table, "affine:1,0", s, t),
         None, [(util_first, util_ties)]),
        ("log fit", check_log_fit,
         ((0.99, 2.0), 1.0, 2.0), [((0.9, 2.0), 1.0, 2.0), ((1.0, 2.5), 1.0, 2.0), (None, 1.0, 2.0)]),
    ]
    problems = []
    for name, check, right, wrongs in cases:
        if right is not None and check(*right):
            problems.append(f"{name} check rejects a right answer: {check(*right)}")
        for wrong in wrongs:
            if not check(*wrong):
                problems.append(f"{name} check accepts the wrong answer {wrong}")
    return problems


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print(line)
    print("oracle self-test:", "FAILED" if failures else "every check rejects its wrong answers")
    raise SystemExit(1 if failures else 0)
