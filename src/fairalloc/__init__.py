"""Exact tools for fair allocation of indivisible goods.

Welfarist solvers over exact rational utilities, envy-freeness (EF, EF1) and
Pareto-optimality checks with machine-checkable witnesses, and a lab that
tells log-affine welfare functions apart from every other increasing
function by constructing instances where their maximizers cannot be fair.
"""

from .characterization import (
    DEFAULT_CONSTANCY_GRID,
    DEFAULT_SEARCH_GRID,
    ConstancyReport,
    CounterexampleReport,
    LogFit,
    LogFitResult,
    constancy_check,
    counterexample_profile,
    extend_profile,
    find_ef1_counterexample,
    fit_log,
    scaled_difference,
)
from .errors import (
    AllocationFormatError,
    AllocationMismatchError,
    EnumerationBudgetError,
    ExpressionError,
    ExpressionEvalError,
    ExpressionSyntaxError,
    InvalidWelfareFunctionError,
    ProfileFormatError,
)
from .experiment import (
    ExperimentConfig,
    experiment_csv,
    random_profile,
    run_experiment,
)
from .fairness import (
    Ef1Verdict,
    Ef1Violation,
    EfVerdict,
    EnvyWitness,
    ParetoVerdict,
    is_ef,
    is_ef1,
    is_pareto_optimal,
)
from .funcparse import Expression, parse_expression
from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    Allocation,
    Profile,
    allocation_count,
    allocation_utilities,
    check_allocation,
    dumps_allocation,
    dumps_profile,
    loads_allocation,
    loads_profile,
)
from .welfarist import (
    Affine,
    CustomExpression,
    Exp,
    ExtendedWelfare,
    LogAffine,
    Power,
    SolveResult,
    WelfareFunction,
    allocation_welfare,
    max_nash_welfare,
    maximize_welfare,
    solve,
    welfare_function_from_spec,
    welfare_maximizers,
)

__version__ = "0.1.0"
