"""Exception types shared across the package."""


class ProfileFormatError(ValueError):
    """A profile file or text cannot be parsed or violates the format."""


class AllocationFormatError(ValueError):
    """An allocation file or text cannot be parsed."""


class AllocationMismatchError(ValueError):
    """An allocation does not structurally match the profile it is checked against."""


class EnumerationBudgetError(Exception):
    """An exhaustive scan would visit more allocations than the configured budget."""

    def __init__(self, count, budget):
        super().__init__(
            f"enumeration would visit {count} allocations, "
            f"above the budget of {budget}"
        )
        self.count = count
        self.budget = budget


class ExpressionError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text; carries the character position of the problem."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpressionEvalError(ExpressionError):
    """An enclosure left the supported domain: ``ln`` or ``sqrt`` of a value that may be at or below 0, division
    by an interval holding 0, or a ``decimal`` result beyond its exponents."""


class InvalidWelfareFunctionError(ValueError):
    """A welfare function is malformed, not proved increasing, or fails or overflows float range at a utility."""
