"""Exception types shared across the package.

The type is the exit code of the command line: `InvalidArgumentError` and
every subclass exit 2 (the input is at fault), `NumericalFailureError` and
every subclass exit 3 (the computation failed on a valid input).
"""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(RuntimeError):
    """A computation failed on a valid input: a dense linear-algebra routine
    failed or hit a rank deficiency, or a result is not finite."""


class EnumerationBudgetError(InvalidArgumentError):
    """Exact support enumeration would exceed the configured budget."""


class InfeasibleProblemError(NumericalFailureError):
    """The constraint set of an optimization problem is empty."""


class ConvergenceError(NumericalFailureError):
    """An iterative solver hit its iteration cap before certifying optimality."""

    def __init__(self, message, last_gap=None, last_feasibility=None, iterations=None):
        super().__init__(message)
        self.last_gap = last_gap
        self.last_feasibility = last_feasibility
        self.iterations = iterations
