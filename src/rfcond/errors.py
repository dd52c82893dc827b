"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(RuntimeError):
    """A dense linear-algebra routine failed or hit a rank deficiency.

    Carries the hash of the failing matrix, when there is one, so the
    instance can be matched across logs.
    """

    def __init__(self, message, matrix_hash=None):
        super().__init__(message)
        self.matrix_hash = matrix_hash


class EnumerationBudgetError(RuntimeError):
    """Exact support enumeration would exceed the configured budget."""


class InfeasibleProblemError(RuntimeError):
    """The constraint set of an optimization problem is empty."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before certifying optimality."""

    def __init__(self, message, last_gap=None, last_feasibility=None, iterations=None):
        super().__init__(message)
        self.last_gap = last_gap
        self.last_feasibility = last_feasibility
        self.iterations = iterations


class UnsupportedTargetError(TypeError):
    """The target function lacks the structure an operation requires."""
