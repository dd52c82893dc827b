"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(RuntimeError):
    """A dense linear-algebra routine failed or hit a rank deficiency."""


class EnumerationBudgetError(RuntimeError):
    """Exact support enumeration would exceed the configured budget.  `overrun`
    says by how much; the message adds the library's remedy."""

    def __init__(self, overrun: str):
        super().__init__(f"{overrun}; use rip_constant_lower_mc for a randomized lower bound")
        self.overrun = overrun


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
