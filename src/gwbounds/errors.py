"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: DomainError -> 2, ApplicabilityError -> 3.
"""


class GWError(Exception):
    """Base class for all library errors."""


class DomainError(GWError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ApplicabilityError(GWError):
    """A bound's validity condition fails for the given parameters.

    Carries the violated inequality and the numeric values of both sides so
    callers can report exactly which condition failed.
    """

    def __init__(self, condition: str, lhs: float, rhs: float):
        self.condition = condition
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"condition violated: {condition} (lhs={lhs!r}, rhs={rhs!r})")


class ConvergenceError(GWError):
    """An iterative procedure failed to converge within its iteration cap."""
