"""Exception hierarchy shared by all modules, and the argument checks that
raise DomainError.

The CLI maps these onto exit codes: DomainError -> 2, ApplicabilityError -> 3.
"""

import math


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


def require_count(name: str, n, least: int = 0) -> None:
    """Raise DomainError unless n is an integer (a type with __index__, as
    operator.index takes) and n >= least."""
    if not (hasattr(type(n), "__index__") and n >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")


def require_positive(name: str, x: float) -> None:
    """Raise DomainError unless x is finite and > 0."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {x!r}")


def require_invertible(name: str, x: float) -> None:
    """Raise DomainError unless x is finite and > 0 and 1/x is finite too."""
    require_positive(name, x)
    if 1.0 / x == math.inf:
        raise DomainError(f"1/{name} overflows, got {name}={x!r}")
