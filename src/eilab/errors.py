"""Exception hierarchy for the lab."""


class EILabError(Exception):
    """Base class for all errors raised by this package."""


class NonPositivePivot(EILabError):
    """A symmetric factorization hit a pivot that is non-positive or below
    the roundoff floor of the working precision.

    For kernel Gram matrices this signals duplicate or near-duplicate design
    points: the matrix is numerically not positive definite at the requested
    precision.
    """

    def __init__(self, message, index=None, pivot=None):
        super().__init__(message)
        self.index = index
        self.pivot = pivot


class DimensionMismatch(EILabError):
    """Operands have incompatible shapes."""


class DuplicatePoint(EILabError):
    """A design point coincides exactly with an existing one."""


def require_distinct(values, what: str) -> None:
    """Raise ``DuplicatePoint`` naming the first pair of equal ``values``.

    One pass over a dict: mpf and mpc values hash consistently with ``==``.
    """
    seen = {}
    for j, value in enumerate(values):
        i = seen.setdefault(value, j)
        if i != j:
            raise DuplicatePoint(f"{what} {i} and {j} coincide")


class VariantUnsupported(EILabError):
    """The requested operation is not defined for this kernel variant."""


class QuadratureNotConverged(EILabError):
    """Numerical integration failed to reach the requested tolerance."""


class MaximizationDiverged(EILabError):
    """The numeric Legendre maximization failed to bracket or converge."""


class EmptyGrid(EILabError):
    """No candidates remain after filtering the design points."""


class UnknownObjective(EILabError):
    """The objective name is not in the built-in registry."""


class ConfigError(EILabError):
    """A configuration file or value could not be parsed."""
