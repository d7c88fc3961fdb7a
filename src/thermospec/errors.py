"""Exception types shared across the package."""


class ThermospecError(Exception):
    """Base class for all package errors."""


class ModelError(ThermospecError):
    """Malformed or infeasible branch-system definition."""


class InfeasibleModelError(ModelError):
    """Branch diameters cannot be packed into the unit interval."""


class InvalidWordError(ThermospecError):
    """Word contains indices with no corresponding branch."""


class UnderdeterminedWordError(ThermospecError):
    """Word is shorter than the potential's dependence length."""


class UndeterminedError(ThermospecError):
    """Quantity cannot be decided from the available tail information."""


class BudgetExceededError(ThermospecError):
    """Enumeration budget exhausted.

    ``partial`` carries whatever result object was completed before the
    budget ran out (may be None).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class BracketError(ThermospecError):
    """Root bracket does not straddle a sign change."""


class InvalidMeasureError(ThermospecError):
    """Cylinder-measure weights are not a probability vector."""


class InfeasibleConstraintsError(ThermospecError):
    """Moment constraints admit no measure at the given truncation.

    ``direction`` d, |d|_1 = 1, has d.m <= d.c - w.|d| - ``distance`` for
    every word's moments m (box centres c, half-widths w), so all weights
    miss some box by at least ``distance``."""

    def __init__(self, message, direction=None, distance=None):
        super().__init__(message)
        self.direction = direction
        self.distance = distance


class UnsupportedPotentialError(ThermospecError):
    """Operation is restricted to bounded level-1 potentials."""
