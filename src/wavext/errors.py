"""Exception types shared across the package, and the one check of a degree or count."""

import math
import numbers


class ConfigurationError(ValueError):
    """Raised for invalid run configurations or incompatible problem data."""


class SolverFailure(RuntimeError):
    """Raised when a linear solve does not meet its residual contract."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def check_integer(name, value, low, high=math.inf):
    """value as an int, if a Python or numpy integer, not a bool, in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or not low <= value <= high:
        raise ConfigurationError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)
