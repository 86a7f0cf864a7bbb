"""Exception types shared across the package."""


class ConfigurationError(Exception):
    """Raised for invalid run configurations or incompatible problem data."""


class SolverFailure(RuntimeError):
    """Raised when a linear solve does not meet its residual contract."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
