"""Shared exception types."""


class SchemeConstructionError(ValueError):
    """A collocation scheme failed one of its construction-time checks."""


class ConfigurationError(ValueError):
    """Inconsistent run configuration (bad step size, unknown names, ...)."""


class SolverDivergenceError(RuntimeError):
    """Newton iteration on the stage equations did not converge."""

    def __init__(self, message, residual=None, step_index=None):
        super().__init__(message)
        self.residual = residual
        self.step_index = step_index
