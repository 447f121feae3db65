"""Shared exception types, and the base of phint's read-only records."""


class ReadOnly:
    """A record whose __init__ fills the instance __dict__ once; assigning or
    deleting an attribute afterwards raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")


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
