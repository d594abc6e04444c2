"""Exception hierarchy shared across the package."""


class BscchError(Exception):
    """Base class for all package errors."""


class InvalidArgument(BscchError, ValueError):
    """An argument violates a documented precondition."""


class ValidationError(BscchError, ValueError):
    """A data structure violates one of its invariants."""


class MeshParseError(ValidationError):
    """Malformed mesh file. Carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SolverFailure(BscchError, RuntimeError):
    """A linear or eigenvalue solver did not converge."""


class StepFailure(SolverFailure):
    """Newton divergence or a non-finite state inside a time step."""
