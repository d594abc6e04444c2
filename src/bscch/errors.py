"""Exception hierarchy shared across the package."""


class BscchError(Exception):
    """Base class for all package errors."""


class InvalidArgument(BscchError, ValueError):
    """An argument violates a documented precondition."""


class ValidationError(BscchError, ValueError):
    """A data structure violates one of its invariants."""


class SolverFailure(BscchError, RuntimeError):
    """A linear or eigenvalue solver did not converge."""


class StepFailure(SolverFailure):
    """Newton divergence or a non-finite state inside a time step."""
