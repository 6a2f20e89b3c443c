"""Exception types shared across the package."""


class CrackDsmError(Exception):
    """Base class for all package errors."""


class DomainError(CrackDsmError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class SceneError(CrackDsmError, ValueError):
    """Invalid crack geometry or a hard scene-validation failure."""


class InputMismatchError(CrackDsmError, ValueError):
    """Incompatible shapes, grids, or direction sets."""


class SolverError(CrackDsmError, RuntimeError):
    """Discrete boundary system is singular or too ill-conditioned to trust."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate
