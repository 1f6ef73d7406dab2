"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Raised when tensor shapes violate an operator's contract."""


class ConfigError(ValueError):
    """Raised when a model or run configuration is internally inconsistent."""


class NonFiniteError(ArithmeticError):
    """Raised when a loss or a parameter holds NaN or infinity."""
