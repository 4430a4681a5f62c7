"""Exception types shared across the package.

Every failure path maps to exactly one of these; the CLI translates them
into its documented exit categories.
"""


class GevreyEvolveError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GevreyEvolveError):
    """Invalid configuration value or combination (CLI category: config)."""


class ShapeError(GevreyEvolveError):
    """Array shapes or grids do not match."""


class EvaluationError(GevreyEvolveError):
    """A symbol evaluator produced non-finite values."""


class ParameterError(GevreyEvolveError):
    """Weight/conjugator parameters out of their admissible range."""


class ReleasedError(GevreyEvolveError):
    """A table is read after its holder released it (a run drops the
    accepted assembler's tables once its solve no longer reads them)."""


class ConvergenceError(GevreyEvolveError):
    """An iterative construction (Neumann series, quadrature) did not converge."""


class InfeasibleError(GevreyEvolveError):
    """Automatic parameter selection exhausted its search; ``history`` holds
    each trial's h and reason (CLI category: infeasible-parameters)."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class InstabilityError(GevreyEvolveError):
    """Time integration blew up (CLI category: instability)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class DataError(GevreyEvolveError):
    """Input data violates a precondition (radius, band occupancy, ...)."""
