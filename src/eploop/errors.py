"""Error types shared across the package.

Two families matter to callers: ConfigError (bad request, CLI exit code 2)
and NumericalGuardError (a numerical precondition tripped, CLI exit code 3).
"""


class EploopError(Exception):
    """Base class for all package errors."""


class ConfigError(EploopError):
    """Invalid run configuration or CLI arguments."""


class NumericalGuardError(EploopError):
    """Base class for numerical-precondition failures."""


class SingularMatrix(NumericalGuardError):
    """Matrix determinant below the singularity threshold."""


class TooCloseToEP(NumericalGuardError):
    """Parameters too close to the exceptional point for eigenvector math."""


class NoBracket(NumericalGuardError):
    """Root search box does not bracket a sign change."""


class IllConditioned(NumericalGuardError):
    """Linear inversion outside its residual or trace bound; stacked calls set `row`, the failing row or table."""


class ConventionMismatch(NumericalGuardError):
    """Computed operator differs from its reference beyond gauge freedom."""


class DomainError(NumericalGuardError):
    """Argument outside the mathematical domain of the operation."""
