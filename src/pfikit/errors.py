"""Exception hierarchy shared by the library and the CLI exit-code contract."""

from __future__ import annotations


class PfiKitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PfiKitError):
    """Bad configuration: missing files, unparseable inputs, out-of-range settings."""

    exit_code = 2


class DomainError(ConfigError, ValueError):
    """A value outside a function's mathematical domain (negative field, L <= 0, ...)."""

    exit_code = 2


class NumericalError(PfiKitError):
    """Numerical failure: an unresolved step integral, lost brackets, NaNs."""

    exit_code = 3


class FitRangeError(PfiKitError):
    """A fit or crossover target is unreachable inside the search interval.

    ``achievable`` carries the attainable (low, high) interval when known.
    """

    exit_code = 4

    def __init__(self, message: str, achievable: tuple[float, float] | None = None):
        super().__init__(message)
        self.achievable = achievable


class BracketError(FitRangeError):
    """A bracketed root-find found no sign change at the interval ends."""


class DegenerateMatrixError(PfiKitError):
    """Overlap matrix is rank-deficient or has an all-zero column.

    ``columns`` names the offending (species, charge) columns.
    """

    exit_code = 5

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = columns


class AmbiguityError(PfiKitError):
    """A query admits several answers (non-monotone inversion branches).

    ``branches`` lists the candidate (low, high) field windows.
    """

    exit_code = 5

    def __init__(self, message: str, branches: tuple[tuple[float, float], ...] = ()):
        super().__init__(message)
        self.branches = branches
