"""Exception types shared across the package."""


class BillzetaError(Exception):
    """Base class for all billzeta errors."""


class ValidationError(BillzetaError):
    """A precondition on user input was violated."""


class ConfigError(ValidationError):
    """Invalid run configuration; collects every violation found in one pass."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class FactorizationError(BillzetaError):
    """Overlap matrix factorization failed (not positive definite)."""


class NumericalError(BillzetaError):
    """An internal numerical invariant was violated."""


class InsufficientDataError(BillzetaError):
    """Not enough usable data points for a fit."""
