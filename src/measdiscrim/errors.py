"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ValidationError(ValueError):
    """A structured value violates one of its declared invariants."""


class BranchCrossingError(DomainError):
    """A budget lies within FD_BOUNDARY of a branch end, too near for a finite difference."""
