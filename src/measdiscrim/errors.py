"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ValidationError(ValueError):
    """A structured value violates one of its declared invariants."""


class BranchCrossingError(DomainError):
    """A finite-difference stencil straddles the curve's branch boundary."""


class SingularityError(DomainError):
    """A closed-form expression degenerates (vanishing denominator)."""
