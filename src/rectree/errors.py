"""Exception types raised across the package."""


class DomainError(ValueError):
    """A coordinate lies outside the half-open unit cube [0, 1)^D."""


class DepthCapError(ValueError):
    """An operation would descend past the configured maximum depth."""
