"""Exception types raised across the package, and the one boundary that names a file."""

from contextlib import contextmanager


class DomainError(ValueError):
    """A coordinate lies outside the half-open unit cube [0, 1)^D."""


class DepthCapError(ValueError):
    """An operation would descend past the configured maximum depth."""


@contextmanager
def naming(what):
    """Refuse outside input in one line, ``WHAT: problem``; the code inside raises the problem.

    A ValueError gets the prefix (a DomainError keeps its class); a KeyError,
    TypeError or OverflowError becomes a ValueError ``WHAT: TypeName problem``.
    An OSError, which names its file, and a MemoryError pass unchanged.
    """
    try:
        yield
    except ValueError as exc:
        kind = DomainError if isinstance(exc, DomainError) else ValueError
        raise kind(f"{what}: {exc}") from None
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"{what}: {type(exc).__name__} {exc}") from None
