"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "DocumentError",
    "AlgebraError",
    "PreconditionError",
    "SizeGuardError",
    "SIZE_GUARD",
    "check_size",
]

# The one size budget: the most basis tuples a single request may make the
# package visit. Larger requests are refused before anything is allocated.
SIZE_GUARD = 10 ** 6


class DocumentError(ValueError):
    """A JSON input document is malformed or references out-of-range data."""


class AlgebraError(ValueError):
    """A structural requirement failed (non-associative table, bad unit, ...)."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for its inputs."""


class SizeGuardError(PreconditionError):
    """A computation was refused because it exceeds the fixed size budget."""


def check_size(what: str, count: int) -> None:
    """Refuse a request that would visit ``count`` basis tuples (``what``)."""
    if count > SIZE_GUARD:
        raise SizeGuardError(f"{what} = {count} exceeds the size guard {SIZE_GUARD}")
