"""Shared exception types.

Every failure mode the library reports deliberately gets its own class so
callers (and the CLI exit-code logic) can tell usage errors, numerical
trouble, and genuine theorem violations apart.
"""

from __future__ import annotations

__all__ = [
    "SqlabError",
    "DomainMismatchError",
    "SupportError",
    "GuardExceededError",
    "InfeasibleError",
    "UnboundedError",
    "NumericalError",
    "OracleMismatchError",
    "UncoverableError",
    "TheoremViolationError",
    "StreamExhaustedError",
]


class SqlabError(Exception):
    """Base class for all library errors."""


class DomainMismatchError(SqlabError):
    """Two objects that must share a finite domain do not."""


class SupportError(SqlabError):
    """A support-containment precondition is violated (e.g. infinite KL)."""


class GuardExceededError(SqlabError):
    """An exact enumeration was requested beyond its size guard."""


class InfeasibleError(SqlabError):
    """Linear program has no feasible point: an upper bound lies below the
    lower bound 0 (``lp_solve`` refuses a negative right-hand side with a
    ValueError, so x = 0 is feasible for every other program)."""


class UnboundedError(SqlabError):
    """Linear program objective is unbounded."""


class NumericalError(SqlabError):
    """An internal numerical self-check failed (duality gap, certificate)."""


class OracleMismatchError(SqlabError, ValueError):
    """An oracle session does not fit its solver: the wrong oracle kind, or a
    tolerance looser than the solver needs."""


class UncoverableError(SqlabError):
    """Some distribution admits no distinguishing query at the given radius."""

    def __init__(self, message: str, indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.indices = tuple(indices)


class TheoremViolationError(SqlabError):
    """A run contradicted a proven guarantee while all oracle answers were valid."""


class StreamExhaustedError(SqlabError):
    """The sample stream ended before the solver finished (distinct from a wrong answer)."""
