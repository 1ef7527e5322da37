"""Shared exception types.

The CLI maps these onto exit codes: input problems -> 1, resource budgets
-> 2, internal invariant violations (a bug, e.g. d∘d != 0) -> 3.
"""


class SpencerlabError(Exception):
    """Base class for all user-facing errors (exit code 1)."""


class ParseError(SpencerlabError):
    """Syntax error in a polynomial or scene file; carries a position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class SceneError(SpencerlabError):
    """Invalid scene data (inhomogeneous generator, bad weights, ...)."""


class BudgetExceeded(SpencerlabError):
    """The Groebner pair budget ran out."""


class InternalInvariantError(AssertionError):
    """An exact structural identity failed; indicates a construction bug."""
