"""Shared exception types and the default search budget.

The CLI maps these onto its exit-code taxonomy: DomainError (and its
ParseError subclass) -> 1, ConsistencyError -> 2, BudgetError -> 3.
"""

DEFAULT_BUDGET = 10_000_000  # every search's and enumeration's default cap


class DomainError(ValueError):
    """A precondition on mathematical input was violated."""


class ParseError(DomainError):
    """Malformed serialized input (carries positional context in the message)."""


class BudgetError(RuntimeError):
    """A configured search/enumeration budget was exhausted."""


class ConsistencyError(RuntimeError):
    """Two computations that must agree did not (signals corrupt input or a bug)."""
