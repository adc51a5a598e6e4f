"""Shared exception types and the default enumeration budget.

Exit-code mapping used by the CLI: input/format problems exit 1,
PrecisionError exits 2, a failed criterion exits 3, BudgetExceededError
exits 4.
"""


class PrecisionError(ValueError):
    """An operation demanded more known digits than the operand carries."""


DEFAULT_BUDGET = 1 << 24


class BudgetExceededError(RuntimeError):
    """A finite enumeration would exceed the configured table budget."""


class FormatError(ValueError):
    """A series or transducer document does not match its schema."""
