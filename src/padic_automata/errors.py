"""Shared exception types, the default enumeration budget and its gate.

The CLI maps each exception type to its exit code in ``cli.EXIT_CODE``.
"""

from collections.abc import Sized


class PrecisionError(ValueError):
    """An operation demanded more known digits than the operand carries."""


DEFAULT_BUDGET = 1 << 24


class BudgetExceededError(RuntimeError):
    """A finite enumeration would exceed the configured table budget."""


class FormatError(ValueError):
    """A series or transducer document does not match its schema."""


def check_budget(work: int, budget: int, what: str) -> None:
    """Raise :class:`BudgetExceededError` when ``work`` units of ``what``
    exceed ``budget``; callers gate before the first unit is done."""
    if work > budget:
        raise BudgetExceededError(f"{work} {what} exceed the budget {budget}")


def family_size(states: Sized) -> int:
    """len(states), exact also past sys.maxsize, where len() of a range overflows."""
    try:
        return len(states)
    except OverflowError:
        # ceil((stop - start) / step); only a range gets this long
        return -((states.start - states.stop) // states.step)
