"""Exception types shared across the package, and the one integer rule."""

import numpy as np


class MunscError(Exception):
    """Base class for all library errors."""


class ContractError(MunscError, ValueError):
    """An API precondition was violated by the caller."""


class BudgetExceededError(MunscError):
    """Exhaustive enumeration would exceed the combinatorial budget."""


class PremiseError(MunscError):
    """A checker was invoked on inputs that violate its stated premise."""


class InfeasibleBinDivisionError(MunscError):
    """No integer bin layout can satisfy all four division constraints."""


class StreamProtocolError(MunscError):
    """The one-point-at-a-time stream discipline was broken."""


def _whole(value, name: str, low: int = 1) -> int:
    """`value` as an int, for every count, size and seed argument: an int or a
    numpy integer of at least `low`; a bool or any float raises ContractError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ContractError(f"{name} must be {'positive' if low == 1 else f'at least {low}'}, got {value!r}")
    return int(value)
