"""Exception types shared across the package, and the one integer and real-number rules."""

import sys

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


_FLOAT_MAX = sys.float_info.max  # `_whole`'s `high` for a count that enters float arithmetic


def _whole(value, name: str, low: int = 1, high: float = np.inf) -> int:
    """`value` as an int, for every count, size and seed argument: an int or a
    numpy integer from `low` to `high`; a bool or any float raises ContractError."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ContractError(f"{name} must be {'positive' if low == 1 else f'at least {low}'}, got {_shown(value)}")
    if value > high:
        raise ContractError(f"{name} must be at most {high:g}, got {_shown(value)}")
    return int(value)


def _shown(value) -> str:
    """An int as an error shows it: past 64 bits, its sign and length, as Python prints at most 4,300 digits."""
    bits = int(value).bit_length()
    return repr(value) if bits <= 64 else f"{'a negative' if value < 0 else 'an'} integer of {bits} bits"


def _real(value, name: str, low: float = -np.inf, high: float = np.inf, ends: str = "()") -> float:
    """`value` as a float, for every real-valued argument: an int, float or numpy
    number between `low` and `high`, each end open or closed as `ends` says ("()",
    "(]", "[)", "[]"; an infinite end is open); a bool or NaN raises ContractError."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ContractError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int past the largest float
            raise ContractError(f"{name} must be finite, got {_shown(value)}") from None
    if not ((low < value or ends[0] == "[" and value == low) and (value < high or ends[1] == "]" and value == high)):
        raise ContractError(f"{name} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}")
    return value
