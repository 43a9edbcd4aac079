"""Instrumented random-order streams enforcing the no-substitution discipline.

A stream hands out one point at a time and refuses to reveal the next point
until a decision for the current one has been logged. Any out-of-order access
raises immediately, so a completed run is itself the proof that every decision
was made online.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractError, StreamProtocolError
from .metric import _point_ids

__all__ = ["InstrumentedStream", "StreamRecord"]


class StreamRecord(NamedTuple):
    """One logged decision: the point read at its index, and whether it was taken."""

    point: int
    selected: bool


class InstrumentedStream:
    """A permutation of [0, n) readable strictly one decision at a time.

    Decision t is byte t of one column, so a point awaits its decision exactly
    when the cursor is one past the column's end.
    """

    def __init__(self, order: Sequence[int]):
        perm = _point_ids(order)
        n = perm.size
        if n < 1:
            raise ContractError("stream must be nonempty")
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise ContractError("stream must be a permutation of range(n)")
        self._order: list[int] = perm.tolist()  # plain ints: `read` runs once per point
        self._n = n
        self._cursor = 0
        self._taken = bytearray()  # 1 if the point at that index was taken

    @property
    def n(self) -> int:
        return self._n

    @property
    def reads(self) -> int:
        return self._cursor

    def read(self) -> int:
        """Reveal the next point. Fails if the previous decision is missing."""
        t = self._cursor
        if t != len(self._taken):
            raise StreamProtocolError(f"point at index {t - 1} awaits a decision; cannot read ahead")
        if t >= self._n:
            raise StreamProtocolError("stream exhausted")
        self._cursor = t + 1
        return self._order[t]

    def log_decision(self, index: int, selected: bool) -> None:
        """Record whether the point most recently read was taken."""
        t = len(self._taken)
        if index != t or self._cursor == t:
            pending = t if self._cursor > t else None
            raise StreamProtocolError(f"decision logged for index {index} but index {pending} is pending")
        if not isinstance(selected, (bool, np.bool_)):
            raise ContractError(f"decision for index {t} must be a bool, not {type(selected).__name__}")
        self._taken.append(1 if selected else 0)

    @property
    def decision_log(self) -> list[tuple[int, StreamRecord]]:
        """(index, StreamRecord) for every logged decision, built anew on each read."""
        return [(t, StreamRecord(x, s == 1)) for t, (x, s) in enumerate(zip(self._order, self._taken))]

    @property
    def complete(self) -> bool:
        return len(self._taken) == self._n
