"""Instrumented random-order streams enforcing the no-substitution discipline.

A stream hands out one point at a time and refuses to reveal the next point
until a decision for the current one has been logged. Any out-of-order access
raises immediately, so a completed run is itself the proof that every decision
was made online.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractError, StreamProtocolError
from .metric import _point_ids

__all__ = ["InstrumentedStream"]


class InstrumentedStream:
    """A permutation of [0, n) readable strictly one decision at a time."""

    def __init__(self, order: Sequence[int]):
        perm = _point_ids(order)
        n = perm.size
        if n < 1:
            raise ContractError("stream must be nonempty")
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise ContractError("stream must be a permutation of range(n)")
        self._order: list[int] = perm.tolist()  # plain ints: `read` runs once per point
        self._n = n
        self._pending: int | None = None
        self._cursor = 0
        self.decision_log: list[tuple[int, object]] = []

    @property
    def n(self) -> int:
        return self._n

    @property
    def reads(self) -> int:
        return self._cursor

    def read(self) -> int:
        """Reveal the next point. Fails if the previous decision is missing."""
        if self._pending is not None:
            raise StreamProtocolError(
                f"point at index {self._pending} awaits a decision; cannot read ahead"
            )
        t = self._cursor
        if t >= self._n:
            raise StreamProtocolError("stream exhausted")
        self._pending = t
        self._cursor = t + 1
        return self._order[t]

    def log_decision(self, index: int, decision: object) -> None:
        """Record the decision for the point most recently read."""
        if self._pending is None or index != self._pending:
            raise StreamProtocolError(
                f"decision logged for index {index} but index {self._pending} is pending"
            )
        self.decision_log.append((index, decision))
        self._pending = None

    @property
    def complete(self) -> bool:
        return self._pending is None and self._cursor == self.n
