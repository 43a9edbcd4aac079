"""Spans and counters recorded around calls into munsc's public functions.

A `Tracer` replaces a function or method on its module or class with a
wrapper that records (name, start, end, parent) for every call, and puts the
original back on `close`. The program carries no tracing code of its own;
spans stay in memory until the run ends.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from collections import defaultdict
from typing import Callable

import numpy as np

from munsc.stream import InstrumentedStream

Hook = Callable[[tuple, dict], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.open: dict[str, int] = defaultdict(int)  # spans of each name now running
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, before: Hook | None = None, after: Hook | None = None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `before` and `after` run outside the span's clock, with the call's
        arguments, to take counts that the span itself does not hold.
        """
        original = vars(owner)[attr]

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.open[name] += 1
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.open[name] -= 1
                self.starts[idx] = t0
                self.ends[idx] = t1
                if after is not None:
                    after(args, kwargs)

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def close(self) -> None:
        """Put every wrapped function back."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> np.ndarray:
        idx = [i for i, nm in enumerate(self.names) if nm == name]
        return np.asarray([self.ends[i] - self.starts[i] for i in idx], dtype=np.float64)

    def self_time(self, name: str) -> float:
        """Total time of spans named `name` minus the time of their direct children."""
        total = float(self.durations(name).sum())
        for i, parent in enumerate(self.parents):
            if parent >= 0 and self.names[parent] == name:
                total -= self.ends[i] - self.starts[i]
        return total

    def to_json(self) -> dict:
        """Spans as columns: name index, start and end in microseconds from the
        first span's start, and parent index (-1 for none)."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        t0 = min(self.starts, default=0.0)
        return {
            "names": table,
            "name": [index[nm] for nm in self.names],
            "start_us": [round((t - t0) * 1e6) for t in self.starts],
            "end_us": [round((t - t0) * 1e6) for t in self.ends],
            "parent": self.parents,
            "counts": dict(self.counts),
        }


class TimedStream(InstrumentedStream):
    """An InstrumentedStream that stamps the clock at every read.

    `read_times[t]` is when point t was read; the benchmark stores the end of
    `run_stream` in `read_times[n]`, so `np.diff(read_times)` is the time
    spent deciding each point.
    """

    def __init__(self, order) -> None:
        super().__init__(order)
        self.read_times = np.zeros(self.n + 1)

    def read(self) -> int:
        self.read_times[self.reads] = time.perf_counter()
        return super().read()


_NOT_OWNED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def deep_size(*roots: object) -> int:
    """Bytes held by the objects reachable from `roots`, each counted once.

    Classes, modules and functions are shared program state, not data the
    roots retain, so the walk does not enter them.
    """
    seen: set[int] = set()
    stack = list(roots)
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NOT_OWNED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total
