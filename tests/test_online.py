"""The online contract, checked where the data lives: while a stream runs, no
code reads the row of a point that the stream has not yet handed out.

`watch` puts a dataset's coordinates, or its distance matrix, behind an array
whose indexing records every point id it reads and flags each one not yet
revealed. A stream reveals a point when `InstrumentedStream.read` returns it;
`psi_sandwich_frequency`, which feeds its copy directly, reveals a point when
it hands it to `observe`. Every read is counted under the copy and the phase
of the `observe` call that made it, and every phase a copy went through must
have read something, so that a path which reads the data without indexing
(`np.take`, a raw buffer) is noticed rather than passed.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import munsc.multiscale as multiscale_mod
import munsc.oracle as oracle_mod
from munsc.metric import Dataset
from munsc.multiscale import compute_schedule, run_stream
from munsc.oracle import psi_sandwich_frequency
from munsc.params import PROFILES
from munsc.select_proc import SelectProcState
from munsc.solvers import get_solver
from munsc.stream import InstrumentedStream


class _Watched(np.ndarray):
    """A dataset's storage that reports each indexing read to its guard; what
    indexing returns is a plain array, so reads of that are not reported."""

    def __getitem__(self, index):
        self.guard.saw(index)
        out = super().__getitem__(index)
        return out.view(np.ndarray) if isinstance(out, np.ndarray) else out


class OnlineGuard:
    """Storage reads of one dataset, counted per (copy, phase), and the number
    that touched a point not yet revealed."""

    def __init__(self, data: Dataset):
        self.ids = np.arange(data.n)  # indexed like the storage: any index form gives the ids it reads
        self.revealed = np.zeros(data.n, dtype=bool)
        self.axes = 1 if data.mode == "euclidean" else 2  # a matrix's columns are point ids too
        self.live = False  # reads are checked only while live
        self.where: tuple[int, int] | None = None
        self.calls: Counter = Counter()  # observe calls per (copy, phase)
        self.reads: Counter = Counter()  # storage reads per (copy, phase); None outside observe
        self.flagged = 0
        self.copies: dict[int, tuple[int, SelectProcState]] = {}  # holds each state, so no id is reused
        name = "_coords" if data.mode == "euclidean" else "_matrix"
        watched = getattr(data, name).view(_Watched)
        watched.guard = self
        setattr(data, name, watched)

    def saw(self, index) -> None:
        if not self.live:
            return
        for part in (index if isinstance(index, tuple) else (index,))[: self.axes]:
            self.flagged += int(np.count_nonzero(~self.revealed[self.ids[part]]))
        self.reads[self.where] += 1

    def observing(self, observe, reveal: bool):
        """`observe`, with its reads counted under the copy and phase of the call.
        With `reveal`, each call hands out its point, and a copy's first call
        starts a new stream."""

        def watched(state: SelectProcState, x: int) -> bool:
            copy = self.copies.setdefault(id(state), (len(self.copies), state))[0]
            c, idx = state.config, state.count
            phase = 1 if idx < c.p1_end else 2 if idx < c.p2_end else 3
            if reveal:
                if idx == 0:
                    self.revealed[:] = False
                self.revealed[x] = True
            self.calls[copy, phase] += 1
            outer = self.where, self.live
            self.where, self.live = (copy, phase), True
            try:
                return observe(state, x)
            finally:
                self.where, self.live = outer

        return watched

    def check(self) -> None:
        assert self.flagged == 0, f"{self.flagged} storage reads touched unrevealed points"
        for copy, phase in self.calls:
            assert self.reads[copy, phase] > 0, f"copy {copy + 1} read nothing through indexing in phase {phase}"


def blobs(seed: int, n: int, dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """n points around k means drawn at scale 20, and a stream order (as in `test_golden`)."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=20.0, size=(k, dim))
    x = means[rng.integers(0, k, size=n)] + rng.normal(size=(n, dim))
    return x, rng.permutation(n)


def dataset(x: np.ndarray, mode: str) -> Dataset:
    data = Dataset.from_coords(x)
    return data if mode == "euclidean" else Dataset.from_matrix(data.pairwise(range(data.n), range(data.n)))


@pytest.fixture
def watch(monkeypatch):
    """`watch(data)` returns the OnlineGuard of `data`; streams read through
    `InstrumentedStream.read` reveal their points, and the copies of
    `run_stream` and `psi_sandwich_frequency` count their reads."""
    guards: list[OnlineGuard] = []
    read = InstrumentedStream.read

    def revealing(stream: InstrumentedStream) -> int:
        x = read(stream)
        for guard in guards:
            guard.revealed[x] = True
        return x

    def watch(data: Dataset) -> OnlineGuard:
        guard = OnlineGuard(data)
        guards.append(guard)
        monkeypatch.setattr(multiscale_mod, "observe", guard.observing(multiscale_mod.observe, reveal=False))
        monkeypatch.setattr(oracle_mod, "observe", guard.observing(oracle_mod.observe, reveal=True))
        return guard

    monkeypatch.setattr(InstrumentedStream, "read", revealing)
    return watch


def watched_run(watch, seed: int, n: int, dim: int, k: int, mode: str) -> OnlineGuard:
    """One `run_stream` over watched blobs, checked live from its first read to its last."""
    x, perm = blobs(seed, n, dim, k)
    data = dataset(x, mode)
    schedule = compute_schedule(k, 0.2, n, PROFILES["desk"])
    guard = watch(data)
    guard.live = True
    run_stream(InstrumentedStream(perm), schedule, data, get_solver("local-search", max_iters=20))
    guard.live = False
    expected = {
        (i, phase)
        for i, c in enumerate(schedule.copies)
        for phase, (lo, hi) in enumerate([(0, c.p1_end), (c.p1_end, c.p2_end), (c.p2_end, c.p3_end)], 1)
        if lo < hi
    }
    assert set(guard.calls) == expected
    return guard


# the streams of `test_golden.test_run_stream`, whose 2-d and matrix runs take the
# loop and gather lookups, and a 64-d run
@pytest.mark.parametrize(
    "seed, n, dim, k, mode",
    [
        (1, 3000, 2, 2, "euclidean"),
        (2, 2500, 16, 3, "euclidean"),
        (17, 3000, 1, 2, "euclidean"),
        (18, 1500, 2, 2, "matrix"),
        (7, 2000, 64, 2, "euclidean"),
    ],
    ids=["2d", "16d", "1d", "matrix", "64d"],
)
def test_run_stream_reads_only_revealed_points(watch, seed, n, dim, k, mode):
    watched_run(watch, seed, n, dim, k, mode).check()


@pytest.mark.parametrize("mode", ["euclidean", "matrix"])
def test_psi_sandwich_reads_only_revealed_points(watch, mode):
    data = dataset(blobs(3, 600, 2, 2)[0], mode)
    guard = watch(data)
    psi_sandwich_frequency(data, 2, 0.2, 0.1, 3, 0)
    assert {phase for _, phase in guard.calls} == {1, 2}
    assert len(guard.copies) == 3
    guard.check()


@pytest.mark.parametrize("mode", ["euclidean", "matrix"])
def test_a_lookup_that_peeks_ahead_is_caught(watch, monkeypatch, mode):
    """Mutation: each lookup also reads the row of the next stream point."""
    seed, n, dim, k = 1, 1200, 2, 2
    order = blobs(seed, n, dim, k)[1].tolist()
    at = {x: t for t, x in enumerate(order)}
    finish_phase1 = SelectProcState._finish_phase1

    def peeking(state: SelectProcState) -> None:
        finish_phase1(state)
        lookup = state._nearest_ref
        storage = state.data.coords if state.data.mode == "euclidean" else state.data.matrix

        def peek(x: int):
            t = at[x] + 1
            if t < n:
                storage[order[t]]
            return lookup(x)

        state._nearest_ref = peek

    monkeypatch.setattr(SelectProcState, "_finish_phase1", peeking)
    guard = watched_run(watch, seed, n, dim, k, mode)
    assert guard.flagged > 0
    with pytest.raises(AssertionError, match="unrevealed"):
        guard.check()
