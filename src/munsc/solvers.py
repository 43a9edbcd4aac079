"""Offline k-median solvers fulfilling the black-box approximation contract.

Both solvers return at most k centers drawn from their input set. The
exhaustive solver is a true minimizer guarded by a combinatorial budget; the
single-swap local search is the default black box with a declared factor of
beta = 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterable

import numpy as np

from .errors import BudgetExceededError, ContractError
from .metric import _CHUNK_CELLS, CenterSet, Dataset, as_id_array

__all__ = [
    "Solver",
    "solve_exhaustive",
    "solve_local_search",
    "exhaustive_solver",
    "local_search_solver",
    "get_solver",
    "SOLVER_NAMES",
    "EXHAUSTIVE_BUDGET",
]

EXHAUSTIVE_BUDGET = 1_000_000

# Matrix-backed local search up to this many input points; above it, swap
# sweeps recompute distance columns in chunks to bound memory.
_MATRIX_LIMIT = 4096


@dataclass(frozen=True)
class Solver:
    """A named offline k-median algorithm with a declared approximation factor."""

    name: str
    beta: float
    _fn: Callable[[np.ndarray, int, Dataset], CenterSet] = field(repr=False)

    def solve(self, points: Iterable[int], k: int, data: Dataset) -> CenterSet:
        ids = as_id_array(points)
        if ids.size == 0:
            raise ContractError("solver input must be nonempty")
        if k < 1:
            raise ContractError("k must be positive")
        out = self._fn(ids, k, data)
        if not set(out.ids) <= set(int(i) for i in ids):
            raise ContractError("solver returned centers outside its input set")
        if k < ids.size and len(out) > k:
            raise ContractError("solver returned more centers than requested")
        return out


def solve_exhaustive(points: Iterable[int], k: int, data: Dataset) -> CenterSet:
    """True minimizer over all <=k-subsets of the input.

    Returns the lexicographically first subset (in ascending id order) whose
    `risk()` over the input is minimal, bit for bit: each candidate's risk is
    summed exactly as `risk()` sums it, one contiguous row of distances in
    ascending id order. Raises BudgetExceededError when C(|S|, k) exceeds the
    enumeration budget.
    """
    ids = as_id_array(points)
    if ids.size == 0:
        raise ContractError("input set must be nonempty")
    if k < 1:
        raise ContractError("k must be positive")
    m = ids.size
    if k >= m:
        return CenterSet.of(ids)
    if comb(m, k) > EXHAUSTIVE_BUDGET:
        raise BudgetExceededError(
            f"C({m},{k}) = {comb(m, k)} exceeds the budget of {EXHAUSTIVE_BUDGET}; "
            "use the local-search solver"
        )

    if k == 1:
        # Row sums of row blocks, without materializing the full matrix.
        best_risk = np.inf
        best_pos = 0
        step = max(1, _CHUNK_CELLS // m)
        for lo in range(0, m, step):
            sums = data.pairwise(ids[lo : lo + step], ids).sum(axis=1)
            pos = int(np.argmin(sums))
            if sums[pos] < best_risk:
                best_risk = float(sums[pos])
                best_pos = lo + pos
        return CenterSet.of([int(ids[best_pos])])

    # rows[c] holds every point's distance to candidate c, contiguously
    rows = np.ascontiguousarray(data.pairwise(ids, ids).T)
    _, best = _best_completion(rows, None, 0, k)
    return CenterSet.of(int(ids[p]) for p in best)


def _best_completion(
    rows: np.ndarray, prefix_min: np.ndarray | None, start: int, r: int
) -> tuple[float, tuple[int, ...]]:
    """First minimum, in lexicographic order, over every way to complete a
    prefix of centers with r more positions from range(start, m).

    `prefix_min` is the elementwise minimum of the prefix's rows (None for the
    empty prefix). Returns the risk and the added positions. A node whose
    completions fit the chunk budget is enumerated in one batch; a larger one
    recurses into its children in lexicographic order, keeping the first
    strict minimum.
    """
    m = rows.shape[0]
    if r == 1 or comb(m - start, r) * m <= _CHUNK_CELLS:
        return _batch_best(rows, prefix_min, start, r)
    best_risk = np.inf
    best: tuple[int, ...] = ()
    for p in range(start, m - r + 1):
        row = rows[p] if prefix_min is None else np.minimum(prefix_min, rows[p])
        risk, tail = _best_completion(rows, row, p + 1, r - 1)
        if risk < best_risk:
            best_risk, best = risk, (p,) + tail
    return best_risk, best


def _batch_best(
    rows: np.ndarray, prefix_min: np.ndarray | None, start: int, r: int
) -> tuple[float, tuple[int, ...]]:
    """`_best_completion` for one batch, built level by level.

    Level j holds one row per distinct choice of the first j+1 added
    positions, in lexicographic order: the elementwise minimum of the
    prefix's rows and those positions' rows. Each level is gathered from its
    parents in the level before, so shared prefixes are reduced once.
    """
    m = rows.shape[0]
    stop = m - r + 1
    level = rows[start:stop] if prefix_min is None else np.minimum(rows[start:stop], prefix_min)
    levels = [(np.arange(start, stop), None)]  # (position, parent index) per row
    for j in range(1, r):
        last = levels[-1][0]
        counts = stop + j - 1 - last  # children take last+1 .. m-r+j
        ends = np.cumsum(counts)
        parent = np.repeat(np.arange(last.size), counts)
        child = np.arange(ends[-1]) + np.repeat(last + 1 - (ends - counts), counts)
        level = level[parent]
        np.minimum(level, rows[child], out=level)
        levels.append((child, parent))
    risks = level.sum(axis=1)
    pos = int(np.argmin(risks))  # first minimum keeps lexicographic order
    risk = float(risks[pos])
    tail = []
    for child, parent in reversed(levels):
        tail.append(int(child[pos]))
        if parent is not None:
            pos = int(parent[pos])
    return risk, tuple(reversed(tail))


def _farthest_point_init(dmat_or_none, ids: np.ndarray, k: int, data: Dataset) -> list[int]:
    """Greedy farthest-point seeding starting from the smallest id.

    Returns positions into `ids`. Ties resolve to the first (smallest-id)
    position.
    """
    m = ids.size
    chosen = [0]
    if dmat_or_none is not None:
        dmin = dmat_or_none[:, 0].copy()
    else:
        dmin = data.point_to_ids(int(ids[0]), ids)
    for _ in range(1, k):
        nxt = int(np.argmax(dmin))
        chosen.append(nxt)
        col = dmat_or_none[:, nxt] if dmat_or_none is not None else data.point_to_ids(int(ids[nxt]), ids)
        np.minimum(dmin, col, out=dmin)
    return chosen


def _assignments(dmat_or_none, ids: np.ndarray, centers: list[int], data: Dataset):
    """Per point: nearest and second-nearest distance to the current centers,
    and the index (into `centers`) of the nearest one."""
    if dmat_or_none is not None:
        dc = dmat_or_none[:, centers]
    else:
        dc = data.pairwise(ids, ids[centers])
    lab = np.argmin(dc, axis=1)
    rows = np.arange(ids.size)
    d1 = dc[rows, lab]
    dc2 = dc.copy()
    dc2[rows, lab] = np.inf
    d2 = dc2.min(axis=1)
    return d1, d2, lab


def _sweep_best_swap(dmat_or_none, ids, centers, d1, d2, lab, data):
    """Best (remove, insert) pair over all single swaps and its resulting risk."""
    m = ids.size
    kk = len(centers)
    onehot = np.zeros((kk, m), dtype=np.float64)
    onehot[lab, np.arange(m)] = 1.0
    in_centers = np.zeros(m, dtype=bool)
    in_centers[centers] = True

    best_risk = np.inf
    best_rem = -1
    best_ins = -1
    # the GEMM's low bits depend on its block width: keep these widths
    step = m if dmat_or_none is not None else max(1, _CHUNK_CELLS // m)
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        cols = dmat_or_none[:, lo:hi] if dmat_or_none is not None else data.pairwise(ids, ids[lo:hi])
        near = np.minimum(cols, d1[:, None])
        base = near.sum(axis=0)  # risk if inserted, none removed
        diff = np.minimum(cols, d2[:, None])
        diff -= near
        corr = onehot @ diff  # (kk, hi-lo): per removed center correction
        cand = corr + base[None, :]
        cand[:, in_centers[lo:hi]] = np.inf
        pos = int(np.argmin(cand))
        r, x = divmod(pos, hi - lo)
        if cand[r, x] < best_risk:
            best_risk = float(cand[r, x])
            best_rem = r
            best_ins = lo + x
    return best_risk, best_rem, best_ins


def solve_local_search(
    points: Iterable[int],
    k: int,
    data: Dataset,
    max_iters: int = 100,
) -> CenterSet:
    """Single-swap local search: stop when no swap improves the risk.

    Fully deterministic: greedy farthest-point initialization from the
    smallest id, best-improvement sweeps, and a strict relative improvement
    requirement of 1e-12 to avoid float-noise cycling.
    """
    ids = as_id_array(points)
    if ids.size == 0:
        raise ContractError("input set must be nonempty")
    if k < 1:
        raise ContractError("k must be positive")
    if max_iters < 1:
        raise ContractError("max_iters must be positive")
    m = ids.size
    if k >= m:
        return CenterSet.of(ids)

    dmat = data.pairwise(ids, ids) if m <= _MATRIX_LIMIT else None
    centers = _farthest_point_init(dmat, ids, k, data)
    d1, d2, lab = _assignments(dmat, ids, centers, data)
    cur = float(d1.sum())
    for _ in range(max_iters):
        new_risk, rem, ins = _sweep_best_swap(dmat, ids, centers, d1, d2, lab, data)
        if not (new_risk < cur * (1.0 - 1e-12)):
            break
        centers[rem] = ins
        d1, d2, lab = _assignments(dmat, ids, centers, data)
        cur = float(d1.sum())
    return CenterSet.of(int(ids[p]) for p in centers)


def exhaustive_solver() -> Solver:
    return Solver(name="exhaustive", beta=1.0, _fn=solve_exhaustive)


def local_search_solver(max_iters: int = 100) -> Solver:
    return Solver(
        name="local-search",
        beta=5.0,
        _fn=lambda ids, k, d: solve_local_search(ids, k, d, max_iters=max_iters),
    )


SOLVER_NAMES = ("exhaustive", "local-search")


def get_solver(name: str, max_iters: int = 100) -> Solver:
    """Solver registry used by the CLI and harness."""
    if name == "exhaustive":
        return exhaustive_solver()
    if name == "local-search":
        return local_search_solver(max_iters=max_iters)
    raise ContractError(f"unknown solver {name!r}; choose from {SOLVER_NAMES}")
