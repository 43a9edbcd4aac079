"""Finite metric spaces, k-median risk, far sets and truncated risks.

A dataset is either a block of Euclidean coordinates or an explicit distance
matrix; both sit behind the same index-addressed interface. Point indices
refer to the original dataset order, which doubles as the fixed tie-breaking
order for every distance comparison in the package.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ContractError

__all__ = [
    "CenterSet",
    "Dataset",
    "risk",
    "far_r",
    "truncated_risk",
    "farthest_order",
]

# Cells (8 bytes each) in one working block of a kernel loop: the row chunks of
# `_pairwise_coords` and `_exact_dists`, the local-search candidate tiles and
# the k = 2 pair chunks of the exact solver. The coordinate kernel holds at most
# 8 accumulators, one term and one partial sum per halving above 128 dims;
# blocks this small were 1.5-1.8x faster than 4M-cell ones (dims 2, 8 and 64,
# 2-vCPU AMD EPYC host).
_BLOCK_CELLS = 65_536
# Cells in a block that is built once and reduced whole: the k = 1 row sums and
# the batches of the exhaustive solver, and the cap on a screen tile. Batches
# of _BLOCK_CELLS cells slowed k >= 3 solves 1.4-1.7x (m=22, k=11: 0.18 ->
# 0.26 s; m=40, k=35: 1.06 -> 1.83 s; 2-vCPU Intel Xeon host).
_CHUNK_CELLS = 4_000_000
# Rows per GEMM tile of the nearest-center screen. Tiles of _BLOCK_CELLS cells
# (10 rows) took twice as long: 20,000 64-d points to 6,000 centers in 0.77 s
# against 1.55 s (same Xeon host).
_SCREEN_ROWS = 256
# Square `pairwise` blocks of at least this many dims compute the upper half
# and mirror it. From 8 dims on, `_sum_squares` leaves its sequential branch
# and the mirror pays: m = 2000 took 612 -> 354 ms in 64-d and 90 -> 56 ms in
# 8-d. In 2-d the strided copy costs about as much as the kernel: m = 4096
# took 88 -> 134 ms mirrored (2-vCPU Intel Xeon host).
_MIRROR_DIM = 8


def row_blocks(count: int, row_cells: int, whole: bool = False, max_rows: int | None = None) -> Iterator[slice]:
    """Consecutive slices that cover range(count) in order.

    Each holds at least one row and at most budget // row_cells rows (and
    `max_rows`, if given), where the budget is `_CHUNK_CELLS` for a block that
    is built once and reduced whole and `_BLOCK_CELLS` otherwise. The budgets
    are read at call time, so setting them on this module resizes every block.
    """
    step = max(1, (_CHUNK_CELLS if whole else _BLOCK_CELLS) // max(1, row_cells))
    if max_rows is not None:
        step = max(1, min(step, max_rows))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def as_id_array(ids: Iterable[int]) -> np.ndarray:
    """Normalize an id collection to a sorted, deduplicated int64 array."""
    arr = np.sort(np.fromiter(ids, dtype=np.int64))
    if arr.size:
        # what np.unique returns, without its hash table: 3x faster at 20k ids on numpy 2.4
        arr = arr[np.concatenate(([True], arr[1:] != arr[:-1]))]
        if arr[0] < 0:
            raise ContractError("point ids must be nonnegative")
    return arr


@dataclass(frozen=True)
class CenterSet:
    """Deduplicated, sorted collection of point ids acting as a clustering."""

    ids: tuple[int, ...]

    @classmethod
    def of(cls, ids: Iterable[int]) -> "CenterSet":
        return cls(tuple(int(i) for i in as_id_array(ids)))

    def __post_init__(self) -> None:
        if list(self.ids) != sorted(set(self.ids)):
            raise ContractError("CenterSet ids must be sorted and deduplicated")
        if self.ids and self.ids[0] < 0:
            raise ContractError("point ids must be nonnegative")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __contains__(self, item: int) -> bool:
        i = bisect_left(self.ids, item)
        return i < len(self.ids) and self.ids[i] == item

    def to_array(self) -> np.ndarray:
        return np.asarray(self.ids, dtype=np.int64)


class Dataset:
    """Ordered finite metric space in coordinate or distance-matrix form.

    Immutable after construction; safe to share across concurrent runs.
    Matrix inputs are validated for symmetry, zero diagonal, nonnegativity
    and the triangle inequality (exhaustively for n <= 200, by sampling at
    least 10^4 triples above that).
    """

    def __init__(self, *, coords: np.ndarray | None = None, matrix: np.ndarray | None = None):
        if (coords is None) == (matrix is None):
            raise ContractError("provide exactly one of coords or matrix")
        if coords is not None:
            coords = np.array(coords, dtype=np.float64, copy=True)
            if coords.ndim != 2 or coords.shape[0] < 1:
                raise ContractError("coords must be a nonempty 2-d array")
            if not np.all(np.isfinite(coords)):
                raise ContractError("coordinates must be finite")
            coords.setflags(write=False)
            self._coords: np.ndarray | None = coords
            self._matrix: np.ndarray | None = None
            self._n = coords.shape[0]
        else:
            matrix = np.array(matrix, dtype=np.float64, copy=True)
            self._validate_matrix(matrix)
            matrix += 0.0  # -0.0 becomes 0.0, the zero a center's own distance takes in `risk`
            matrix.setflags(write=False)
            self._coords = None
            self._matrix = matrix
            self._n = matrix.shape[0]

    @classmethod
    def from_coords(cls, points) -> "Dataset":
        return cls(coords=np.asarray(points, dtype=np.float64))

    @classmethod
    def from_matrix(cls, matrix) -> "Dataset":
        return cls(matrix=np.asarray(matrix, dtype=np.float64))

    @staticmethod
    def _validate_matrix(m: np.ndarray) -> None:
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ContractError("distance matrix must be square and nonempty")
        if not np.all(np.isfinite(m)):
            raise ContractError("distances must be finite")
        if np.any(m < 0):
            raise ContractError("distances must be nonnegative")
        if np.any(np.diag(m) != 0.0):
            raise ContractError("matrix diagonal must be zero")
        if not np.array_equal(m, m.T):
            raise ContractError("distance matrix must be symmetric")
        n = m.shape[0]
        atol = 1e-9 * float(m.max()) if n > 1 else 0.0
        if n <= 200:
            for j in range(n):
                # d(i,k) <= d(i,j) + d(j,k) for all i,k with this j
                if np.any(m > m[:, j][:, None] + m[j, :][None, :] + atol):
                    raise ContractError("triangle inequality violated")
        else:
            rng = np.random.default_rng(12345)
            triples = rng.integers(0, n, size=(10_000, 3))
            i, j, kk = triples[:, 0], triples[:, 1], triples[:, 2]
            if np.any(m[i, kk] > m[i, j] + m[j, kk] + atol):
                raise ContractError("triangle inequality violated (sampled)")

    @property
    def n(self) -> int:
        return self._n

    @property
    def mode(self) -> str:
        return "euclidean" if self._coords is not None else "matrix"

    @property
    def dim(self) -> int | None:
        return None if self._coords is None else int(self._coords.shape[1])

    @property
    def coords(self) -> np.ndarray | None:
        return self._coords

    @property
    def matrix(self) -> np.ndarray | None:
        return self._matrix

    def _check_ids(self, ids: np.ndarray) -> None:
        if ids.size and (ids.min() < 0 or ids.max() >= self._n):
            raise ContractError("point id out of range for dataset")

    def dist(self, i: int, j: int) -> float:
        """Distance between two points."""
        ids = np.asarray([i, j], dtype=np.int64)
        self._check_ids(ids)
        if self._matrix is not None:
            return float(self._matrix[i, j])
        diff = self._coords[i] - self._coords[j]
        return float(np.sqrt(np.sum(diff * diff)))

    def point_to_ids(self, x: int, ids: np.ndarray) -> np.ndarray:
        """Distances from one point to each id in `ids` (same order).

        No code in the package calls it; `perfbench` traces it by name.
        """
        ids = np.asarray(ids, dtype=np.int64)
        self._check_ids(ids)
        self._check_ids(np.asarray([x], dtype=np.int64))
        if self._matrix is not None:
            return self._matrix[x, ids]
        diff = self._coords[ids] - self._coords[x]
        return np.sqrt(np.sum(diff * diff, axis=1))

    def pairwise(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distance block with shape (len(rows), len(cols))."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        self._check_ids(rows)
        self._check_ids(cols)
        if self._matrix is not None:
            return self._matrix[np.ix_(rows, cols)]
        return _pairwise_coords(self._coords, rows, cols)


def _pairwise_coords(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """`sqrt(sum((x[r] - x[c]) ** 2))` for every (row, col) pair, one coordinate at a time.

    Carries the bits of `np.sqrt(np.sum(diff * diff, axis=2))` on the
    rows x cols x dim broadcast: each term is the same rounded square, and
    `_sum_squares` adds the terms in numpy's order. Only 2-d blocks are live.

    A square block (`rows` equal to `cols`) of at least `_MIRROR_DIM` dims is
    computed on and above the diagonal only, one row block's strip at a time,
    and each strip is copied into the columns below it: fl(a - b) = -fl(b - a),
    so d(r, c) and d(c, r) have the same bits.
    """
    out = np.empty((rows.size, cols.size), dtype=np.float64)
    b = np.ascontiguousarray(x[cols].T)  # (dim, cols): one contiguous row per coordinate
    mirror = x.shape[1] >= _MIRROR_DIM and np.array_equal(rows, cols)
    for blk in row_blocks(rows.size, cols.size):
        a = np.ascontiguousarray(x[rows[blk]].T)
        lo = blk.start if mirror else 0
        np.sqrt(_sum_squares(a, b[:, lo:]), out=out[blk, lo:])
        if mirror:
            out[blk.stop :, blk] = out[blk, blk.stop :].T
    return out


def _sum_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over coordinates t of (a[t, i] - b[t, j]) ** 2, as an (i, j) block.

    Mirrors the pairwise summation of numpy's `add.reduce` over a contiguous
    axis of n = len(a) values: below 8 values a sequential sum; up to 128
    values eight strided accumulators, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in order; above
    128 the two halves, split at n/2 rounded down to a multiple of 8, summed
    recursively. numpy adds its identity 0 first, which changes nothing here
    because a square is never -0.
    """

    def term(t: int) -> np.ndarray:
        sq = np.subtract.outer(a[t], b[t])
        return np.multiply(sq, sq, out=sq)

    n = a.shape[0]
    if n == 0:
        return np.zeros((a.shape[1], b.shape[1]))
    if n < 8:
        acc = term(0)
        for t in range(1, n):
            acc += term(t)
        return acc
    if n <= 128:
        r = [term(j) for j in range(8)]
        full = n - n % 8
        for i in range(8, full, 8):
            for j in range(8):
                r[j] += term(i + j)
        r[0] += r[1]
        r[2] += r[3]
        r[0] += r[2]
        r[4] += r[5]
        r[6] += r[7]
        r[4] += r[6]
        r[0] += r[4]
        for t in range(full, n):
            r[0] += term(t)
        return r[0]
    half = n // 2
    half -= half % 8
    acc = _sum_squares(a[:half], b[:half])
    acc += _sum_squares(a[half:], b[half:])
    return acc


def _centers_array(centers: CenterSet, data: Dataset) -> np.ndarray:
    if len(centers) == 0:
        raise ContractError("center set must be nonempty")
    arr = centers.to_array()
    data._check_ids(arr)
    return arr


def nearest_dists(ids: np.ndarray, centers: CenterSet, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center distance of each id, and that center's position in the set.

    Both agree bit for bit with `data.pairwise(ids, centers.to_array())` and
    its `min` / `argmin` along axis 1: equal distances go to the smallest
    center id. Matrix datasets gather their rows; coordinate datasets use the
    screened kernel `_screened_nearest` and never build the n x |T| block.
    """
    carr = _centers_array(centers, data)
    ids = np.asarray(ids, dtype=np.int64)
    data._check_ids(ids)
    dist = np.empty(ids.size, dtype=np.float64)
    pos = np.empty(ids.size, dtype=np.int64)
    tiles = row_blocks(ids.size, carr.size, whole=True, max_rows=_SCREEN_ROWS)
    if data.matrix is not None:
        for blk in tiles:
            block = data.matrix[np.ix_(ids[blk], carr)]
            dist[blk] = block.min(axis=1)
            pos[blk] = block.argmin(axis=1)
        return dist, pos
    x = data.coords
    with np.errstate(over="ignore", invalid="ignore"):
        shift = x[carr].mean(axis=0)
        c = x[carr] - shift
        c_sq = np.einsum("ij,ij->i", c, c)
        c_neg2 = -2.0 * c
    for blk in tiles:
        dist[blk], pos[blk] = _screened_nearest(x, ids[blk], carr, shift, c_neg2, c_sq)
    return dist, pos


def _exact_dists(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """`sqrt(sum(diff * diff))` for each (rows[i], cols[i]) pair, chunked.

    Each pair reduces one contiguous row of `dim` values with numpy's own
    pairwise summation, the order that `_sum_squares` mirrors for
    `Dataset.pairwise`; `TestPairwise` checks that the two agree bit for bit.
    """
    out = np.empty(rows.size, dtype=np.float64)
    for blk in row_blocks(rows.size, x.shape[1]):
        diff = x[rows[blk]] - x[cols[blk]]
        out[blk] = np.sqrt(np.sum(diff * diff, axis=1))
    return out


def _screened_nearest(
    x: np.ndarray, rows: np.ndarray, carr: np.ndarray, shift: np.ndarray, c_neg2: np.ndarray, c_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest center for one tile of rows, screened by a GEMM bound.

    Screen. Shift both sides by a fixed point: a' = fl(a - shift) and
    c' = fl(c - shift). Within a row, |a - c|^2 = |a'|^2 + (|c'|^2 - 2 a'.c')
    up to rounding, and |a'|^2 is the same for every column, so the screen is
    t = fl(|c'|^2 + a'.(-2 c')), one GEMM per tile.

    Slack. Let u = 2^-53, d = dim, g_d = d u / (1 - d u), N = |a'|^2 + |c'|^2,
    and let q be the exact kernel's sum fl(sum fl(a_t - c_t)^2) before its
    square root. For any summation order (blocked, pairwise, with or without
    FMA), with relative rounding and no underflow, to first order in u, each
    column carries these errors:
      - the screen: |c'|^2 errs by at most g_d |c'|^2, the dot product with
        -2 c' by 2 g_d |a'||c'| <= g_d N, and the addition by 2 u N;
      - the shift moves each coordinate difference by at most
        u (|a'_t| + |c'_t|), so | |a-c|^2 - |a'-c'|^2 | <= 4 u N;
      - the exact kernel's q errs by at most g_(d+2) |a-c|^2 <= 2 g_(d+2) N;
      - two columns whose rounded square roots tie have q values within
        4 u q <= 8 u N of each other, so a tie at the minimum is kept.
    That is at most (4 d + 18) u N per column. So the column that holds the
    exact minimum has t <= min(t) + 2 (4 d + 18) u M, where M = |a'|^2 +
    max |c'|^2 bounds N over the row; rounding min(t) + 2 S adds 2 u M. The
    slack S = coef M with coef = (4 d + 32) eps = (8 d + 64) u covers this
    twice over, which also covers the second-order terms (among them M taken
    from the rounded norms and the rounding of S) while d u <= 2^-20.
    Underflow adds an absolute error of at most 2^-1075 per product: 3 d per
    column on the path above and 2 in the slack, well inside the floor
    (d + 1) 2^-1072 added to S. Columns with t > min(t) + 2 S are dropped.

    Refine. Only the kept columns are recomputed with the exact expression;
    the first minimum among them, in ascending center order, is the same
    value and position that `pairwise(...).min` / `argmin` would give.

    Fallback. Overflow anywhere in the screen leaves a non-finite value in
    its row, and such a row is recomputed over all its columns. The bound
    above holds for every column whose exact value is finite, so a kept
    minimum of inf means every column overflowed, and the position is the
    first column's. Correctness never depends on the data; the shift only
    keeps the screen tight far from the origin.
    """
    d = x.shape[1]
    coef = (4 * d + 32) * np.finfo(np.float64).eps
    floor = (d + 1) * 2.0**-1072
    with np.errstate(over="ignore", invalid="ignore"):  # overflow sends its row to the fallback
        a = x[rows] - shift
        t = a @ c_neg2.T
        t += c_sq
        low = t.min(axis=1)
        full = ~(np.isfinite(low) & np.isfinite(t.max(axis=1)))  # min and max both propagate nan
        slack = coef * (np.einsum("ij,ij->i", a, a) + c_sq.max()) + floor
        keep = t <= (low + 2.0 * slack)[:, None]
    keep[full] = True
    r, j = np.divmod(np.flatnonzero(keep), carr.size)  # row-major: columns ascend within a row
    exact = _exact_dists(x, rows[r], carr[j])
    starts = np.searchsorted(r, np.arange(rows.size))  # every row keeps its smallest t
    dist = np.minimum.reduceat(exact, starts)
    pos = np.minimum.reduceat(np.where(exact == dist[r], j, carr.size), starts)
    pos[np.isinf(dist)] = 0  # every column's exact value overflowed; argmin takes the first
    return dist, pos


def _nearest_or_zero(ids: np.ndarray, centers: CenterSet, data: Dataset) -> np.ndarray:
    """`nearest_dists(ids, centers, data)[0]`, with 0 for each id in `centers`.

    A center is at distance exactly 0 from itself, so only the other ids are
    sent to `nearest_dists`. The array keeps the order of `ids`, so a sum or
    sort over it is the same as over `nearest_dists`'s.
    """
    carr = _centers_array(centers, data)
    dist = np.zeros(ids.size, dtype=np.float64)
    at = np.minimum(np.searchsorted(carr, ids), carr.size - 1)
    rest = carr[at] != ids
    if rest.any():
        dist[rest] = nearest_dists(ids[rest], centers, data)[0]
    return dist


def risk(points: Iterable[int], centers: CenterSet, data: Dataset) -> float:
    """Sum of nearest-center distances over `points` (empty set -> 0).

    Points are summed in ascending id order, so equal inputs give bitwise
    equal results.
    """
    ids = as_id_array(points)
    return float(np.sum(_nearest_or_zero(ids, centers, data)))


def farthest_order(points: Iterable[int], centers: CenterSet, data: Dataset) -> np.ndarray:
    """Ids sorted by distance to the centers, descending; ties by ascending id."""
    ids = as_id_array(points)
    d = _nearest_or_zero(ids, centers, data)
    order = np.lexsort((ids, -d))
    return ids[order]


def far_r(points: Iterable[int], centers: CenterSet, r: int, data: Dataset) -> set[int]:
    """The r points farthest from the centers; all of S when |S| < r.

    Distance ties are resolved toward smaller ids, so the far set is a
    deterministic function of its inputs.
    """
    if r < 0 or isinstance(r, bool) or int(r) != r:
        raise ContractError("r must be a nonnegative integer")
    ordered = farthest_order(points, centers, data)
    take = min(int(r), ordered.size)
    return set(int(i) for i in ordered[:take])


def truncated_risk(points: Iterable[int], centers: CenterSet, r: int, data: Dataset) -> float:
    """Risk after discounting the r points that incur the most risk."""
    if r < 0 or isinstance(r, bool) or int(r) != r:
        raise ContractError("r must be a nonnegative integer")
    ids = as_id_array(points)
    _centers_array(centers, data)
    if ids.size == 0 or r >= ids.size:
        return 0.0
    d = _nearest_or_zero(ids, centers, data)
    order = np.lexsort((ids, -d))
    keep = np.ones(ids.size, dtype=bool)
    keep[order[: int(r)]] = False
    return float(np.sum(d[keep]))
