"""Finite metric spaces, k-median risk, far sets and truncated risks.

A dataset is either a block of Euclidean coordinates or an explicit distance
matrix; both sit behind the same index-addressed interface. Point indices
refer to the original dataset order, which doubles as the fixed tie-breaking
order for every distance comparison in the package.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import frexp, inf, sqrt
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ContractError, _whole

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
# against 1.55 s (same Xeon host). Float32 tiles, half the bytes, of 128, 256,
# 512 and 1024 rows took 0.36, 0.33, 0.36 and 0.38 s for 13,770 64-d rows to
# 6,230 centers, and 0.112, 0.099, 0.101 and 0.113 s for 41,158 2-d rows to 842.
_SCREEN_ROWS = 256
# A call screens in float32 from this many centers on. Below, a tile is too
# narrow to repay float32's fixed costs: 4,000 2-d rows to 64, 128 and 256
# centers took 1.13x, 1.05x and 0.90x the float64 time (same Xeon host).
_F32_COLS = 256
# A float32 tile that keeps more than this many columns per row on average is
# redone in float64, and so is the rest of its call. Float32 broke even at
# about 13 (2-d) and 10 (64-d) kept columns a row: 10,000 rows to 1,000
# centers in clusters too tight for it (same Xeon host). Blobs keep 1-2.
_F32_KEPT = 8
# Coordinates are refused when their squared span, sum_t (max_t - min_t)^2, is
# not below this. Rounding is monotone, so each difference and square that a
# kernel rounds is at most the span's, and any order of summing d such squares
# stays within ((1 + u) / (1 - u))^d < 2 of the sum computed here (u = 2^-53,
# d < 2^51): no squared distance, and no partial sum of one, overflows.
_MAX_SPAN_SQ = float(np.finfo(np.float64).max) / 2
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


def _point_ids(ids: Iterable[int], n: int | None = None, unique: bool = False) -> np.ndarray:
    """The package's one rule for point ids: any accepted input as a 1-d int64 array.

    Takes an integer array (int64 without a copy), a `range`, or a list,
    tuple, set or other iterable of ints. Raises ContractError for a float id,
    even a whole one like 2.0 (a float column of ids is the wrong column, and
    a cast would hide that), for a bool, for a negative id and, given the
    dataset size `n`, for an id >= n. With `unique`, the ids are sorted and
    deduplicated, as every function that takes a point set reads them.
    """
    if isinstance(ids, range):
        arr = np.arange(ids.start, ids.stop, ids.step)
    elif isinstance(ids, np.ndarray):
        arr = ids
    else:
        seq = ids if isinstance(ids, (list, tuple)) else list(ids)
        kinds = set(map(type, seq))
        if bool in kinds or np.bool_ in kinds:
            raise ContractError("point ids must be integers, not bools")
        arr = np.asarray(seq) if seq else np.empty(0, dtype=np.int64)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise ContractError(f"point ids must be a flat collection of integers, not {arr.dtype} of shape {arr.shape}")
    arr = arr.astype(np.int64, copy=False)  # a uint64 id past the int64 range turns negative here
    if arr.size == 0:
        return arr
    if unique:
        arr = np.sort(arr)
        # what np.unique returns, without its hash table: 3x faster at 20k ids on numpy 2.4
        arr = arr[np.concatenate(([True], arr[1:] != arr[:-1]))]
    lo, hi = (arr[0], arr[-1]) if unique else (arr.min(), arr.max())
    if lo < 0:
        raise ContractError("point ids must be nonnegative")
    if n is not None and hi >= n:
        raise ContractError(f"point id {hi} out of range for a dataset of {n} points")
    return arr


@dataclass(frozen=True)
class CenterSet:
    """Deduplicated, sorted collection of point ids acting as a clustering."""

    ids: tuple[int, ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    @classmethod
    def of(cls, ids: Iterable[int]) -> "CenterSet":
        return cls(tuple(_point_ids(ids, unique=True).tolist()))

    def __post_init__(self) -> None:
        arr = _point_ids(self.ids)
        if (arr[1:] <= arr[:-1]).any():
            raise ContractError("CenterSet ids must be sorted and deduplicated")
        arr.flags.writeable = False
        object.__setattr__(self, "_array", arr)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __contains__(self, item: int) -> bool:
        i = bisect_left(self.ids, item)
        return i < len(self.ids) and self.ids[i] == item

    def to_array(self) -> np.ndarray:
        """The ids as a read-only int64 array."""
        return self._array


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
            lo, hi = (float(coords.min()), float(coords.max())) if coords.size else (0.0, 0.0)
            if not (-inf < lo and hi < inf):  # NaN fails too
                raise ContractError("coordinates must be finite")
            # d (hi - lo)^2 bounds the squared span; only if it fails are the columns
            # reduced one by one, which takes 100x as long on 42,000 x 2 coordinates
            if not (coords.shape[1] * (hi - lo) * (hi - lo) < _MAX_SPAN_SQ):
                with np.errstate(over="ignore"):
                    span_sq = float(np.sum(np.square(coords.max(axis=0) - coords.min(axis=0))))
                if not (span_sq < _MAX_SPAN_SQ):
                    raise ContractError(f"coordinates span too far: squared span {span_sq:.3g} overflows distances")
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

    def dist(self, i: int, j: int) -> float:
        """Distance between two points: the one cell of `pairwise((i,), (j,))`."""
        return float(self.pairwise((i,), (j,))[0, 0])

    def point_to_ids(self, x: int, ids: np.ndarray) -> np.ndarray:
        """Distances from one point to each id in `ids` (same order): row 0 of `pairwise((x,), ids)`.

        Unused in the package, whose per-point path is `nearest_lookup`; `perfbench` traces it by name.
        """
        return self.pairwise((x,), ids)[0]

    def pairwise(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distance block with shape (len(rows), len(cols))."""
        rows = _point_ids(rows, self._n)
        cols = _point_ids(cols, self._n)
        if self._matrix is not None:
            return self._matrix[np.ix_(rows, cols)]
        return _pairwise_coords(self._coords, rows, cols)


def _pairwise_coords(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """`_pair_dists(x[rows][:, None], x[cols])`, with its bits, one coordinate at a time.

    Only 2-d blocks are live. A square block (`rows` equal to `cols`) of at
    least `_MIRROR_DIM` dims is computed on and above the diagonal only, one
    row block's strip at a time, and each strip is copied into the columns
    below it (see `_pair_dists` for why the bits agree).
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
    """The ids of a nonempty center set, checked against `data`."""
    if len(centers) == 0:
        raise ContractError("center set must be nonempty")
    return _point_ids(centers.to_array(), data.n)


def nearest_dists(ids: np.ndarray, centers: CenterSet, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center distance of each id, and that center's position in the set.

    Both agree bit for bit with `data.pairwise(ids, centers.to_array())` and
    its `min` / `argmin` along axis 1: equal distances go to the smallest
    center id. Matrix datasets gather their rows; coordinate datasets use the
    screened kernel `_screened_nearest` and never build the n x |T| block.
    Its screen runs in float32 from `_F32_COLS` centers on, until a tile keeps
    too many columns; then that tile and the rest of the call run in float64.
    """
    carr = _centers_array(centers, data)
    return _nearest(_point_ids(ids, data.n), carr, data)


def nearest_lookup(centers: CenterSet, data: Dataset) -> Callable[[int], tuple[int, float]]:
    """`nearest_dists` one point at a time: a function from a point id, which it
    does not check, to its nearest center's position and distance, with the same
    bits. The centers are checked and the kind chosen once: a matrix row is
    gathered, 2-d centers are swept in a sorted list, other coordinates go
    through numpy.

    Sweep (Friedman, Baskett & Shustek, IEEE Trans. Computers, 1975). The
    centers are sorted once by (first coordinate, position). A lookup bisects
    to the point's first coordinate u and scans outward, one center to the
    right and one to the left in turn, so that both sides tighten the best
    distance early. It keeps the lexicographic minimum of (distance,
    position): the first minimum, as `argmin` picks it, whatever the visiting
    order. Each distance is sqrt(du du + dv dv), du and dv the coordinate
    differences, each step correctly rounded as in numpy, so it has the bits
    of `_pair_dists` (fl(u - a) = -fl(a - u) leaves every square as it is).

    Stop. A side stops at a center whose gap g = |fl(a - u)| exceeds both the
    best distance so far and 2^-511; every center past it is strictly farther,
    so none of them is the minimum. Rounding is monotone, so each center past
    it has a gap g' >= g, and its distance is at least fl(sqrt(fl(g' g'))) >=
    fl(sqrt(fl(g g))), as the other square adds a nonnegative term. And
    fl(sqrt(fl(g g))) = g when g g is normal, as it is from g >= 2^-511 on (it
    cannot overflow: `Dataset` bounds every square by its squared span). Write
    g = 2^E f with f in [1, 2 - 2^-52]: fl(g g) = g g (1 + e) with |e| <=
    2^-53, so its root lies within g |e| / (2 - |e|) <= 2^(E-53) (2 - 2^-52) /
    (2 - 2^-53) < 2^(E-53) of g, under half the spacing 2^(E-52) of the floats
    around g, and rounds to g (at f = 1, where the floats below g are closer,
    the square and its root are exact). Below 2^-511 a square may underflow,
    and a distance can be less than its gap: from the query (0, 0), the centers
    (3e-170, 0) and (1e-170, 0) are both at distance 0, and a side that stopped
    at its first gap would miss the first of them.
    """
    ids = _centers_array(centers, data)
    if data.matrix is not None:
        rows = data.matrix

        def gather(x: int) -> tuple[int, float]:
            d = rows[x, ids]
            pos = int(d.argmin())
            return pos, float(d[pos])

        return gather

    coords = data.coords
    pts = coords[ids]
    if pts.shape[1] == 2:
        swept = sorted((a, i, b) for i, (a, b) in enumerate(pts.tolist()))
        firsts = [a for a, _, _ in swept]
        k = len(swept)

        def sweep_2d(x: int) -> tuple[int, float]:
            u, v = coords[x].tolist()
            r = bisect_left(firsts, u)  # the next center to the right, and to the left
            l = r - 1
            best, pos, stop = inf, 0, inf  # stop = max(best, 2^-511): a larger gap ends a side
            while r < k or l >= 0:
                if r < k:
                    a, p, b = swept[r]
                    du = a - u
                    if du > stop:
                        r = k
                    else:
                        r += 1
                        dv = b - v
                        d = sqrt(du * du + dv * dv)  # `*`, not `**`, which raises on overflow
                        if d < best or d == best and p < pos:
                            best, pos = d, p
                            stop = d if d > 2.0**-511 else 2.0**-511
                if l >= 0:
                    a, p, b = swept[l]
                    du = u - a
                    if du > stop:
                        l = -1
                    else:
                        l -= 1
                        dv = b - v
                        d = sqrt(du * du + dv * dv)
                        if d < best or d == best and p < pos:
                            best, pos = d, p
                            stop = d if d > 2.0**-511 else 2.0**-511
            return pos, best

        return sweep_2d

    def broadcast(x: int) -> tuple[int, float]:
        d = _pair_dists(pts, coords[x])
        pos = int(d.argmin())
        return pos, float(d[pos])

    return broadcast


def _nearest(ids: np.ndarray, carr: np.ndarray, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """`nearest_dists` for ids and center ids that the caller has checked."""
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
        c, shift, exp = _scaled(x[carr])
        f32 = x.shape[1] <= 1024 and carr.size >= _F32_COLS  # the slack's bound needs d u <= 2^-14
        screen = _screen_centers(c, exp, np.float32 if f32 else np.float64)
    for blk in tiles:
        found = _screened_nearest(x, ids[blk], carr, shift, exp, *screen)
        if found is None:
            with np.errstate(over="ignore", invalid="ignore"):
                screen = _screen_centers(c, exp, np.float64)
            found = _screened_nearest(x, ids[blk], carr, shift, exp, *screen)
        dist[blk], pos[blk] = found
    return dist, pos


def _screen_centers(c: np.ndarray, exp: int, precision: type) -> tuple[float, np.ndarray, np.ndarray, float]:
    """The center side of a `_screened_nearest` screen in `precision`, for scaled centers c.

    Returns coef, fl(-2 c), fl(|c|^2) and the part of the slack that every
    row shares, coef max |c|^2 plus the exact kernel's underflow floor.
    """
    d = c.shape[1]
    c_sq = np.einsum("ij,ij->i", c, c)
    coef = (d + 10) * float(np.finfo(precision).eps) / 2 + (3 * d + 16) * 2.0**-53
    base = coef * float(c_sq.max()) + (d + 1) * 2.0 ** min(2 * exp - 1072, 1023)  # inf past the range
    c_neg2 = np.multiply(c, -2.0, dtype=precision)  # fl(-2 c) = -2 fl(c)
    return coef, c_neg2, c_sq.astype(precision, copy=False), base


def _pair_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`sqrt(sum((a - b) ** 2))` over the last axis of two arrays that broadcast:
    the package's one exact formula for the distance between coordinate rows.

    Each distance reduces its own contiguous row of rounded squares with
    numpy's pairwise summation, whose order `_sum_squares` mirrors, so
    `Dataset.pairwise` has the same bits; and fl(a - b) = -fl(b - a), so
    swapping the sides, or mirroring a square block, keeps them too.
    `TestPairwise` checks both against the broadcast formula.
    """
    diff = a - b
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=-1))


def _exact_dists(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """`_pair_dists` for each (rows[i], cols[i]) pair, chunked."""
    out = np.empty(rows.size, dtype=np.float64)
    for blk in row_blocks(rows.size, x.shape[1]):
        out[blk] = _pair_dists(x[rows[blk]], x[cols[blk]])
    return out


def _swap_screen(x: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """A float32 screen of `_pair_dists(x[:, None], x)` for local search, on coordinate rows x.

    Returns (s, exp, err). With D the bits of `_pair_dists` and D' = 2^exp D,
    every stored value satisfies |s[i, j] - D'[i, j]| <= err[i] + 2^-23 D'[i, j].

    Screen. `_scaled` shifts the points and scales them by 2^exp, as
    `_nearest` does its centers: A = 2^exp fl(x - shift), every |A_t| < 1,
    so no value below can overflow, and the float32 store of a distance,
    at most 2 sqrt(d), cannot either. One float64 GEMM per row tile gives
    q'[i, j] = fl(fl(fl(|A_j|^2 + fl(A_i . fl(-2 A_j))) + |A_i|^2), and
    s = fl32(sqrt(max(q', 0))).

    Bound. Rows and columns are the same points, so `_screened_nearest`'s
    derivation at u = w = 2^-53 bounds the error of the first three steps
    against Q - |A_i|^2, where Q = 2^(2 exp) q and q is the exact kernel's
    sum of squares: by coef M_i plus the underflow floor (`base` holds coef
    max |A|^2 and the floor), with M_i = |A_i|^2 + max_j |A_j|^2. Adding
    |A_i|^2, itself within d w |A_i|^2, and rounding the sum, within
    w (|A_i|^2 + 2 M_i), brings the whole error to at most
      E_i = coef |A_i|^2 + base + (d + 4) w M_i.
    Since Q >= 0, |sqrt(max(q', 0)) - sqrt(Q)| <= sqrt(|q' - Q|) <=
    sqrt(E_i), whatever the size of Q. The float64 root and the float32
    store round by at most 2^-53 and 2^-24 relative, D = fl(sqrt(q)) lies
    within 2^-53 of sqrt(q), and a float32 subnormal is off by at most
    2^-150. Together: |s - D'| <= (1 + 2^-23) sqrt(E_i) + (2^-24 + 3 2^-53)
    D' + 2^-150, inside err_i = 2 sqrt(E_i) + 2^-140 plus 2^-23 D'. The
    doubled root leaves room for rounding E_i and err_i. An E_i past the
    floats (coordinates so small that the floor overflows) gives err = inf.
    """
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        a, _, exp = _scaled(x)
        coef, neg2, sq, base = _screen_centers(a, exp, np.float64)
        err = 2.0 * np.sqrt(coef * sq + base + (a.shape[1] + 4) * 2.0**-53 * (sq + sq.max())) + 2.0**-140
    m = x.shape[0]
    s = np.empty((m, m), dtype=np.float32)
    for blk in row_blocks(m, m, whole=True, max_rows=_SCREEN_ROWS):
        q = a[blk] @ neg2.T
        q += sq
        q += sq[blk, None]
        np.maximum(q, 0.0, out=q)
        s[blk] = np.sqrt(q, out=q)
    return s, exp, err


def _scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(2^exp fl(x - shift), shift, exp) for nonempty rows x: 2^exp is the
    power of two that puts the largest |value| in [1/2, 1), and the shift is
    x[0] plus the mean of the differences from it. `Dataset`'s span bound keeps
    every difference, their mean and the shift finite; the mean of the rows
    themselves overflows for a column near the largest float."""
    shift = x[0] + (x - x[0]).mean(axis=0)
    a = x - shift
    exp = -frexp(np.abs(a).max(initial=0.0))[1]
    np.ldexp(a, exp, out=a)
    return a, shift, exp


def _diff_screen(x: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """A float32 screen of `_pair_dists(x[:, None], x)` for local search on
    coordinate rows x of 1 to 7 dims, computed tile by tile by `_diff_tile`.

    Returns (f, exp, err): f = fl32(A).T, one contiguous row per coordinate,
    for A = 2^exp fl(x - shift) as in `_swap_screen`, rounded to float32 once.
    With D the bits of `_pair_dists` and D' = 2^exp D, every value s of
    `_diff_tile(f[:, rows], f)` satisfies |s[i, j] - D'[i, j]| <= err[i] +
    2^-21 D'[i, j].

    Bound. Let u = 2^-24, w = 2^-53, d the dim and v = 2^exp (x_i - x_j)
    exactly, so R = |v| is the real distance in the screen's units. The
    shift rounds each A_t by w |A_t|, scaling by 2^exp by 2^-1075 where it
    underflows, and the float32 store by u |A_t| + 2^-150; so the exact
    differences g_t of the float32 coordinates lie within (u + 2w)(|A_it| +
    |A_jt|) + 2^-149 of v_t, and by the triangle inequality in R^d,
    | |g| - R | <= G_i = (u + 2w)(|A_i| + max_j |A_j|) + sqrt(d) 2^-148.
    In float32, a difference rounds by u relative (a subnormal one is
    exact), a square by u relative or 2^-150, and d squares summed in any
    order by (d - 1) u relative; so the sum lies within (d + 2) u |g|^2 +
    d 2^-150 of |g|^2, its root within (d + 2) u / 2 |g| + sqrt(d) 2^-75
    of |g|, and s, rounded once more, within c0 |g| + sqrt(d) 2^-75 (1 + u),
    c0 = (d + 4) u / 2 to first order. The exact kernel errs the same way
    in float64, by (d + 4) w / 2 R, plus its squares' underflow, at most d
    2^-1075, which moves D' by at most sqrt(d) 2^(exp - 537). Together,
    |s - D'| <= (c0 + (d + 4) w) D' + (1 + c0) G_i + sqrt(d) (2^-74.9 +
    2^(exp - 536)) to first order. For d <= 7, c0 <= 5.5 u < 2^-21, and
      err_i = 2^-23 (|A_i| + max_j |A_j|) + sqrt(d) (2^-73 + 2^(exp - 535))
    doubles the rest, which leaves room for the second-order terms and for
    rounding err_i. Every |A_t| < 1, so no float32 value can overflow.
    """
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        a, _, exp = _scaled(x)
        norm = np.sqrt(np.einsum("ij,ij->i", a, a))
        err = 2.0**-23 * (norm + norm.max()) + sqrt(x.shape[1]) * (2.0**-73 + 2.0 ** (exp - 535))
    return np.ascontiguousarray(a.T, dtype=np.float32), exp, err


def _diff_tile(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The float32 distances between the columns of a and of b, rows of
    `_diff_screen`'s f: per coordinate a difference and a square, summed in
    coordinate order, then `sqrt`, each step in float32."""
    acc = np.subtract.outer(a[0], b[0])
    acc *= acc
    for t in range(1, a.shape[0]):
        term = np.subtract.outer(a[t], b[t])
        term *= term
        acc += term
    return np.sqrt(acc, out=acc)


def _screened_nearest(
    x: np.ndarray,
    rows: np.ndarray,
    carr: np.ndarray,
    shift: np.ndarray,
    exp: int,
    coef: float,
    c_neg2: np.ndarray,
    c_sq: np.ndarray,
    base: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact nearest center for one tile of rows, screened by a GEMM bound.

    Screen. Shift both sides by a fixed point and scale them by 2^exp, which
    puts the largest center coordinate in [1/2, 1): A = 2^exp fl(a - shift)
    and C = 2^exp fl(c - shift), exact but for underflow and overflow.
    Within a row, |A - C|^2 = |A|^2 + T with T = |C|^2 - 2 A.C, and |A|^2
    is the same for every column. The screen computes T in the precision p
    of `c_neg2`, float32 or float64: t = fl(c_sq + fl_p(A) . c_neg2), one
    GEMM per tile, with c_neg2 = fl_p(-2 C) and c_sq = fl_p(|C|^2).

    Slack. Let u be the unit roundoff of p, w = 2^-53 that of float64,
    d = dim, N = |A|^2 + |C|^2, and q the exact kernel's sum fl(sum
    fl(a_t - c_t)^2) before its square root. For any summation order
    (blocked, pairwise, with or without FMA), to first order in u and w,
    each column carries these errors:
      - c_sq: d w |C|^2 from its float64 sum and u |C|^2 from the rounding
        to p;
      - input rounding: fl_p(A_t) and fl_p(C_t) err by at most u |A_t| and
        u |C_t|, which moves the product with -2 C by at most
        4 u sum |A_t C_t| <= 2 u N (by nothing in float64);
      - the GEMM: g_d sum |2 A_t C_t| <= d u N, with g_d = d u / (1 - d u);
      - the addition: u (|C|^2 + 2 |A| |C|) <= 2 u N;
      - the shift moves each coordinate difference by at most
        w (|a'_t| + |c'_t|), so | |a-c|^2 - |a'-c'|^2 | <= 4 w N;
      - the exact kernel's q errs by at most g_(d+2) |a-c|^2 <= 2 (d+2) w N;
      - two columns whose rounded square roots tie have q values within
        4 w q <= 8 w N of each other, so a tie at the minimum is kept.
    That is at most e N with e = (d + 5) u + (3 d + 16) w. So every column
    that holds the exact minimum has t <= min(t) + 2 e M, where M = |A|^2 +
    max |C|^2 bounds N over the row. The slack S = coef M, coef = (d + 10) u
    + (3 d + 16) w, leaves 10 u M spare: for the second-order terms, below
    u M while d u <= 2^-14 (float32 serves d <= 1024 only), and for computing
    M, S and min(t) + 2 S in float64. A float32 t is compared with the
    largest float32 at or below min(t) + 2 S, which keeps the same columns.
    Underflow in the screen adds at most 2^-150 (float32) per product and
    per rounded input, (4 d + 2) 2^-150 per column, and M >= max |C|^2 >=
    1/4 makes that far less than u M; if every C is 0, every t is the same.
    The exact kernel is not scaled. Its squares may underflow, by at most
    2^-1075 each, d per column: well inside the floor (d + 1) 2^-1072, times
    2^(2 exp) in the screen's units, added to S. Columns with t > min(t) +
    2 S are dropped.

    Refine. Only the kept columns are recomputed with the exact expression;
    the first minimum among them, in ascending center order, is the same
    value and position that `pairwise(...).min` / `argmin` would give.

    Fallback. A row with sum |A_t| >= max_p / 16 (max_p the largest finite
    value of p; or non-finite) is recomputed over all its columns. Below
    that, |fl_p(-2 C_t)| <= 2 bounds every partial sum of the GEMM by
    2 (1 + u)^(d+1) sum |A_t| < max_p / 4, so no t overflows. The exact
    values never overflow, as `Dataset` refuses coordinates whose squared
    span could make them. Correctness never depends on the data; the shift
    and scale only keep the screen tight. A float32 screen
    that keeps more than `_F32_KEPT` columns a row, on average over the
    tile, returns None, and the caller screens the tile again in float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = x[rows] - shift
        np.ldexp(a, exp, out=a)
        t = a.astype(c_neg2.dtype, copy=False) @ c_neg2.T
        t += c_sq
        low = t.min(axis=1)
        thr = low + 2.0 * (coef * np.einsum("ij,ij->i", a, a) + base)
        if t.dtype != thr.dtype:  # the largest float32 <= thr
            lim = thr.astype(t.dtype)
            thr = np.nextafter(lim, -np.inf, out=lim, where=lim > thr)
        keep = t <= thr[:, None]
        full = ~(np.abs(a).sum(axis=1) < np.finfo(t.dtype).max / 16)
    keep[full] = True
    if c_neg2.dtype == np.float32 and np.count_nonzero(keep) > _F32_KEPT * rows.size:
        return None
    r, j = np.divmod(np.flatnonzero(keep), carr.size)  # row-major: columns ascend within a row
    exact = _exact_dists(x, rows[r], carr[j])
    starts = np.searchsorted(r, np.arange(rows.size))  # every row keeps its smallest t
    dist = np.minimum.reduceat(exact, starts)
    pos = np.minimum.reduceat(np.where(exact == dist[r], j, carr.size), starts)
    return dist, pos


def _nearest_or_zero(ids: np.ndarray, carr: np.ndarray, data: Dataset) -> np.ndarray:
    """`_nearest(ids, carr, data)[0]`, with 0 for each id in `carr`.

    A center is at distance exactly 0 from itself, so only the other ids are
    sent to `_nearest`. The array keeps the order of `ids`, so a sum or sort
    over it is the same as over `nearest_dists`'s.
    """
    dist = np.zeros(ids.size, dtype=np.float64)
    at = np.minimum(np.searchsorted(carr, ids), carr.size - 1)
    rest = carr[at] != ids
    if rest.any():
        dist[rest] = _nearest(ids[rest], carr, data)[0]
    return dist


def _far_first(points: Iterable[int], centers: CenterSet, data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted point ids, their nearest-center distances, and the positions
    that list them by distance, descending, ties by ascending id."""
    ids = _point_ids(points, data.n, unique=True)
    d = _nearest_or_zero(ids, _centers_array(centers, data), data)
    return ids, d, np.lexsort((ids, -d))


def risk(points: Iterable[int], centers: CenterSet, data: Dataset) -> float:
    """Sum of nearest-center distances over `points` (empty set -> 0).

    Points are summed in ascending id order, so equal inputs give bitwise
    equal results.
    """
    ids = _point_ids(points, data.n, unique=True)
    return float(np.sum(_nearest_or_zero(ids, _centers_array(centers, data), data)))


def farthest_order(points: Iterable[int], centers: CenterSet, data: Dataset) -> np.ndarray:
    """Ids sorted by distance to the centers, descending; ties by ascending id."""
    ids, _, order = _far_first(points, centers, data)
    return ids[order]


def far_r(points: Iterable[int], centers: CenterSet, r: int, data: Dataset) -> set[int]:
    """The r points farthest from the centers; all of S when |S| < r.

    Distance ties are resolved toward smaller ids, so the far set is a
    deterministic function of its inputs.
    """
    r = _whole(r, "r", 0)
    ids, _, order = _far_first(points, centers, data)
    return set(ids[order[:r]].tolist())


def truncated_risk(points: Iterable[int], centers: CenterSet, r: int, data: Dataset) -> float:
    """Risk after discounting the r points that incur the most risk."""
    r = _whole(r, "r", 0)
    ids, d, order = _far_first(points, centers, data)
    keep = np.ones(ids.size, dtype=bool)
    keep[order[:r]] = False
    return float(np.sum(d[keep]))
