"""Offline k-median solvers fulfilling the black-box approximation contract.

Both solvers return at most k centers drawn from their input set. The
exhaustive solver is a true minimizer guarded by a combinatorial budget; the
eager single-swap local search is the default black box with a declared
factor of beta = 5, which holds when it stops at a local optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, ldexp
from typing import Callable, Iterable

import numpy as np

from .errors import BudgetExceededError, ContractError, _whole
from .metric import CenterSet, Dataset, _diff_screen, _diff_tile, _pair_dists, _point_ids, _swap_screen, row_blocks

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

# Local search keeps one matrix up to this many input points: for coordinates of
# `_SCREEN_DIM` or more dims the float32 screen of `_swap_screen`, 67 MB at the
# limit, with exact rows computed on demand; otherwise the exact float64
# distances, 134 MB. Above it, to bound memory, every pass computes its tiles
# afresh: float32 `_diff_tile` screens for coordinates of fewer than
# `_SCREEN_DIM` dims (`cliff-2d`'s 2-d solves of 4,200 points took 0.26-0.40 s
# against 0.84-1.16 s on exact tiles, warm, 2-vCPU Intel Xeon host), exact rows
# otherwise.
_MATRIX_LIMIT = 4096
# Below the limit, 4-d screens lost to the exact matrix at every m, and 8-d and
# 16-d won from m = 2,000. Past it, 8+ dims keep exact tiles: `_diff_screen`'s
# bound is derived for 1 to 7 dims.
_SCREEN_DIM = 8
# Leaves of the k = 2 exact search's candidate tree hold _LEAF_SIZE to
# 2 * _LEAF_SIZE positions. At n = 240, leaves of 1-2 or 4-8 positions were
# slower, with or without pruning (2-vCPU AMD EPYC host).
_LEAF_SIZE = 3


@dataclass(frozen=True)
class Solver:
    """A named offline k-median algorithm with a declared approximation factor."""

    name: str
    beta: float
    _fn: Callable[[np.ndarray, int, Dataset], CenterSet] = field(repr=False)

    def solve(self, points: Iterable[int], k: int, data: Dataset) -> CenterSet:
        ids = _point_ids(points, data.n, unique=True)
        out = self._fn(ids, k, data)  # each solver checks that ids is nonempty and k an integer >= 1
        if not set(out.ids) <= set(ids.tolist()):
            raise ContractError("solver returned centers outside its input set")
        if len(out) > k:
            raise ContractError("solver returned more centers than requested")
        return out


def _within_budget(m: int, k: int) -> bool:
    """Whether `solve_exhaustive` may take m points and k: C(m, min(k, m)) subsets
    at most `EXHAUSTIVE_BUDGET`."""
    m, k = _whole(m, "m"), _whole(k, "k")
    return comb(m, min(k, m)) <= EXHAUSTIVE_BUDGET


def solve_exhaustive(points: Iterable[int], k: int, data: Dataset) -> CenterSet:
    """True minimizer over all <=k-subsets of the input.

    Returns the lexicographically first subset (in ascending id order) whose
    `risk()` over the input is minimal, bit for bit: each candidate's risk is
    summed exactly as `risk()` sums it, one contiguous row of distances in
    ascending id order. For k = 2 a branch and bound skips the pairs it
    proves worse (`_best_pair`). Raises BudgetExceededError when C(|S|, k)
    exceeds the enumeration budget.
    """
    ids = _point_ids(points, data.n, unique=True)
    if ids.size == 0:
        raise ContractError("input set must be nonempty")
    k = _whole(k, "k")
    m = ids.size
    if not _within_budget(m, k):
        raise BudgetExceededError(
            f"the exhaustive solver over C({m}, {k}) center sets exceeds its budget of {EXHAUSTIVE_BUDGET}; "
            "use the local-search solver"
        )
    if k >= m:
        return CenterSet.of(ids)

    if k == 1:
        # Row sums of row blocks, without materializing the full matrix.
        best_risk = np.inf
        best_pos = 0
        for blk in row_blocks(m, m, whole=True):
            sums = data.pairwise(ids[blk], ids).sum(axis=1)
            pos = int(np.argmin(sums))
            if sums[pos] < best_risk:
                best_risk = float(sums[pos])
                best_pos = blk.start + pos
        return CenterSet.of(ids[best_pos : best_pos + 1])

    # rows[c] holds every point's distance to candidate c, contiguously: the
    # block is exactly symmetric, so row c has the bits of column c
    rows = data.pairwise(ids, ids)
    best = _best_pair(rows) if k == 2 else _best_completion(rows, None, 0, k)[1]
    return CenterSet.of(ids[list(best)])


def _min_sums(table: np.ndarray, a: np.ndarray, b: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The row sum of `np.minimum(table[a[t]], table[b[t]])` for each t.

    Each sum runs over one contiguous row of `table`. Works through one
    `row_blocks` block of pairs at a time inside `work`, a flat buffer of at
    least two blocks' values that the caller reuses, so the temporaries stay
    small and cost no fresh page faults.
    """
    w = table.shape[1]
    out = np.empty(a.size)
    for blk in row_blocks(a.size, w):
        cells = (blk.stop - blk.start) * w
        left = work[:cells].reshape(-1, w)
        right = work[cells : 2 * cells].reshape(-1, w)
        # every index is in range; "clip" spares `take` its buffered copy into `out`
        np.take(table, a[blk], axis=0, out=left, mode="clip")
        np.take(table, b[blk], axis=0, out=right, mode="clip")
        np.minimum(left, right, out=left)
        left.sum(axis=1, out=out[blk])
    return out


def _best_pair(rows: np.ndarray) -> tuple[int, int]:
    """`_best_completion` for k = 2, by branch and bound over `_candidate_tree`.

    A greedy start gives U, the exact risk of one pair: the 1-median, its
    best partner, then that partner's best partner. Level by level from the
    root, a node pair, which stands for every pair with one center in each,
    is dropped when the row sum of `min(colmin_i, colmin_j)` exceeds U; the
    pairs in the leaf pairs left are scored exactly, and the first minimum
    in lexicographic order wins. This is exact bit for bit: a node's `colmin`
    row is at most each of its members' rows elementwise, the bound and the
    risk are both one contiguous row sum of length m, and rounded addition
    is monotone, so a dropped pair's float risk exceeds U, which is at least
    the minimum. Little or nothing is dropped when the points are all alike:
    against the prefix-minimum enumeration, a solve took 1.4x the time on 240
    equal points (21 against 15 ms) and 1.1x on 240 uniform 64-d points
    (2-vCPU AMD EPYC host).
    """
    m = rows.shape[0]
    members, colmin = _candidate_tree(rows)
    # two blocks of rows: no call scores more than m * m pairs
    work = np.empty(2 * m * next(row_blocks(m * m, m)).stop)
    every = np.arange(m)
    a = int(np.argmin(rows.sum(axis=1)))
    for _ in range(2):
        risks = _min_sums(rows, every, np.full(m, a), work)
        risks[a] = np.inf
        a = int(np.argmin(risks))
    bound = risks[a]
    i = j = np.zeros(1, dtype=np.int64)
    for level, node_min in enumerate(colmin):
        if level:
            i, j = _children(i, j)
        keep = _min_sums(node_min, i, j, work) <= bound
        i, j = i[keep], j[keep]
    a, b = _member_pairs(members, i, j)
    risks = _min_sums(rows, a, b, work)
    ties = np.flatnonzero(risks == risks.min())
    lo, hi = np.minimum(a[ties], b[ties]), np.maximum(a[ties], b[ties])
    first = np.argmin(lo * m + hi)  # the first minimum in lexicographic order
    return int(lo[first]), int(hi[first])


def _candidate_tree(rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """A balanced binary tree over the candidate positions, built level by level.

    Each node, a range of `order`, is sorted by a two-pivot key (distance
    to a far member minus distance to a member far from that one) and split
    at its median, down to leaves of `_LEAF_SIZE` to 2 * `_LEAF_SIZE`
    positions. Node i of a level holds `order[(i * m) >> level : ((i + 1) *
    m) >> level]`, so its children are nodes 2i and 2i + 1 of the next.

    Returns `members`, leaf by slot, with short leaves padded by repeating
    their last member, and `colmin`: per level from the root, each node's
    elementwise minimum of its members' rows.
    """
    m = rows.shape[0]
    depth = max(0, (m // _LEAF_SIZE).bit_length() - 1)
    order = np.arange(m)
    for level in range(depth):
        starts = (np.arange(1 << level) * m) >> level
        node = np.repeat(np.arange(1 << level), np.diff(np.append(starts, m)))
        pivot = order[starts]
        for _ in range(2):  # a member far from the first, then one far from that
            dist = rows[pivot[node], order]
            pivot = order[np.lexsort((-dist, node))[starts]]
        key = dist - rows[pivot[node], order]
        order = order[np.lexsort((key, node))]
    starts = (np.arange(1 << depth) * m) >> depth
    size = np.diff(np.append(starts, m))
    members = order[starts[:, None] + np.minimum(np.arange(size.max()), size[:, None] - 1)]
    colmin = [rows[members[:, 0]]]
    for slot in members.T[1:]:
        np.minimum(colmin[0], rows[slot], out=colmin[0])
    for _ in range(depth):
        colmin.insert(0, np.minimum(colmin[0][0::2], colmin[0][1::2]))
    return members, colmin


def _member_pairs(members: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of distinct positions with one in leaf i[t] and one in leaf
    j[t], for each t, once; pads, which repeat a leaf's last member, are skipped."""
    w = members.shape[1]
    real = np.ones(members.shape, dtype=bool)
    real[:, 1:] = members[:, 1:] != members[:, :-1]
    a = np.repeat(members[i], w, axis=1).ravel()
    b = np.tile(members[j], w).ravel()
    keep = (np.repeat(real[i], w, axis=1) & np.tile(real[j], w)).ravel()
    keep &= (a < b) | np.repeat(i != j, w * w)
    return a[keep], b[keep]


def _children(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The node pairs one level down that cover the pairs of (i, j).

    (i, i) splits into (2i, 2i), (2i, 2i+1) and (2i+1, 2i+1); (i, j) with
    i < j into the four pairs of one child each.
    """
    same = i == j
    si, di, dj = i[same], i[~same], j[~same]
    left = np.concatenate((2 * si, 2 * si, 2 * si + 1, 2 * di, 2 * di, 2 * di + 1, 2 * di + 1))
    right = np.concatenate((2 * si, 2 * si + 1, 2 * si + 1, 2 * dj, 2 * dj + 1, 2 * dj, 2 * dj + 1))
    return left, right


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
    count = comb(m - start, r)
    if r == 1 or next(row_blocks(count, m, whole=True)).stop == count:  # one block holds every completion
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


def _assign(center_rows: np.ndarray):
    """Per point: nearest and second-nearest distance to the centers, and the
    points grouped by the slot of their nearest center (the first on ties):
    `order` lists positions slot by slot in ascending order, and group s,
    for nonempty slot `slots[s]`, begins at `order[starts[s]]`."""
    kk, m = center_rows.shape
    lab = np.argmin(center_rows, axis=0)
    cols = np.arange(m)
    d1 = center_rows[lab, cols]
    rest = center_rows.copy()
    rest[lab, cols] = np.inf
    d2 = rest.min(axis=0)
    counts = np.bincount(lab, minlength=kk)
    slots = np.flatnonzero(counts)
    return d1, d2, np.argsort(lab, kind="stable"), slots, (np.cumsum(counts) - counts)[slots]


def _swap_risks(tile: np.ndarray, kk: int, d1, d2, order, slots, starts) -> np.ndarray:
    """Risk after swapping each tile row's candidate in for each center slot.

    Entry (i, r) is the sum over points j of min(tile[i, j], d1[j]), plus,
    over the points j that slot r serves, min(tile[i, j], d2[j]) minus
    min(tile[i, j], d1[j]). Each sum runs over one row alone in a fixed
    order, so a candidate's scores do not depend on the tile it comes in.
    The sums accumulate in float64 whatever the tile's precision. With
    `order` None, the tile's columns, d1 and d2 already come grouped by
    slot, as `order` would group them; that changes the order of the sums,
    which only a screen's slack can absorb.
    """
    near = np.minimum(tile, d1)
    diff = np.minimum(tile, d2)
    diff -= near
    risks = np.zeros((tile.shape[0], kk))
    grouped = diff if order is None else np.take(diff, order, axis=1)
    risks[:, slots] = np.add.reduceat(grouped, starts, axis=1, dtype=np.float64)
    risks += near.sum(axis=1, dtype=np.float64)[:, None]
    return risks


def solve_local_search(
    points: Iterable[int],
    k: int,
    data: Dataset,
    max_iters: int = 100,
) -> CenterSet:
    """Eager single-swap local search: stop once every position has been
    scored, with no swap, against the current centers.

    Fully deterministic: greedy farthest-point initialization from the
    smallest id (ties to the smaller id), then sweeps over the positions in
    ascending order. Each candidate's best swap, scored with the current
    nearest and second-nearest distances, is made at once if it lowers the
    risk by a relative 1e-12, which avoids float-noise cycling. The search
    stops at the first block of positions that starts past the last swap's
    position, in a later sweep: the rest of the sweep would score each
    candidate as before, with the same centers. `max_iters` bounds the
    sweeps, the last of them possibly cut short; beta = 5 holds only for a
    solve that stops on that rule, at a single-swap local optimum.

    Distances. Up to `_MATRIX_LIMIT` points the search keeps one matrix:
    for coordinates of `_SCREEN_DIM` or more dims `_swap_screen`'s float32
    screen, otherwise the exact `pairwise` matrix. Above the limit,
    coordinates of 1 to `_SCREEN_DIM` - 1 dims are screened in float32 tile
    by tile (`_diff_screen`), each tile computed with its columns already
    grouped by the current slots; every other input recomputes its tiles of
    exact rows each pass. On a screen, exact float64 rows are computed once
    for each seeding center and then only for each candidate that the
    screen cannot rule out, which includes every swapped-in row. Every swap
    is decided on exact scores, so all four paths select the same centers.
    Once a screen has passed more than m / 8 rows that made no swap, as on
    clusters far tighter than their span, the solve finishes on exact rows:
    the matrix up to the limit, recomputed tiles past it.

    Screen. Work in the screen's units, 2^exp times the distances: scaling
    by a power of two is exact but for underflow. The screen scores each
    tile with d1 and d2 scaled and rounded to float32, and sums in float64.
    Let T = cur (1 - 1e-12) be the swap threshold and T' = 2^exp T. A row
    whose best screened score is below T' + S_i is rescored exactly, in
    order, and the first exact score below T is the swap. No swap is
    missed. Take a slot whose exact score X is below T, let R be its real
    score sum_j min(D'_j, e'_j), with e' = 2^exp d2 on the points the slot
    serves and 2^exp d1 elsewhere, and R_s the same sum over the screen
    and the float32 e. min is monotone and 1-Lipschitz in each argument,
    so a screen's |s_j - D'_j| <= err_i + c D'_j, with c = 2^-23 for
    `_swap_screen` and 2^-21 for `_diff_screen`, and e's rounding (2^-24
    relative, or 2^-150) give |R_s - R| <= m err_i + c R. The exact sums
    add nonnegative terms, so 2^exp X is within (m + 3) 2^-53 R of R, and
    R <= T' (1 + (m + 4) 2^-53), plus 2^-1074 where scaling T underflows.
    The screened score adds its float32 differences' rounding (2^-24 R_s,
    or 2^-150 a term) and its float64 sums' ((m + 2) 2^-53 R_s, in any
    order, so a tile grouped by slot needs no more). Their total stays below
      S_i = m err_i + T' (4 c + (2 m + 8) 2^-53),
    with room for the second-order terms and for rounding T' + S_i; err_i
    holds 2^-140 for every floor. On the exact matrix and the recomputed
    tiles, exp = 0 and S = 0: the scores are the exact ones, and the first
    row below T is the swap.
    """
    ids = _point_ids(points, data.n, unique=True)
    if ids.size == 0:
        raise ContractError("input set must be nonempty")
    k = _whole(k, "k")
    max_iters = _whole(max_iters, "max_iters")
    m = ids.size
    if k >= m:
        return CenterSet.of(ids)

    views, rows_of, exp, rel, slack = _distance_source(ids, data, screen=True)
    misses = 0  # exact rows that the screen passed and that made no swap

    centers, seeded, dmin = [], [], np.full(m, np.inf)  # the first pick, the first maximum, is position 0
    for _ in range(k):
        centers.append(int(dmin.argmax()))
        seeded.append(rows_of([centers[-1]])[0])
        np.minimum(dmin, seeded[-1], out=dmin)
    center_rows = np.array(seeded)
    state = _assign(center_rows)
    tiles_of, *scored = views(state)
    cur = float(state[0].sum())
    last = -1  # sweep * m + position of the last swap, as if one came just before the first sweep
    for sweep in range(max_iters):
        for blk in row_blocks(m, m):
            if sweep * m + blk.start > last + m:
                # every position has been scored against the current centers
                return CenterSet.of(ids[centers])
            if tiles_of is not rows_of and misses > m // 8:
                # the screen is too loose for these points: finish on exact rows.
                # An exact row costs about 3 rows of the matrix (64-d, m = 2,000) or
                # of a recomputed tile (2-d, m = 4,200), so at most about 3/8 of a
                # matrix build, or of one pass over the tiles, is lost.
                views, rows_of, exp, rel, slack = _distance_source(ids, data, screen=False)
                tiles_of, *scored = views(state)
            tile = tiles_of(blk)
            i = 0  # tile rows from i on are yet to be scored against the current centers
            while i < tile.shape[0]:
                thr = cur * (1.0 - 1e-12)
                risks = _swap_risks(tile[i:], k, *scored, *state[3:])
                bound = ldexp(thr, exp) * (1.0 + rel) + slack[blk.start + i : blk.stop]
                # a NaN score, as from coordinates whose mean overflows, passes too
                for hit in np.flatnonzero(~(risks.min(axis=1) >= bound)):
                    pos = blk.start + i + int(hit)
                    if tiles_of is rows_of:
                        row, scores = tile[i + hit], risks[hit]
                    elif pos in centers:
                        continue  # a center's row is nowhere below d1, so each exact score is >= cur
                    else:
                        row = rows_of([pos])[0]
                        scores = _swap_risks(row[None], k, *state)[0]
                    if scores.min() < thr:
                        break
                    misses += 1
                else:
                    break  # no swap in the rest of this tile
                slot = int(np.argmin(scores))
                i += int(hit)
                centers[slot] = pos
                center_rows[slot] = row
                state = _assign(center_rows)
                tiles_of, *scored = views(state)
                cur = float(state[0].sum())
                last = sweep * m + blk.start + i
                i += 1
                if scored[2] is None:  # the rest of the tile is grouped by the old slots
                    tile[i:] = tiles_of(slice(blk.start + i, blk.stop))
    return CenterSet.of(ids[centers])


def _distance_source(ids: np.ndarray, data: Dataset, screen: bool):
    """(views, rows_of, exp, rel, slack) for `solve_local_search`.

    rows_of(sel) gives the exact rows that decide the swaps. views(state),
    for an `_assign` state, gives (tiles_of, d1, d2, order): tiles_of(sel)
    the rows that swaps are scored on, in units of 2^exp, and the rest of
    their `_swap_risks` arguments. On `_diff_tile`'s screen the tiles'
    columns, d1 and d2 come grouped by slot, and order is None. On the
    exact paths, the matrix up to `_MATRIX_LIMIT` points and recomputed rows
    past it, tiles_of is rows_of and exp, rel and slack are 0.
    """
    m = ids.size
    dim = data.dim or 0
    # a matrix of `_swap_screen` values up to the limit from `_SCREEN_DIM` dims on;
    # `_diff_tile`'s tiles past it below `_SCREEN_DIM` dims
    if screen and dim and (dim < _SCREEN_DIM) == (m > _MATRIX_LIMIT):
        # exact rows are `_pair_dists` over the points gathered here, not `pairwise`
        # rows: one 64-d row of 2,000 points took 0.26 ms against 1.2 ms (min of
        # 7 x 100 calls, one BLAS thread, 2-vCPU Intel Xeon host)
        pts = data.coords[ids]
        rows_of = lambda sel: _pair_dists(pts[sel, None], pts)
        if m <= _MATRIX_LIMIT:
            tiles, exp, err = _swap_screen(pts)
            views = lambda state: (tiles.__getitem__, _in_units(state[0], exp), _in_units(state[1], exp), state[2])
            return views, rows_of, exp, 4 * 2.0**-23 + (2 * m + 8) * 2.0**-53, m * err
        f, exp, err = _diff_screen(pts)

        def views(state):
            order = state[2]
            cols = f[:, order]  # regrouped once per swap
            tiles_of = lambda sel: _diff_tile(f[:, sel], cols)
            return tiles_of, _in_units(state[0][order], exp), _in_units(state[1][order], exp), None

        return views, rows_of, exp, 4 * 2.0**-21 + (2 * m + 8) * 2.0**-53, m * err
    if m > _MATRIX_LIMIT:
        rows_of = lambda sel: data.pairwise(ids[sel], ids)
    else:
        rows_of = data.pairwise(ids, ids).__getitem__
    return lambda state: (rows_of, *state[:3]), rows_of, 0, 0.0, np.zeros(m)


def _in_units(d: np.ndarray, exp: int) -> np.ndarray:
    """Distances scaled by 2^exp and rounded to float32, as a screen scores them."""
    return np.ldexp(d, exp).astype(np.float32)


def exhaustive_solver() -> Solver:
    return Solver(name="exhaustive", beta=1.0, _fn=solve_exhaustive)


def local_search_solver(max_iters: int = 100) -> Solver:
    """`solve_local_search` with beta = 5 (held on convergence), at most `max_iters` passes."""
    max_iters = _whole(max_iters, "max_iters")
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
