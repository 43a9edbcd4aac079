from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from munsc import (
    CenterSet,
    ContractError,
    Dataset,
    build_division,
    check_well_represented,
    far_r,
    get_solver,
    risk,
    solve_exhaustive,
    solve_local_search,
    tail_risk_bound_holds,
    truncated_risk,
)
import munsc.metric as metric_mod
from munsc.metric import farthest_order, nearest_dists, row_blocks


def linear_scan_nearest(data, x, centers):
    best_c, best_d = None, math.inf
    for c in sorted(centers):
        d = data.dist(x, c)
        if d < best_d:
            best_c, best_d = c, d
    return best_c, best_d


class TestDataset:
    def test_coords_basic(self):
        ds = Dataset.from_coords([[0.0, 0.0], [3.0, 4.0]])
        assert ds.n == 2 and ds.mode == "euclidean" and ds.dim == 2
        assert ds.dist(0, 1) == pytest.approx(5.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractError):
            Dataset.from_coords([[0.0], [math.nan]])
        with pytest.raises(ContractError):
            Dataset.from_matrix([[0.0, math.inf], [math.inf, 0.0]])

    def test_rejects_overflowing_span(self):
        """The squared span sum_t (max_t - min_t)^2 must stay below half the
        largest float, 8.99e307 (9.48e153 squared), so that no squared
        distance overflows; how far apart the columns sit does not count."""
        for bad in ([[0.0, 0.0], [9.5e153, 0.0]], [[0.0, 0.0], [7e153, 7e153]], [[-1e308], [1e308]]):
            with pytest.raises(ContractError, match="^coordinates span too far"):
                Dataset.from_coords(bad)
        with pytest.raises(ContractError, match="^coordinates must be finite$"):
            Dataset.from_coords([[0.0, 1.0], [0.0, -math.inf]])
        wide = Dataset.from_coords([[0.0, 0.0], [9.4e153, 0.0]])
        assert wide.pairwise([0, 1], [0, 1]).tolist() == [[0.0, 9.4e153], [9.4e153, 0.0]]
        apart = Dataset.from_coords([[1e300, -1e300, 0.0], [1e300, -1e300, 3.0], [1e300, -1e300, 7.0]])
        assert apart.pairwise([0, 1, 2], [0]).ravel().tolist() == [0.0, 3.0, 7.0]
        assert Dataset.from_coords(np.empty((3, 0))).pairwise([0], [1, 2]).tolist() == [[0.0, 0.0]]

    def test_matrix_validation(self):
        good = [[0.0, 1.0], [1.0, 0.0]]
        assert Dataset.from_matrix(good).mode == "matrix"
        with pytest.raises(ContractError):
            Dataset.from_matrix([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
        with pytest.raises(ContractError):
            Dataset.from_matrix([[1.0, 1.0], [1.0, 0.0]])  # nonzero diagonal
        with pytest.raises(ContractError):
            Dataset.from_matrix([[0.0, -1.0], [-1.0, 0.0]])  # negative

    def test_matrix_triangle_violation(self):
        bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        with pytest.raises(ContractError):
            Dataset.from_matrix(bad)

    def test_matrix_triangle_sampled_for_large_n(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(250, 2))
        ds = Dataset.from_coords(pts)
        ids = np.arange(250)
        Dataset.from_matrix(ds.pairwise(ids, ids))  # valid metric passes sampling

    def test_immutable_arrays(self):
        ds = Dataset.from_coords([[0.0], [1.0]])
        with pytest.raises(ValueError):
            ds.coords[0, 0] = 5.0

    def test_id_range_checked(self):
        ds = Dataset.from_coords([[0.0], [1.0]])
        with pytest.raises(ContractError):
            ds.dist(0, 2)


def nearest_center(x, centers, data):
    """(center id, distance) of one point's nearest center, by `nearest_dists`."""
    dist, pos = nearest_dists(np.array([x]), centers, data)
    return centers.ids[int(pos[0])], float(dist[0])


class TestNearestCenter:
    """`nearest_dists` as a one-point lookup, against a linear scan."""

    def test_member_of_center_set(self, line_dataset):
        assert nearest_center(2, CenterSet.of([2, 3]), line_dataset) == (2, 0.0)

    def test_symmetric_tie_breaks_to_smaller_id(self):
        ds = Dataset.from_coords([[0.0], [1.0], [2.0]])
        assert nearest_center(1, CenterSet.of([0, 2]), ds) == (0, 1.0)
        assert nearest_center(1, CenterSet.of([0, 2]), Dataset.from_matrix(ds.pairwise(range(3), range(3)))) == (0, 1.0)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(17)
        ds = Dataset.from_coords(rng.normal(size=(20, 3)))
        centers = CenterSet.of([4, 11, 17])
        for x in range(20):
            assert nearest_center(x, centers, ds) == linear_scan_nearest(ds, x, centers.ids)

    def test_empty_center_set_rejected(self, line_dataset):
        with pytest.raises(ContractError):
            nearest_dists(np.array([0]), CenterSet(()), line_dataset)
        with pytest.raises(ContractError):
            nearest_dists(np.empty(0, dtype=np.int64), CenterSet(()), line_dataset)

    def test_deterministic(self, line_dataset):
        t = CenterSet.of([0, 2])
        first = nearest_center(1, t, line_dataset)
        assert all(nearest_center(1, t, line_dataset) == first for _ in range(5))


def test_row_blocks_cover_the_range(monkeypatch):
    monkeypatch.setattr(metric_mod, "_BLOCK_CELLS", 30)
    monkeypatch.setattr(metric_mod, "_CHUNK_CELLS", 90)
    for whole, count, row_cells, max_rows in itertools.product(
        (False, True), (0, 1, 2, 7, 30, 31, 100), (0, 1, 3, 10, 29, 30, 31, 1000), (None, 1, 4)
    ):
        budget = 90 if whole else 30
        full = max(1, min(budget // max(1, row_cells), max_rows or budget))  # the most rows a block may hold
        blocks = list(row_blocks(count, row_cells, whole, max_rows))
        assert [i for blk in blocks for i in range(count)[blk]] == list(range(count))
        assert all(blk.step is None and 1 <= blk.stop - blk.start <= full for blk in blocks)
        assert all(blk.stop - blk.start == full for blk in blocks[:-1])


def broadcast_pairwise(x, rows, cols):
    """The rows x cols x dim broadcast formula that `Dataset.pairwise` must reproduce bit for bit."""
    diff = x[rows][:, None, :] - x[cols][None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


class TestPairwise:
    """The per-coordinate kernel against the broadcast formula, bit for bit."""

    # every branch of numpy's pairwise summation: sequential, 8 accumulators
    # with and without a remainder, and the recursive halving above 128
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 65, 128, 129, 130, 300])
    def test_matches_broadcast(self, dim, monkeypatch):
        monkeypatch.setattr(metric_mod, "_BLOCK_CELLS", 300)  # 10-row chunks: 4 per call
        rng = np.random.default_rng(100 + dim)
        normal = rng.normal(size=(40, dim))
        lattice = np.round(normal)
        lattice[20:] = lattice[:20]  # every row duplicated
        rows = rng.permutation(40)
        cols = np.arange(0, 40, 4).repeat(3)  # 30 columns, each id three times
        for pts in (normal, lattice):
            for offset in (0.0, 1e3, 1e6, 1e8):
                if dim:  # at 1e155 the squares would overflow
                    with pytest.raises(ContractError, match="^coordinates span too far"):
                        Dataset.from_coords((pts + offset) * 1e155)
                # at 1e-160 the squares underflow; 1e152 is the largest power of ten accepted
                for scale in (1.0, 1e-160, 1e152):
                    x = (pts + offset) * scale
                    ds = Dataset.from_coords(x)
                    block = ds.pairwise(rows, cols)
                    twins = ds.pairwise(np.arange(20), np.arange(20, 40))
                    assert block.tobytes() == broadcast_pairwise(x, rows, cols).tobytes()
                    assert np.all(block[rows[:, None] == cols[None, :]] == 0.0)  # d(x, x) = 0
                    if pts is lattice:  # ids i and i + 20 are the same point
                        assert np.all(np.diag(twins) == 0.0)

    def test_many_chunks_at_default_budget(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(700, 2)) * 1e4
        ds = Dataset.from_coords(x)
        rows, cols = rng.permutation(700), rng.permutation(700)[:300]  # 218 rows a chunk
        assert ds.pairwise(rows, cols).tobytes() == broadcast_pairwise(x, rows, cols).tobytes()

    @pytest.mark.parametrize("dim", [2, 9, 130])
    def test_point_to_ids_matches_a_pairwise_row(self, dim):
        rng = np.random.default_rng(dim)
        ds = Dataset.from_coords(rng.normal(size=(50, dim)) + 1e6)
        ids = rng.permutation(50)
        block = ds.pairwise(ids, ids)
        for i, x in enumerate(ids):
            assert ds.point_to_ids(int(x), ids).tobytes() == block[i].tobytes()

    # the exact oracle reads row c of pairwise(ids, ids) as column c
    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 64, 129])
    def test_square_block_is_exactly_symmetric(self, dim, monkeypatch):
        monkeypatch.setattr(metric_mod, "_BLOCK_CELLS", 300)  # several chunks per call
        rng = np.random.default_rng(dim)
        ids = rng.permutation(40)
        for offset in (0.0, 1e6):
            ds = Dataset.from_coords(rng.normal(size=(40, dim)) + offset)
            for data in (ds, Dataset.from_matrix(ds.pairwise(range(40), range(40)))):
                block = data.pairwise(ids, ids)
                assert np.array_equal(block, block.T)
                assert block.tobytes() == block.T.tobytes()

    # both sides of the mirror gate: square blocks of 8 dims or more compute the upper half
    @pytest.mark.parametrize("dim", [2, 7, 8, 9, 64, 129])
    def test_mirrored_square_block_matches_broadcast(self, dim, monkeypatch):
        monkeypatch.setattr(metric_mod, "_BLOCK_CELLS", 400)  # 10-row blocks: 4 to 5 per call
        computed = []

        def counting(a, b):
            if a.shape[0] == dim:  # not the halves it recurses into above 128 dims
                computed.append(a.shape[1] * b.shape[1])
            return sum_squares(a, b)

        sum_squares = metric_mod._sum_squares
        monkeypatch.setattr(metric_mod, "_sum_squares", counting)
        rng = np.random.default_rng(200 + dim)
        pts = rng.normal(size=(40, dim))
        unsorted = rng.permutation(40)
        repeated = np.concatenate((unsorted[:30], unsorted[:10]))  # 40 ids, ten of them twice
        other = rng.permutation(40)  # same size as `unsorted`, different order: never mirrored
        for offset in (0.0, 1e6):
            with pytest.raises(ContractError, match="^coordinates span too far"):
                Dataset.from_coords((pts + offset) * 1e155)
            for scale in (1.0, 1e-160, 1e152):  # 1e152: the largest power of ten accepted
                x = (pts + offset) * scale
                ds = Dataset.from_coords(x)
                for rows, cols in ((unsorted, unsorted), (repeated, repeated), (unsorted, other)):
                    computed.clear()
                    block = ds.pairwise(rows, cols)
                    assert block.tobytes() == broadcast_pairwise(x, rows, cols).tobytes()
                    mirrored = dim >= 8 and rows is cols
                    assert (sum(computed) < 40 * 40) == mirrored

    def test_empty_blocks(self, line_dataset):
        empty = np.empty(0, dtype=np.int64)
        assert line_dataset.pairwise(empty, [0, 1]).shape == (0, 2)
        assert line_dataset.pairwise([0, 1], empty).shape == (2, 0)


def assert_kernel_matches_pairwise(ds, ids, centers, monkeypatch):
    """`nearest_dists` against the full block, through the float32 screen (never
    redone in float64) and through the float64 screen."""
    block = ds.pairwise(ids, centers.to_array())
    for f32_cols, f32_kept in ((0, math.inf), (math.inf, 0)):
        monkeypatch.setattr(metric_mod, "_F32_COLS", f32_cols)
        monkeypatch.setattr(metric_mod, "_F32_KEPT", f32_kept)
        dist, pos = nearest_dists(ids, centers, ds)
        assert dist.tobytes() == block.min(axis=1).tobytes()
        np.testing.assert_array_equal(pos, block.argmin(axis=1))


def tight_clusters(dim, per_cluster, centers_per_cluster, seed=5):
    """10 clusters of sd 0.001 with means uniform over +-1000: the point ids and
    center ids. Float32 cannot tell a cluster's centers apart; float64 can."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(-1000.0, 1000.0, size=(10, dim))
    x = np.repeat(means, per_cluster, axis=0) + rng.normal(scale=0.001, size=(10 * per_cluster, dim))
    cids = (np.arange(10)[:, None] * per_cluster + np.arange(centers_per_cluster)[None, :]).ravel()
    return Dataset.from_coords(x), np.setdiff1d(np.arange(10 * per_cluster), cids), CenterSet.of(cids)


class TestNearestDists:
    """The screened kernel against the full distance block, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 64, 65])
    def test_matches_pairwise(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        normal = rng.normal(size=(120, dim))
        lattice = np.round(normal)  # few distinct coordinates: many exact ties
        lattice[60:] = lattice[:60]  # every row duplicated
        ids = np.arange(120)
        for pts in (normal, lattice):
            for offset in (0.0, 1e3, 1e6, 1e8):
                with pytest.raises(ContractError, match="^coordinates span too far"):
                    Dataset.from_coords((pts + offset) * 1e155)  # the squares would overflow
                # at 1e-160 the squares underflow; 1e152 is the largest power of ten accepted
                for scale in (1.0, 1e-160, 1e152):
                    ds = Dataset.from_coords((pts + offset) * scale)
                    centers = CenterSet.of(rng.choice(120, size=25, replace=False))
                    assert_kernel_matches_pairwise(ds, ids, centers, monkeypatch)

    def test_matches_pairwise_across_tiles(self, monkeypatch):
        rng = np.random.default_rng(21)
        ds = Dataset.from_coords(rng.normal(size=(1000, 8)) + 50.0 * rng.integers(0, 3, size=(1000, 1)))
        ids = rng.permutation(1000)[:900]
        assert_kernel_matches_pairwise(ds, ids, CenterSet.of(rng.choice(1000, size=300, replace=False)), monkeypatch)

    def test_matrix_mode(self, monkeypatch):
        rng = np.random.default_rng(4)
        pts = np.round(rng.normal(size=(60, 2)))
        ids = np.arange(60)
        ds = Dataset.from_matrix(Dataset.from_coords(pts).pairwise(ids, ids))
        assert_kernel_matches_pairwise(ds, ids, CenterSet.of(rng.choice(60, size=9, replace=False)), monkeypatch)

    def test_float32_near_tie(self, monkeypatch):
        """Two centers whose squared distances to a row differ by 14 ulps (2^-24).

        Row A = (1, 1/16, ..., 1/16) in 64-d, centers C and C' with first
        coordinates 0.75 and 0.75 + 224 ulps, the rest +-h, h = (1 - 2^-10)
        2^-25 / (1/16): after the first product -1.5, each of the 63 small
        products -2 A_t C_t is just under half an ulp, so a sum accumulated in
        order, as GEMM kernels do, loses them all, toward C' for both centers.
        The screen then puts C 112 ulps above C', though C is 14 ulps nearer:
        past a quarter of the slack (76 ulps), inside all of it. The centers
        come in +- pairs, which keeps the shift at 0 and the scale at 1."""
        dim = 64
        row = np.full(dim, 1 / 16)
        row[0] = 1.0
        h = (1 - 2.0**-10) * 2.0**-25 * 16
        near, far = np.full(dim, h), np.full(dim, -h)
        near[0], far[0] = 0.75, 0.75 + 224 * 2.0**-24
        others = 0.9 * np.eye(dim)[1:17]
        centers = np.vstack([near, -near, far, -far, others, -others])
        # OpenBLAS hands smaller products to a kernel that splits each sum into
        # lanes; 256 rows by 36 centers take the one that sums in order
        x = np.vstack([np.tile(row, (256, 1)), centers])
        assert not x[256:].mean(axis=0).any()
        ds = Dataset.from_coords(x)
        ids, cs = np.arange(256), CenterSet.of(range(256, x.shape[0]))
        assert np.all(ds.pairwise(ids, cs.to_array()).argmin(axis=1) == 0)
        assert_kernel_matches_pairwise(ds, ids, cs, monkeypatch)

    @pytest.mark.parametrize("dim", [2, 64])
    def test_float32_falls_back_to_float64(self, dim, monkeypatch):
        ds, ids, centers = tight_clusters(dim, 220, 20)  # 2,000 rows, 200 centers
        monkeypatch.setattr(metric_mod, "_F32_COLS", 0)
        screens, refined = [], []

        def screen(*args):
            found = screened(*args)
            screens.append((args[6].dtype, found is None))
            return found

        def exact(x, rows, cols):
            refined.append(rows.size)
            return exact_dists(x, rows, cols)

        screened, exact_dists = metric_mod._screened_nearest, metric_mod._exact_dists
        monkeypatch.setattr(metric_mod, "_screened_nearest", screen)
        monkeypatch.setattr(metric_mod, "_exact_dists", exact)
        dist, pos = nearest_dists(ids, centers, ds)
        # the first float32 tile keeps a whole cluster, 20 columns a row, and gives way to float64
        assert screens[:2] == [(np.float32, True), (np.float64, False)]
        assert all(dtype == np.float64 for dtype, _ in screens[1:])
        assert sum(refined) <= 2 * ids.size
        block = ds.pairwise(ids, centers.to_array())
        assert dist.tobytes() == block.min(axis=1).tobytes()
        np.testing.assert_array_equal(pos, block.argmin(axis=1))

    @pytest.mark.parametrize("dim", [2, 64])
    def test_all_centers_identical(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(60, dim)) + 1e3
        x[40:] = x[40]  # ids 40..59 are one point
        ds = Dataset.from_coords(x)
        ids = np.arange(60)
        assert_kernel_matches_pairwise(ds, ids, CenterSet.of(range(40, 60)), monkeypatch)
        assert np.all(nearest_dists(ids, CenterSet.of(range(40, 60)), ds)[1] == 0)

    def test_row_overflowing_float32_is_refined_whole(self, monkeypatch):
        """Centers 1e-9 apart scale by about 2^30, which sends a row 1e30 away
        past the float32 range: that row is refined over every column."""
        rng = np.random.default_rng(7)
        x = rng.normal(scale=1e-9, size=(80, 3))
        x[0] = 1e30
        ds = Dataset.from_coords(x)
        ids, centers = np.arange(60), CenterSet.of(range(60, 80))
        refined = []

        def exact(x, rows, cols):
            refined.append(rows)
            return exact_dists(x, rows, cols)

        exact_dists = metric_mod._exact_dists
        monkeypatch.setattr(metric_mod, "_exact_dists", exact)
        assert_kernel_matches_pairwise(ds, ids, centers, monkeypatch)
        assert np.count_nonzero(refined[0] == 0) == 20  # the float32 screen's call

    def test_empty_ids(self, line_dataset):
        dist, pos = nearest_dists(np.empty(0, dtype=np.int64), CenterSet.of([1]), line_dataset)
        assert dist.size == 0 and pos.size == 0

    def test_risk_peak_memory_is_tiled(self):
        # the full 20000 x 2000 block alone would take 320 MB
        rng = np.random.default_rng(8)
        ds = Dataset.from_coords(rng.normal(size=(20_000, 8)))
        centers = CenterSet.of(rng.choice(20_000, size=2_000, replace=False))
        tracemalloc.start()
        try:
            risk(range(20_000), centers, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestRisk:
    def test_all_points_are_centers(self, line_dataset):
        t = CenterSet.of([0, 1, 2, 3])
        assert risk([0, 1, 2, 3], t, line_dataset) == 0.0

    def test_line_single_center(self):
        ds = Dataset.from_coords([[0.0], [1.0], [2.0]])
        assert risk([0, 1, 2], CenterSet.of([0]), ds) == 3.0

    def test_empty_points(self, line_dataset):
        assert risk([], CenterSet.of([0]), line_dataset) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(5)
        ds = Dataset.from_coords(rng.normal(size=(10, 2)))
        t = CenterSet.of([2, 7])
        expected = sum(min(ds.dist(p, c) for c in t) for p in range(10))
        assert risk(range(10), t, ds) == pytest.approx(expected)

    def test_monotone_in_points(self, pool_dataset):
        rng = np.random.default_rng(1)
        t = CenterSet.of([0, 50])
        s = set(int(i) for i in rng.choice(300, 80, replace=False))
        sub = set(list(s)[:40])
        assert risk(sub, t, pool_dataset) <= risk(s, t, pool_dataset)

    def test_antitone_in_centers(self, pool_dataset):
        small = CenterSet.of([0, 50])
        big = CenterSet.of([0, 50, 120])
        pts = range(300)
        assert risk(pts, big, pool_dataset) <= risk(pts, small, pool_dataset)


class TestFarSets:
    def test_r_zero(self, line_dataset):
        assert far_r([0, 1, 2, 3], CenterSet.of([0]), 0, line_dataset) == set()

    def test_two_largest(self, line_dataset):
        assert far_r([0, 1, 2, 3], CenterSet.of([0]), 2, line_dataset) == {2, 3}

    def test_trivial_far_set_returns_everything(self, line_dataset):
        s = {0, 1, 3}
        assert far_r(s, CenterSet.of([0]), len(s) + 3, line_dataset) == s

    def test_nested_in_r(self, pool_dataset):
        t = CenterSet.of([10, 200])
        pts = list(range(0, 300, 3))
        prev: set[int] = set()
        for r in range(0, len(pts) + 2):
            cur = far_r(pts, t, r, pool_dataset)
            assert prev <= cur
            prev = cur

    def test_distance_tie_prefers_smaller_id(self):
        ds = Dataset.from_coords([[0.0], [5.0], [-5.0], [5.0]])
        # ids 1, 2, 3 all at distance 5 from center 0
        assert far_r([0, 1, 2, 3], CenterSet.of([0]), 2, ds) == {1, 2}

    def test_negative_r_rejected(self, line_dataset):
        with pytest.raises(ContractError):
            far_r([0, 1], CenterSet.of([0]), -1, line_dataset)


class TestTruncatedRisk:
    def test_r_zero_equals_risk(self, pool_dataset):
        t = CenterSet.of([3, 33])
        pts = range(100)
        assert truncated_risk(pts, t, 0, pool_dataset) == risk(pts, t, pool_dataset)

    def test_line_example(self, line_dataset):
        assert truncated_risk([0, 1, 2, 3], CenterSet.of([0]), 2, line_dataset) == 1.0

    def test_r_at_least_size_gives_zero(self, line_dataset):
        assert truncated_risk([0, 1, 2], CenterSet.of([0]), 3, line_dataset) == 0.0
        assert truncated_risk([0, 1, 2], CenterSet.of([0]), 7, line_dataset) == 0.0

    def test_matches_sort_then_sum(self):
        rng = np.random.default_rng(11)
        ds = Dataset.from_coords(rng.normal(0, 5, size=(30, 2)))
        t = CenterSet.of([1, 14, 28])
        pts = sorted(range(30))
        mins = [min(ds.dist(p, c) for c in t) for p in pts]
        ranked = sorted(zip(pts, mins), key=lambda pair: (-pair[1], pair[0]))
        dropped = {p for p, _ in ranked[:7]}
        expected = float(np.sum(np.asarray([m for p, m in zip(pts, mins) if p not in dropped])))
        assert truncated_risk(pts, t, 7, ds) == expected

    def test_non_increasing_in_r(self, pool_dataset):
        t = CenterSet.of([7])
        pts = range(60)
        vals = [truncated_risk(pts, t, r, pool_dataset) for r in range(0, 65, 5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestCenterShortcut:
    """Centers take a distance of 0 without `nearest_dists`; every result keeps
    the bits of the formulas that sent each point to `nearest_dists`."""

    @staticmethod
    def scanned(points, centers, data):
        ids = metric_mod._point_ids(points, unique=True)
        d = nearest_dists(ids, centers, data)[0]
        return ids, d, ids[np.lexsort((ids, -d))]

    def assert_as_scanned(self, points, centers, data):
        ids, d, order = self.scanned(points, centers, data)
        assert risk(points, centers, data).hex() == float(np.sum(d)).hex()
        assert metric_mod.farthest_order(points, centers, data).tolist() == order.tolist()
        for r in (0, 1, 3, ids.size // 2, ids.size - 1):
            assert far_r(points, centers, r, data) == set(order[:r].tolist())
            if r < ids.size:
                keep = np.isin(ids, order[r:])
                assert truncated_risk(points, centers, r, data).hex() == float(np.sum(d[keep])).hex()

    @pytest.mark.parametrize("mode", ["coords", "matrix"])
    def test_matches_nearest_dists(self, mode):
        rng = np.random.default_rng(31)
        lattice = np.round(rng.normal(0, 3, size=(60, 9)))
        lattice[30:] = lattice[:30]  # ids i and i + 30 are the same point
        for x in (rng.normal(0, 5, size=(60, 9)) + 1e6, lattice):
            data = Dataset.from_coords(x)
            if mode == "matrix":
                data = Dataset.from_matrix(data.pairwise(range(60), range(60)))
            centers = CenterSet.of([3, 17, 33, 47])  # 3 and 33 are twins on the lattice
            cases = {
                "superset": range(60),
                "partial": range(10, 40),
                "disjoint": [0, 1, 2, 4, 30, 31, 59],
                "centers only": centers.ids,
            }
            for points in cases.values():
                self.assert_as_scanned(points, centers, data)

    def test_negative_zero_diagonal_is_normalized(self):
        m = np.array([[-0.0, 2.0, 3.0], [2.0, -0.0, 1.5], [3.0, 1.5, 0.0]])
        data = Dataset.from_matrix(m)  # -0.0 == 0.0, so validation accepts it
        assert not np.signbit(data.matrix).any()
        everything = CenterSet.of(range(3))
        assert risk(range(3), everything, data).hex() == "0x0.0p+0"
        assert nearest_dists(np.arange(3), everything, data)[0].tobytes() == np.zeros(3).tobytes()
        self.assert_as_scanned(range(3), CenterSet.of([0]), data)
        self.assert_as_scanned([0, 1], CenterSet.of([0, 1]), data)


ID_N = 12  # points in `id_data`, so an id of ID_N is out of range


def id_data():
    return Dataset.from_coords(np.random.default_rng(41).normal(size=(ID_N, 2)))


# Every public entry that takes point ids, as a call that puts the id x among
# valid ones. Entries marked False have no dataset to hold an id of ID_N against.
ID_ENTRIES = {
    "CenterSet.of": (False, lambda d, x: CenterSet.of([0, x])),
    "CenterSet": (False, lambda d, x: CenterSet((x,))),
    "Dataset.dist": (True, lambda d, x: d.dist(0, x)),
    "Dataset.dist first": (True, lambda d, x: d.dist(x, 0)),
    "Dataset.pairwise rows": (True, lambda d, x: d.pairwise([0, x], [1])),
    "Dataset.pairwise cols": (True, lambda d, x: d.pairwise([1], [0, x])),
    "Dataset.point_to_ids": (True, lambda d, x: d.point_to_ids(0, [1, x])),
    "Dataset.point_to_ids point": (True, lambda d, x: d.point_to_ids(x, [1])),
    "nearest_dists": (True, lambda d, x: nearest_dists([0, x], CenterSet.of([1]), d)),
    "risk": (True, lambda d, x: risk([0, x], CenterSet.of([1]), d)),
    "risk centers": (True, lambda d, x: risk(range(ID_N), CenterSet.of([1, x]), d)),
    "farthest_order": (True, lambda d, x: farthest_order([0, x], CenterSet.of([1]), d)),
    "far_r": (True, lambda d, x: far_r([0, x], CenterSet.of([1]), 1, d)),
    "truncated_risk": (True, lambda d, x: truncated_risk([0, 4, x], CenterSet.of([1]), 1, d)),
    "Solver.solve": (True, lambda d, x: get_solver("exhaustive").solve([0, 4, x], 1, d)),
    "solve_exhaustive": (True, lambda d, x: solve_exhaustive([0, 4, x], 1, d)),
    "solve_exhaustive k >= m": (True, lambda d, x: solve_exhaustive([0, 4, x], 3, d)),
    "solve_local_search": (True, lambda d, x: solve_local_search([0, 4, x], 1, d)),
    "build_division": (True, lambda d, x: build_division([0, 4, 7, x], CenterSet.of([1]), 2, d)),
    "check_well_represented": (False, lambda d, x: check_well_represented([0], [0], [0, x])),
    "tail_risk_bound_holds": (
        True,
        lambda d, x: tail_risk_bound_holds(build_division(range(ID_N), CenterSet.of([1]), 2, d), [x], 0.5, d),
    ),
}


@pytest.mark.parametrize(
    "entry, bad",
    [
        pytest.param(entry, bad, id=f"{entry}-{name}")
        for entry, (has_data, _) in ID_ENTRIES.items()
        for name, bad in {"1.5": 1.5, "2.0": 2.0, "True": True, "-1": -1, "n": ID_N}.items()
        if has_data or name != "n"
    ],
)
def test_every_entry_rejects_bad_ids(entry, bad):
    """A float id (whole or not), a bool, a negative id and an id past the
    dataset all raise ContractError: never an IndexError, never a result."""
    with pytest.raises(ContractError):
        ID_ENTRIES[entry][1](id_data(), bad)


@pytest.mark.parametrize(
    "bad",
    [np.array([0, 1.5]), np.array([0.0, 2.0]), np.array([True, False]), [[0, 1]]],
    ids=["fractions", "whole-floats", "bools", "nested"],
)
def test_array_ids_rejected(bad):
    data = id_data()
    with pytest.raises(ContractError):
        data.pairwise(bad, [0])
    with pytest.raises(ContractError):
        risk(bad, CenterSet.of([1]), data)
    with pytest.raises(ContractError):
        CenterSet.of(bad)


def test_as_id_array_inputs():
    """Every accepted form of the ids {1, 3, 5} gives the same result through each entry."""
    data = id_data()
    centers = CenterSet.of([2, 5])
    forms = [
        lambda: [5, 1, 3, 5],
        lambda: (np.int64(5), np.int32(1), 3),
        lambda: {3, 1, 5},
        lambda: (i for i in (3, 5, 1)),
        lambda: range(1, 6, 2),
        lambda: np.array([5, 3, 1, 1]),
        lambda: np.array([5, 3, 1], dtype=np.uint8),
        lambda: np.array([3, 1, 5], dtype=np.int32),
    ]

    def as_set(form):  # each entry gets a fresh input, since a generator reads once
        return (
            CenterSet.of(form()).ids,
            risk(form(), centers, data).hex(),
            farthest_order(form(), centers, data).tolist(),
            far_r(form(), centers, 2, data),
            truncated_risk(form(), centers, 1, data).hex(),
        )

    def in_order(form):
        return (
            data.pairwise(form(), [0, 4]).tobytes(),
            data.point_to_ids(0, form()).tobytes(),
            nearest_dists(form(), centers, data)[0].tobytes(),
        )

    expected = as_set(lambda: [1, 3, 5])
    for form in forms:
        assert as_set(form) == expected
        assert in_order(form) == in_order(lambda: list(form()))
        assert get_solver("exhaustive").solve(form(), 2, data) == solve_exhaustive([1, 3, 5], 2, data)
        assert solve_local_search(form(), 2, data) == solve_local_search([1, 3, 5], 2, data)
        assert build_division(form(), centers, 2, data).bins == build_division([1, 3, 5], centers, 2, data).bins
    for empty in ([], (), set(), range(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)):
        assert as_set(lambda: empty) == ((), "0x0.0p+0", [], set(), "0x0.0p+0")
        assert data.pairwise(empty, [0]).shape == (0, 1)


@pytest.mark.parametrize("entry", ["risk", "farthest_order", "far_r", "truncated_risk"])
def test_centers_checked_once(entry, monkeypatch):
    """Each entry puts its center ids through the id gate once, however many
    helpers read them."""
    data = id_data()
    centers = CenterSet.of([3, 7])
    seen = []
    gate = metric_mod._point_ids

    def spy(ids, *args, **kwargs):
        seen.append(np.asarray(ids).tolist())
        return gate(ids, *args, **kwargs)

    monkeypatch.setattr(metric_mod, "_point_ids", spy)
    call = getattr(metric_mod, entry)
    if entry in ("far_r", "truncated_risk"):
        call(range(ID_N), centers, 2, data)
    else:
        call(range(ID_N), centers, data)
    assert seen.count([3, 7]) == 1


def test_center_set_normalization():
    cs = CenterSet.of([5, 1, 5, 3])
    assert cs.ids == (1, 3, 5)
    assert len(cs) == 3 and 3 in cs and 2 not in cs
    assert 0 not in cs and 6 not in cs and 5 in cs and 1 in cs
    with pytest.raises(ContractError):
        CenterSet((3, 1))
