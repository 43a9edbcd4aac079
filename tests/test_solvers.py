from __future__ import annotations

import itertools
from math import comb

import numpy as np
import pytest

from munsc import (
    BudgetExceededError,
    CenterSet,
    ContractError,
    Dataset,
    get_solver,
    risk,
    solve_exhaustive,
    solve_local_search,
)
import munsc.metric as metric_mod
import munsc.solvers as solvers_mod
from munsc.metric import nearest_dists
from munsc.solvers import EXHAUSTIVE_BUDGET


def reversed_enumeration_opt(data: Dataset, ids, k):
    """Independent oracle: enumerate subsets in reversed lexicographic order,
    keeping non-strict improvements so the last optimum seen is the
    lexicographically smallest."""
    ids = sorted(ids)
    best, best_risk = None, float("inf")
    for combo in reversed(list(itertools.combinations(ids, k))):
        r = risk(ids, CenterSet.of(combo), data)
        if r <= best_risk:
            best, best_risk = combo, r
    return CenterSet.of(best), best_risk


def near_tie_dataset(seed):
    """Random coordinates at a random scale: risks of distinct subsets often
    differ only in their last bits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 64))
    dim = int(rng.integers(1, 4))
    return Dataset.from_coords(rng.normal(size=(n, dim)) * 10 ** rng.uniform(-3, 6))


def near_tie_dataset_nd(seed, dim):
    """`near_tie_dataset` in `dim` dims, with about a quarter of its rows
    copies of others."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 64))
    x = rng.normal(size=(n, dim)) * 10 ** rng.uniform(-3, 6)
    x[rng.integers(0, n, n // 4)] = x[rng.integers(0, n, n // 4)]
    return Dataset.from_coords(x)


def screened_datasets():
    """Coordinates of 8 to 200 dims, which local search scores on its float32
    screen: near ties at random scales with duplicated rows, all-equal points,
    a squared span just inside `metric._MAX_SPAN_SQ`, coordinates whose
    squares underflow, and clusters far tighter than their span."""
    out = [near_tie_dataset_nd(seed, dim) for seed in (34, 54, 71, 75) for dim in (8, 16, 64, 200)]
    out.append(Dataset.from_coords(np.full((20, 16), -7.25)))
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=(30, 8))
    span_sq = np.sum(np.square(x.max(axis=0) - x.min(axis=0)))
    out.append(Dataset.from_coords(x * np.sqrt(0.99 * metric_mod._MAX_SPAN_SQ / span_sq)))
    out.append(Dataset.from_coords(rng.normal(size=(30, 64)) * 1e-160))
    means = rng.uniform(size=(4, 8))
    out.append(Dataset.from_coords(means[rng.integers(0, 4, 60)] + 1e-9 * rng.normal(size=(60, 8))))
    return out


def assert_single_swap_optimum(data: Dataset, ids, k):
    """No (remove, insert) pair, scored by `risk()`, beats the converged
    local search by more than its relative 1e-12 threshold."""
    ids = list(ids)
    out = solve_local_search(ids, k, data)
    cur = risk(ids, out, data)
    for r in out.ids:
        for c in set(ids) - set(out.ids):
            swapped = CenterSet.of(set(out.ids) - {r} | {c})
            assert risk(ids, swapped, data) >= cur * (1.0 - 1e-12), (r, c)


@pytest.fixture(params=["default", "small"])
def exhaustive_budget(request, monkeypatch):
    """Run at the default block budgets and at ones so small that the search
    descends into prefixes and enumerates many small batches, and the k = 2
    search scores its pairs a few at a time (three at m = 100)."""
    if request.param == "small":
        monkeypatch.setattr(metric_mod, "_CHUNK_CELLS", 300)
        monkeypatch.setattr(metric_mod, "_BLOCK_CELLS", 300)
    return request.param


def two_blobs(m, seed):
    """Two far-apart Gaussian blobs with a few outliers between them."""
    rng = np.random.default_rng(seed)
    k = m - m // 20
    return np.vstack(
        [rng.normal(size=(k // 2, 2)), rng.normal(size=(k - k // 2, 2)) + [30.0, 0.0], rng.uniform(-10, 40, size=(m - k, 2))]
    )


class TestExhaustive:
    def test_k_at_least_size_returns_input(self, line_dataset):
        out = solve_exhaustive([2, 0, 3], 5, line_dataset)
        assert out.ids == (0, 2, 3)
        assert risk([0, 2, 3], out, line_dataset) == 0.0

    def test_two_pair_line(self):
        ds = Dataset.from_coords([[0.0], [1.0], [10.0], [11.0]])
        out = solve_exhaustive(range(4), 2, ds)
        assert risk(range(4), out, ds) == 2.0
        assert out.ids == (0, 2)  # lexicographically smallest optimum

    def test_matches_reversed_enumeration(self):
        rng = np.random.default_rng(23)
        ds = Dataset.from_coords(rng.normal(0, 4, size=(8, 2)))
        out = solve_exhaustive(range(8), 2, ds)
        oracle, oracle_risk = reversed_enumeration_opt(ds, range(8), 2)
        assert out.ids == oracle.ids
        assert risk(range(8), out, ds) == pytest.approx(oracle_risk)

    def test_k_one(self):
        rng = np.random.default_rng(7)
        ds = Dataset.from_coords(rng.normal(size=(12, 2)))
        out = solve_exhaustive(range(12), 1, ds)
        sums = [risk(range(12), CenterSet.of([c]), ds) for c in range(12)]
        assert out.ids == (int(np.argmin(sums)),)

    @pytest.mark.parametrize("seed", [34, 54, 71, 75])
    def test_near_ties_k_two(self, seed, exhaustive_budget):
        ds = near_tie_dataset(seed)
        assert solve_exhaustive(range(ds.n), 2, ds) == reversed_enumeration_opt(ds, range(ds.n), 2)[0]

    @pytest.mark.parametrize("seed", [2, 8, 20, 24, 25])
    def test_near_ties_k_one(self, seed, exhaustive_budget):
        # column sums in sequential order picked another center on these
        ds = near_tie_dataset(seed)
        assert solve_exhaustive(range(ds.n), 1, ds) == reversed_enumeration_opt(ds, range(ds.n), 1)[0]

    @pytest.mark.parametrize("k", [3, 9])
    def test_many_centers(self, k, exhaustive_budget):
        rng = np.random.default_rng(k)
        ds = Dataset.from_coords(np.round(rng.normal(size=(12, 2)) * 3))  # many exact ties
        assert solve_exhaustive(range(12), k, ds) == reversed_enumeration_opt(ds, range(12), k)[0]

    def test_matrix_mode(self, exhaustive_budget):
        coords = near_tie_dataset(71)
        ds = Dataset.from_matrix(coords.pairwise(range(coords.n), range(coords.n)))
        assert solve_exhaustive(range(ds.n), 2, ds) == reversed_enumeration_opt(ds, range(ds.n), 2)[0]
        assert solve_exhaustive(range(14), 3, ds) == reversed_enumeration_opt(ds, range(14), 3)[0]
        coords = Dataset.from_coords(np.round(two_blobs(40, 3)))  # many exact ties
        ds = Dataset.from_matrix(coords.pairwise(range(40), range(40)))
        assert solve_exhaustive(range(40), 2, ds) == reversed_enumeration_opt(ds, range(40), 2)[0]

    def test_subset_ids(self, pool_dataset, exhaustive_budget):
        subset = [3, 8, 17, 40, 41, 77, 120, 121, 200, 250, 251, 299, 5, 64]
        for k in (1, 2, 4):
            assert solve_exhaustive(subset, k, pool_dataset) == reversed_enumeration_opt(pool_dataset, subset, k)[0]
        subset = list(range(0, 300, 7)) + [1, 2, 150, 151, 299]  # a tree of several levels
        assert solve_exhaustive(subset, 2, pool_dataset) == reversed_enumeration_opt(pool_dataset, subset, 2)[0]

    def test_k_two_identical_points(self, exhaustive_budget):
        # every pair ties at 0, so no node pair can be dropped
        ds = Dataset.from_coords(np.full((20, 3), 7.5))
        assert solve_exhaustive(range(20), 2, ds).ids == (0, 1)
        assert solve_exhaustive(range(20), 2, ds) == reversed_enumeration_opt(ds, range(20), 2)[0]

    @pytest.mark.parametrize("m", [3, 4, 5, 9, 17, 33])
    def test_k_two_sizes(self, m, exhaustive_budget):
        rng = np.random.default_rng(m)
        for pts in (rng.normal(size=(m, 2)) * 10 ** rng.uniform(-3, 6), np.round(rng.normal(size=(m, 2)))):
            ds = Dataset.from_coords(pts)
            assert solve_exhaustive(range(m), 2, ds) == reversed_enumeration_opt(ds, range(m), 2)[0]

    def test_k_two_prunes_blobs(self, monkeypatch, exhaustive_budget):
        scored = []
        min_sums = solvers_mod._min_sums

        def spy(table, a, b, work):
            scored.append(a.size)
            return min_sums(table, a, b, work)

        monkeypatch.setattr(solvers_mod, "_min_sums", spy)
        ds = Dataset.from_coords(two_blobs(100, 8))
        assert solve_exhaustive(range(100), 2, ds) == reversed_enumeration_opt(ds, range(100), 2)[0]
        # the greedy start, every node bound and the exact stage together
        assert sum(scored) < comb(100, 2)

    def test_small_budget_descends_to_batches(self, monkeypatch):
        calls = []
        batch_best = solvers_mod._batch_best

        def spy(rows, prefix_min, start, r):
            calls.append((prefix_min is None, r))
            return batch_best(rows, prefix_min, start, r)

        monkeypatch.setattr(solvers_mod, "_batch_best", spy)
        monkeypatch.setattr(metric_mod, "_CHUNK_CELLS", 300)
        ds = Dataset.from_coords(np.random.default_rng(5).normal(size=(12, 2)))
        solve_exhaustive(range(12), 5, ds)
        assert all(not root for root, _ in calls)  # the root descended
        assert max(r for _, r in calls) > 1  # multi-level batches ran
        monkeypatch.setattr(metric_mod, "_CHUNK_CELLS", 10**6)
        calls.clear()
        solve_exhaustive(range(12), 5, ds)
        assert calls == [(True, 5)]  # one batch at the root

    def test_budget_guard(self):
        rng = np.random.default_rng(1)
        ds = Dataset.from_coords(rng.normal(size=(300, 2)))
        with pytest.raises(BudgetExceededError):
            solve_exhaustive(range(300), 3, ds)  # C(300,3) > budget
        assert EXHAUSTIVE_BUDGET == 1_000_000

    def test_subset_input(self, pool_dataset):
        subset = [5, 40, 77, 120, 200, 250]
        out = solve_exhaustive(subset, 2, pool_dataset)
        assert set(out.ids) <= set(subset)


class TestLocalSearch:
    def test_k_at_least_size(self, line_dataset):
        out = solve_local_search(range(4), 9, line_dataset)
        assert out.ids == (0, 1, 2, 3)

    @pytest.mark.parametrize("seed,k", [(0, 2), (1, 2), (2, 3), (3, 3), (4, 2)])
    def test_within_beta_of_exhaustive(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 16))
        ds = Dataset.from_coords(rng.normal(0, 10, size=(n, 2)))
        ls = risk(range(n), solve_local_search(range(n), k, ds), ds)
        opt = risk(range(n), solve_exhaustive(range(n), k, ds), ds)
        assert ls <= 5.0 * opt + 1e-12

    def test_deterministic(self, pool_dataset):
        a = solve_local_search(range(150), 4, pool_dataset, max_iters=30)
        b = solve_local_search(range(150), 4, pool_dataset, max_iters=30)
        assert a.ids == b.ids

    def test_risk_non_increasing_across_iterations(self, pool_dataset):
        risks = [
            risk(range(200), solve_local_search(range(200), 5, pool_dataset, max_iters=i), pool_dataset)
            for i in range(1, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(risks, risks[1:]))

    # tiles of 1 row, and of 7 rows at m = 120 (5 at m = 150, 21 at m = 40);
    # "matrix" screens the inputs of 8 or more dims, "unscreened" none of them
    @pytest.mark.parametrize("block_cells", [1, 7 * 120, None], ids=["rows1", "rows7", "rows-default"])
    @pytest.mark.parametrize("path", ["matrix", "recomputed", "unscreened"])
    def test_tiles_and_matrix_do_not_move_selections(self, pool_dataset, monkeypatch, block_cells, path):
        cases = [(pool_dataset, range(120), 3), (pool_dataset, range(0, 300, 2), 5)]
        cases += [(ds, range(ds.n), k) for ds in map(near_tie_dataset, (34, 54, 71, 75)) for k in (2, 3)]
        cases += [(ds, range(ds.n), k) for ds in screened_datasets() for k in (1, 3, ds.n - 1, ds.n)]
        expected = [solve_local_search(ids, k, ds) for ds, ids, k in cases]
        if block_cells is not None:
            monkeypatch.setattr(metric_mod, "_BLOCK_CELLS", block_cells)
        if path == "recomputed":
            monkeypatch.setattr(solvers_mod, "_MATRIX_LIMIT", 0)
        if path == "unscreened":
            monkeypatch.setattr(solvers_mod, "_SCREEN_DIM", 10**9)
        assert [solve_local_search(ids, k, ds) for ds, ids, k in cases] == expected

    @pytest.mark.parametrize("case", range(len(screened_datasets())))
    def test_screen_values_lie_within_their_row_bound(self, case):
        ds = screened_datasets()[case]
        ids = np.arange(ds.n)
        screen, exp, err = metric_mod._swap_screen(ids, ds)
        exact = np.ldexp(ds.pairwise(ids, ids), exp)
        assert screen.dtype == np.float32 and np.all(err > 0.0)
        assert np.all(np.abs(screen - exact) <= err[:, None] + 2.0**-23 * exact)

    def test_screen_serves_coordinates_of_screen_dim_dims(self, monkeypatch):
        ids = np.arange(12)

        def screened(ds, screen=True):
            tiles_of, rows_of, *_ = solvers_mod._distance_source(ids, ds, screen)
            assert np.array_equal(rows_of([3, 0, 7]), ds.pairwise(ids[[3, 0, 7]], ids))
            return tiles_of is not rows_of and tiles_of(slice(0, 12)).dtype == np.float32

        for dim in (solvers_mod._SCREEN_DIM - 1, solvers_mod._SCREEN_DIM):
            ds = Dataset.from_coords(np.random.default_rng(dim).normal(size=(12, dim)))
            assert screened(ds) == (dim == solvers_mod._SCREEN_DIM)
            exact = metric_mod._exact_block(ids[[3, 0, 7]], ids, ds)
            assert np.array_equal(exact, ds.pairwise(ids[[3, 0, 7]], ids))
        assert not screened(ds, screen=False)  # the fallback to the exact matrix
        assert not screened(Dataset.from_matrix(ds.pairwise(ids, ids)))
        monkeypatch.setattr(solvers_mod, "_MATRIX_LIMIT", 11)
        assert not screened(ds)

    @pytest.mark.parametrize("path", ["screened", "recomputed"])
    def test_each_seeding_row_is_computed_once(self, monkeypatch, path):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(300, 64)) + 40.0 * rng.integers(0, 2, size=(4, 64))[rng.integers(0, 4, 300)]
        ds, ids, k = Dataset.from_coords(x), np.arange(300), 8
        exact = ds.pairwise(ids, ids)
        seeding, dmin = [0], exact[0].copy()  # farthest-point seeding, from position 0
        for _ in range(1, k):
            seeding.append(int(dmin.argmax()))
            np.minimum(dmin, exact[seeding[-1]], out=dmin)
        fetched = []  # the positions of each block of exact rows, in the order fetched
        if path == "screened":
            exact_block = solvers_mod._exact_block
            spy = lambda r, c, d: fetched.append(r.tolist()) or exact_block(r, c, d)
            monkeypatch.setattr(solvers_mod, "_exact_block", spy)
            later = lambda rows: len(rows) == 1  # one candidate that the screen passed
        else:
            monkeypatch.setattr(solvers_mod, "_MATRIX_LIMIT", 0)
            pairwise = Dataset.pairwise
            spy = lambda self, r, c: fetched.append(np.asarray(r).tolist()) or pairwise(self, r, c)
            monkeypatch.setattr(Dataset, "pairwise", spy)
            tiles = [ids[blk].tolist() for blk in metric_mod.row_blocks(ds.n, ds.n)]
            later = lambda rows: rows in tiles
        solve_local_search(ids, k, ds)
        assert fetched[:k] == [[p] for p in seeding]
        assert len(fetched) > k and all(map(later, fetched[k:]))  # and never again as a block of centers

    def test_screen_selects_as_the_exact_matrix_on_blobs(self, monkeypatch):
        # 64-d blobs with outliers, as a copy's phase-1 prefix: many swaps, each decided on an exact row
        rng = np.random.default_rng(8)
        x = np.vstack([rng.normal(size=(580, 64)) + 40.0 * rng.integers(0, 2, size=(8, 64))[rng.integers(0, 8, 580)],
                       rng.uniform(-20.0, 60.0, size=(20, 64))])
        ds = Dataset.from_coords(x)
        ids = np.arange(ds.n)
        screen, exp, err = metric_mod._swap_screen(ids, ds)
        exact = np.ldexp(ds.pairwise(ids, ids), exp)
        assert np.all(np.abs(screen - exact) <= err[:, None] + 2.0**-23 * exact)
        screened = [solve_local_search(ids, k, ds) for k in (8, 26)]
        monkeypatch.setattr(solvers_mod, "_SCREEN_DIM", 10**9)
        assert [solve_local_search(ids, k, ds) for k in (8, 26)] == screened

    def test_loose_screen_falls_back_to_the_exact_matrix(self, monkeypatch):
        ds = screened_datasets()[-1]  # clusters 1e-9 wide: the screen passes nearly every row
        built = []
        pairwise = Dataset.pairwise
        monkeypatch.setattr(Dataset, "pairwise", lambda self, r, c: built.append(len(r)) or pairwise(self, r, c))
        screened = solve_local_search(range(ds.n), 4, ds)
        assert built == [ds.n]  # the exact matrix, built once the screen had passed m / 8 rows in vain
        monkeypatch.setattr(solvers_mod, "_SCREEN_DIM", 10**9)
        assert solve_local_search(range(ds.n), 4, ds) == screened

    @pytest.mark.parametrize("centers", [[5], [0, 150, 0], list(range(0, 300, 19))], ids=["one", "empty-slot", "sixteen"])
    def test_swap_scores_are_bitwise_row_independent(self, pool_dataset, centers):
        # a one-hot GEMM fails this: its low bits depend on the block's row count
        ids = np.arange(300)
        rows = pool_dataset.pairwise(ids, ids)
        kk = len(centers)
        state = solvers_mod._assign(rows[centers])
        whole = solvers_mod._swap_risks(rows[:64], kk, *state)
        assert whole.shape == (64, kk)
        for slot in set(range(kk)) - set(state[3].tolist()):  # a slot serving no point: insert only
            assert np.array_equal(whole[:, slot], np.minimum(rows[:64], state[0]).sum(axis=1))
        for width in (1, 5, 7, 33):
            parts = [solvers_mod._swap_risks(rows[lo : min(64, lo + width)], kk, *state) for lo in range(0, 64, width)]
            assert np.array_equal(np.vstack(parts), whole)

    def test_centers_at_tile_offsets_are_never_inserted(self, monkeypatch):
        # the seeding picks ids 0 and 3; the best insert is id 40, the middle
        # of a ring, which sits at center 0's offset within its 20-row tile
        angles = np.linspace(0.0, 2.0 * np.pi, 117, endpoint=False)
        pts = np.column_stack([100.0 + 3.0 * np.cos(angles), 3.0 * np.sin(angles)])
        pts = np.insert(pts, 37, [100.0, 0.0], axis=0)
        ds = Dataset.from_coords(np.vstack([[[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], pts]))
        distinct = []
        assign = solvers_mod._assign
        monkeypatch.setattr(solvers_mod, "_assign", lambda rows: distinct.append(len(np.unique(rows, axis=0))) or assign(rows))
        for matrix_limit in (4096, 0):
            monkeypatch.setattr(solvers_mod, "_MATRIX_LIMIT", matrix_limit)
            for tile_rows in (20, 1):
                monkeypatch.setattr(metric_mod, "_BLOCK_CELLS", tile_rows * 120)
                assert solve_local_search(range(120), 2, ds).ids == (0, 40)
        assert len(distinct) > 4 and set(distinct) == {2}  # no swap ever duplicated a center

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_converged_search_is_a_single_swap_optimum(self, pool_dataset, k):
        assert_single_swap_optimum(pool_dataset, range(40), k)
        assert_single_swap_optimum(pool_dataset, range(0, 300, 9), k)
        for seed in (34, 54, 71, 75, 2, 8):
            ds = near_tie_dataset(seed)
            assert_single_swap_optimum(ds, range(min(ds.n, 40)), k)
        for seed, dim in ((34, 8), (54, 64), (71, 8), (75, 64)):
            ds = near_tie_dataset_nd(seed, dim)
            assert_single_swap_optimum(ds, range(min(ds.n, 40)), k)

    def test_returns_subset_of_input(self, pool_dataset):
        subset = list(range(0, 300, 7))
        out = solve_local_search(subset, 4, pool_dataset)
        assert set(out.ids) <= set(subset)
        assert len(out) <= 4


class TestDuplicateHeavy:
    """Inputs with few distinct points: exact zeros, and ties to the smaller id."""

    @staticmethod
    def all_identical(dim):
        return Dataset.from_coords(np.full((12, dim), 3.25))

    @staticmethod
    def three_distinct(dim):
        # ids 0..11 hold points A, B, A, C, B, A, C, B, C, A, B, C
        a, b, c = np.zeros(dim), np.eye(1, dim)[0], 5.0 * np.eye(1, dim)[0]
        return Dataset.from_coords([[a, b, c][i] for i in (0, 1, 0, 2, 1, 0, 2, 1, 2, 0, 1, 2)])

    @pytest.mark.parametrize("dim", [2, 16])
    def test_pairwise_is_exactly_zero_on_duplicates(self, dim):
        ids = np.arange(12)
        assert np.all(self.all_identical(dim).pairwise(ids, ids) == 0.0)
        ds = self.three_distinct(dim)
        same = ds.coords[:, 0][:, None] == ds.coords[:, 0][None, :]
        block = ds.pairwise(ids, ids)
        assert np.all(block[same] == 0.0) and np.all(block[~same] > 0.0)

    @pytest.mark.parametrize("k", [2, 5])
    def test_all_identical_solvers(self, k):
        ds = self.all_identical(2)
        ls = solve_local_search(range(12), k, ds)
        ex = solve_exhaustive(range(12), k, ds)
        assert ls.ids == (0,)  # seeding finds no farther point than id 0
        assert ex.ids == tuple(range(k))  # lexicographically smallest optimum
        assert risk(range(12), ls, ds) == 0.0 and risk(range(12), ex, ds) == 0.0

    def test_k_above_distinct_count_solvers(self):
        ds = self.three_distinct(2)
        ls = solve_local_search(range(12), 5, ds)
        ex = solve_exhaustive(range(12), 5, ds)
        assert ls.ids == (0, 1, 3)  # the smallest id of each distinct point
        assert ex.ids == (0, 1, 2, 3, 4)
        assert risk(range(12), ls, ds) == 0.0 and risk(range(12), ex, ds) == 0.0
        for name in ("local-search", "exhaustive"):
            assert len(get_solver(name).solve(range(12), 5, ds)) <= 5

    @pytest.mark.parametrize("dim", [2, 16])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_local_search_is_a_single_swap_optimum(self, dim, k):
        assert_single_swap_optimum(self.all_identical(dim), range(12), k)
        assert_single_swap_optimum(self.three_distinct(dim), range(12), k)

    @pytest.mark.parametrize("dim", [2, 16])
    def test_nearest_dists_takes_smallest_position(self, dim):
        ids = np.arange(12)
        dist, pos = nearest_dists(ids, CenterSet.of([2, 5, 7]), self.all_identical(dim))
        assert np.all(dist == 0.0) and np.all(pos == 0)
        ds = self.three_distinct(dim)
        centers = CenterSet.of([1, 3, 4, 5, 9])  # B, C, B, A, A
        dist, pos = nearest_dists(ids, centers, ds)
        expected = {0.0: 3, 1.0: 0, 5.0: 1}  # A -> id 5, B -> id 1, C -> id 3
        assert np.all(dist == 0.0)
        assert pos.tolist() == [expected[v] for v in ds.coords[:, 0]]


class TestRegistry:
    def test_get_solver(self):
        ex = get_solver("exhaustive")
        ls = get_solver("local-search", max_iters=10)
        assert ex.beta == 1.0 and ex.name == "exhaustive"
        assert ls.beta == 5.0 and ls.name == "local-search"
        with pytest.raises(ContractError):
            get_solver("lp-rounding")

    def test_solver_objects_solve(self, line_dataset):
        out = get_solver("exhaustive").solve(range(4), 2, line_dataset)
        assert risk(range(4), out, line_dataset) <= 5.0
