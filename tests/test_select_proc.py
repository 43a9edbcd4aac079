from __future__ import annotations

import math

import numpy as np
import pytest

from munsc import (
    CenterSet,
    ContractError,
    Dataset,
    PROFILES,
    REASONS,
    SelectProcConfig,
    SelectProcState,
    finish,
    local_search_solver,
    make_config,
    observe,
    phi_alpha,
)
from munsc.params import psi_truncation_count
from munsc.select_proc import _LOOP_CENTERS, _nearest_lookup
from munsc.solvers import Solver, exhaustive_solver

DESK = PROFILES["desk"]
PAPER = PROFILES["paper"]


class TestDeriveParameters:
    def test_paper_example(self):
        cfg = make_config(2, 1000, 0.1, 0.1, PAPER)
        assert cfg.phi == pytest.approx(9692.2, rel=1e-4)
        assert cfg.k_plus == 248
        assert cfg.quota == 15
        assert cfg.tau == cfg.phi
        assert cfg.psi_drop == math.floor(2 * 0.1 * 3 * cfg.phi)

    def test_largest_alpha_case(self):
        # phi_alpha accepts alpha up to 1 (see test_params); a copy stops at 1/6
        cfg = make_config(2, 1200, 0.1, 1.0 / 6.0, PAPER)
        assert cfg.phi == pytest.approx(6 * 150.0 * math.log(640.0))
        with pytest.raises(ContractError):
            make_config(2, 1200, 0.1, 1.0, PAPER)

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            make_config(2, 1000, 1.2, 0.1, PAPER)

    def test_derived_scalars_are_read_only(self):
        with pytest.raises(TypeError):
            SelectProcConfig(k=2, delta=0.1, alpha=0.1, profile=PAPER,
                             p1_end=10, p3_end=100, phi=1.0)
        cfg = SelectProcConfig(k=2, delta=0.1, alpha=0.1, profile=PAPER,
                               p1_end=100, p3_end=1000, quota=3, tau=2.5)
        assert (cfg.quota, cfg.tau, cfg.p2_end) == (3, 2.5, 200)
        with pytest.raises(AttributeError):
            cfg.k_plus = 1


class TestConfig:
    def test_equal_first_phases_enforced(self):
        with pytest.raises(ContractError):
            make_config(2, 10, 0.5, 0.4, DESK)  # alpha out of (0, 1/6]

    def test_make_config_defaults(self):
        cfg = make_config(2, 1200, 0.2, 0.1, DESK)
        assert cfg.p1_end == 120 and cfg.p2_end == 240 and cfg.p3_end == 1200
        assert cfg.tau == pytest.approx(phi_alpha(2, 0.2, 0.1, DESK))

    def test_stream_too_short(self):
        with pytest.raises(ContractError, match=r"^phase boundaries need 2\*p1 <= p3, got 1, 1$"):
            make_config(2, 1, 0.2, 1.0 / 6.0, DESK)


def _truth_table_state():
    """1-d scenario driving each selection branch explicitly.

    ids 0,1 become the two reference centers (coordinates 0 and 100); the
    threshold is pinned to 3.0 after phase 2 so the branch taken by each
    phase-3 arrival is known in advance.
    """
    coords = [[0.0], [100.0], [50.0], [60.0], [1.0], [2.0], [10.0], [104.0], [102.0], [101.0], [0.5]]
    data = Dataset.from_coords(coords)
    cfg = SelectProcConfig(k=2, delta=0.5, alpha=1.0 / 6.0, profile=DESK,
                           p1_end=2, p3_end=11, quota=1, tau=1.0)
    state = SelectProcState(cfg, data, exhaustive_solver())
    selected = []
    for x in range(4):
        selected.append(observe(state, x))
    state.psi = 6.0
    state.threshold = 3.0
    for x in range(4, 11):
        selected.append(observe(state, x))
    return state, selected, data


class TestPhases:
    def test_phase_one_buffers_and_never_selects(self):
        state, selected, _ = _truth_table_state()
        assert selected[:2] == [False] * 2
        assert state.config.p1_end == 2
        assert len(state.dists) == 9  # phase 1 writes no record

    def test_reference_clustering_computed_at_phase_boundary(self):
        state, _, _ = _truth_table_state()
        assert state.t_alpha == CenterSet.of([0, 1])

    def test_phase_one_buffer_dropped(self):
        state, _, _ = _truth_table_state()
        assert state.buffer_p1 is None  # memory contract

    def test_phase_two_records_one_real_per_point(self):
        state, selected, _ = _truth_table_state()
        assert state.config.p2_end == 4
        assert state.dists[:2].tolist() == [50.0, 40.0]
        assert selected[2:4] == [False, False]

    def test_selection_truth_table(self):
        state, selected, _ = _truth_table_state()
        kinds = [
            ("selected" if taken else "not_selected", REASONS[code] if code else None)
            for taken, code in zip(selected[4:], state.reasons, strict=True)
        ]
        assert kinds == [
            ("selected", "quota"),  # id4: dist 1 <= 3, first at center 0
            ("not_selected", None),  # id5: quota spent, near flag set
            ("selected", "far"),  # id6: dist 10 > 3
            ("selected", "far"),  # id7: dist 4 > 3 (far precedes quota)
            ("selected", "near_flag"),  # id8: quota spent by far pick, nothing near yet
            ("not_selected", None),  # id9: near flag now set
            ("not_selected", None),  # id10: center 0 already covered
        ]

    def test_near_flag_only_set_by_within_threshold_selections(self):
        state, _, _ = _truth_table_state()
        assert state.near == [True, True]
        assert state.observed_counts == [4, 3]
        taken = np.asarray(state.reasons) != 0
        assert np.bincount(np.asarray(state.slots)[taken], minlength=2).tolist() == [2, 2]

    def test_reason_counts_and_report(self):
        state, _, _ = _truth_table_state()
        rep = finish(state)
        assert rep.selected == (4, 6, 7, 8)
        assert rep.reason_counts == {"far": 2, "quota": 1, "near_flag": 1}
        assert rep.psi == 6.0

    def test_observe_past_stream_end_rejected(self):
        state, _, _ = _truth_table_state()
        with pytest.raises(ContractError):
            observe(state, 0)

    def test_finish_premature_rejected(self):
        coords = [[float(i)] for i in range(12)]
        data = Dataset.from_coords(coords)
        cfg = make_config(2, 12, 0.5, 1.0 / 6.0, DESK)
        state = SelectProcState(cfg, data, exhaustive_solver())
        observe(state, 0)
        with pytest.raises(ContractError):
            finish(state)

    def test_phase_one_prefix_solved_once_with_the_copy_black_box(self):
        """Over a full window, the black box the copy was made with is called
        once, with the copy's dataset, k_plus and its first p1_end ids."""
        data = Dataset.from_coords(np.random.default_rng(4).normal(size=(60, 2)))
        calls = []

        def first_k(ids, k, d):
            calls.append((ids.tolist(), k, d))
            return CenterSet.of(ids[:k])

        cfg = make_config(2, 60, 0.2, 1.0 / 6.0, DESK)
        state = SelectProcState(cfg, data, Solver("first-k", 1.0, first_k))
        perm = np.random.default_rng(5).permutation(60)
        for x in perm:
            observe(state, x)
        finish(state)
        assert len(calls) == 1
        ids, k, d = calls[0]
        assert d is data and k == cfg.k_plus
        assert ids == sorted(perm[: cfg.p1_end].tolist())

    def test_window_end_closes_the_copy(self):
        """A copy observes exactly its window [0, p3_end), however long the
        dataset; the next point raises and consumes nothing."""
        data = Dataset.from_coords([[float(i)] for i in range(12)])
        cfg = SelectProcConfig(k=2, delta=0.5, alpha=1.0 / 6.0, profile=DESK, p1_end=2, p3_end=7)
        state = SelectProcState(cfg, data, exhaustive_solver())
        for x in range(cfg.p3_end):
            observe(state, x)
        with pytest.raises(ContractError, match="^observe called after the copy's window of 7 points closed$"):
            observe(state, cfg.p3_end)
        assert state.count == cfg.p3_end
        rep = finish(state)
        assert len(rep.dists) == cfg.p3_end - cfg.p1_end
        assert len(rep.reasons) == len(rep.slots) == cfg.p3_end - cfg.p2_end


def _two_cluster_run(n=1500, k=2, delta=0.2, perm_seed=3):
    rng = np.random.default_rng(61)
    half = n // 2
    coords = np.concatenate([rng.normal(0.0, 0.5, half), rng.normal(1000.0, 0.5, n - half)])
    data = Dataset.from_coords(coords[:, None])
    cfg = make_config(k, n, delta, 1.0 / 6.0, DESK)
    state = SelectProcState(cfg, data, local_search_solver(max_iters=40))
    perm = np.random.default_rng(perm_seed).permutation(n)
    selected = [observe(state, int(x)) for x in perm]
    return data, cfg, state, selected, perm, half


class TestStreamingInvariants:
    def test_psi_positive_and_matches_recomputation(self):
        data, cfg, state, _, _, _ = _two_cluster_run()
        rep = finish(state)
        assert rep.psi > 0.0
        p2_dists = rep.dists[: cfg.p2_end - cfg.p1_end]
        drop = psi_truncation_count(cfg.k, cfg.alpha, phi_alpha(cfg.k, cfg.delta, cfg.alpha, DESK))
        kept = np.sort(np.asarray(p2_dists))[: len(p2_dists) - drop]
        assert rep.psi == pytest.approx(float(np.sum(kept)) / (3.0 * cfg.alpha), rel=1e-12)

    def test_every_phase3_point_near_some_selection(self):
        data, cfg, state, selected, perm, _ = _two_cluster_run()
        thr = state.threshold
        assert state.psi > 0.0
        selected_so_far: list[int] = []
        for idx in range(cfg.p2_end, cfg.p3_end):
            point = int(perm[idx])
            if selected[idx]:
                selected_so_far.append(point)
                continue
            dmin = min(data.dist(point, s) for s in selected_so_far)
            assert dmin <= 2.0 * thr * (1.0 + 1e-9)

    def test_quota_guarantee_per_center(self):
        _, cfg, state, _, _, _ = _two_cluster_run()
        rep = finish(state)
        for seen, picked in zip(rep.observed_per_center, rep.selected_per_center):
            if seen >= cfg.quota:
                assert picked >= cfg.quota

    def test_selection_in_each_cluster(self):
        _, _, state, _, _, half = _two_cluster_run()
        rep = finish(state)
        assert any(p < half for p in rep.selected)
        assert any(p >= half for p in rep.selected)

    def test_determinism(self):
        _, _, s1, _, _, _ = _two_cluster_run(perm_seed=5)
        _, _, s2, _, _, _ = _two_cluster_run(perm_seed=5)
        assert finish(s1).selected == finish(s2).selected
        assert finish(s1).psi == finish(s2).psi


def _pairwise_nearest(data: Dataset, centers: np.ndarray, x: int) -> tuple[int, float]:
    row = data.pairwise([x], centers)[0]
    pos = int(row.argmin())
    return pos, float(row[pos])


class TestNearestRef:
    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 16, 64, 65])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_matches_pairwise_bit_for_bit(self, dim, offset):
        rng = np.random.default_rng(dim)
        pts = rng.normal(size=(200, dim)) * 10 ** rng.uniform(-3, 3) + offset
        pts[100:120] = pts[40]  # duplicated rows: ties go to the smallest position
        data = Dataset.from_coords(pts)
        centers = np.array(sorted({*range(0, 200, 9), 40, 105, 117}), dtype=np.int64)
        lookup = _nearest_lookup(data, centers)
        for x in range(200):
            assert lookup(x) == _pairwise_nearest(data, centers, x)

    def test_matrix_mode(self):
        coords = Dataset.from_coords(np.random.default_rng(3).normal(size=(40, 3)))
        data = Dataset.from_matrix(coords.pairwise(range(40), range(40)))
        centers = np.array([2, 5, 11, 30], dtype=np.int64)
        lookup = _nearest_lookup(data, centers)
        for x in range(40):
            assert lookup(x) == _pairwise_nearest(data, centers, x)


class TestNearestLookup2d:
    """The 2-d lookup, a Python loop up to `_LOOP_CENTERS` centers and numpy
    past it, agrees with `pairwise` in distance and position, bit for bit."""

    @staticmethod
    def _check(pts, centers, kind: str) -> None:
        data = Dataset.from_coords(pts)
        centers = np.asarray(centers, dtype=np.int64)
        lookup = _nearest_lookup(data, centers)
        assert lookup.__name__ == kind
        for x in range(data.n):
            pos, d = lookup(x)
            assert type(pos) is int and type(d) is float
            assert (pos, d) == _pairwise_nearest(data, centers, x)

    @staticmethod
    def _kind(m: int) -> str:
        return "loop_2d" if m <= _LOOP_CENTERS else "broadcast"

    @pytest.mark.parametrize("m", [1, 2, 16, _LOOP_CENTERS, _LOOP_CENTERS + 1, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_points(self, m, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(300, 2)) * 10 ** rng.uniform(-6, 6, size=2) + rng.normal(scale=1e3, size=2)
        self._check(pts, np.sort(rng.choice(300, size=m, replace=False)), self._kind(m))

    @pytest.mark.parametrize("m", [8, 40])
    def test_duplicate_centers(self, m):
        rng = np.random.default_rng(m)
        pts = rng.integers(-3, 4, size=(120, 2)).astype(float)  # few distinct points: duplicates and ties
        pts[:m:2] = pts[1:m:2]
        self._check(pts, range(m), self._kind(m))

    @pytest.mark.parametrize("m", [4, 36])
    def test_exact_ties(self, m):
        """Centers on a circle of radius 5 through integer points, each point
        equidistant to several of them; ties go to the first position."""
        ring = [(3.0, 4.0), (4.0, 3.0), (5.0, 0.0), (0.0, 5.0), (-3.0, 4.0), (-4.0, -3.0), (0.0, -5.0), (3.0, -4.0)]
        centers = [ring[i % len(ring)] for i in range(m)]
        queries = [(0.0, 0.0), (0.0, 0.5), (1.0, 1.0), (-1.0, 2.5)]
        self._check(np.array(centers + queries), range(m), self._kind(m))

    def test_tie_made_by_the_square_root(self):
        """Two squared sums that differ but share a rounded square root: the
        first center in order wins, although the second's sum is smaller."""
        by_root: dict[float, dict[float, tuple[float, float]]] = {}
        for j in range(400):  # centers (1.5, b) seen from the origin
            b = j * 1e-10
            s = 1.5 * 1.5 + b * b
            by_root.setdefault(math.sqrt(s), {})[s] = (1.5, b)
        centers = next(group for group in by_root.values() if len(group) > 1)
        larger, smaller = sorted(centers, reverse=True)[:2]
        for m in (2, _LOOP_CENTERS + 2):
            pts = np.array([centers[larger], centers[smaller]] + [(100.0, 100.0)] * (m - 2) + [(0.0, 0.0)])
            data = Dataset.from_coords(pts)
            assert _nearest_lookup(data, np.arange(m))(m) == (0, math.sqrt(larger))
            self._check(pts, range(m), self._kind(m))

    @pytest.mark.parametrize("m", [6, 40])
    def test_overflowing_squares(self, m):
        """Coordinates near 1e154, where the square of a difference can exceed
        the float range, are refused; a quarter of them, just inside the bound,
        give finite distances that match `pairwise`."""
        rng = np.random.default_rng(m)
        centers = rng.uniform(0.5e154, 1.2e154, size=(m, 2))
        queries = np.concatenate([rng.uniform(-1.2e154, 1.2e154, size=(40, 2)), [[-1.3e154, -1.3e154]]])
        pts = np.concatenate([centers, queries])
        with pytest.raises(ContractError, match="^coordinates span too far"):
            Dataset.from_coords(pts)
        pts /= 4  # a squared span of 7.8e307
        _, d = _nearest_lookup(Dataset.from_coords(pts), np.arange(m))(len(pts) - 1)
        assert 6e153 < d < math.inf
        self._check(pts, range(m), self._kind(m))


class TestObservePointIds:
    @staticmethod
    def _phase3_state() -> SelectProcState:
        data = Dataset.from_coords(np.random.default_rng(0).normal(size=(300, 2)))
        state = SelectProcState(make_config(2, 300, 0.2, 0.05, DESK), data, exhaustive_solver())
        for x in range(40):
            observe(state, x)
        assert state.count >= state.config.p2_end
        return state

    @pytest.mark.parametrize("bad", [-1, 300, 2.5, 3.0, True, np.True_, "3", None])
    def test_bad_id_rejected_in_one_line(self, bad):
        state = self._phase3_state()
        count = state.count
        with pytest.raises(ContractError) as err:
            observe(state, bad)
        assert "\n" not in str(err.value)
        assert state.count == count  # nothing was consumed

    def test_bad_id_rejected_in_phase_1(self):
        data = Dataset.from_coords(np.zeros((30, 2)))
        state = SelectProcState(make_config(2, 30, 0.2, 0.05, DESK), data, exhaustive_solver())
        with pytest.raises(ContractError):
            observe(state, -1)
        assert state.count == 0

    def test_numpy_integer_ids(self):
        data, _, state, selected, perm, _ = _two_cluster_run()
        again = SelectProcState(state.config, data, local_search_solver(max_iters=40))
        assert [observe(again, x) for x in perm] == selected  # np.int64 ids
        assert finish(again).selected == finish(state).selected
        assert all(type(x) is int for x in again.selected)
