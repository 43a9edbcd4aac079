from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest

import munsc.multiscale as multiscale
from munsc import (
    ContractError,
    InstrumentedStream,
    PROFILES,
    REASONS,
    compute_schedule,
    exact_opt,
    local_search_solver,
    observe,
    risk,
    run_stream,
)
from munsc.harness import generate_gaussian_mixture
from munsc.params import k_plus_size, phi_alpha, psi_truncation_count, quota_default

PAPER = PROFILES["paper"]
DESK = PROFILES["desk"]


class TestSchedule:
    def test_four_copy_worked_example(self):
        s = compute_schedule(2, 0.1, 1200, PAPER)
        assert s.doublings == 3 and len(s.copies) == 4
        assert s.delta_prime == pytest.approx(0.025)
        assert s.s1 == 15
        bounds = [(c.p1_end, c.p2_end, c.p3_end) for c in s.copies]
        assert bounds == [(15, 30, 60), (30, 60, 120), (60, 120, 240), (120, 240, 1200)]
        assert [c.alpha for c in s.copies] == pytest.approx([0.0125, 0.025, 0.05, 0.1])

    def test_single_copy_case(self):
        s = compute_schedule(2, 0.9, 1000, PAPER)
        assert s.doublings == 0 and len(s.copies) == 1
        c = s.copies[0]
        assert (c.p1_end, c.p2_end, c.p3_end) == (113, 226, 1000)
        assert c.quota > 1  # the only copy is the last copy

    def test_copy_parameters(self):
        s = compute_schedule(2, 0.1, 1200, PAPER)
        for c in s.copies[:-1]:
            assert c.quota == 1
            assert c.p3_end - c.p2_end == 2 * c.p1_end  # the paper's gamma = 2 * alpha
        last = s.copies[-1]
        assert last.p3_end == s.n  # the last copy reads to the end of the stream
        assert last.quota >= 2
        assert all(c.tau == s.tau for c in s.copies)
        assert all(c.delta == pytest.approx(0.025) for c in s.copies)

    def test_window_overlap_invariant(self):
        s = compute_schedule(2, 0.1, 1200, PAPER)
        for a, b in zip(s.copies, s.copies[1:]):
            assert 4 * a.p1_end == 2 * b.p1_end  # copy i's window is copy i+1's calculation prefix
            assert a.p3_end == b.p2_end

    def test_phase3_partition_invariant(self):
        s = compute_schedule(2, 0.1, 1200, PAPER)
        for t in range(2 * s.s1, 1200):
            owners = [c for c in s.copies if c.p2_end <= t < c.p3_end]
            assert len(owners) == 1

    def test_clamped_small_stream_warns(self):
        s = compute_schedule(2, 0.1, 10, PAPER)
        assert any("calculation phases clamped" in w for w in s.warnings)  # a case of test_copy_scalars_match_params
        for c in s.copies:
            assert c.p3_end <= 10 and c.p2_end <= 10

    @pytest.mark.parametrize("profile", [PAPER, DESK], ids=["paper", "desk"])
    @pytest.mark.parametrize("k,delta,n", [(2, 0.1, 1200), (2, 0.1, 10), (3, 0.2, 5000), (8, 0.2, 20_000), (5, 0.9, 37)])
    def test_copy_scalars_match_params(self, profile, k, delta, n):
        s = compute_schedule(k, delta, n, profile)
        dprime = s.delta_prime
        k_plus = k_plus_size(k, dprime, profile)
        for c in s.copies:
            phi = phi_alpha(k, dprime, c.alpha, profile)
            assert c.phi == phi
            assert c.k_plus == k_plus
            assert c.psi_drop == psi_truncation_count(k, c.alpha, phi)
            assert c.tau == s.tau == phi_alpha(k, dprime, s.copies[-1].alpha, profile)
        assert [c.quota for c in s.copies] == [1] * (len(s.copies) - 1) + [quota_default(k_plus, dprime)]

    def test_minimum_stream_length(self):
        with pytest.raises(ContractError):
            compute_schedule(2, 0.1, 3, PAPER)


def _tiny_mixture():
    return generate_gaussian_mixture(240, 2, 2, 50.0, 0.02, seed=5)


class TestRunStream:
    def test_single_copy_union_is_copy_selection(self):
        sample = generate_gaussian_mixture(300, 2, 2, 30.0, 0.0, seed=2)
        s = compute_schedule(2, 0.9, 300, DESK)
        assert len(s.copies) == 1
        perm = np.random.default_rng(0).permutation(300)
        res = run_stream(perm, s, sample.dataset, local_search_solver(max_iters=30))
        assert set(res.centers.ids) == set(res.copy_reports[0].selected)

    def test_union_of_copy_selections(self):
        sample = _tiny_mixture()
        s = compute_schedule(2, 0.2, 240, DESK)
        perm = np.random.default_rng(1).permutation(240)
        res = run_stream(perm, s, sample.dataset, local_search_solver(max_iters=30))
        union = set()
        for rep in res.copy_reports:
            union.update(rep.selected)
        assert set(res.centers.ids) == union

    def test_selections_only_in_each_copys_phase3(self):
        sample = _tiny_mixture()
        s = compute_schedule(2, 0.2, 240, DESK)
        stream = InstrumentedStream(np.random.default_rng(1).permutation(240))
        res = run_stream(stream, s, sample.dataset, local_search_solver(max_iters=30))
        assert len(stream.decision_log) == 240
        index_of = {record.point: idx for idx, record in stream.decision_log}
        for c, rep in zip(s.copies, res.copy_reports, strict=True):
            for x in rep.selected:
                assert c.p2_end <= index_of[x] < c.p3_end

    def test_decision_columns_are_the_record(self):
        sample = _tiny_mixture()
        s = compute_schedule(2, 0.2, 240, DESK)
        assert len(s.copies) == 3
        perm = np.random.default_rng(2).permutation(240)
        stream = InstrumentedStream(perm)
        res = run_stream(stream, s, sample.dataset, local_search_solver(max_iters=30))
        any_taken = np.zeros(240, dtype=bool)
        for c, rep in zip(s.copies, res.copy_reports, strict=True):
            assert len(rep.dists) == c.p3_end - c.p1_end
            assert len(rep.slots) == len(rep.reasons) == c.p3_end - c.p2_end
            taken = rep.reasons != 0
            window = perm[c.p2_end : c.p3_end]
            assert list(rep.selected) == window[taken].tolist()
            any_taken[c.p2_end : c.p3_end] |= taken
            per_reason = np.bincount(rep.reasons, minlength=len(REASONS))
            assert rep.reason_counts == dict(zip(REASONS[1:], per_reason[1:].tolist()))
            assert list(rep.reason_counts) == ["far", "quota", "near_flag"]
            m = len(rep.t_alpha)
            assert list(rep.observed_per_center) == np.bincount(rep.slots, minlength=m).tolist()
            assert list(rep.selected_per_center) == np.bincount(rep.slots[taken], minlength=m).tolist()
            for column in (rep.dists, rep.slots, rep.reasons):
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = 0
        assert [record.selected for _, record in stream.decision_log] == any_taken.tolist()

    def test_no_selection_before_first_selection_phase(self):
        sample = _tiny_mixture()
        s = compute_schedule(2, 0.2, 240, DESK)
        stream = InstrumentedStream(np.random.default_rng(4).permutation(240))
        run_stream(stream, s, sample.dataset, local_search_solver(max_iters=30))
        for idx, record in stream.decision_log:
            if idx < 2 * s.s1:
                assert not record.selected

    def test_tiny_instance_beats_beta_ceiling(self):
        sample = _tiny_mixture()
        s = compute_schedule(2, 0.2, 240, DESK)
        perm = np.random.default_rng(7).permutation(240)
        res = run_stream(perm, s, sample.dataset, local_search_solver(max_iters=30))
        achieved = risk(range(240), res.centers, sample.dataset)
        opt = exact_opt(sample.dataset, 2)
        assert achieved <= 5.0 * opt.risk

    def test_end_to_end_determinism(self):
        sample = _tiny_mixture()
        s = compute_schedule(2, 0.2, 240, DESK)
        outs = []
        for _ in range(2):
            perm = np.random.default_rng(9).permutation(240)
            res = run_stream(perm, s, sample.dataset, local_search_solver(max_iters=30))
            outs.append((res.centers.ids, tuple(r.psi for r in res.copy_reports)))
        assert outs[0] == outs[1]

    def test_keeps_no_object_per_point(self):
        """A 20,000-point 2-d stream allocates too few lasting objects to start
        a generation-1 or -2 collection: its decisions are bytes, not records."""
        rng = np.random.default_rng(20)
        data = generate_gaussian_mixture(20_000, 3, 2, 30.0, 0.0, seed=20).dataset
        s = compute_schedule(2, 0.2, 20_000, DESK)
        started = []

        def on_gc(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            run_stream(rng.permutation(20_000), s, data, local_search_solver(max_iters=30))
        finally:
            gc.callbacks.remove(on_gc)
        assert max(started, default=0) == 0, f"collections by generation: {np.bincount(started).tolist()}"

    def test_length_mismatch_rejected(self):
        sample = _tiny_mixture()
        s = compute_schedule(2, 0.2, 240, DESK)
        with pytest.raises(ContractError):
            run_stream(np.arange(100), s, sample.dataset, local_search_solver())

    def test_non_permutation_rejected(self):
        sample = _tiny_mixture()
        s = compute_schedule(2, 0.2, 240, DESK)
        bad = np.zeros(240, dtype=int)
        with pytest.raises(ContractError):
            run_stream(bad, s, sample.dataset, local_search_solver())


def _spied_run(monkeypatch, schedule, data):
    """Run `schedule` over a random order of `data` with a spy on the
    `observe` that `run_stream` calls; return the calls per copy in copy
    order, the stream and the result."""
    calls = {}

    def spy(state, x):
        calls[state] = calls.get(state, 0) + 1
        return observe(state, x)

    monkeypatch.setattr(multiscale, "observe", spy)
    stream = InstrumentedStream(np.random.default_rng(0).permutation(data.n))
    res = run_stream(stream, schedule, data, local_search_solver(max_iters=30))
    assert [state.config for state in calls] == list(schedule.copies)
    return list(calls.values()), stream, res


class TestWindowRule:
    """Inside `run_stream` a copy lives for its window: it observes exactly
    its first p3_end points and is not called after."""

    @pytest.mark.parametrize(
        "delta,n,warned",
        [
            (0.2, 240, ()),
            (0.1, 7, ("copy 3 dropped", "copy 4: calculation phases clamped")),
            (0.1, 13, ("copy 3: selection phase clamped",)),
        ],
        ids=["default-ladder", "dropped-and-clamped-last", "selection-clamped"],
    )
    def test_each_copy_observes_its_window(self, monkeypatch, delta, n, warned):
        s = compute_schedule(2, delta, n, DESK)
        assert all(any(w.startswith(prefix) for w in s.warnings) for prefix in warned)
        assert s.copies[-1].p3_end == n and any(c.p3_end < n for c in s.copies)
        data = generate_gaussian_mixture(n, 2, 2, 30.0, 0.0, seed=n).dataset
        calls, stream, _ = _spied_run(monkeypatch, s, data)
        assert calls == [c.p3_end for c in s.copies]
        assert stream.complete

    def test_points_past_every_window_are_not_selected(self, monkeypatch):
        full = compute_schedule(2, 0.2, 240, DESK)
        s = dataclasses.replace(full, copies=full.copies[:-1])
        end = max(c.p3_end for c in s.copies)
        assert end < s.n
        calls, stream, res = _spied_run(monkeypatch, s, _tiny_mixture().dataset)
        assert calls == [c.p3_end for c in s.copies]
        assert stream.complete
        assert res.selection_order
        assert not any(record.selected for t, record in stream.decision_log if t >= end)

    def test_window_past_the_stream_rejected_before_the_first_read(self):
        full = compute_schedule(2, 0.2, 240, DESK)
        s = dataclasses.replace(full, copies=(*full.copies[:-1], dataclasses.replace(full.copies[-1], p3_end=241)))
        stream = InstrumentedStream(np.random.default_rng(0).permutation(240))
        with pytest.raises(ContractError, match=f"^copy {len(s.copies)}: window of 241 points exceeds the stream length 240$"):
            run_stream(stream, s, _tiny_mixture().dataset, local_search_solver())
        assert stream.reads == 0
