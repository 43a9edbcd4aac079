from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from munsc import (
    PROFILES,
    BudgetExceededError,
    ContractError,
    Dataset,
    InstrumentedStream,
    StreamProtocolError,
    exact_opt,
    local_search_solver,
)
from munsc.harness import (
    ExperimentReport,
    generate_gaussian_mixture,
    load_dataset,
    run_experiment,
    save_dataset,
)
import munsc.harness.cli as cli_mod
import munsc.harness.experiment as experiment_mod
from munsc.harness.bench import run_suite
from munsc.harness.cli import main as cli_main
from munsc.harness.experiment import _ratio
from munsc.harness.validate import CheckResult, check_schedule_examples, naive_distance
from munsc.stream import StreamRecord


class TestMixtureGenerator:
    def test_same_seed_byte_identical(self):
        a = generate_gaussian_mixture(500, 3, 2, 30.0, 0.05, seed=7)
        b = generate_gaussian_mixture(500, 3, 2, 30.0, 0.05, seed=7)
        assert np.array_equal(a.dataset.coords, b.dataset.coords)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = generate_gaussian_mixture(200, 2, 2, 30.0, 0.0, seed=1)
        b = generate_gaussian_mixture(200, 2, 2, 30.0, 0.0, seed=2)
        assert not np.array_equal(a.dataset.coords, b.dataset.coords)

    def test_no_outliers_within_six_sigma(self):
        s = generate_gaussian_mixture(1000, 3, 2, 40.0, 0.0, seed=3)
        dists = np.min(
            np.linalg.norm(s.dataset.coords[:, None, :] - s.means[None, :, :], axis=2), axis=1
        )
        assert np.all(dists <= 6.0 + 1e-9)
        assert np.all(s.labels >= 0)

    def test_means_separated(self):
        s = generate_gaussian_mixture(300, 4, 3, 25.0, 0.0, seed=4)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(s.means[i] - s.means[j]) >= 25.0

    def test_outlier_count_and_labels(self):
        s = generate_gaussian_mixture(400, 2, 2, 30.0, 0.1, seed=5)
        assert int(np.sum(s.labels == -1)) == 40

    def test_single_blob(self):
        s = generate_gaussian_mixture(60, 1, 2, 10.0, 0.05, seed=6)
        assert s.dataset.n == 60 and s.means.shape == (1, 2)

    def test_exact_opt_recovers_blobs(self):
        s = generate_gaussian_mixture(150, 3, 2, 50.0, 0.0, seed=6)
        sol = exact_opt(s.dataset, 3)
        # map each blob to the optimal center covering most of it
        agreement = 0
        for blob in range(3):
            members = np.flatnonzero(s.labels == blob)
            assigned = [sol.assignment[p] for p in members]
            counts = {c: assigned.count(c) for c in set(assigned)}
            agreement += max(counts.values())
        assert agreement / 150 >= 0.99


class TestDatasetFiles:
    def test_coords_roundtrip(self, tmp_path):
        s = generate_gaussian_mixture(50, 2, 3, 20.0, 0.0, seed=8)
        path = tmp_path / "pts.csv"
        save_dataset(s.dataset, path)
        loaded = load_dataset(path)
        assert loaded.mode == "euclidean"
        assert np.array_equal(loaded.coords, s.dataset.coords)

    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        base = Dataset.from_coords(rng.normal(size=(20, 2)))
        ids = np.arange(20)
        mat = Dataset.from_matrix(base.pairwise(ids, ids))
        path = tmp_path / "mat.csv"
        save_dataset(mat, path)
        loaded = load_dataset(path)
        assert loaded.mode == "matrix"
        assert np.array_equal(loaded.matrix, mat.matrix)


class TestInstrumentedStream:
    def test_read_then_log_cycle(self):
        st = InstrumentedStream([1, 0, 2])
        assert st.read() == 1
        st.log_decision(0, True)
        assert st.read() == 0
        st.log_decision(1, np.False_)
        assert st.read() == 2
        st.log_decision(2, False)
        assert st.complete and len(st.decision_log) == 3

    def test_read_ahead_without_decision_raises(self):
        st = InstrumentedStream([0, 1])
        st.read()
        with pytest.raises(StreamProtocolError):
            st.read()

    def test_wrong_index_log_raises(self):
        st = InstrumentedStream([0, 1])
        st.read()
        with pytest.raises(StreamProtocolError):
            st.log_decision(1, False)

    def test_exhausted_read_raises(self):
        st = InstrumentedStream([0])
        st.read()
        st.log_decision(0, False)
        with pytest.raises(StreamProtocolError):
            st.read()

    def test_decision_log_is_a_view(self):
        order, taken = [3, 1, 0, 2], [True, False, np.True_]
        st = InstrumentedStream(order)
        for t in range(3):
            assert st.decision_log == [(i, StreamRecord(order[i], bool(taken[i]))) for i in range(t)]
            assert st.read() == order[t]
            st.log_decision(t, taken[t])
        expected = [(0, StreamRecord(3, True)), (1, StreamRecord(1, False)), (2, StreamRecord(0, True))]
        log = st.decision_log
        assert log == expected and all(type(rec.selected) is bool for _, rec in log)
        log.clear()
        log.append((0, StreamRecord(9, False)))
        assert st.decision_log == expected
        assert st.read() == 2 and not st.complete

    @pytest.mark.parametrize("bad", ["d", 1, None], ids=["str", "int", "none"])
    def test_decision_must_be_a_bool(self, bad):
        st = InstrumentedStream([0, 1])
        st.read()
        with pytest.raises(StreamProtocolError):
            st.log_decision(1, bad)  # the index is checked first
        with pytest.raises(ContractError, match="^decision for index 0 must be a bool"):
            st.log_decision(0, bad)
        st.log_decision(0, True)
        assert st.decision_log == [(0, StreamRecord(0, True))]

    def test_requires_permutation(self):
        with pytest.raises(Exception):
            InstrumentedStream([0, 0, 2])

    @pytest.mark.parametrize(
        "order",
        [[0.2, 1.9, 2.5], [0.0, 1.0, 2.0], np.array([2.0, 0.0, 1.0]), [True, False], [1, True, 2], [0, -1, 1],
         [0, 1, 3]],
        ids=["fractions", "whole-floats", "float-array", "bools", "int-and-bool", "negative", "out-of-range"],
    )
    def test_rejects_non_id_orders(self, order):
        """The order must be point ids: no float, even a whole one, and no bool is cast to one."""
        with pytest.raises(ContractError):
            InstrumentedStream(order)


class TestRunExperiment:
    def test_tiny_report_fields(self):
        s = generate_gaussian_mixture(240, 2, 2, 50.0, 0.02, seed=10)
        rep = run_experiment(
            s.dataset, k=2, delta=0.2, profile="desk",
            solver=local_search_solver(max_iters=30), permutation_seed=0,
        )
        assert rep.oracle_label == "exact"
        assert rep.ratio == pytest.approx(rep.achieved_risk / rep.oracle_risk)
        assert rep.t_out_size == len(rep.t_out)
        assert rep.n == 240 and rep.schema_version == 1
        assert len(rep.copies) == 3

    def test_oracle_none_mode(self):
        s = generate_gaussian_mixture(240, 2, 2, 50.0, 0.0, seed=11)
        rep = run_experiment(
            s.dataset, k=2, delta=0.2, profile="desk",
            solver=local_search_solver(max_iters=30), permutation_seed=0, oracle="none",
        )
        assert rep.oracle_risk is None and rep.ratio is None

    def test_replayable(self):
        s = generate_gaussian_mixture(240, 2, 2, 50.0, 0.02, seed=12)
        reps = [
            run_experiment(
                s.dataset, k=2, delta=0.2, profile="desk",
                solver=local_search_solver(max_iters=30), permutation_seed=4,
            )
            for _ in range(2)
        ]
        assert reps[0].t_out == reps[1].t_out
        assert reps[0].achieved_risk == reps[1].achieved_risk

    def test_ratio_degenerate_rules(self):
        warnings: list[str] = []
        assert _ratio(0.0, 0.0, warnings) == 1.0
        assert _ratio(1.0, 2.0, warnings) == 0.5
        assert math.isinf(_ratio(1.0, 0.0, warnings))
        assert warnings

    def test_degenerate_duplicates_ratio_one(self):
        data = Dataset.from_coords(np.zeros((240, 2)))
        rep = run_experiment(
            data, k=2, delta=0.2, profile="desk",
            solver=local_search_solver(max_iters=10), permutation_seed=0,
        )
        assert rep.oracle_risk == 0.0 and rep.achieved_risk == 0.0
        assert rep.ratio == 1.0

    def test_json_roundtrip(self):
        s = generate_gaussian_mixture(240, 2, 2, 50.0, 0.02, seed=13)
        rep = run_experiment(
            s.dataset, k=2, delta=0.2, profile="desk",
            solver=local_search_solver(max_iters=30), permutation_seed=1,
        )
        back = ExperimentReport.from_dict(json.loads(rep.to_json()))
        assert back == rep

    def test_unknown_profile_names_the_choices(self):
        data = Dataset.from_coords(np.zeros((240, 2)))
        with pytest.raises(ContractError, match="'nope'.*'desk', 'paper'"):
            run_experiment(
                data, k=2, delta=0.2, profile="nope",
                solver=local_search_solver(max_iters=10), permutation_seed=0,
            )

    def test_profile_object_refused(self):
        """A report records its profile by name, so only a name is taken."""
        with pytest.raises(ContractError, match="^unknown profile Profile"):
            run_experiment(
                Dataset.from_coords(np.zeros((240, 2))), k=2, delta=0.2, profile=PROFILES["desk"],
                solver=local_search_solver(max_iters=10), permutation_seed=0,
            )

    def test_unknown_oracle_fails_before_streaming(self, monkeypatch):
        monkeypatch.setattr(experiment_mod, "run_stream", lambda *args: pytest.fail("a point was streamed"))
        data = Dataset.from_coords(np.zeros((240, 2)))
        with pytest.raises(ContractError, match="^unknown oracle mode 'nope'$"):
            run_experiment(
                data, k=2, delta=0.2, profile="desk",
                solver=local_search_solver(max_iters=10), permutation_seed=0, oracle="nope",
            )

    def test_over_budget_exact_oracle_fails_before_streaming(self, monkeypatch):
        monkeypatch.setattr(experiment_mod, "run_stream", lambda *args: pytest.fail("a point was streamed"))
        data = Dataset.from_coords(np.zeros((1500, 2)))  # C(1500, 2) = 1,124,250 center sets
        message = r"^the exact oracle over C\(1500, 2\) center sets .* use the oracle 'auto' or 'local-search'$"
        with pytest.raises(BudgetExceededError, match=message):
            run_experiment(
                data, k=2, delta=0.2, profile="desk",
                solver=local_search_solver(max_iters=10), permutation_seed=0, oracle="exact",
            )


class TestCli:
    def test_gen_run_roundtrip(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        report_path = tmp_path / "r.json"
        assert cli_main([
            "gen", "--n", "240", "--k-true", "2", "--dim", "2",
            "--separation", "50", "--outliers", "0.02", "--seed", "3",
            "--out", str(data_path),
        ]) == 0
        assert cli_main([
            "run", "--data", str(data_path), "--k", "2", "--delta", "0.2",
            "--profile", "desk", "--solver", "local-search", "--perm-seed", "1",
            "--out", str(report_path),
        ]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["n"] == 240
        assert payload["ratio"] is not None

    def test_contract_error_is_one_line(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        data_path.write_text("0,0\n1,1\n5,5\n")
        assert cli_main(["run", "--data", str(data_path), "--k", "1", "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("munsc: error: ") and err.count("\n") == 1

    def test_missing_data_file_is_one_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert cli_main(["run", "--data", str(missing), "--k", "2", "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"munsc: error: cannot read --data {missing}") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "\n\n\n", "# matrix\n"], ids=["empty", "blank", "matrix-header"])
    def test_empty_data_file_is_one_line(self, tmp_path, capsys, text):
        """No numpy warning joins the error line. pytest captures warnings, so here they raise."""
        data_path = tmp_path / "d.csv"
        data_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["run", "--data", str(data_path), "--k", "2", "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"munsc: error: cannot read --data {data_path}: the file holds no data rows\n"

    @pytest.mark.parametrize("command", [
        ["gen", "--n", "10"],
        ["run", "--data", "DATA", "--k", "2"],
        ["bench", "--suite", "lemmas", "--trials", "1"],
    ])
    @pytest.mark.parametrize("out", ["missing-dir/x", "."])
    def test_unwritable_out_is_one_line(self, tmp_path, capsys, command, out):
        data_path = tmp_path / "d.csv"
        save_dataset(generate_gaussian_mixture(240, 2, 2, 50.0, 0.02, seed=3).dataset, data_path)
        target = tmp_path / out  # a missing directory, or a directory in place of a file
        argv = [str(data_path) if a == "DATA" else a for a in command]
        assert cli_main(argv + ["--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"munsc: error: cannot write --out {target}") and err.count("\n") == 1

    def test_bench_zero_trials_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert cli_main(["bench", "--suite", "ratio", "--trials", "0", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "munsc: error: trials must be positive, got 0\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bench_nonpositive_jobs_is_one_line(self, tmp_path, capsys, jobs):
        out = tmp_path / "rows.csv"
        assert cli_main(["bench", "--suite", "ratio", "--trials", "1", "--jobs", jobs, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"munsc: error: jobs must be positive, got {jobs}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, env_seed, message", [
        (["gen", "--n", "50", "--separation", "nan"], None, "separation must lie in (0, inf), got nan"),
        (["gen", "--n", "50", "--separation", "inf"], None, "separation must lie in (0, inf), got inf"),
        (["gen", "--n", "50", "--seed", "-1"], None, "seed must be at least 0, got -1"),
        (["gen", "--n", "50"], "-1", "seed must be at least 0, got -1"),
        (["run", "--data", "DATA", "--k", "2", "--perm-seed", "-1"], None, "permutation_seed must be at least 0, got -1"),
        (["run", "--data", "DATA", "--k", "2", "--solver-max-iters", "0"], None, "max_iters must be positive, got 0"),
        (["bench", "--suite", "ratio", "--trials", "1", "--seed", "-5"], None, "seed must be at least 0, got -5"),
    ], ids=["gen-separation-nan", "gen-separation-inf", "gen-seed", "gen-env-seed", "run-perm-seed", "run-max-iters", "bench-seed"])
    def test_bad_number_is_one_line_before_streaming(self, tmp_path, capsys, monkeypatch, command, env_seed, message):
        if env_seed is not None:
            monkeypatch.setenv("MUNSC_SEED", env_seed)
        monkeypatch.setattr(experiment_mod, "run_stream", lambda *args: pytest.fail("a point was streamed"))
        data_path = tmp_path / "d.csv"
        save_dataset(generate_gaussian_mixture(240, 2, 2, 50.0, 0.02, seed=3).dataset, data_path)
        out = tmp_path / "out"
        argv = [str(data_path) if a == "DATA" else a for a in command]
        assert cli_main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"munsc: error: {message}\n"
        assert captured.out == "" and not out.exists()

    def test_over_budget_exact_oracle_is_one_line_before_streaming(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment_mod, "run_stream", lambda *args: pytest.fail("a point was streamed"))
        data_path = tmp_path / "d.csv"
        save_dataset(generate_gaussian_mixture(1500, 2, 2, 50.0, 0.02, seed=3).dataset, data_path)
        out = tmp_path / "out"
        argv = ["run", "--data", str(data_path), "--k", "2", "--oracle", "exact", "--out", str(out)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "munsc: error: the exact oracle over C(1500, 2) center sets exceeds its budget of 1000000; "
            "use the oracle 'auto' or 'local-search'\n"
        )
        assert captured.out == "" and not out.exists()

    def test_bench_lemmas_suite(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert cli_main([
            "bench", "--suite", "lemmas", "--trials", "1", "--jobs", "1", "--out", str(out),
        ]) == 0
        text = out.read_text()
        assert "bin_properties" in text and "tail_bound" in text

    def test_bench_centers_suite(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert cli_main([
            "bench", "--suite", "centers", "--trials", "1", "--n", "2000", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per k in (2, 4, 8)

    def test_validate_exit_code(self, capsys):
        assert cli_main(["validate"]) == 0
        assert "6/6 checks passed" in capsys.readouterr().out

    def test_validate_failing_check_exits_one(self, monkeypatch, capsys):
        results = [CheckResult(f"check_{i}", i != 3, f"summary {i}") for i in range(6)]
        monkeypatch.setattr(cli_mod, "run_validate_suite", lambda: results)
        assert cli_main(["validate"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "FAIL check_3: summary 3" in out
        assert sum(line.startswith("PASS ") for line in out) == 5
        assert out[-1] == "5/6 checks passed"

    def test_bench_jobs_match_serial(self):
        serial = run_suite("ratio", trials=2, jobs=1)
        assert run_suite("ratio", trials=2, jobs=2) == serial
        assert [row["trial"] for row in serial] == [0, 1]

    def test_unknown_suite_is_a_contract_error(self):
        with pytest.raises(ContractError, match="^unknown suite 'nope'; choose from"):
            run_suite("nope", trials=1, jobs=1)

    def test_env_seed_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MUNSC_SEED", "17")
        from munsc.harness.cli import _default_seed

        assert _default_seed() == 17

    @pytest.mark.parametrize("command", [["validate"], ["gen", "--n", "10", "--out", "unused.csv"]])
    def test_non_integer_env_seed_is_one_line(self, monkeypatch, capsys, command):
        monkeypatch.setenv("MUNSC_SEED", "abc")
        assert cli_main(command) == 2
        err = capsys.readouterr().err
        assert err == "munsc: error: MUNSC_SEED must be an integer, got 'abc'\n"


def test_naive_distance_matches_dataset():
    rng = np.random.default_rng(14)
    ds = Dataset.from_coords(rng.normal(size=(10, 3)))
    for i in range(10):
        for j in range(10):
            assert naive_distance(ds, i, j) == ds.dist(i, j)


def test_schedule_examples_check_passes():
    assert check_schedule_examples().passed
