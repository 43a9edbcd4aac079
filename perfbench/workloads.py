"""The benchmark's workloads and the operations one run repeats.

An operation is one stream of one instance: `run_stream`, then `risk` over
all points, then the exact oracle where the workload has one. A round is the
same operations on every instance of the workload; a run repeats whole
rounds, so every run attempts a multiple of the same operation set.
"""

from __future__ import annotations

import resource
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import munsc.harness.data as mdata
import munsc.metric as mmetric
import munsc.multiscale as mms
import munsc.oracle as moracle
from munsc.metric import Dataset
from munsc.multiscale import MunscResult, Schedule
from munsc.oracle import OptimalSolution
from munsc.params import PROFILES
from munsc.solvers import Solver, get_solver
from munsc.stream import InstrumentedStream

from checks import CheckFailed, CopyOutcome, StreamOutcome, check_all
from inputs import Instance, Shape, make_instance
from tracing import TimedStream, Tracer, deep_size


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    k: int
    delta: float
    max_iters: int  # local-search sweep limit of the phase-1 black box
    instances: int  # independent instances, one stream each, per round
    oracle: bool


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's center-count experiment at criterion-9 scale; risk over
        # thousands of selected centers dominates time and memory.
        Workload(
            "centers-64d",
            Shape(n=20_000, dim=64, blobs=8, separation=40.0, outlier_fraction=0.02, outlier_pad=20.0),
            k=8, delta=0.2, max_iters=50, instances=1, oracle=False,
        ),
        # The last copy buffers 4 * ceil(n / 40) = 4200 > 4096 phase-1 points,
        # so its solve takes the chunked path. That solve converges after 26 to
        # 33 sweeps here; the limit of 20 makes every seed do the same number.
        # Outliers spread wide are nearly all far from every reference center,
        # so |T_out| does not swing with the exact selection threshold.
        Workload(
            "cliff-2d",
            Shape(n=42_000, dim=2, blobs=2, separation=40.0, outlier_fraction=0.02, outlier_pad=160.0),
            k=2, delta=0.2, max_iters=20, instances=3, oracle=False,
        ),
        # `munsc bench --suite ratio` defaults: many small streams, each with
        # the exhaustive oracle; catches fixed per-call costs.
        Workload(
            "ratio-240",
            Shape(n=240, dim=2, blobs=2, separation=50.0, outlier_fraction=0.02, outlier_pad=22.5),
            k=2, delta=0.2, max_iters=50, instances=200, oracle=True,
        ),
    )
}


@dataclass
class Prepared:
    """Everything `munsc run` builds before it reads the first point."""

    data: Dataset
    schedule: Schedule
    solver: Solver


@dataclass
class StreamRun:
    stream: InstrumentedStream
    result: MunscResult
    achieved: float
    opt: OptimalSolution | None
    stream_s: float
    wall_s: float


def instances(w: Workload, seed: int, cache_dir: Path) -> list[Instance]:
    return [make_instance(w.shape, seed, i, cache_dir) for i in range(w.instances)]


def set_up(w: Workload, insts: list[Instance]) -> list[Prepared]:
    return [
        Prepared(
            data=mdata.load_dataset(inst.path),
            schedule=mms.compute_schedule(w.k, w.delta, w.shape.n, PROFILES["desk"]),
            solver=get_solver("local-search", max_iters=w.max_iters),
        )
        for inst in insts
    ]


def run_stream_op(w: Workload, inst: Instance, prep: Prepared, stream_type=InstrumentedStream) -> StreamRun:
    """One operation. The module attributes are looked up at call time, so a
    tracer's wrappers are the ones called."""
    stream = stream_type(inst.perm)
    t0 = time.perf_counter()
    result = mms.run_stream(stream, prep.schedule, prep.data, prep.solver)
    t1 = time.perf_counter()
    achieved = mmetric.risk(range(w.shape.n), result.centers, prep.data)
    opt = moracle.exact_opt(prep.data, w.k) if w.oracle else None
    t2 = time.perf_counter()
    if isinstance(stream, TimedStream):
        stream.read_times[-1] = t1
    return StreamRun(stream, result, achieved, opt, t1 - t0, t2 - t0)


@dataclass
class Round:
    attempted: int
    failed: int
    stream_s: float  # run_stream time, summed over the round's streams
    wall_s: float  # run_stream, risk and oracle time, summed likewise


def run_round(
    w: Workload, insts: list[Instance], preps: list[Prepared], stream_type=InstrumentedStream
) -> tuple[Round, list[StreamRun | None]]:
    """The round's timings, and each operation's outputs (None where it raised)."""
    runs: list[StreamRun | None] = []
    for inst, prep in zip(insts, preps):
        try:
            runs.append(run_stream_op(w, inst, prep, stream_type))
        except Exception:  # an operation that fails is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            runs.append(None)
    done = [r for r in runs if r is not None]
    rnd = Round(len(runs), len(runs) - len(done), sum(r.stream_s for r in done), sum(r.wall_s for r in done))
    return rnd, runs


def outcome_of(run: StreamRun) -> StreamOutcome:
    """The program's outputs for one stream, in the form the checks read."""
    log = run.stream.decision_log
    return StreamOutcome(
        complete=run.stream.complete,
        log_index=[t for t, _ in log],
        log_point=[rec.point for _, rec in log],
        log_selected=[rec.selected for _, rec in log],
        selection_order=list(run.result.selection_order),
        t_out=list(run.result.centers.ids),
        copies=[
            CopyOutcome(
                bounds=(r.config.p1_end, r.config.p2_end, r.config.p3_end),
                alpha=r.config.alpha,
                quota=r.config.quota,
                selected=list(r.selected),
                psi=r.psi,
                reference=list(r.t_alpha.ids),
            )
            for r in run.result.copy_reports
        ],
        achieved_risk=run.achieved,
        oracle_centers=None if run.opt is None else list(run.opt.centers.ids),
        oracle_risk=None if run.opt is None else run.opt.risk,
    )


def fingerprint(run: StreamRun) -> tuple:
    opt = None if run.opt is None else (run.opt.centers.ids, run.opt.risk)
    return run.result.selection_order, run.achieved, opt


class Verifier:
    """Checks the first round's outputs in full, and each later round against them.

    Outputs are dropped once checked, so later rounds run with the same memory
    held as the first.
    """

    def __init__(self, w: Workload, insts: list[Instance]) -> None:
        self.w = w
        self.insts = insts
        self.errors: list[str] = []
        self.t_out_sizes: list[int] = []
        self.risk_ratios: list[float] = []  # achieved risk over the reference risk, per stream
        self.rounds = 0
        self._first: list[tuple | None] | None = None

    def add(self, runs: list[StreamRun | None]) -> None:
        self.rounds += 1
        prints = [None if r is None else fingerprint(r) for r in runs]
        if self._first is not None:
            if prints != self._first:
                self.errors.append(f"round {self.rounds} differs from round 1 on the same inputs")
            return
        self._first = prints
        for i, (inst, run) in enumerate(zip(self.insts, runs)):
            if run is None:
                continue
            try:
                reference = check_all(outcome_of(run), inst.perm, inst.coords, inst.means, self.w.k, self.w.delta, self.w.oracle)
            except CheckFailed as exc:
                self.errors.append(f"instance {i}: {exc}")
                continue
            self.t_out_sizes.append(len(run.result.centers))
            self.risk_ratios.append(run.achieved / reference)


def loaded_exactly(insts: list[Instance], preps: list[Prepared]) -> list[str]:
    """The program must read back exactly the coordinates the benchmark wrote."""
    return [
        f"instance {i}: load_dataset did not return the written coordinates"
        for i, (inst, prep) in enumerate(zip(insts, preps))
        if prep.data.coords is None or not np.array_equal(prep.data.coords, inst.coords)
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public entry points; counters ride on the same calls."""
    counts = tracer.counts

    def arg(args, kwargs, pos, name):
        return args[pos] if len(args) > pos else kwargs[name]

    def on_pairwise(args, kwargs):
        cells = np.size(arg(args, kwargs, 1, "rows")) * np.size(arg(args, kwargs, 2, "cols"))
        counts["metric.pairwise_cells"] += cells
        if tracer.open["solvers.solve"]:
            counts["solvers.cells"] += cells
        if tracer.open["eval.risk"]:
            counts["eval.cells"] += cells

    def on_point_to_ids(args, kwargs):
        if tracer.open["solvers.solve"]:
            counts["solvers.cells"] += np.size(arg(args, kwargs, 2, "ids"))

    def on_solve(args, kwargs):
        m = len(np.unique(np.asarray(list(arg(args, kwargs, 1, "points")), dtype=np.int64)))
        counts["solvers.input_points"] += m
        counts["solvers.pairs"] += m * m

    def start_tracemalloc(args, kwargs):
        tracemalloc.start()

    def stop_tracemalloc(args, kwargs):
        counts["eval.peak_bytes"] = max(counts["eval.peak_bytes"], tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    def faults() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def start_faults(args, kwargs):
        counts["oracle.minflt"] -= faults()

    def stop_faults(args, kwargs):
        counts["oracle.minflt"] += faults()

    tracer.wrap(mdata, "load_dataset", "setup.load")
    tracer.wrap(mms, "compute_schedule", "setup.schedule")
    tracer.wrap(Dataset, "pairwise", "metric.pairwise", after=on_pairwise)
    tracer.wrap(Dataset, "point_to_ids", "metric.point_to_ids", after=on_point_to_ids)
    tracer.wrap(Solver, "solve", "solvers.solve", after=on_solve)
    tracer.wrap(mms, "run_stream", "stream.run")
    tracer.wrap(mms, "observe", "stream.observe")
    tracer.wrap(mmetric, "risk", "eval.risk", before=start_tracemalloc, after=stop_tracemalloc)
    tracer.wrap(moracle, "exact_opt", "oracle.exact", before=start_faults, after=stop_faults)


def layer_metrics(tracer: Tracer, runs: list[StreamRun | None], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced round, by name, with their units."""
    c = tracer.counts
    done = [r for r in runs if r is not None]
    decide = np.concatenate([np.diff(r.stream.read_times) for r in done]) if done else np.zeros(1)
    solve = tracer.durations("solvers.solve")
    mib = float(2**20)
    return {
        "setup.load_s": (float(tracer.durations("setup.load").sum()), "s"),
        "setup.schedule_s": (float(tracer.durations("setup.schedule").sum()), "s"),
        "metric.pairwise_s": (float(tracer.durations("metric.pairwise").sum()), "s"),
        "metric.pairwise_calls": (float(tracer.durations("metric.pairwise").size), "count"),
        "metric.pairwise_cells": (c["metric.pairwise_cells"], "count"),
        "metric.point_to_ids_calls": (float(tracer.durations("metric.point_to_ids").size), "count"),
        "solvers.solve_s": (float(solve.sum()), "s"),
        "solvers.calls": (float(solve.size), "count"),
        "solvers.max_call_s": (float(solve.max(initial=0.0)), "s"),
        "solvers.input_points": (c["solvers.input_points"], "count"),
        "solvers.cells_per_pair": (c["solvers.cells"] / c["solvers.pairs"] if c["solvers.pairs"] else 0.0, "ratio"),
        "stream.run_s": (float(tracer.durations("stream.run").sum()), "s"),
        "stream.self_s": (tracer.self_time("stream.run"), "s"),
        "stream.observe_calls": (float(tracer.durations("stream.observe").size), "count"),
        "stream.decision_p50_us": (float(np.percentile(decide, 50)) * 1e6, "us"),
        "stream.decision_p999_us": (float(np.percentile(decide, 99.9)) * 1e6, "us"),
        "stream.decision_max_s": (float(decide.max()), "s"),
        "stream.retained_mb": (max((deep_size(r.stream.decision_log, r.result) for r in done), default=0) / mib, "MB"),
        "eval.risk_s": (float(tracer.durations("eval.risk").sum()), "s"),
        "eval.cells": (c["eval.cells"], "count"),
        "eval.peak_mb": (c["eval.peak_bytes"] / mib, "MB"),
        "oracle.exact_s": (float(tracer.durations("oracle.exact").sum()), "s"),
        "oracle.calls": (float(tracer.durations("oracle.exact").size), "count"),
        "oracle.minflt": (c["oracle.minflt"], "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
