"""Benchmark suites: approximation ratios, center counts, analysis-bound spot checks.

Each suite emits CSV rows; independent trials can run in parallel worker
processes because every trial is fully determined by its seeds.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from ..errors import _whole
from ..multiscale import compute_schedule, run_stream
from ..params import PROFILES, ratio_ceiling
from ..solvers import local_search_solver
from .data import generate_gaussian_mixture
from .experiment import run_experiment
from .validate import (
    check_bin_properties,
    check_schedule_examples,
    check_tail_bound,
    check_well_represented_concentration,
)

__all__ = ["run_suite", "write_rows", "SUITES"]


def _ratio_trial(args: tuple) -> dict:
    trial, n, k, delta, base_seed = args
    sample = generate_gaussian_mixture(
        n=n, k_true=k, dim=2, separation=50.0, outlier_fraction=0.02, seed=base_seed + trial
    )
    report = run_experiment(
        sample.dataset,
        k=k,
        delta=delta,
        profile="desk",
        solver=local_search_solver(max_iters=50),
        permutation_seed=base_seed + 1000 + trial,
        oracle="auto",
    )
    return {
        "trial": trial,
        "n": n,
        "k": k,
        "dataset_seed": base_seed + trial,
        "perm_seed": base_seed + 1000 + trial,
        "t_out_size": report.t_out_size,
        "achieved_risk": report.achieved_risk,
        "oracle_risk": report.oracle_risk,
        "oracle": report.oracle_label,
        "ratio": report.ratio,
        "ceiling": ratio_ceiling(report.solver_beta),
        "under_ceiling": report.ratio is not None and report.ratio <= ratio_ceiling(report.solver_beta),
    }


def _centers_trial(args: tuple) -> dict:
    trial, n, k, delta, dataset_seed = args
    sample = generate_gaussian_mixture(
        n=n, k_true=4, dim=2, separation=40.0, outlier_fraction=0.02, seed=dataset_seed
    )
    schedule = compute_schedule(k, delta, n, PROFILES["desk"])
    perm = np.random.default_rng(trial).permutation(n)
    result = run_stream(perm, schedule, sample.dataset, local_search_solver(max_iters=50))
    norm = len(result.centers) / (k * math.log(k / delta) ** 2)
    return {
        "trial": trial,
        "n": n,
        "k": k,
        "delta": delta,
        "t_out_size": len(result.centers),
        "normalized": norm,
        "copies": len(schedule.copies),
    }


def _lemmas_trial(args: tuple) -> list[dict]:
    trial, seed = args
    rows = []
    for res in (
        check_bin_properties(cases=100, seed=seed),
        check_tail_bound(cases=100, seed=seed + 1),
        check_well_represented_concentration(trials=2000, seed=seed + 2),
        check_schedule_examples(),
    ):
        rows.append({"trial": trial, "check": res.name, "passed": res.passed, "summary": res.summary})
    return rows


def run_suite(
    suite: str,
    trials: int,
    jobs: int,
    n: int = 240,
    k: int = 2,
    delta: float = 0.2,
    seed: int = 0,
) -> list[dict]:
    """Run a named suite and return its rows, at least one per trial."""
    trials = _whole(trials, "trials")
    jobs = _whole(jobs, "jobs")
    seed = _whole(seed, "seed", 0)
    if suite == "ratio":
        work = [(t, n, k, delta, seed) for t in range(trials)]
        rows = list(_map(jobs, _ratio_trial, work))
    elif suite == "centers":
        ks = (2, 4, 8) if k == 2 else (k,)
        work = [(t, max(n, 2000), kk, delta, seed) for kk in ks for t in range(trials)]
        rows = list(_map(jobs, _centers_trial, work))
    elif suite == "lemmas":
        work = [(t, seed + 97 * t) for t in range(trials)]
        rows = [r for batch in _map(jobs, _lemmas_trial, work) for r in batch]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    return rows


def write_rows(rows: list[dict], out: str | Path) -> None:
    """Write nonempty suite rows as CSV, with the first row's keys as header."""
    with Path(out).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _map(jobs: int, fn, work):
    if jobs == 1:
        return [fn(w) for w in work]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, work))


SUITES = ("ratio", "centers", "lemmas")
