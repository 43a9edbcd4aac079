"""The one integer rule at every public entry that takes a count, size or seed,
and the real-valued bounds that NaN must fail."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from munsc import (
    PROFILES,
    CenterSet,
    ContractError,
    Dataset,
    Profile,
    SelectProcConfig,
    alpha_schedule,
    build_division,
    compute_schedule,
    exact_opt,
    far_r,
    get_solver,
    k_plus_size,
    local_search_solver,
    make_config,
    min_nondegenerate_n,
    phi_alpha,
    psi_sandwich_frequency,
    quota_default,
    ratio_ceiling,
    sandwich_report,
    selection_threshold,
    solve_exhaustive,
    solve_local_search,
    truncated_risk,
)
from munsc.harness import generate_gaussian_mixture, run_experiment
from munsc.harness.bench import run_suite
from munsc.params import psi_truncation_count

DESK = PROFILES["desk"]
DATA = Dataset.from_coords(np.random.default_rng(5).normal(0.0, 10.0, size=(40, 2)))
IDS = range(DATA.n)
REF = CenterSet.of([3, 17])


def _config(**over) -> SelectProcConfig:
    args = dict(k=2, n=1000, delta=0.2, alpha=0.05, gamma=0.9, profile=DESK, p1_end=50, p3_end=1000, quota=3)
    return SelectProcConfig(**{**args, **over})


def _report(**over) -> str:
    args = dict(k=2, delta=0.2, profile="desk", solver=local_search_solver(20), permutation_seed=1, oracle="exact")
    return dataclasses.replace(run_experiment(DATA, **{**args, **over}), wall_time_s=0.0).to_json()


def _mixture(**over) -> tuple[bytes, bytes, bytes]:
    args = dict(n=30, k_true=2, dim=2, separation=20.0, outlier_fraction=0.1, seed=3)
    s = generate_gaussian_mixture(**{**args, **over})
    return s.dataset.coords.tobytes(), s.labels.tobytes(), s.means.tobytes()


def _division(z) -> tuple:
    div = build_division(IDS, REF, z, DATA)
    return div.bins, div.z, div.trivial


# name: (smallest accepted value, a valid value, the call with the integer under test)
ENTRIES = {
    "phi_alpha.k": (1, 2, lambda v: phi_alpha(v, 0.2, 0.05, DESK)),
    "k_plus_size.k": (1, 2, lambda v: k_plus_size(v, 0.2, DESK)),
    "quota_default.k_plus": (1, 9, lambda v: quota_default(v, 0.2)),
    "psi_truncation_count.k": (1, 2, lambda v: psi_truncation_count(v, 0.05, 40.0)),
    "min_nondegenerate_n.k": (1, 2, lambda v: min_nondegenerate_n(v, 0.2, 0.025, DESK)),
    "selection_threshold.k": (1, 2, lambda v: selection_threshold(3.0, v, 7.0)),
    "alpha_schedule.k": (2, 3, lambda v: alpha_schedule(v, 0.2)),
    "far_r.r": (0, 5, lambda v: far_r(IDS, REF, v, DATA)),
    "truncated_risk.r": (0, 5, lambda v: truncated_risk(IDS, REF, v, DATA)),
    "build_division.z": (1, 3, _division),
    "solve_exhaustive.k": (1, 2, lambda v: solve_exhaustive(IDS, v, DATA).ids),
    "solve_local_search.k": (1, 3, lambda v: solve_local_search(IDS, v, DATA).ids),
    "solve_local_search.max_iters": (1, 2, lambda v: solve_local_search(IDS, 3, DATA, max_iters=v).ids),
    "local_search_solver.max_iters": (1, 2, lambda v: local_search_solver(v).solve(IDS, 3, DATA).ids),
    "get_solver.max_iters": (1, 2, lambda v: get_solver("local-search", max_iters=v).solve(IDS, 3, DATA).ids),
    "Solver.solve.k[exhaustive]": (1, 2, lambda v: get_solver("exhaustive").solve(IDS, v, DATA).ids),
    "Solver.solve.k[local-search]": (1, 3, lambda v: get_solver("local-search").solve(IDS, v, DATA).ids),
    "exact_opt.k": (1, 2, lambda v: exact_opt(DATA, v)),
    "SelectProcConfig.k": (1, 2, lambda v: _config(k=v)),
    "SelectProcConfig.n": (1, 1000, lambda v: _config(n=v)),
    "SelectProcConfig.p1_end": (1, 50, lambda v: _config(p1_end=v)),
    "SelectProcConfig.p3_end": (1, 1000, lambda v: _config(p3_end=v)),
    "SelectProcConfig.quota": (1, 3, lambda v: _config(quota=v)),
    "make_config.k": (1, 2, lambda v: make_config(v, 1000, 0.2, 0.05, DESK)),
    "make_config.n": (1, 1000, lambda v: make_config(2, v, 0.2, 0.05, DESK)),
    "sandwich_report.n": (1, 1000, lambda v: sandwich_report(v, 2, 0.2, 0.05, DESK)),
    "compute_schedule.k": (2, 3, lambda v: compute_schedule(v, 0.2, 2000, DESK)),
    "compute_schedule.n": (4, 2000, lambda v: compute_schedule(2, 0.2, v, DESK)),
    "psi_sandwich_frequency.trials": (1, 2, lambda v: psi_sandwich_frequency(DATA, 2, 0.2, 0.1, v, 0)),
    "psi_sandwich_frequency.seed": (0, 3, lambda v: psi_sandwich_frequency(DATA, 2, 0.2, 0.1, 1, v)),
    "run_suite.trials": (1, 1, lambda v: run_suite("ratio", trials=v, jobs=1, n=40)),
    "run_suite.jobs": (1, 1, lambda v: run_suite("ratio", trials=1, jobs=v, n=40)),
    "run_suite.seed": (0, 4, lambda v: run_suite("ratio", trials=1, jobs=1, n=40, seed=v)),
    "generate_gaussian_mixture.n": (1, 30, lambda v: _mixture(n=v)),
    "generate_gaussian_mixture.k_true": (1, 2, lambda v: _mixture(k_true=v)),
    "generate_gaussian_mixture.dim": (1, 2, lambda v: _mixture(dim=v)),
    "generate_gaussian_mixture.seed": (0, 3, lambda v: _mixture(seed=v)),
    "run_experiment.k": (1, 2, lambda v: _report(k=v)),
    "run_experiment.permutation_seed": (0, 1, lambda v: _report(permutation_seed=v)),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "low - 1"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_rejects_non_integers(entry, bad):
    low, _, call = ENTRIES[entry]
    with pytest.raises(ContractError):
        call(low - 1 if bad == "low - 1" else bad)


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_takes_numpy_integers(entry):
    """A numpy integer gives the output of the same Python int; the reprs
    would differ if an np.int64 reached the output."""
    _, valid, call = ENTRIES[entry]
    assert repr(call(np.int64(valid))) == repr(call(valid))


def test_fields_come_back_as_int():
    i = np.int64
    sched = compute_schedule(i(2), 0.2, i(2000), DESK)
    configs = (make_config(i(2), i(1000), 0.2, 0.05, DESK), _config(k=i(2), n=i(900), p1_end=i(40), p3_end=i(800)), *sched.copies)
    values = [getattr(c, f) for c in configs for f in ("k", "n", "p1_end", "p2_end", "p3_end", "quota", "k_plus", "psi_drop")]
    values += [sched.n, sched.s1, sched.doublings, build_division(IDS, REF, i(3), DATA).z]
    rep = json.loads(_report(k=i(2), permutation_seed=i(1)))
    values += [rep["n"], rep["k"], rep["permutation_seed"], rep["t_out_size"], *rep["t_out"]]
    values += [v for c in rep["copies"] for v in (c["quota"], c["t_alpha_size"], *c["phase_bounds"])]
    assert all(type(v) is int for v in values)


NAN, INF = math.nan, math.inf
NAN_BOUNDS = {
    "ratio_ceiling(nan)": lambda: ratio_ceiling(NAN),
    "selection_threshold(psi=nan)": lambda: selection_threshold(NAN, 2, 1.0),
    "selection_threshold(tau=nan)": lambda: selection_threshold(1.0, 2, NAN),
    "SelectProcConfig(tau=nan)": lambda: _config(tau=NAN),
    "Profile(c_phi=nan)": lambda: Profile("x", NAN, 2.0),
    "Profile(c_kplus=nan)": lambda: Profile("x", 5.0, NAN),
    "psi_truncation_count(alpha=nan)": lambda: psi_truncation_count(2, NAN, 10.0),
    "psi_truncation_count(phi=nan)": lambda: psi_truncation_count(2, 0.05, NAN),
    "psi_truncation_count(alpha=inf)": lambda: psi_truncation_count(2, INF, 10.0),
    "psi_truncation_count(phi=inf)": lambda: psi_truncation_count(2, 0.05, INF),
    "make_config(alpha=nan)": lambda: make_config(2, 1000, 0.2, NAN),
    "make_config(alpha=inf)": lambda: make_config(2, 1000, 0.2, INF),
    "generate_gaussian_mixture(separation=nan)": lambda: _mixture(separation=NAN),
    "generate_gaussian_mixture(separation=inf)": lambda: _mixture(separation=INF),
}


@pytest.mark.parametrize("case", NAN_BOUNDS)
def test_real_bound_fails_nan_and_inf(case):
    with pytest.raises(ContractError):
        NAN_BOUNDS[case]()
