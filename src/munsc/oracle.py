"""Ground-truth machinery: exact optima and Monte-Carlo checks of the
risk-estimate bounds."""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from .errors import _whole
from .metric import CenterSet, Dataset, nearest_dists, truncated_risk
from .params import PROFILES, Profile, min_nondegenerate_n
from .select_proc import SelectProcConfig, SelectProcState, make_config, observe
from .solvers import _within_budget as exact_opt_budget_ok, local_search_solver, solve_exhaustive

__all__ = [
    "OptimalSolution",
    "exact_opt",
    "exact_opt_budget_ok",
    "psi_sandwich_frequency",
    "sandwich_report",
]


@dataclass(frozen=True)
class OptimalSolution:
    """A true k-median optimum with its induced clusters."""

    centers: CenterSet
    risk: float
    assignment: tuple[int, ...]  # nearest optimal center id per point


def exact_opt(data: Dataset, k: int) -> OptimalSolution:
    """Exhaustive optimum over centers drawn from the dataset itself.

    Deterministic (lexicographically smallest optimal center set); assignment
    ties resolve to the smallest center id.
    """
    ids = np.arange(data.n)
    centers = solve_exhaustive(ids, k, data)
    dist, pos = nearest_dists(ids, centers, data)
    assignment = tuple(int(c) for c in centers.to_array()[pos])
    return OptimalSolution(centers=centers, risk=float(np.sum(dist)), assignment=assignment)


def _lemma_truncations(cfg: SelectProcConfig) -> tuple[int, int]:
    """Drop counts of the two risk-estimate bounds: floor(k * phi) for the
    upper bound and floor(5 * (k+1) * phi) for the lower bound."""
    return floor(cfg.k * cfg.phi), floor(5 * (cfg.k + 1) * cfg.phi)


def sandwich_report(n: int, k: int, delta: float, alpha: float, profile: Profile) -> dict:
    """Describe whether the two risk-estimate bounds are non-vacuous here.

    The upper bound compares against a truncated risk over the full dataset;
    the lower bound truncates everything past phase 1 (drop counts in
    `_lemma_truncations`). Either bound holds trivially once its truncation
    swallows the whole set, and the estimate itself degenerates to zero when
    its truncation count reaches the phase-2 size, which it does for every n
    below `min_nondegenerate_n`. Raises ContractError when no copy can run at
    this alpha and n.
    """
    cfg = make_config(k, n, delta, alpha, profile)
    p1 = cfg.p1_end
    r_upper, r_lower = _lemma_truncations(cfg)
    return {
        "phi_alpha": cfg.phi,
        "p1_size": p1,
        "p2_size": p1,
        "psi_truncation": cfg.psi_drop,
        "psi_degenerate": cfg.psi_drop >= p1,
        "min_nondegenerate_n": min_nondegenerate_n(k, delta, alpha, profile),
        "upper_truncation": r_upper,
        "upper_vacuous": r_upper >= cfg.p3_end,
        "lower_truncation": r_lower,
        "lower_vacuous": r_lower >= cfg.p3_end - p1,
    }


def psi_sandwich_frequency(
    data: Dataset,
    k: int,
    delta: float,
    alpha: float,
    trials: int,
    seed: int,
    profile: Profile = PROFILES["desk"],
) -> tuple[float, float]:
    """Empirical pass rates of the two-sided risk-estimate bounds.

    Each trial draws a fresh permutation, runs one copy through its two
    calculation phases, and checks
      (1/9) * R_drop5(X \\ P1, T_ref)  <=  psi  <=  R_dropK(X, T_ref)
    against full-dataset truncated risks, with the drop counts of
    `_lemma_truncations`. Returns (upper_ok_rate, lower_ok_rate).
    """
    trials = _whole(trials, "trials")
    seed = _whole(seed, "seed", 0)
    solver = local_search_solver()
    cfg = make_config(k, data.n, delta, alpha, profile)
    r_upper, r_lower = _lemma_truncations(cfg)
    all_ids = np.arange(data.n)

    rng = np.random.default_rng(seed)
    upper_ok = 0
    lower_ok = 0
    for _ in range(trials):
        perm = rng.permutation(data.n)
        state = SelectProcState(cfg, data, solver)
        for x in perm[: cfg.p2_end].tolist():  # phases 1 and 2 take no point
            observe(state, x)
        psi = state.psi
        t_ref = state.t_alpha
        assert psi is not None and t_ref is not None
        rest = np.setdiff1d(all_ids, perm[: cfg.p1_end], assume_unique=True)
        upper_rhs = truncated_risk(all_ids, t_ref, r_upper, data)
        lower_lhs = truncated_risk(rest, t_ref, r_lower, data) / 9.0
        if psi <= upper_rhs * (1.0 + 1e-9):
            upper_ok += 1
        if lower_lhs <= psi * (1.0 + 1e-9) + 1e-12:
            lower_ok += 1
    return upper_ok / trials, lower_ok / trials
