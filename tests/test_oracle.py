from __future__ import annotations

import itertools

import numpy as np
import pytest

from munsc import (
    BudgetExceededError,
    CenterSet,
    ContractError,
    Dataset,
    PROFILES,
    exact_opt,
    min_nondegenerate_n,
    psi_sandwich_frequency,
    risk,
    sandwich_report,
    solve_local_search,
)
from munsc.oracle import exact_opt_budget_ok

DESK = PROFILES["desk"]
PAPER = PROFILES["paper"]


class TestExactOpt:
    def test_line_pairs(self):
        ds = Dataset.from_coords([[0.0], [1.0], [10.0], [11.0]])
        sol = exact_opt(ds, 2)
        assert sol.risk == 2.0
        assert sol.centers.ids == (0, 2)

    def test_k_at_least_n(self):
        ds = Dataset.from_coords([[0.0], [5.0]])
        sol = exact_opt(ds, 4)
        assert sol.risk == 0.0 and sol.centers.ids == (0, 1)

    def test_matches_reversed_enumeration(self):
        rng = np.random.default_rng(12)
        ds = Dataset.from_coords(rng.normal(0, 3, size=(12, 2)))
        sol = exact_opt(ds, 3)
        best, best_risk = None, float("inf")
        for combo in reversed(list(itertools.combinations(range(12), 3))):
            r = risk(range(12), CenterSet.of(combo), ds)
            if r <= best_risk:
                best, best_risk = combo, r
        assert sol.centers.ids == best
        assert sol.risk == pytest.approx(best_risk)

    def test_assignment_is_nearest_with_tiebreak(self):
        ds = Dataset.from_coords([[0.0], [1.0], [2.0], [10.0]])
        sol = exact_opt(ds, 2)
        for p, c in enumerate(sol.assignment):
            dists = {cc: ds.dist(p, cc) for cc in sol.centers}
            best = min(dists.values())
            assert ds.dist(p, c) == best
            assert c == min(cc for cc, d in dists.items() if d == best)

    def test_budget_error(self):
        rng = np.random.default_rng(0)
        ds = Dataset.from_coords(rng.normal(size=(300, 2)))
        with pytest.raises(BudgetExceededError):
            exact_opt(ds, 3)

    @pytest.mark.parametrize("m, k", [(240, 2.5), (240.0, 2), (240, True), (-3, 2), (240, 0), (np.float64(240), 2)])
    def test_budget_check_takes_integers(self, m, k):
        with pytest.raises(ContractError):
            exact_opt_budget_ok(m, k)

    def test_budget_check(self):
        assert exact_opt_budget_ok(240, 2) and exact_opt_budget_ok(np.int64(1414), np.int64(2))
        assert not exact_opt_budget_ok(1415, 2)
        assert exact_opt_budget_ok(3, 5)  # k past m: the one subset of all m points

    def test_never_beaten_by_local_search(self):
        rng = np.random.default_rng(31)
        ds = Dataset.from_coords(rng.normal(0, 5, size=(14, 2)))
        opt = exact_opt(ds, 3)
        ls = solve_local_search(range(14), 3, ds)
        assert opt.risk <= risk(range(14), ls, ds) + 1e-12


class TestPsiSandwich:
    @pytest.mark.parametrize("n,alpha", [(400, 0.2), (1, 0.1)])  # alpha > 1/6; 2*ceil(alpha*n) > n
    def test_report_rejects_what_no_copy_can_run(self, n, alpha):
        with pytest.raises(ContractError):
            sandwich_report(n, 2, 0.2, alpha, DESK)

    def test_degenerate_estimate_passes_upper_trivially(self):
        # paper constants at desk scale: truncation swallows phase 2, psi = 0
        rng = np.random.default_rng(2)
        ds = Dataset.from_coords(rng.normal(0, 5, size=(400, 2)))
        rep = sandwich_report(400, 2, 0.2, 0.1, PAPER)
        assert rep["psi_degenerate"] and rep["upper_vacuous"]
        upper, lower = psi_sandwich_frequency(ds, 2, 0.2, 0.1, trials=5, seed=0, profile=PAPER)
        assert upper == 1.0

    def test_lower_bound_trivial_when_remainder_small(self):
        rng = np.random.default_rng(3)
        ds = Dataset.from_coords(rng.normal(0, 5, size=(300, 2)))
        rep = sandwich_report(300, 2, 0.2, 0.1, DESK)
        assert rep["lower_vacuous"]  # floor(5*(k+1)*phi) exceeds |X \ P1|
        _, lower = psi_sandwich_frequency(ds, 2, 0.2, 0.1, trials=5, seed=1, profile=DESK)
        assert lower == 1.0

    def test_nonvacuous_rates_high(self):
        rng = np.random.default_rng(4)
        pts = np.concatenate(
            [rng.normal(0, 1, size=(2000, 2)), rng.normal((40, 40), 1, size=(2000, 2))]
        )
        ds = Dataset.from_coords(pts)
        rep = sandwich_report(4000, 2, 0.2, 0.05, DESK)
        assert not rep["psi_degenerate"] and not rep["upper_vacuous"]
        upper, lower = psi_sandwich_frequency(ds, 2, 0.2, 0.05, trials=20, seed=5, profile=DESK)
        assert upper >= 0.9
        assert lower >= 0.9


def test_sandwich_report_min_nondegenerate_n():
    m = min_nondegenerate_n(2, 0.2, 0.025, DESK)
    for n in (m - 1, m, 2 * m):
        rep = sandwich_report(n, 2, 0.2, 0.025, DESK)
        assert rep["min_nondegenerate_n"] == m
        assert rep["psi_degenerate"] == (n < m)
