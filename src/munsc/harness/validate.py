"""Property suites behind the `validate` CLI command and the acceptance gate.

Each check is deterministic (fixed seeds), self-contained, and returns a
CheckResult; the CLI prints one line per check and exits nonzero on any
failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..bins import build_division, check_well_represented, division_properties, tail_risk_bound_holds
from ..errors import InfeasibleBinDivisionError
from ..metric import CenterSet, Dataset, far_r, risk, truncated_risk
from ..multiscale import compute_schedule, run_stream
from ..params import PROFILES
from ..solvers import local_search_solver
from ..stream import InstrumentedStream
from .data import generate_gaussian_mixture

__all__ = [
    "CheckResult",
    "check_no_substitution_and_quota",
    "check_metric_oracles",
    "check_bin_properties",
    "check_tail_bound",
    "check_well_represented_concentration",
    "check_schedule_examples",
    "run_validate_suite",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    summary: str
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# naive reference computations (pure-python scans, same summation order)
# ---------------------------------------------------------------------------
# The sequential sum in `naive_distance` matches numpy's only for dim < 8:
# from 8 terms up numpy sums pairwise with eight accumulators, and the two
# differ in the last bit (about 20% of pairs at dim 8, 57% at dim 64, for
# normal coordinates). `_random_instance` keeps dim in {2, 3}.


def naive_distance(data: Dataset, i: int, j: int) -> float:
    if data.mode == "matrix":
        return float(data.matrix[i, j])
    a, b = data.coords[i], data.coords[j]
    acc = 0.0
    for t in range(a.size):
        d = float(a[t]) - float(b[t])
        acc += d * d
    return math.sqrt(acc)


def _naive_mins(points: list[int], centers: list[int], data: Dataset) -> list[float]:
    out = []
    for p in points:
        best = math.inf
        for c in centers:  # ascending ids: first strict minimum wins the tie
            d = naive_distance(data, p, c)
            if d < best:
                best = d
        out.append(best)
    return out


def naive_risk(points, centers, data: Dataset) -> float:
    pts = sorted(set(points))
    mins = _naive_mins(pts, sorted(set(centers)), data)
    return float(np.sum(np.asarray(mins, dtype=np.float64))) if pts else 0.0


def naive_far(points, centers, r: int, data: Dataset) -> set[int]:
    pts = sorted(set(points))
    mins = _naive_mins(pts, sorted(set(centers)), data)
    ranked = sorted(zip(pts, mins), key=lambda t: (-t[1], t[0]))
    return {p for p, _ in ranked[: min(r, len(pts))]}


def naive_truncated(points, centers, r: int, data: Dataset) -> float:
    pts = sorted(set(points))
    if r >= len(pts):
        return 0.0
    drop = naive_far(pts, centers, r, data)
    mins = _naive_mins(pts, sorted(set(centers)), data)
    kept = [m for p, m in zip(pts, mins) if p not in drop]
    return float(np.sum(np.asarray(kept, dtype=np.float64)))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_no_substitution_and_quota() -> CheckResult:
    """Full multiscale runs over instrumented streams: every decision is made
    before the next point is readable, and every reference center that sees
    at least its quota of selection-phase points has at least that many of
    them selected."""
    solver = local_search_solver(max_iters=50)
    runs = [
        (generate_gaussian_mixture(2600, 3, 2, 25.0, 0.02, seed=11).dataset, 2, 0.2, (0, 1, 2)),
        (generate_gaussian_mixture(1500, 2, 2, 30.0, 0.0, seed=12).dataset, 3, 0.2, (0,)),
    ]
    observe_calls = 0
    quota_bad = 0
    completed = 0
    for data, k, delta, perm_seeds in runs:
        schedule = compute_schedule(k, delta, data.n, PROFILES["desk"])
        for ps in perm_seeds:
            perm = np.random.default_rng(ps).permutation(data.n)
            stream = InstrumentedStream(perm)
            result = run_stream(stream, schedule, data, solver)
            if not stream.complete or len(stream.decision_log) != data.n:
                return CheckResult("no_substitution_and_quota", False, "incomplete decision log")
            completed += 1
            for rep in result.copy_reports:
                observe_calls += rep.config.p1_end + len(rep.dists)  # one call per point the copy buffered or recorded
                for seen, picked in zip(rep.observed_per_center, rep.selected_per_center):
                    if seen >= rep.config.quota and picked < rep.config.quota:
                        quota_bad += 1
    passed = quota_bad == 0 and observe_calls >= 10_000
    return CheckResult(
        "no_substitution_and_quota",
        passed,
        f"{completed} runs, {observe_calls} observe calls, 0 protocol violations, "
        f"{quota_bad} quota violations",
        {"observe_calls": observe_calls, "runs": completed, "quota_violations": quota_bad},
    )


def _random_instance(rng: np.random.Generator) -> Dataset:
    n = int(rng.integers(2, 51))
    dim = int(rng.integers(2, 4))
    pts = rng.normal(0.0, 10.0, size=(n, dim))
    if n >= 4 and rng.random() < 0.5:  # duplicate rows so distance ties occur
        dup = int(rng.integers(1, n // 2))
        src = rng.integers(0, n, size=dup)
        dst = rng.integers(0, n, size=dup)
        pts[dst] = pts[src]
    if rng.random() < 0.5:
        coords = Dataset.from_coords(pts)
        ids = np.arange(n)
        return Dataset.from_matrix(coords.pairwise(ids, ids))
    return Dataset.from_coords(pts)


def check_metric_oracles(instances: int = 500, seed: int = 20_240) -> CheckResult:
    """risk / far_r / truncated_risk agree exactly with naive sorted scans."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    comparisons = 0
    for _ in range(instances):
        data = _random_instance(rng)
        n = data.n
        t_size = int(rng.integers(1, min(5, n) + 1))
        centers = CenterSet.of(rng.choice(n, size=t_size, replace=False))
        s_size = int(rng.integers(1, n + 1))
        points = set(rng.choice(n, size=s_size, replace=False).tolist())
        for r in {0, 1, s_size // 2, s_size, s_size + 3}:
            comparisons += 3
            if risk(points, centers, data) != naive_risk(points, centers, data):
                mismatches += 1
            if far_r(points, centers, r, data) != naive_far(points, centers, r, data):
                mismatches += 1
            if truncated_risk(points, centers, r, data) != naive_truncated(points, centers, r, data):
                mismatches += 1
    return CheckResult(
        "metric_oracles",
        mismatches == 0,
        f"{instances} instances, {comparisons} exact comparisons, {mismatches} mismatches",
        {"instances": instances, "comparisons": comparisons, "mismatches": mismatches},
    )


def _bin_pool(seed: int = 7) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset.from_coords(rng.normal(0.0, 50.0, size=(600, 2)))


def check_bin_properties(cases: int = 1000, seed: int = 31_337) -> CheckResult:
    """Constructed divisions satisfy all four constraints and partition W.

    Draws with odd z and |W| = (5z+1)/2 admit no integer layout at all; those
    are redrawn and counted, and any infeasibility off that diagonal fails
    the check.
    """
    rng = np.random.default_rng(seed)
    data = _bin_pool()
    failures = 0
    infeasible_redraws = 0
    off_diagonal_infeasible = 0
    done = 0
    while done < cases:
        w_size = int(rng.integers(1, 501))
        z = int(rng.integers(1, 51))
        w = rng.choice(data.n, size=w_size, replace=False)
        t = CenterSet.of(rng.choice(data.n, size=int(rng.integers(1, 9)), replace=False))
        try:
            div = build_division(w, t, z, data)
        except InfeasibleBinDivisionError:
            infeasible_redraws += 1
            if not (z % 2 == 1 and w_size == (5 * z + 1) // 2):
                off_diagonal_infeasible += 1
            continue
        props = division_properties(div, data)
        ok = all(props.values()) and div.members == set(w.tolist())
        ok = ok and div.trivial == (w_size < z)
        if not ok:
            failures += 1
        done += 1
    passed = failures == 0 and off_diagonal_infeasible == 0
    return CheckResult(
        "bin_properties",
        passed,
        f"{cases} divisions validated, {failures} property failures, "
        f"{infeasible_redraws} infeasible diagonal draws redrawn",
        {
            "cases": cases,
            "failures": failures,
            "infeasible_redraws": infeasible_redraws,
            "off_diagonal_infeasible": off_diagonal_infeasible,
        },
    )


def check_tail_bound(cases: int = 500, seed: int = 90_210) -> CheckResult:
    """The tail-risk inequality holds on every premise-satisfying instance."""
    rng = np.random.default_rng(seed)
    data = _bin_pool(seed=8)
    failures = 0
    done = 0
    while done < cases:
        w_size = int(rng.integers(5, 401))
        z = int(rng.integers(1, 31))
        w = rng.choice(data.n, size=w_size, replace=False)
        t = CenterSet.of(rng.choice(data.n, size=int(rng.integers(1, 7)), replace=False))
        try:
            div = build_division(w, t, z, data)
        except InfeasibleBinDivisionError:
            continue
        r = float(rng.uniform(0.05, 0.95))
        a: list[int] = []
        for b in div.bins:
            cap = int(r * len(b))  # truncation keeps |bin n A| <= r|bin|
            take = int(rng.integers(0, cap + 1))
            if take:
                a.extend(rng.choice(sorted(b), size=take, replace=False).tolist())
        if not tail_risk_bound_holds(div, a, r, data):
            failures += 1
        done += 1
    return CheckResult(
        "tail_bound",
        failures == 0,
        f"{cases} premise-satisfying instances, {failures} violations",
        {"cases": cases, "failures": failures},
    )


def check_well_represented_concentration(
    trials: int = 10_000, seed: int = 4_242
) -> CheckResult:
    """A fixed 200-subset of a 1000-universe is well-represented in a random
    30% draw in all but ~0.5% of trials; allow 1% for sampling slack."""
    rng = np.random.default_rng(seed)
    universe = range(1000)
    fixed = set(range(200))
    draw = 300
    failures = 0
    for _ in range(trials):
        a = rng.choice(1000, size=draw, replace=False)
        if not check_well_represented(fixed, a, universe):
            failures += 1
    rate = failures / trials
    bound = 2.0 * math.exp(-0.3 * 200 / 10.0) + 0.005
    return CheckResult(
        "well_represented_concentration",
        rate <= 0.01,
        f"{failures}/{trials} failures (rate {rate:.4f}, bound {bound:.4f})",
        {"trials": trials, "failures": failures, "rate": rate, "bound": bound},
    )


def check_schedule_examples() -> CheckResult:
    """Three worked schedules reproduce exactly."""
    ok = True
    notes = []

    s = compute_schedule(2, 0.1, 1200, PROFILES["paper"])
    expect = [(15, 30, 60), (30, 60, 120), (60, 120, 240), (120, 240, 1200)]
    got = [(c.p1_end, c.p2_end, c.p3_end) for c in s.copies]
    if not (
        s.doublings == 3
        and len(s.copies) == 4
        and abs(s.delta_prime - 0.025) < 1e-15
        and abs(s.copies[-1].alpha - 0.1) < 1e-12
        and got == expect
        and s.s1 == 15
    ):
        ok = False
        notes.append(f"four-copy example: got doublings={s.doublings}, bounds={got}")

    s2 = compute_schedule(2, 0.9, 1000, PROFILES["paper"])
    if not (s2.doublings == 0 and [(c.p1_end, c.p2_end, c.p3_end) for c in s2.copies] == [(113, 226, 1000)]):
        ok = False
        notes.append("single-copy example mismatch")

    s3 = compute_schedule(2, 0.1, 4000, PROFILES["paper"])
    if not (len(s3.copies) == 4 and s3.copies[0].alpha == 0.0125):
        ok = False
        notes.append("alpha ladder mismatch")

    return CheckResult(
        "schedule_examples",
        ok,
        "worked schedule examples reproduced" if ok else "; ".join(notes),
    )


def run_validate_suite() -> list[CheckResult]:
    return [
        check_no_substitution_and_quota(),
        check_metric_oracles(),
        check_bin_properties(),
        check_tail_bound(),
        check_well_represented_concentration(),
        check_schedule_examples(),
    ]
