"""Output checks, computed from the benchmark's own copy of the inputs.

Nothing here calls munsc: the schedule, psi, quotas and risks are derived
again from the paper's closed forms and from scipy distances, and compared
with what the program reported. Each check raises CheckFailed with a one-line
reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

# The `desk` constants profile, which every workload runs under.
C_PHI = 5.0
C_KPLUS = 2.0
C_PSI_DENOM = 3.0
# Declared factor of the single-swap local search, and the paper's ceiling
# 504 * beta + 281 on achieved risk over optimal risk.
BETA = 5.0
RATIO_CEILING = 504.0 * BETA + 281.0
REL_TOL = 1e-9
_CHUNK_CELLS = 2**21


class CheckFailed(Exception):
    pass


@dataclass
class CopyOutcome:
    """One copy's reported outcome."""

    bounds: tuple[int, int, int]  # (p1_end, p2_end, p3_end)
    alpha: float
    quota: int
    selected: list[int]  # in selection order
    psi: float
    reference: list[int]  # the phase-1 reference centers


@dataclass
class StreamOutcome:
    """Everything the checks read from one stream's run."""

    complete: bool
    log_index: list[int]
    log_point: list[int]
    log_selected: list[bool]
    selection_order: list[int]
    t_out: list[int]
    copies: list[CopyOutcome]
    achieved_risk: float
    oracle_centers: list[int] | None = None
    oracle_risk: float | None = None


@dataclass(frozen=True)
class CopyPlan:
    bounds: tuple[int, int, int]
    alpha: float
    quota: int


@dataclass(frozen=True)
class Plan:
    """The copy ladder and per-copy constants, derived from (n, k, delta)."""

    k: int
    delta_prime: float
    k_plus: int
    copies: tuple[CopyPlan, ...]


def plan(n: int, k: int, delta: float) -> Plan:
    """alpha_1 = delta/(4k), doubled I times up to 1/6; s1 = ceil(alpha_1 n)
    doubled per copy; earlier copies select on [2s, 4s) with quota 1, the last
    on [2s, n) with quota ceil(log2(8 k+ / delta')); a copy whose calculation
    phases do not fit is dropped, the last one is clamped to n // 2."""
    alpha_1 = delta / (4.0 * k)
    doublings = max(0, math.floor(math.log2(1.0 / (6.0 * alpha_1)) + 1e-9))
    dprime = delta / (doublings + 1)
    k_plus = k + math.ceil(C_KPLUS * math.log(32.0 * k / dprime))
    s1 = math.ceil(alpha_1 * n)
    copies = []
    for i in range(doublings + 1):
        s = s1 * 2**i
        alpha = alpha_1 * 2.0**i
        if i == doublings:
            s = min(s, n // 2)
            copies.append(CopyPlan((s, 2 * s, n), alpha, math.ceil(math.log2(8.0 * k_plus / dprime))))
        elif 2 * s <= n:
            copies.append(CopyPlan((s, 2 * s, min(4 * s, n)), alpha, 1))
    return Plan(k, dprime, k_plus, tuple(copies))


def expected_psi(phase2_dists: np.ndarray, k: int, dprime: float, alpha: float) -> float:
    """Drop the floor(2 alpha (k+1) phi) largest phase-2 distances, with
    phi = c_phi ln(32k/delta') / alpha, and divide the rest by c_psi alpha;
    0 when the drop count covers the whole phase."""
    phi = C_PHI * math.log(32.0 * k / dprime) / alpha
    drop = int(math.floor(2.0 * alpha * (k + 1) * phi))
    if drop >= phase2_dists.size:
        return 0.0
    kept = np.sort(phase2_dists)[: phase2_dists.size - drop]
    return float(np.sum(kept)) / (C_PSI_DENOM * alpha)


def nearest(coords: np.ndarray, rows, centers) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each row to its nearest center, and that center's
    position in `centers`; ties go to the first position."""
    a = coords[np.asarray(rows, dtype=np.int64)]
    b = coords[np.asarray(centers, dtype=np.int64)]
    dist = np.empty(len(a))
    pos = np.empty(len(a), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // max(1, len(b)))
    for lo in range(0, len(a), step):
        block = cdist(a[lo : lo + step], b)
        p = block.argmin(axis=1)
        pos[lo : lo + step] = p
        dist[lo : lo + step] = block[np.arange(len(p)), p]
    return dist, pos


def reference_centers(coords: np.ndarray, means: np.ndarray) -> list[int]:
    """The data point nearest each blob mean: a k-point solution, so its risk
    bounds the optimum from above."""
    return sorted({int(np.argmin(cdist(m[None, :], coords)[0])) for m in means})


def close(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def check_stream(o: StreamOutcome, perm: np.ndarray) -> None:
    """One decision per index, in stream order; the points marked selected
    in the log are selection_order, with no repeats."""
    n = perm.size
    if not o.complete or o.log_index != list(range(n)):
        raise CheckFailed("the decision log does not hold exactly one decision per stream index")
    if o.log_point != perm.tolist():
        raise CheckFailed("the decision log names other points than the stream order")
    logged = [p for p, s in zip(o.log_point, o.log_selected) if s]
    if len(set(o.selection_order)) != len(o.selection_order):
        raise CheckFailed("selection_order repeats a point")
    if logged != o.selection_order:
        raise CheckFailed("the selected points in the log differ from selection_order")
    if sorted(o.selection_order) != o.t_out:
        raise CheckFailed("T_out differs from the set of selected points")
    union = sorted({x for c in o.copies for x in c.selected})
    if union != o.t_out:
        raise CheckFailed("T_out differs from the union of the copies' selections")


def check_windows(o: StreamOutcome, perm: np.ndarray, p: Plan) -> None:
    """The copy ladder matches the closed forms, and every selection is made
    inside its copy's phase-3 window, in stream order."""
    got = [(c.bounds, c.quota) for c in o.copies]
    want = [(c.bounds, c.quota) for c in p.copies]
    if got != want:
        raise CheckFailed(f"copy ladder (bounds, quota) {got} differs from the closed forms {want}")
    for c, cp in zip(o.copies, p.copies):
        if not close(c.alpha, cp.alpha):
            raise CheckFailed(f"copy alpha {c.alpha} differs from the closed form {cp.alpha}")
    position = np.empty(perm.size, dtype=np.int64)
    position[perm] = np.arange(perm.size)
    for i, (c, cp) in enumerate(zip(o.copies, p.copies)):
        at = position[np.asarray(c.selected, dtype=np.int64)]
        _, p2, p3 = cp.bounds
        if at.size and (at.min() < p2 or at.max() >= p3 or np.any(np.diff(at) <= 0)):
            raise CheckFailed(f"copy {i + 1} selected a point outside its window [{p2}, {p3}) or out of order")


def check_reference(o: StreamOutcome, perm: np.ndarray, p: Plan) -> None:
    """Each reference set has at most k+ centers, all from its own phase-1 prefix."""
    for i, (c, cp) in enumerate(zip(o.copies, p.copies)):
        if not 1 <= len(c.reference) <= p.k_plus:
            raise CheckFailed(f"copy {i + 1} has {len(c.reference)} reference centers, outside [1, k+={p.k_plus}]")
        if not set(c.reference) <= set(perm[: cp.bounds[0]].tolist()):
            raise CheckFailed(f"copy {i + 1} has a reference center outside its phase-1 prefix")


def check_quota(o: StreamOutcome, perm: np.ndarray, coords: np.ndarray, p: Plan) -> None:
    """A reference center that observed at least `quota` phase-3 points has
    at least `quota` selections; points go to their nearest center."""
    for i, (c, cp) in enumerate(zip(o.copies, p.copies)):
        _, p2, p3 = cp.bounds
        quota = cp.quota
        centers = sorted(c.reference)
        _, pos = nearest(coords, perm[p2:p3], centers)
        observed = np.bincount(pos, minlength=len(centers))
        chosen = np.isin(perm[p2:p3], np.asarray(c.selected, dtype=np.int64))
        selected = np.bincount(pos[chosen], minlength=len(centers))
        short = (observed >= quota) & (selected < quota)
        if np.any(short):
            j = int(np.argmax(short))
            raise CheckFailed(
                f"copy {i + 1}: center {centers[j]} observed {observed[j]} points but only "
                f"{selected[j]} were selected, quota {quota}"
            )


def check_psi(o: StreamOutcome, perm: np.ndarray, coords: np.ndarray, p: Plan) -> None:
    """psi equals the closed form over the benchmark's own phase-2 distances."""
    for i, (c, cp) in enumerate(zip(o.copies, p.copies)):
        p1, p2, _ = cp.bounds
        dists, _ = nearest(coords, perm[p1:p2], sorted(c.reference))
        want = expected_psi(dists, p.k, p.delta_prime, cp.alpha)
        if not close(c.psi, want):
            raise CheckFailed(f"copy {i + 1}: psi {c.psi!r} differs from the recomputed {want!r}")


def check_risk(o: StreamOutcome, coords: np.ndarray) -> float:
    """The reported risk of T_out over all points matches the recomputed one.
    Returns the recomputed risk."""
    dists, _ = nearest(coords, np.arange(coords.shape[0]), o.t_out)
    want = float(np.sum(dists))
    if not close(o.achieved_risk, want):
        raise CheckFailed(f"risk {o.achieved_risk!r} differs from the recomputed {want!r}")
    return want


def check_bound(o: StreamOutcome, reference_risk: float) -> None:
    """Achieved risk <= (504 beta + 281) x an upper bound on the optimum."""
    base = reference_risk if o.oracle_risk is None else min(reference_risk, o.oracle_risk)
    if not o.achieved_risk <= RATIO_CEILING * base:
        raise CheckFailed(f"risk {o.achieved_risk!r} exceeds {RATIO_CEILING:g} x the optimum bound {base!r}")


def check_oracle(o: StreamOutcome, coords: np.ndarray) -> None:
    """The exact oracle equals a brute force over all 2-subsets: the same
    optimal risk and the lexicographically smallest optimal pair."""
    if o.oracle_centers is None or o.oracle_risk is None:
        raise CheckFailed("the workload runs the oracle but no oracle result was recorded")
    d = cdist(coords, coords)
    # risks[i][j] is the risk of the pair (i, i + 1 + j).
    risks = [np.minimum(d[:, i : i + 1], d[:, i + 1 :]).sum(axis=0) for i in range(d.shape[0] - 1)]
    best = min(float(r.min()) for r in risks)
    # The lexicographically first pair whose risk ties the minimum up to rounding.
    tie = best * (1.0 + REL_TOL)
    i = next(i for i, r in enumerate(risks) if r.min() <= tie)
    want = [i, i + 1 + int(np.flatnonzero(risks[i] <= tie)[0])]
    if sorted(o.oracle_centers) != want:
        raise CheckFailed(f"oracle pair {o.oracle_centers} is not the smallest optimal pair {want}")
    if not close(o.oracle_risk, best):
        raise CheckFailed(f"oracle risk {o.oracle_risk!r} differs from the brute-force optimum {best!r}")


def check_all(o: StreamOutcome, perm: np.ndarray, coords: np.ndarray, means: np.ndarray, k: int, delta: float, oracle: bool) -> float:
    """Run every check on one stream's outcome; returns the reference risk."""
    p = plan(perm.size, k, delta)
    check_stream(o, perm)
    check_windows(o, perm, p)
    check_reference(o, perm, p)
    check_quota(o, perm, coords, p)
    check_psi(o, perm, coords, p)
    check_risk(o, coords)
    reference_risk = float(np.sum(nearest(coords, np.arange(perm.size), reference_centers(coords, means))[0]))
    check_bound(o, reference_risk)
    if oracle:
        check_oracle(o, coords)
    return reference_risk
