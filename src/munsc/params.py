"""Closed-form parameter arithmetic for the selection pipeline.

Every derived scalar used by the streaming procedure and its orchestrator
(cluster-size threshold, enlarged solution size, per-center quota, truncation
counts, scale schedule, ratio ceilings) is computed here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError, _real, _whole

__all__ = [
    "Profile",
    "PROFILES",
    "AlphaSchedule",
    "TheoremConstants",
    "phi_alpha",
    "k_plus_size",
    "quota_default",
    "psi_truncation_count",
    "min_nondegenerate_n",
    "selection_threshold",
    "alpha_schedule",
    "theorem_constants",
    "ratio_ceiling",
]


@dataclass(frozen=True)
class Profile:
    """Constant set controlling the derived thresholds.

    The "paper" preset keeps the full-strength theoretical constants. Those
    are so conservative that at desk scale (n up to ~10^5) every truncation
    swallows its whole window and the risk estimate degenerates to zero. The
    "desk" preset shrinks the two leading constants so the same formulas
    produce non-degenerate thresholds on instances that fit in a test run;
    formula unit tests use "paper", approximation experiments use "desk".
    """

    name: str
    c_phi: float
    c_kplus: float

    def __post_init__(self) -> None:
        for name in ("c_phi", "c_kplus"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0.0))


PROFILES: dict[str, Profile] = {
    "paper": Profile("paper", 150.0, 38.0),
    "desk": Profile("desk", 5.0, 2.0),
}

# psi = (sum of the phase-2 distances left after truncation) / (PSI_DENOM * alpha),
# in every profile.
PSI_DENOM = 3.0


def _quotient(num: float, den: float, name: str) -> float:
    """num / den, where den shrinks with the argument `name`: one so small
    that the quotient is no finite float raises ContractError."""
    if not (den > 0.0 and num / den < math.inf):
        raise ContractError(f"{name} is too small: {num!r} / {den!r} is no finite float")
    return num / den


def phi_alpha(k: int, delta: float, alpha: float, profile: Profile) -> float:
    """Cluster-size threshold c_phi * ln(32k/delta) / alpha.

    alpha up to 1.0 is accepted; values above 1/6 only make sense in unit
    tests of the formula itself.
    """
    k = _whole(k, "k")
    delta = _real(delta, "delta", 0.0, 1.0)
    alpha = _real(alpha, "alpha", 0.0, 1.0, "(]")
    return _quotient(profile.c_phi * math.log(_quotient(32.0 * k, delta, "delta")), alpha, "alpha")


def k_plus_size(k: int, delta: float, profile: Profile) -> int:
    """Enlarged solution size k + ceil(c_kplus * ln(32k/delta))."""
    k = _whole(k, "k")
    delta = _real(delta, "delta", 0.0, 1.0)
    return k + math.ceil(profile.c_kplus * math.log(_quotient(32.0 * k, delta, "delta")))


def quota_default(k_plus: int, delta: float) -> int:
    """Per-center selection quota ceil(log2(8 * k_plus / delta)); base-2 log."""
    k_plus = _whole(k_plus, "k_plus")
    delta = _real(delta, "delta", 0.0, 1.0)
    return math.ceil(math.log2(_quotient(8.0 * k_plus, delta, "delta")))


def psi_truncation_count(k: int, alpha: float, phi: float) -> int:
    """Number of largest phase-2 distances discarded: floor(2*alpha*(k+1)*phi)."""
    k = _whole(k, "k")
    alpha = _real(alpha, "alpha", 0.0)
    phi = _real(phi, "phi", 0.0, ends="[)")
    return int(math.floor(2.0 * alpha * (k + 1) * phi))


def min_nondegenerate_n(k: int, delta: float, alpha: float, profile: Profile) -> int:
    """Smallest stream length n at which a copy at scale alpha keeps a psi.

    That is the smallest n whose phase-1 size ceil(alpha * n), the size
    `make_config` uses, exceeds the psi truncation count; below it the
    truncation drops every phase-2 distance and psi = 0. `compute_schedule`
    gives copy i (from 0) the size ceil(alpha_1 * n) * 2**i >= ceil(alpha * n)
    (at k = 8 and n = 10,000, copy 1 has 126 where ceil(alpha * n) = 125), so
    for later copies the n returned suffices but is not always the smallest.
    The count floor(2 alpha (k+1) phi_alpha) hardly depends on alpha, so n
    grows like 1 / alpha.
    """
    alpha = _real(alpha, "alpha", 0.0, 1.0, "(]")
    drop = psi_truncation_count(k, alpha, phi_alpha(k, delta, alpha, profile))
    n = math.floor(drop / alpha) + 1  # alpha * n > drop in exact arithmetic; rounding may move it by one
    while math.ceil(alpha * n) <= drop:
        n += 1
    while n > 1 and math.ceil(alpha * (n - 1)) > drop:
        n -= 1
    return n


def selection_threshold(psi: float, k: int, tau: float) -> float:
    """Distance threshold psi / (k * tau) deciding 'far' selections."""
    k = _whole(k, "k")
    psi = _real(psi, "psi", 0.0, ends="[)")
    tau = _real(tau, "tau", 0.0)
    return psi / (k * tau)


@dataclass(frozen=True)
class AlphaSchedule:
    """Doubling scale schedule: alpha_1 = delta/(4k), final scale in (1/12, 1/6]."""

    alpha_1: float
    doublings: int  # number of doublings I; I+1 scales in total
    alphas: tuple[float, ...]
    delta_prime: float


def alpha_schedule(k: int, delta: float) -> AlphaSchedule:
    """Compute the geometric scale sequence and the per-copy confidence split."""
    k = _whole(k, "k", 2)  # the multiscale schedule needs k >= 2
    delta = _real(delta, "delta", 0.0, 1.0)
    alpha_1 = delta / (4.0 * k)
    # Largest I with alpha_1 * 2^I <= 1/6; the 1e-9 guard absorbs float noise
    # when 1/(6*alpha_1) is an exact power of two.
    doublings = max(0, math.floor(math.log2(_quotient(1.0, 6.0 * alpha_1, "delta")) + 1e-9))
    alphas = tuple(alpha_1 * (2.0**i) for i in range(doublings + 1))
    delta_prime = delta / (doublings + 1)
    return AlphaSchedule(alpha_1, doublings, alphas, delta_prime)


@dataclass(frozen=True)
class TheoremConstants:
    """Risk-bound coefficients implied by a beta-approximate black box."""

    small_cluster_coeff: float  # 36*beta + 20
    large_cluster_coeff: float  # 468*beta + 260
    combined_ceiling: float  # 1 + small + large = 504*beta + 281


def theorem_constants(beta: float) -> TheoremConstants:
    beta = _real(beta, "beta", 1.0, ends="[)")
    small = 36.0 * beta + 20.0
    large = 468.0 * beta + 260.0
    return TheoremConstants(small, large, 1.0 + small + large)


def ratio_ceiling(beta: float) -> float:
    """Hard ceiling 504*beta + 281 asserted on every measured risk ratio."""
    return theorem_constants(beta).combined_ceiling
