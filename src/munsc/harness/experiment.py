"""Replayable experiments: one full multiscale run measured against an oracle."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import ContractError, _real, _whole
from ..metric import Dataset, risk
from ..multiscale import MunscResult, compute_schedule, run_stream
from ..oracle import exact_opt, exact_opt_budget_ok
from ..params import PROFILES, Profile
from ..solvers import Solver, solve_local_search
from ..stream import InstrumentedStream

__all__ = ["ExperimentReport", "run_experiment", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
ORACLE_MODES = ("auto", "exact", "local-search", "none")

@dataclass(frozen=True)
class CopySummary:
    copy: int
    alpha: float
    gamma: float  # selection window (p3_end - p2_end) / n
    quota: int
    psi: float
    t_alpha_size: int
    phase_bounds: tuple[int, int, int]
    selections: int
    reasons: dict[str, int]


@dataclass(frozen=True)
class ExperimentReport:
    """Lossless record of one run; everything needed to replay it bit-exactly."""

    schema_version: int
    n: int
    k: int
    delta: float
    profile: str
    solver: str
    solver_beta: float
    permutation_seed: int
    dataset_mode: str
    t_out_size: int
    t_out: tuple[int, ...]
    achieved_risk: float
    oracle_label: str | None
    oracle_risk: float | None
    ratio: float | None
    copies: tuple[CopySummary, ...] = field(default_factory=tuple)
    warnings: tuple[str, ...] = ()
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentReport":
        payload = dict(payload)
        payload["t_out"] = tuple(payload["t_out"])
        payload["copies"] = tuple(
            CopySummary(**{**c, "phase_bounds": tuple(c["phase_bounds"])}) for c in payload["copies"]
        )
        payload["warnings"] = tuple(payload["warnings"])
        return cls(**payload)


def _ratio(achieved: float, oracle_risk: float, warnings: list[str]) -> float:
    """Achieved/oracle with the degenerate-duplicate convention: 0/0 is 1."""
    if oracle_risk > 0.0:
        return achieved / oracle_risk
    if achieved == 0.0:
        return 1.0
    warnings.append("oracle risk is zero but achieved risk is not; ratio reported as infinity")
    return math.inf


def run_experiment(
    data: Dataset,
    k: int,
    delta: float,
    profile: Profile | str,
    solver: Solver,
    permutation_seed: int,
    oracle: str = "auto",
) -> ExperimentReport:
    """One multiscale run over an instrumented stream, measured and serialized.

    oracle: "auto" uses the exhaustive optimum when the enumeration budget
    allows and single-swap local search on the full dataset otherwise;
    "exact", "local-search" force a choice; "none" skips the reference
    (ratio and oracle fields stay null).
    """
    k = _whole(k, "k")
    delta = _real(delta, "delta", 0.0, 1.0)
    permutation_seed = _whole(permutation_seed, "permutation_seed", 0)
    if oracle not in ORACLE_MODES:
        raise ContractError(f"unknown oracle mode {oracle!r}")
    if isinstance(profile, str):
        if profile not in PROFILES:
            raise ContractError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
        profile = PROFILES[profile]
    t0 = time.perf_counter()
    schedule = compute_schedule(k, delta, data.n, profile)
    perm = np.random.default_rng(permutation_seed).permutation(data.n)
    stream = InstrumentedStream(perm)
    result: MunscResult = run_stream(stream, schedule, data, solver)

    warnings = list(result.warnings)
    all_ids = range(data.n)
    if len(result.centers) == 0:
        achieved = math.inf
        warnings.append("no centers selected; achieved risk reported as infinity")
    else:
        achieved = risk(all_ids, result.centers, data)

    if oracle == "auto":
        oracle = "exact" if exact_opt_budget_ok(data.n, k) else "local-search"
    if oracle == "exact":
        opt = exact_opt(data, k)
        oracle_label: str | None = "exact"
        oracle_risk: float | None = opt.risk
    elif oracle == "local-search":
        ref = solve_local_search(all_ids, k, data)
        oracle_label = "local-search (beta=5 reference)"
        oracle_risk = risk(all_ids, ref, data)
    else:  # "none"
        oracle_label = None
        oracle_risk = None

    ratio = None if oracle_risk is None else _ratio(achieved, oracle_risk, warnings)

    copies = tuple(
        CopySummary(
            copy=i + 1,
            alpha=rep.config.alpha,
            gamma=(rep.config.p3_end - rep.config.p2_end) / data.n,
            quota=rep.config.quota,
            psi=rep.psi,
            t_alpha_size=len(rep.t_alpha),
            phase_bounds=(rep.config.p1_end, rep.config.p2_end, rep.config.p3_end),
            selections=len(rep.selected),
            reasons=dict(rep.reason_counts),
        )
        for i, rep in enumerate(result.copy_reports)
    )
    return ExperimentReport(
        schema_version=SCHEMA_VERSION,
        n=data.n,
        k=k,
        delta=delta,
        profile=profile.name,
        solver=solver.name,
        solver_beta=solver.beta,
        permutation_seed=permutation_seed,
        dataset_mode=data.mode,
        t_out_size=len(result.centers),
        t_out=result.centers.ids,
        achieved_risk=achieved,
        oracle_label=oracle_label,
        oracle_risk=oracle_risk,
        ratio=ratio,
        copies=copies,
        warnings=tuple(warnings),
        wall_time_s=time.perf_counter() - t0,
    )
