"""Multiscale orchestration: a doubling ladder of selection copies over one pass.

The stream fraction handled by the calculation phases doubles from copy to
copy, so copy i's whole observation window coincides with copy i+1's two
calculation phases, and every stream index past the first 2*s1 points falls in
exactly one copy's selection phase. The last copy reads to the end of the
stream with an enlarged per-center quota; earlier copies use a quota of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .errors import _FLOAT_MAX, ContractError, _whole
from .metric import CenterSet, Dataset
from .params import PROFILES, Profile, _phi, alpha_schedule
from .select_proc import SelectProcConfig, SelectProcReport, SelectProcState, finish, observe
from .solvers import Solver
from .stream import InstrumentedStream

__all__ = ["Schedule", "MunscResult", "compute_schedule", "run_stream"]


@dataclass(frozen=True)
class Schedule:
    """Copy configurations plus the shared schedule arithmetic."""

    copies: tuple[SelectProcConfig, ...]
    n: int  # the stream length
    doublings: int  # I; I+1 scales before any copy is dropped for size
    delta_prime: float
    s1: int
    tau: float
    warnings: tuple[str, ...]


def compute_schedule(k: int, delta: float, n: int, profile: Profile = PROFILES["paper"]) -> Schedule:
    """Build the copy ladder for a stream of known length.

    Integer boundaries come from s1 = ceil(alpha_1 * n) doubled per copy,
    which preserves the exact window overlap between consecutive copies. On
    streams too short for the nominal boundaries the last copy's calculation
    phases shrink to fit and intermediate copies that cannot fit both
    calculation phases are dropped; both adjustments are recorded as warnings.
    """
    n = _whole(n, "n", 4, _FLOAT_MAX)  # one copy needs 4 stream points
    sched = alpha_schedule(k, delta)
    dprime = sched.delta_prime
    tau = _phi(k, dprime, sched.alphas[-1], profile)  # every copy thresholds at the last scale
    s1 = ceil(sched.alpha_1 * n)

    warnings: list[str] = []
    copies: list[SelectProcConfig] = []
    for i, a in enumerate(sched.alphas):
        s = s1 * (2**i)
        last = i == sched.doublings
        if last:
            s_eff = min(s, n // 2)
            if s_eff < s:
                warnings.append(
                    f"copy {i + 1}: calculation phases clamped from {s} to {s_eff} points"
                )
            p1, p3 = s_eff, n
            quota = None  # the default quota of the enlarged solution size
        else:
            if 2 * s > n:
                warnings.append(f"copy {i + 1} dropped: 2*{s} exceeds the stream length {n}")
                continue
            p1 = s
            p3 = min(4 * s, n)
            if p3 < 4 * s:
                warnings.append(f"copy {i + 1}: selection phase clamped to the stream end")
            quota = 1
        copies.append(
            SelectProcConfig(
                k=k,
                delta=dprime,
                alpha=a,
                profile=profile,
                p1_end=p1,
                p3_end=p3,
                quota=quota,
                tau=tau,
            )
        )
    return Schedule(
        copies=tuple(copies),
        n=n,
        doublings=sched.doublings,
        delta_prime=dprime,
        s1=s1,
        tau=tau,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class MunscResult:
    """Union of all copies' selections plus their individual reports."""

    centers: CenterSet
    selection_order: tuple[int, ...]
    copy_reports: tuple[SelectProcReport, ...]
    schedule: Schedule
    warnings: tuple[str, ...]


def run_stream(stream, schedule: Schedule, data: Dataset, solver: Solver) -> MunscResult:
    """Feed each stream point, one at a time, to every copy whose window
    [0, p3_end) is open, in copy order; a point no open copy takes is logged
    as not selected. `stream` is either an InstrumentedStream or a plain
    permutation of range(n); plain sequences are wrapped so the
    one-decision-per-point discipline is always enforced.
    """
    st = stream if isinstance(stream, InstrumentedStream) else InstrumentedStream(stream)
    n = schedule.n
    if st.n != n:
        raise ContractError(f"stream length {st.n} does not match schedule length {n}")
    if data.n != n:
        raise ContractError(f"dataset size {data.n} does not match schedule length {n}")
    for i, cfg in enumerate(schedule.copies):
        if cfg.p3_end > n:
            raise ContractError(f"copy {i + 1}: window of {cfg.p3_end} points exceeds the stream length {n}")

    states = [SelectProcState(cfg, data, solver) for cfg in schedule.copies]
    live, closes = states, 0  # the copies whose window is open, and the next index at which one closes
    selection_order: list[int] = []
    read, log_decision = st.read, st.log_decision  # bound once: the loop runs n times
    for t in range(n):
        if t == closes:
            live = [s for s in live if s.config.p3_end > t]
            closes = min((s.config.p3_end for s in live), default=n)
        x = read()
        selected = False
        for state in live:
            selected |= observe(state, x)
        if selected:  # a permutation reads each point once
            selection_order.append(x)
        log_decision(t, selected)

    reports = tuple(finish(s) for s in states)
    warnings = list(schedule.warnings)
    for i, rep in enumerate(reports):
        warnings.extend(f"copy {i + 1}: {w}" for w in rep.warnings)
    return MunscResult(
        centers=CenterSet.of(selection_order),
        selection_order=tuple(selection_order),
        copy_reports=reports,
        schedule=schedule,
        warnings=tuple(warnings),
    )
