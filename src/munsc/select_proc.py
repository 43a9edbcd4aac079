"""Three-phase streaming center selection as an incremental state machine.

One state consumes one stream point per `observe` call and decides about it
before the next point becomes visible. Phase 1 buffers points and hands them
to the offline black box, producing the reference clustering. Phase 2 records
one distance per point and condenses them into the outlier-truncated risk
estimate psi. Phase 3 selects: a point is taken when it is far from its
nearest reference center, when that center is still under its observation
quota, or when nothing close to that center has been selected yet. Selected
points are never revoked. Each point's record is written as it is read, into
three append-only columns: `dists`, the nearest-reference distance of every
index in [p1_end, p3_end), and `slots` and `reasons`, the nearest-reference
position and a code into `REASONS` of every index in [p2_end, p3_end).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import ceil
from typing import Callable

import numpy as np

from .errors import _FLOAT_MAX, ContractError, _real, _whole
from .metric import CenterSet, Dataset, nearest_lookup
from .params import (
    PROFILES,
    PSI_DENOM,
    Profile,
    _k_plus,
    _phi,
    _psi_drop,
    _quota,
    selection_threshold,
)
from .solvers import Solver

__all__ = [
    "SelectProcConfig",
    "SelectProcState",
    "SelectProcReport",
    "REASONS",
    "make_config",
    "observe",
    "finish",
]

_ALPHA_MAX = 1.0 / 6.0 + 1e-9  # a copy's scale lies in (0, 1/6], with room for float noise

REASONS = ("not_selected", "far", "quota", "near_flag")  # phase-3 codes; 0 passes a point over
_FAR, _QUOTA, _NEAR_FLAG = 1, 2, 3


@dataclass(frozen=True)
class SelectProcConfig:
    """One copy's full configuration, including integer phase boundaries.

    The first two phases have equal size (p2_end == 2 * p1_end). Selection
    happens on indices [p2_end, p3_end), the paper's gamma * n points, and
    the copy observes exactly its window [0, p3_end). The scalars fixed by
    (k, delta, alpha) are derived here once: the size threshold `phi`, the
    enlarged solution size `k_plus` and the psi truncation count `psi_drop`;
    so is `p2_end`. `quota` defaults to the quota of `k_plus` and `tau` to `phi`.
    """

    k: int
    delta: float
    alpha: float
    profile: Profile
    p1_end: int
    p3_end: int
    quota: int | None = None
    tau: float | None = None
    phi: float = field(init=False)
    k_plus: int = field(init=False)
    psi_drop: int = field(init=False)
    p2_end: int = field(init=False)  # a field, not a property: `observe` reads it per point

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _whole(self.k, "k", high=_FLOAT_MAX))
        for name in ("p1_end", "p3_end"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        object.__setattr__(self, "p2_end", 2 * self.p1_end)
        object.__setattr__(self, "delta", _real(self.delta, "delta", 0.0, 1.0))
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", 0.0, _ALPHA_MAX, "(]"))
        if not self.p2_end <= self.p3_end:
            raise ContractError(f"phase boundaries need 2*p1 <= p3, got {self.p1_end}, {self.p3_end}")
        # every field is checked: derive from it with the unchecked formulas
        phi = _phi(self.k, self.delta, self.alpha, self.profile)
        k_plus = _k_plus(self.k, self.delta, self.profile)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "k_plus", k_plus)
        object.__setattr__(self, "psi_drop", _psi_drop(self.k, self.alpha, phi))
        quota = _quota(k_plus, self.delta) if self.quota is None else _whole(self.quota, "quota")
        object.__setattr__(self, "quota", quota)
        object.__setattr__(self, "tau", phi if self.tau is None else _real(self.tau, "tau", 0.0))


def make_config(
    k: int,
    n: int,
    delta: float,
    alpha: float,
    profile: Profile = PROFILES["paper"],
) -> SelectProcConfig:
    """Standalone configuration of a full-stream copy, selecting from 2*p1_end
    to the end of the stream; quota and tau default as in SelectProcConfig."""
    n = _whole(n, "n", high=_FLOAT_MAX)
    alpha = _real(alpha, "alpha", 0.0, _ALPHA_MAX, "(]")  # before ceil(alpha * n)
    return SelectProcConfig(
        k=k,
        delta=delta,
        alpha=alpha,
        profile=profile,
        p1_end=ceil(alpha * n),
        p3_end=n,
    )


@dataclass(frozen=True, eq=False)
class SelectProcReport:
    """Immutable summary of one finished copy; the counts derive from its
    read-only decision columns `dists`, `slots` and `reasons`."""

    selected: tuple[int, ...]  # in selection order
    psi: float
    t_alpha: CenterSet
    reason_counts: dict[str, int]  # selections per rule, keyed by REASONS[1:]
    observed_per_center: tuple[int, ...]
    selected_per_center: tuple[int, ...]
    warnings: tuple[str, ...]
    config: SelectProcConfig
    dists: np.ndarray
    slots: np.ndarray
    reasons: np.ndarray


class SelectProcState:
    """Mutable state of one copy over the dataset and phase-1 black box it is made with; mutated sequentially."""

    def __init__(self, config: SelectProcConfig, data: Dataset, solver: Solver):
        self.config = config
        self.data = data
        self.solver = solver
        self.count = 0
        self.buffer_p1: list[int] | None = []
        self.dists = array("d")
        self.slots = array("q")
        self.reasons = array("b")
        self.t_alpha: CenterSet | None = None
        self.psi: float | None = None
        self.threshold: float = 0.0
        self.near: list[bool] = []
        self.observed_counts: list[int] = []
        self.selected: list[int] = []
        self.warnings: list[str] = []
        self._nearest_ref: Callable[[int], tuple[int, float]] | None = None

    def _finish_phase1(self) -> None:
        assert self.buffer_p1 is not None
        self.t_alpha = self.solver.solve(self.buffer_p1, self.config.k_plus, self.data)
        self.buffer_p1 = None  # buffered prefix is no longer needed
        self._nearest_ref = nearest_lookup(self.t_alpha, self.data)
        self.near = [False] * len(self.t_alpha)
        self.observed_counts = [0] * len(self.t_alpha)

    def _finish_phase2(self) -> None:
        c = self.config
        drop = c.psi_drop
        dists = np.sort(self.dists)
        if drop >= dists.size:
            self.psi = 0.0
            self.warnings.append(
                f"psi=0: truncation count {drop} >= phase-2 size {dists.size}; "
                "every positive-distance point in phase 3 will be selected as far"
            )
        else:
            self.psi = float(np.sum(dists[: dists.size - drop])) / (PSI_DENOM * c.alpha)
        self.threshold = selection_threshold(self.psi, c.k, c.tau)


def observe(state: SelectProcState, x: int) -> bool:
    """Consume the next stream point, decide about it immediately, and return
    whether it was selected.

    The copy's solver is invoked exactly once, on its dataset, when the last
    phase-1 point arrives. Raises ContractError for a point id that is not an
    integer in [0, state.data.n), and when called after the window [0, p3_end) closed.
    """
    if type(x) is not int:  # the common case skips the general integer rule
        x = _whole(x, "point id", 0)
    if not 0 <= x < state.data.n:
        raise ContractError(f"point id {x} out of range for a dataset of {state.data.n} points")
    c = state.config
    idx = state.count
    if idx >= c.p3_end:
        raise ContractError(f"observe called after the copy's window of {c.p3_end} points closed")
    state.count = idx + 1

    if idx < c.p1_end:
        state.buffer_p1.append(x)
        if idx == c.p1_end - 1:
            state._finish_phase1()
        return False

    pos, d = state._nearest_ref(x)
    state.dists.append(d)
    if idx < c.p2_end:
        if idx == c.p2_end - 1:
            state._finish_phase2()
        return False

    prev = state.observed_counts[pos]
    state.observed_counts[pos] = prev + 1
    if d > state.threshold:
        reason = _FAR
    elif prev < c.quota:
        reason = _QUOTA
    elif not state.near[pos]:
        reason = _NEAR_FLAG
    else:
        reason = 0
    state.slots.append(pos)
    state.reasons.append(reason)
    if reason:
        state.selected.append(x)
        state.near[pos] |= d <= state.threshold
    return reason != 0


def finish(state: SelectProcState) -> SelectProcReport:
    """Freeze the copy's outcome once its whole window [0, p3_end) has been observed."""
    if state.count != state.config.p3_end:
        raise ContractError(f"finish called after {state.count} of {state.config.p3_end} points")
    assert state.t_alpha is not None and state.psi is not None
    dists, slots, reasons = (np.array(col) for col in (state.dists, state.slots, state.reasons))
    for col in (dists, slots, reasons):
        col.flags.writeable = False
    per_reason = np.bincount(reasons, minlength=len(REASONS)).tolist()
    per_center = np.bincount(slots[reasons != 0], minlength=len(state.t_alpha)).tolist()
    return SelectProcReport(
        selected=tuple(state.selected),
        psi=state.psi,
        t_alpha=state.t_alpha,
        reason_counts=dict(zip(REASONS[1:], per_reason[1:])),
        observed_per_center=tuple(state.observed_counts),
        selected_per_center=tuple(per_center),
        warnings=tuple(state.warnings),
        config=state.config,
        dists=dists,
        slots=slots,
        reasons=reasons,
    )
