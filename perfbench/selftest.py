"""Self-test of the output checks: each must pass on a real outcome and fail
on a deliberately corrupted one.

    python3 perfbench/selftest.py

Exits 0 when every check passes on the genuine outcomes and every corruption
is caught by the check aimed at it.
"""

from __future__ import annotations

import copy
import sys
from functools import partial
from typing import Callable

import run  # pins the BLAS thread pools before numpy is imported

if not (run.ROOT / "src" / "munsc" / "__init__.py").is_file():
    sys.exit(f"selftest: no munsc sources under {run.ROOT / 'src'}")
sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
from checks import CheckFailed, StreamOutcome  # noqa: E402
from inputs import Instance, Shape, make_instance  # noqa: E402
from workloads import WORKLOADS, Workload, outcome_of, run_stream_op, set_up  # noqa: E402

# A stream long enough that the last copy keeps a positive psi, next to the
# ratio-240 workload, whose copies all have psi = 0 and which runs the oracle.
LONG = Workload(
    "long-2d",
    Shape(n=4000, dim=2, blobs=2, separation=40.0, outlier_fraction=0.02, outlier_pad=20.0),
    k=2, delta=0.2, max_iters=50, instances=1, oracle=False,
)
SEED = 7


def sample(w: Workload) -> tuple[StreamOutcome, Instance]:
    inst = make_instance(w.shape, SEED, 0, run.CACHE_DIR)
    return outcome_of(run_stream_op(w, inst, set_up(w, [inst])[0])), inst


def corruptions(o: StreamOutcome, inst: Instance, plan: checks.Plan, reference_risk: float):
    """(name, check that must fail, mutation of a copy of the outcome)."""
    perm = inst.perm.tolist()
    coords = inst.coords
    last = len(o.copies) - 1
    psi_copy = next((i for i, c in enumerate(o.copies) if c.psi > 0), None)
    stream = partial(checks.check_stream, perm=inst.perm)
    windows = partial(checks.check_windows, perm=inst.perm, p=plan)
    reference = partial(checks.check_reference, perm=inst.perm, p=plan)
    quota = partial(checks.check_quota, perm=inst.perm, coords=coords, p=plan)
    psi = partial(checks.check_psi, perm=inst.perm, coords=coords, p=plan)
    risk = partial(checks.check_risk, coords=coords)
    bound = partial(checks.check_bound, reference_risk=reference_risk)

    def at(i: int, field: str, value):
        return lambda x: setattr(x.copies[i], field, value)

    yield "repeated selection", stream, lambda x: x.selection_order.append(x.selection_order[0])
    yield "decision missing for the last index", stream, lambda x: (x.log_index.pop(), x.log_point.pop(), x.log_selected.pop())
    yield "log marks a selected point unselected", stream, lambda x: x.log_selected.__setitem__(x.log_selected.index(True), False)
    yield "T_out has a point nobody selected", stream, lambda x: x.t_out.append(max(perm) + 1)
    p1, p2, p3 = o.copies[0].bounds
    yield "selection made in phase 2", windows, at(0, "selected", [perm[p2 - 1]] + o.copies[0].selected[1:])
    yield "selection made after the window", windows, at(0, "selected", o.copies[0].selected[:-1] + [perm[p3]])
    yield "phase bounds shifted by one", windows, at(0, "bounds", (p1 + 1, p2 + 2, p3))
    yield "reference center from phase 2", reference, at(0, "reference", o.copies[0].reference[:-1] + [perm[p1]])
    yield "more than k+ reference centers", reference, at(0, "reference", perm[: plan.k_plus + 1])
    yield "last copy selected nothing", quota, at(last, "selected", [])
    yield "psi = 0 shifted by 1e-6", psi, at(0, "psi", 1e-6)
    if psi_copy is not None:
        yield "positive psi shifted by 1e-6 relative", psi, at(psi_copy, "psi", o.copies[psi_copy].psi * (1 + 1e-6))
    yield "risk off by 1e-6 relative", risk, lambda x: setattr(x, "achieved_risk", x.achieved_risk * (1 + 1e-6))
    yield "risk above the ceiling", bound, lambda x: setattr(x, "achieved_risk", 2802.0 * reference_risk)
    if o.oracle_centers is not None:
        oracle = partial(checks.check_oracle, coords=coords)
        a, b = o.oracle_centers
        other = next(j for j in range(len(perm)) if j not in (a, b))
        yield "oracle pair not optimal", oracle, lambda x: setattr(x, "oracle_centers", sorted([a, other]))
        yield "oracle risk off by 1e-6 relative", oracle, lambda x: setattr(x, "oracle_risk", x.oracle_risk * (1 + 1e-6))


def main() -> int:
    bad = 0
    for w in (WORKLOADS["ratio-240"], LONG):
        o, inst = sample(w)
        plan = checks.plan(w.shape.n, w.k, w.delta)
        try:
            reference_risk = checks.check_all(o, inst.perm, inst.coords, inst.means, w.k, w.delta, w.oracle)
        except CheckFailed as exc:
            print(f"FAIL {w.name}: the genuine outcome fails a check: {exc}")
            return 1
        print(f"ok   {w.name}: genuine outcome passes every check (psi {[round(c.psi, 3) for c in o.copies]})")
        for name, check, mutate in corruptions(o, inst, plan, reference_risk):
            broken = copy.deepcopy(o)
            mutate(broken)
            bad += not caught(f"{w.name}: {name}", check, broken)
    print("selftest passed" if not bad else f"selftest FAILED: {bad} corruption(s) not caught")
    return 1 if bad else 0


def caught(label: str, check: Callable[[StreamOutcome], None], broken: StreamOutcome) -> bool:
    try:
        check(broken)
    except CheckFailed as exc:
        print(f"ok   {label} -> {exc}")
        return True
    print(f"FAIL {label}: not caught")
    return False


if __name__ == "__main__":
    sys.exit(main())
