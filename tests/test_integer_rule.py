"""The one integer rule at every public entry that takes a count, size or seed,
and the one real-number rule at every entry that takes a real."""

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
    tail_risk_bound_holds,
    theorem_constants,
    solve_exhaustive,
    solve_local_search,
    truncated_risk,
)
from munsc.harness import generate_gaussian_mixture, run_experiment
from munsc.harness.bench import run_suite
from munsc.oracle import exact_opt_budget_ok
from munsc.params import psi_truncation_count

DESK = PROFILES["desk"]
DATA = Dataset.from_coords(np.random.default_rng(5).normal(0.0, 10.0, size=(40, 2)))
IDS = range(DATA.n)
REF = CenterSet.of([3, 17])


def _config(**over) -> SelectProcConfig:
    args = dict(k=2, delta=0.2, alpha=0.05, profile=DESK, p1_end=50, p3_end=1000, quota=3)
    return SelectProcConfig(**{**args, **over})


def _report(**over) -> str:
    args = dict(data=DATA, k=2, delta=0.2, profile="desk", solver=local_search_solver(20), permutation_seed=1, oracle="exact")
    return dataclasses.replace(run_experiment(**{**args, **over}), wall_time_s=0.0).to_json()


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
    "exact_opt_budget_ok.m": (1, 240, lambda v: exact_opt_budget_ok(v, 2)),
    "exact_opt_budget_ok.k": (1, 2, lambda v: exact_opt_budget_ok(240, v)),
    "SelectProcConfig.k": (1, 2, lambda v: _config(k=v)),
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
    configs = (make_config(i(2), i(1000), 0.2, 0.05, DESK), _config(k=i(2), p1_end=i(40), p3_end=i(800)), *sched.copies)
    values = [getattr(c, f) for c in configs for f in ("k", "p1_end", "p2_end", "p3_end", "quota", "k_plus", "psi_drop")]
    values += [sched.n, sched.s1, sched.doublings, build_division(IDS, REF, i(3), DATA).z]
    rep = json.loads(_report(k=i(2), permutation_seed=i(1)))
    values += [rep["n"], rep["k"], rep["permutation_seed"], rep["t_out_size"], *rep["t_out"]]
    values += [v for c in rep["copies"] for v in (c["quota"], c["t_alpha_size"], *c["phase_bounds"])]
    assert all(type(v) is int for v in values)


NAN, INF = math.nan, math.inf
DIV = build_division(IDS, REF, 3, DATA)
A = DIV.bins[1][:1]

# call with a {} for the real under test: (a valid value, an out-of-bound value, the call)
REALS = {
    "Profile(c_phi={})": (5.0, 0.0, lambda v: Profile("x", v, 2.0)),
    "Profile(c_kplus={})": (2.0, -1.0, lambda v: Profile("x", 5.0, v)),
    "phi_alpha(delta={})": (0.2, 1.0, lambda v: phi_alpha(2, v, 0.05, DESK)),
    "phi_alpha(alpha={})": (0.05, 1.5, lambda v: phi_alpha(2, 0.2, v, DESK)),
    "k_plus_size(delta={})": (0.2, 0.0, lambda v: k_plus_size(2, v, DESK)),
    "quota_default(delta={})": (0.2, 1.0, lambda v: quota_default(9, v)),
    "alpha_schedule(delta={})": (0.2, 1.0, lambda v: alpha_schedule(2, v)),
    "min_nondegenerate_n(delta={})": (0.2, 1.0, lambda v: min_nondegenerate_n(2, v, 0.025, DESK)),
    "min_nondegenerate_n(alpha={})": (0.025, 2.0, lambda v: min_nondegenerate_n(2, 0.2, v, DESK)),
    "psi_truncation_count(alpha={})": (0.05, 0.0, lambda v: psi_truncation_count(2, v, 40.0)),
    "psi_truncation_count(phi={})": (40.0, -1.0, lambda v: psi_truncation_count(2, 0.05, v)),
    "selection_threshold(psi={})": (3.0, -1.0, lambda v: selection_threshold(v, 2, 7.0)),
    "selection_threshold(tau={})": (7.0, 0.0, lambda v: selection_threshold(3.0, 2, v)),
    "psi_truncation_count(alpha=1e10, phi={})": (40.0, 1e308, lambda v: psi_truncation_count(2, 1e10, v)),
    "selection_threshold(psi={}, tau=1e-10)": (3.0, 1e300, lambda v: selection_threshold(v, 2, 1e-10)),
    "theorem_constants({})": (5.0, 0.5, theorem_constants),
    "ratio_ceiling({})": (5.0, 0.5, ratio_ceiling),
    "SelectProcConfig(delta={})": (0.2, 1.0, lambda v: _config(delta=v)),
    "SelectProcConfig(alpha={})": (0.05, 0.2, lambda v: _config(alpha=v)),
    "SelectProcConfig(tau={})": (7.0, 0.0, lambda v: _config(tau=v)),
    "make_config(delta={})": (0.2, 1.0, lambda v: make_config(2, 1000, v, 0.05, DESK)),
    "make_config(alpha={})": (0.05, 0.2, lambda v: make_config(2, 1000, 0.2, v, DESK)),
    "compute_schedule(delta={})": (0.2, 1.0, lambda v: compute_schedule(2, v, 2000, DESK)),
    "sandwich_report(delta={})": (0.2, 1.0, lambda v: sandwich_report(1000, 2, v, 0.05, DESK)),
    "sandwich_report(alpha={})": (0.05, 0.2, lambda v: sandwich_report(1000, 2, 0.2, v, DESK)),
    "psi_sandwich_frequency(delta={})": (0.2, 1.0, lambda v: psi_sandwich_frequency(DATA, 2, v, 0.1, 1, 0)),
    "psi_sandwich_frequency(alpha={})": (0.1, 0.2, lambda v: psi_sandwich_frequency(DATA, 2, 0.2, v, 1, 0)),
    "tail_risk_bound_holds(r={})": (0.5, 1.0, lambda v: tail_risk_bound_holds(DIV, A, v, DATA)),
    "generate_gaussian_mixture(separation={})": (20.0, 0.0, lambda v: _mixture(separation=v)),
    "generate_gaussian_mixture(outlier_fraction={})": (0.1, 0.25, lambda v: _mixture(outlier_fraction=v)),
    "run_experiment(delta={})": (0.2, 1.0, lambda v: _report(delta=v)),
}
NAN_BOUNDS = {call.format(bad): (REALS[call][2], bad) for call in REALS for bad in (NAN, INF, -INF)}
NON_REALS = {
    call.format(repr(bad)): (REALS[call][2], bad)
    for call in REALS
    for bad in ("0.2", None, 0.2j, True)
    if not (bad is None and call == "SelectProcConfig(tau={})")  # None asks for the default tau
}
OUT_OF_BOUNDS = {call.format(REALS[call][1]): (REALS[call][2], REALS[call][1]) for call in REALS}


def _one_line_contract_error(call, bad) -> None:
    with pytest.raises(ContractError) as info:
        call(bad)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("case", NAN_BOUNDS)
def test_real_bound_fails_nan_and_inf(case):
    _one_line_contract_error(*NAN_BOUNDS[case])


@pytest.mark.parametrize("case", NON_REALS)
def test_real_entry_rejects_non_reals(case):
    """A str, None, a complex and a bool are refused, not turned into raw errors or numbers."""
    _one_line_contract_error(*NON_REALS[case])


@pytest.mark.parametrize("case", OUT_OF_BOUNDS)
def test_real_entry_rejects_out_of_bound(case):
    _one_line_contract_error(*OUT_OF_BOUNDS[case])


def test_int_past_the_floats_is_out_of_bound():
    _one_line_contract_error(theorem_constants, 10**400)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("call", REALS)
def test_real_past_the_floats_keeps_its_sign(call, sign):
    """An int past the floats is refused with its sign and length, not as inf."""
    with pytest.raises(ContractError, match=f" got {'a negative' if sign < 0 else 'an'} integer of 1329 bits$"):
        REALS[call][2](sign * 10**400)


@pytest.mark.parametrize("entry", ENTRIES)
def test_integer_too_long_to_print_is_a_contract_error(entry):
    """An int of 5,000 digits, past the 4,300 that Python prints, is refused in
    one line that gives its sign and length, not with a raw ValueError."""
    with pytest.raises(ContractError, match=" got a negative integer of 16610 bits$"):
        ENTRIES[entry][2](-(10**5000))


# The integer entries whose value enters float arithmetic. Seeds and `r` take
# any int, so 10**400 is not one of ENTRIES' bad values.
FLOAT_COUNTS = (
    "phi_alpha.k", "k_plus_size.k", "psi_truncation_count.k", "selection_threshold.k", "min_nondegenerate_n.k",
    "alpha_schedule.k", "compute_schedule.k", "SelectProcConfig.k", "quota_default.k_plus", "make_config.k",
    "make_config.n", "compute_schedule.n", "sandwich_report.n",
)


@pytest.mark.parametrize("entry", FLOAT_COUNTS)
def test_count_past_the_floats_is_a_contract_error(entry):
    """An int too large for a float fails the integer rule in one line, not
    as a raw OverflowError where the float arithmetic converts it."""
    _one_line_contract_error(ENTRIES[entry][2], 10**400)


@pytest.mark.parametrize("call", REALS)
def test_real_entry_takes_numpy_numbers(call):
    """A numpy float gives the output of the Python float of the same value,
    an integral value as an int or numpy integer too; the reprs would differ if
    a numpy scalar reached the output."""
    valid, _, fn = REALS[call]
    assert repr(fn(np.float64(valid))) == repr(fn(valid))
    assert repr(fn(np.float32(valid))) == repr(fn(float(np.float32(valid))))
    if valid == int(valid):
        assert repr(fn(np.int64(valid))) == repr(fn(int(valid))) == repr(fn(valid))


def test_reals_are_stored_as_float():
    f = np.float32
    sched = compute_schedule(2, f(0.2), 2000, DESK)
    configs = (make_config(2, 1000, f(0.2), f(0.05), DESK), _config(delta=f(0.2), alpha=f(0.05), tau=f(7.0)), *sched.copies)
    values = [getattr(c, name) for c in configs for name in ("delta", "alpha", "phi", "tau")]
    values += [sched.delta_prime, sched.tau, *dataclasses.astuple(Profile("x", f(5.0), np.int64(2)))[1:]]
    ladder = alpha_schedule(2, f(0.2))
    values += [ladder.alpha_1, ladder.delta_prime, *ladder.alphas, *dataclasses.astuple(theorem_constants(np.int64(5)))]
    rep = run_experiment(DATA, 2, f(0.2), "desk", local_search_solver(20), 1, "exact")
    values += [rep.delta, rep.solver_beta, *(v for c in rep.copies for v in (c.alpha, c.gamma, c.psi))]
    assert all(type(v) is float for v in values)


def test_float32_delta_report_serializes():
    assert json.loads(_report(delta=np.float32(0.2)))["delta"] == float(np.float32(0.2))


def test_copy_gamma_is_its_window_fraction():
    """Each copy reports the fraction of the stream it selects from, also
    when the short stream clamps its phases."""
    rep = json.loads(_report(data=Dataset.from_coords(DATA.coords[:6])))
    assert any("clamped" in w for w in rep["warnings"])
    for c in rep["copies"]:
        _, p2, p3 = c["phase_bounds"]
        assert c["gamma"] == (p3 - p2) / 6


@pytest.mark.parametrize("delta", [1e-300, 1e-307, 8e-303, 5e-324])
def test_tiny_delta_is_a_contract_error(delta):
    """A delta inside (0, 1) too small for the schedule's floats names delta."""
    with pytest.raises(ContractError, match="^delta is too small"):
        compute_schedule(2, delta, 100)
