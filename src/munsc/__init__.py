"""Sequential no-substitution k-median clustering on random-order streams.

A multiscale ladder of three-phase selection copies picks cluster centers
online, each point accepted or passed over before the next one is revealed.
Includes the offline solver black boxes, the analysis objects (linear bin
divisions, truncated risks, well-representedness), exact and approximate
oracles, and a benchmark harness with a CLI.
"""

from .bins import BinDivision, build_division, check_well_represented, division_properties, tail_risk_bound_holds
from .errors import (
    BudgetExceededError,
    ContractError,
    InfeasibleBinDivisionError,
    MunscError,
    PremiseError,
    StreamProtocolError,
)
from .metric import CenterSet, Dataset, far_r, risk, truncated_risk
from .multiscale import MunscResult, Schedule, compute_schedule, run_stream
from .oracle import OptimalSolution, exact_opt, psi_sandwich_frequency, sandwich_report
from .params import (
    PROFILES,
    Profile,
    TheoremConstants,
    alpha_schedule,
    k_plus_size,
    min_nondegenerate_n,
    phi_alpha,
    quota_default,
    ratio_ceiling,
    selection_threshold,
    theorem_constants,
)
from .select_proc import (
    REASONS,
    SelectProcConfig,
    SelectProcReport,
    SelectProcState,
    finish,
    make_config,
    observe,
)
from .solvers import Solver, get_solver, local_search_solver, solve_exhaustive, solve_local_search
from .stream import InstrumentedStream

__version__ = "0.1.0"

__all__ = [
    "BinDivision",
    "BudgetExceededError",
    "CenterSet",
    "ContractError",
    "Dataset",
    "InfeasibleBinDivisionError",
    "InstrumentedStream",
    "MunscError",
    "MunscResult",
    "OptimalSolution",
    "PremiseError",
    "Profile",
    "PROFILES",
    "REASONS",
    "Schedule",
    "SelectProcConfig",
    "SelectProcReport",
    "SelectProcState",
    "Solver",
    "StreamProtocolError",
    "TheoremConstants",
    "alpha_schedule",
    "build_division",
    "check_well_represented",
    "compute_schedule",
    "division_properties",
    "exact_opt",
    "far_r",
    "finish",
    "get_solver",
    "k_plus_size",
    "local_search_solver",
    "make_config",
    "min_nondegenerate_n",
    "observe",
    "phi_alpha",
    "psi_sandwich_frequency",
    "quota_default",
    "ratio_ceiling",
    "risk",
    "run_stream",
    "sandwich_report",
    "selection_threshold",
    "solve_exhaustive",
    "solve_local_search",
    "tail_risk_bound_holds",
    "theorem_constants",
    "truncated_risk",
]
