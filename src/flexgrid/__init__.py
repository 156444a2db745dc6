"""Voltage-constrained flexibility ranges for unbalanced distribution feeders.

The package answers one question for a distribution system operator: how much
aggregate active-power flexibility [Δp-, Δp+] can be offered at the feeder
head such that no admissible redispatch of the flexible devices pushes any
node voltage outside its band?  Devices live behind adversarial aggregators,
so the answer is a bilevel program; this package solves it through LP duality
plus spatial branch-and-bound, and cross-checks the linearized physics
against a full power flow.
"""

from .feeder import (
    FeederError,
    FeederModel,
    MODE_CONSTANT_PF,
    MODE_CONSTANT_Q,
    MODE_VOLT_VAR,
    assemble_ybus,
    index_nodes,
    load_feeder,
    save_feeder,
)
from .powerflow import (
    OperatingPoint,
    PowerFlowError,
    build_fixed_point_model,
    magnitude_taylor,
    solve_nonlinear_pf,
)
from .follower import (
    FlexContext,
    Scenario,
    all_scenarios,
    available_flexibility_bounds,
    build_context,
    build_follower,
)
from .bilevel import (
    BilevelError,
    FlexibilityResult,
    InfeasibleAnchorError,
    UpperDecision,
    WorstCaseLimits,
    feasibility_check,
    run_iterative,
    solve_single_level,
    worst_case_limits,
)

__version__ = "0.1.0"

__all__ = [
    "FeederError",
    "FeederModel",
    "MODE_CONSTANT_PF",
    "MODE_CONSTANT_Q",
    "MODE_VOLT_VAR",
    "assemble_ybus",
    "index_nodes",
    "load_feeder",
    "save_feeder",
    "OperatingPoint",
    "PowerFlowError",
    "build_fixed_point_model",
    "magnitude_taylor",
    "solve_nonlinear_pf",
    "FlexContext",
    "Scenario",
    "all_scenarios",
    "available_flexibility_bounds",
    "build_context",
    "build_follower",
    "BilevelError",
    "FlexibilityResult",
    "InfeasibleAnchorError",
    "UpperDecision",
    "WorstCaseLimits",
    "feasibility_check",
    "run_iterative",
    "solve_single_level",
    "worst_case_limits",
    "__version__",
]
