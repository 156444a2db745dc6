"""Independent validation of flexibility results against the full physics.

The solver's claims rest on a linearized power flow and a first-order
magnitude expansion.  This module closes the loop without reusing either:
worst-case injections coming out of the follower LPs are pushed through the
Newton power flow, and on small feeders a brute-force grid plays the
adversary directly in the nonlinear model (including volt-var droop as a
fixed point of control and physics).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bilevel import UpperDecision
from .feeder import (
    MODE_CONSTANT_PF,
    MODE_CONSTANT_Q,
    MODE_VOLT_VAR,
    assemble_ybus,
)
from .follower import (
    ACTIVATIONS,
    MAX_V,
    POSITIVE,
    FlexContext,
    FollowerProblem,
    Scenario,
    build_follower,
    screened_extrema,
    slot_gamma,
    slot_qbar,
    slot_qset,
)
from .lp import OPTIMAL
from .powerflow import solve_nonlinear_pf


class OracleError(RuntimeError):
    pass


def linear_magnitudes(ctx: FlexContext, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Voltage magnitudes as the LP sees them (linear flow + first-order |v|)."""
    v = ctx.lpf.voltages(p, q)
    return ctx.taylor.alpha_d * v.real + ctx.taylor.alpha_q * v.imag


def nonlinear_magnitudes(
    ctx: FlexContext, p: np.ndarray, q: np.ndarray, *, Y: np.ndarray | None = None
) -> np.ndarray:
    op = solve_nonlinear_pf(ctx.feeder, p, q, index=ctx.index, Y=Y)
    return op.vm


def linearization_error(ctx: FlexContext, p: np.ndarray, q: np.ndarray) -> float:
    """Worst nodal |v| gap between the linear model and the Newton solution."""
    return float(np.max(np.abs(linear_magnitudes(ctx, p, q) - nonlinear_magnitudes(ctx, p, q))))


# ---------------------------------------------------------------------------
# Re-evaluating LP worst cases through the nonlinear power flow
# ---------------------------------------------------------------------------

@dataclass
class ScenarioCheck:
    scenario: Scenario
    lp_vm: float  # follower optimum (linear model)
    nl_vm: float  # Newton |v| at the same injections, scenario node
    error: float  # max over all nodes of |linear - nonlinear|
    band_excess: float  # how far the nonlinear voltage leaves [v_min, v_max]


@dataclass
class OracleReport:
    checks: list[ScenarioCheck]
    max_error: float
    max_band_excess: float
    # Full |v| profiles of the check with the largest linearization error,
    # for side-by-side plotting.
    profile_scenario: Scenario | None = None
    profile_linear: np.ndarray | None = None
    profile_nonlinear: np.ndarray | None = None

    def within(self, tol: float) -> bool:
        return self.max_error <= tol


def _decision_slots(decision: UpperDecision, problem: FollowerProblem) -> dict[str, float]:
    slots = decision.slots
    out = {s: slots[s] for s in problem.slot_names if s in slots}
    missing = [s for s in problem.slot_names if s not in out]
    if missing:
        raise OracleError(f"decision lacks slots {missing}")
    return out


def verify_decision(
    ctx: FlexContext,
    mode: str,
    decision: UpperDecision,
    *,
    direction: str = "both",
) -> OracleReport:
    """Push every follower's worst-case injections through the Newton flow.

    For each scenario the follower LP is solved at the decision, its argmax
    injection profile is evaluated exactly, and the report collects the
    largest |v| discrepancy plus how far the nonlinear voltages stray outside
    the band.  Constant-Q runs expect the decision to carry q_set slots.
    """
    Y = assemble_ybus(ctx.feeder, ctx.index)
    fix_q = mode == MODE_CONSTANT_Q and any(
        s.startswith("qset") for s in decision.setpoints
    )
    checks: list[ScenarioCheck] = []
    profile: tuple[Scenario, np.ndarray, np.ndarray] | None = None
    for activation in ACTIVATIONS:
        for extremum in screened_extrema(direction):
            proto = Scenario(node=0, activation=activation, extremum=extremum)
            problem = build_follower(ctx, proto, mode, fix_q=fix_q)
            slots = _decision_slots(decision, problem)
            mf = problem.materialize(slots)
            for k in range(ctx.n):
                cert = mf.solve(node=k)
                if cert.status != OPTIMAL:
                    raise OracleError(
                        f"follower (node {k}, {activation}/{extremum}) returned {cert.status}"
                    )
                p, q = problem.injections(cert.x)
                vm_lin = linear_magnitudes(ctx, p, q)
                vm_nl = nonlinear_magnitudes(ctx, p, q, Y=Y)
                lp_vm = proto.sigma * cert.objective
                excess = float(
                    np.max(np.maximum(vm_nl - ctx.v_max, ctx.v_min - vm_nl))
                )
                scenario = Scenario(node=k, activation=activation, extremum=extremum)
                err = float(np.max(np.abs(vm_lin - vm_nl)))
                if profile is None or err > max(c.error for c in checks):
                    profile = (scenario, vm_lin.copy(), vm_nl.copy())
                checks.append(ScenarioCheck(
                    scenario=scenario,
                    lp_vm=lp_vm,
                    nl_vm=float(vm_nl[k]),
                    error=err,
                    band_excess=excess,
                ))
    return OracleReport(
        checks=checks,
        max_error=max(c.error for c in checks) if checks else 0.0,
        max_band_excess=max(c.band_excess for c in checks) if checks else -math.inf,
        profile_scenario=profile[0] if profile else None,
        profile_linear=profile[1] if profile else None,
        profile_nonlinear=profile[2] if profile else None,
    )


# ---------------------------------------------------------------------------
# Brute-force adversary on small feeders
# ---------------------------------------------------------------------------

@dataclass
class BruteForceResult:
    scenario: Scenario
    vm_nonlinear: float  # extreme |v| found on the nonlinear grid
    vm_linear: float  # linear-model |v| at the same grid point
    points: int  # admissible grid points evaluated


def _droop_voltages(
    ctx: FlexContext,
    p: np.ndarray,
    qbar: np.ndarray,
    q_other: np.ndarray,
    *,
    Y: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of volt-var control and the nonlinear power flow.

    q_inverter(vm) follows the droop line through (v_min, +q̄) and
    (v_max, -q̄); loads' reactive draw is in ``q_other``.  Returns (vm, q).
    """
    band = ctx.v_max - ctx.v_min
    # Damped Picard iteration: undamped steps oscillate once the droop gain
    # times the grid sensitivity nears one (weak grids, large q̄).
    for alpha in (1.0, 0.5, 0.2):
        vm = ctx.anchor.vm.copy()
        for _ in range(max_iter):
            q_inv = qbar * ((ctx.v_max + ctx.v_min) - 2.0 * vm) / band
            q = q_other + q_inv
            new_vm = nonlinear_magnitudes(ctx, p, q, Y=Y)
            if np.max(np.abs(new_vm - vm)) < tol:
                return new_vm, q
            vm = vm + alpha * (new_vm - vm)
    raise OracleError("volt-var droop fixed point did not converge")


def brute_force_worst_voltage(
    ctx: FlexContext,
    mode: str,
    decision: UpperDecision,
    scenario: Scenario,
    *,
    steps: int = 7,
    q_steps: int = 5,
    max_devices: int = 4,
) -> BruteForceResult:
    """Grid-search the adversary directly in the nonlinear model.

    Enumerates device deviations on a grid (plus inverter reactive output
    for constant-Q without a q_set), keeps points that respect the sign
    rules, device limits, the exact apparent-power circle and the aggregate
    bound, and runs a Newton solve per point.  Only meant for feeders with
    at most ``max_devices`` flexible devices.
    """
    dev = ctx.devices
    fix_q = mode == MODE_CONSTANT_Q and any(
        s.startswith("qset") for s in decision.setpoints
    )
    problem = build_follower(ctx, scenario, mode, fix_q=fix_q)
    n = ctx.n

    dims: list[tuple[str, int, np.ndarray]] = []  # (kind, node, grid values)
    for k in range(n):
        lo, hi = problem.lb[problem.i_dpg(k)], problem.ub[problem.i_dpg(k)]
        if hi - lo > 1e-12:
            dims.append(("dpg", k, np.linspace(lo, hi, steps)))
        lo, hi = problem.lb[problem.i_dpl(k)], problem.ub[problem.i_dpl(k)]
        if hi - lo > 1e-12:
            dims.append(("dpl", k, np.linspace(lo, hi, steps)))
    if len(dims) > max_devices:
        raise OracleError(
            f"{len(dims)} flexible devices exceed the brute-force limit {max_devices}"
        )

    free_q = mode == MODE_CONSTANT_Q and not fix_q
    dp_cap = decision.dp_plus if scenario.activation == POSITIVE else decision.dp_minus
    Y = assemble_ybus(ctx.feeder, ctx.index)
    sigma = scenario.sigma
    best_nl = -math.inf
    best_lin = 0.0
    points = 0

    grids = [d[2] for d in dims]
    for combo in itertools.product(*grids) if dims else [()]:
        dpg = np.zeros(n)
        dpl = np.zeros(n)
        for (kind, k, _), value in zip(dims, combo):
            if kind == "dpg":
                dpg[k] = value
            else:
                dpl[k] = value
        agg = float(np.sum(dpg) - np.sum(dpl))
        if scenario.activation == POSITIVE:
            if agg > dp_cap + 1e-9:
                continue
        else:
            if agg < dp_cap - 1e-9:
                continue
        pg = dev.p_gen0 + dpg
        p = pg - (dev.p_load0 + dpl)
        q_load = dev.beta_load * (dev.p_load0 + dpl)

        # Inverter reactive output per mode, on the exact capability circle.
        def finish(q_gen: np.ndarray) -> None:
            nonlocal best_nl, best_lin, points
            head = np.sqrt(np.maximum(dev.s_cap**2 - pg**2, 0.0))
            if np.any(np.abs(q_gen) > head + 1e-9):
                return
            q = q_gen - q_load
            vm = nonlinear_magnitudes(ctx, p, q, Y=Y)
            points += 1
            if sigma * vm[scenario.node] > sigma * best_nl or best_nl == -math.inf:
                best_nl = float(vm[scenario.node])
                best_lin = float(linear_magnitudes(ctx, p, q)[scenario.node])

        if mode == MODE_CONSTANT_PF:
            q_gen = np.zeros(n)
            for k in dev.inverter_nodes:
                q_gen[k] = decision.setpoints[slot_gamma(k)] * pg[k]
            finish(q_gen)
        elif mode == MODE_CONSTANT_Q and fix_q:
            q_gen = np.zeros(n)
            for k in dev.inverter_nodes:
                q_gen[k] = decision.setpoints[slot_qset(k)]
            cone = dev.gamma_const * pg
            if np.all(np.abs(q_gen) <= cone + 1e-9):
                finish(q_gen)
        elif free_q:
            q_dims = [
                (k, np.linspace(-dev.gamma_const[k] * pg[k], dev.gamma_const[k] * pg[k], q_steps))
                for k in dev.inverter_nodes
            ]
            for q_combo in itertools.product(*[g for _, g in q_dims]):
                q_gen = np.zeros(n)
                for (k, _), value in zip(q_dims, q_combo):
                    q_gen[k] = value
                finish(q_gen)
        else:  # volt-var: droop joins the physics
            qbar = np.zeros(n)
            for k in dev.inverter_nodes:
                qbar[k] = decision.setpoints[slot_qbar(k)]
            head = np.sqrt(np.maximum(dev.s_cap**2 - pg**2, 0.0))
            try:
                vm, q = _droop_voltages(ctx, p, qbar, -q_load, Y=Y)
            except OracleError:
                continue
            if np.any(np.abs(q + q_load) > head + 1e-9):
                continue
            points += 1
            if sigma * vm[scenario.node] > sigma * best_nl or best_nl == -math.inf:
                best_nl = float(vm[scenario.node])
                best_lin = float(linear_magnitudes(ctx, p, q)[scenario.node])

    if points == 0:
        raise OracleError("no admissible grid points (check the decision)")
    return BruteForceResult(
        scenario=scenario, vm_nonlinear=best_nl, vm_linear=best_lin, points=points
    )
