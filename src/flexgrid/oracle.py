"""Independent validation of flexibility results against the full physics.

The solver's claims rest on a linearized power flow and a first-order
magnitude expansion.  This module closes the loop without reusing either:
worst-case injections coming out of the follower LPs are pushed through the
Newton power flow, and on small feeders a brute-force grid plays the
adversary directly in the nonlinear model (including volt-var droop as a
fixed point of control and physics).  Both hand the Newton solver whole
stacks of injection profiles rather than one profile at a time.
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
)
from .follower import (
    ACTIVATIONS,
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
    """Voltage magnitudes as the LP sees them (linear flow + first-order |v|),
    for one injection profile ``(n,)`` or a stack ``(P, n)``."""
    v = ctx.lpf.voltages(p, q)
    return ctx.taylor.alpha_d * v.real + ctx.taylor.alpha_q * v.imag


def nonlinear_magnitudes(
    ctx: FlexContext, p: np.ndarray, q: np.ndarray, *, Y: np.ndarray | None = None
) -> np.ndarray:
    """Newton |v| of one injection profile ``(n,)`` or a stack ``(P, n)``
    (``Y`` defaults to the context's admittance matrix)."""
    op = solve_nonlinear_pf(ctx.feeder, p, q, index=ctx.index, Y=ctx.ybus if Y is None else Y)
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


def decision_fixes_q(mode: str, decision: UpperDecision) -> bool:
    """Whether the followers at ``decision`` hold q_gen at its q_set slots.

    A constant-Q decision that carries q_set setpoints fixes each inverter's
    reactive output; without them the adversary owns q_gen.
    """
    return mode == MODE_CONSTANT_Q and any(s.startswith("qset") for s in decision.setpoints)


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
    the band.  The n argmax profiles of each (activation, extremum) family
    go through one stacked Newton solve and one matrix product of the linear
    model.  Constant-Q runs expect the decision to carry q_set slots.
    """
    if not ctx.n:
        return OracleReport(checks=[], max_error=0.0, max_band_excess=-math.inf)
    fix_q = decision_fixes_q(mode, decision)
    checks: list[ScenarioCheck] = []
    profiles: list[tuple[np.ndarray, np.ndarray]] = []  # (linear, nonlinear) per family
    for activation in ACTIVATIONS:
        for extremum in screened_extrema(direction):
            proto = Scenario(node=0, activation=activation, extremum=extremum)
            problem = build_follower(ctx, proto, mode, fix_q=fix_q)
            mf = problem.materialize(_decision_slots(decision, problem))
            certs = [mf.solve(node=k) for k in range(ctx.n)]
            for k, cert in enumerate(certs):
                if cert.status != OPTIMAL:
                    raise OracleError(
                        f"follower (node {k}, {activation}/{extremum}) returned {cert.status}"
                    )
            # The family's n argmax profiles go through one stacked solve.
            x = np.array([cert.x for cert in certs]).reshape(ctx.n, problem.n_vars)
            p, q = problem.injections(x)
            vm_lin = linear_magnitudes(ctx, p, q)
            vm_nl = nonlinear_magnitudes(ctx, p, q)
            errors = np.max(np.abs(vm_lin - vm_nl), axis=1)
            excess = np.max(np.maximum(vm_nl - ctx.v_max, ctx.v_min - vm_nl), axis=1)
            profiles.append((vm_lin, vm_nl))
            checks += [
                ScenarioCheck(
                    scenario=Scenario(node=k, activation=activation, extremum=extremum),
                    lp_vm=proto.sigma * cert.objective,
                    nl_vm=float(vm_nl[k, k]),
                    error=float(errors[k]),
                    band_excess=float(excess[k]),
                )
                for k, cert in enumerate(certs)
            ]
    worst = int(np.argmax([c.error for c in checks]))  # first of the largest errors
    vm_lin, vm_nl = (np.concatenate(arrays) for arrays in zip(*profiles))
    return OracleReport(
        checks=checks,
        max_error=checks[worst].error,
        max_band_excess=max(c.band_excess for c in checks),
        profile_scenario=checks[worst].scenario,
        profile_linear=vm_lin[worst],
        profile_nonlinear=vm_nl[worst],
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
    Y: np.ndarray | None = None,
    max_iter: int = 100,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of volt-var control and the nonlinear power flow.

    q_inverter(vm) follows the droop line through (v_min, +q̄) and
    (v_max, -q̄); loads' reactive draw is in ``q_other``.  ``p`` and
    ``q_other`` hold one profile ``(n,)`` or a stack ``(P, n)``.  Every
    profile runs its own damped Picard iteration from the anchor |v|; each
    step pushes all unsettled profiles through one stacked Newton solve, and
    a profile drops out once its |v| moves less than ``tol``.  Profiles that
    do not settle in ``max_iter`` steps restart from the anchor with a
    smaller damping factor.  Returns (vm, q) in the input's shape, NaN in
    the rows that never settle.
    """
    band = ctx.v_max - ctx.v_min
    p_rows = np.atleast_2d(p)
    q_rows = np.atleast_2d(q_other)
    vm_out = np.full(p_rows.shape, np.nan)
    q_out = np.full(p_rows.shape, np.nan)
    rows = np.arange(len(p_rows))
    # Damped Picard iteration: undamped steps oscillate once the droop gain
    # times the grid sensitivity nears one (weak grids, large q̄).
    for alpha in (1.0, 0.5, 0.2):
        vm = np.tile(ctx.anchor.vm, (len(rows), 1))
        for _ in range(max_iter):
            if not rows.size:
                break
            q = q_rows[rows] + qbar * ((ctx.v_max + ctx.v_min) - 2.0 * vm) / band
            new_vm = nonlinear_magnitudes(ctx, p_rows[rows], q, Y=Y)
            done = np.max(np.abs(new_vm - vm), axis=1) < tol
            vm_out[rows[done]] = new_vm[done]
            q_out[rows[done]] = q[done]
            rows, vm = rows[~done], (vm + alpha * (new_vm - vm))[~done]
    if np.ndim(p) == 1:
        return vm_out[0], q_out[0]
    return vm_out, q_out


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
    for constant-Q without a q_set) as one array of grid points, keeps the
    points that respect the sign rules, device limits, the exact
    apparent-power circle and the aggregate bound (boolean masks over the
    array), and solves all of them in one stacked Newton call (volt-var:
    one stacked droop fixed point).  The extreme is the first grid point, in
    enumeration order, with the most adverse |v| at the scenario's node.
    Only meant for feeders with at most ``max_devices`` flexible devices.
    """
    dev = ctx.devices
    fix_q = decision_fixes_q(mode, decision)
    problem = build_follower(ctx, scenario, mode, fix_q=fix_q)
    n = ctx.n

    dims: list[tuple[str, int, np.ndarray]] = []  # (kind, node, grid values)
    columns = [("dpg", k, problem.i_dpg(k)) for k in dev.inverter_nodes]
    columns += [("dpl", k, problem.i_dpl(k)) for k in dev.load_nodes]
    for kind, k, v in sorted(columns, key=lambda c: c[1]):  # node by node, Δp_gen first
        lo, hi = problem.lb[v], problem.ub[v]
        if hi - lo > 1e-12:
            dims.append((kind, k, np.linspace(lo, hi, steps)))
    if len(dims) > max_devices:
        raise OracleError(
            f"{len(dims)} flexible devices exceed the brute-force limit {max_devices}"
        )

    # Every grid point as a row, in itertools.product order.
    grid = np.array(list(itertools.product(*(d[2] for d in dims))), dtype=float)
    grid = grid.reshape(-1, len(dims))
    dpg = np.zeros((len(grid), n))
    dpl = np.zeros((len(grid), n))
    for j, (kind, k, _) in enumerate(dims):
        (dpg if kind == "dpg" else dpl)[:, k] = grid[:, j]
    agg = np.sum(dpg, axis=1) - np.sum(dpl, axis=1)
    if scenario.activation == POSITIVE:
        keep = agg <= decision.dp_plus + 1e-9
    else:
        keep = agg >= decision.dp_minus - 1e-9
    dpg, dpl = dpg[keep], dpl[keep]
    pg = dev.p_gen0 + dpg
    p = pg - (dev.p_load0 + dpl)
    q_load = dev.beta_load * (dev.p_load0 + dpl)
    head = np.sqrt(np.maximum(dev.s_cap**2 - pg**2, 0.0))
    inv = np.array(dev.inverter_nodes, dtype=int)

    # Inverter reactive output per mode, on the exact capability circle.
    if mode == MODE_VOLT_VAR:  # droop joins the physics
        qbar = np.zeros(n)
        qbar[inv] = [decision.setpoints[slot_qbar(k)] for k in inv]
        vm, q = _droop_voltages(ctx, p, qbar, -q_load)
        # NaN rows (droop never settled) fail the comparison and drop out.
        ok = np.all(np.abs(q + q_load) <= head + 1e-9, axis=1)
        vm, p, q = vm[ok], p[ok], q[ok]
    else:
        q_gen = np.zeros_like(pg)
        if mode == MODE_CONSTANT_PF:
            gamma = np.array([decision.setpoints[slot_gamma(k)] for k in inv])
            q_gen[:, inv] = gamma * pg[:, inv]
        elif fix_q:
            q_gen[:, inv] = [decision.setpoints[slot_qset(k)] for k in inv]
            in_cone = np.all(np.abs(q_gen) <= dev.gamma_const * pg + 1e-9, axis=1)
            p, q_load, head, q_gen = (a[in_cone] for a in (p, q_load, head, q_gen))
        else:
            # Free q: q_steps levels across each inverter's cone, every
            # combination per grid point, in itertools.product order.
            cone = dev.gamma_const[inv] * pg[:, inv]
            levels = np.linspace(-cone, cone, q_steps, axis=-1)  # (point, inverter, level)
            pick = np.array(list(itertools.product(range(q_steps), repeat=len(inv))), dtype=int)
            pick = pick.reshape(-1, len(inv))
            combos = levels[:, np.arange(len(inv)), pick]  # (point, combination, inverter)
            p, q_load, head = (np.repeat(a, len(pick), axis=0) for a in (p, q_load, head))
            q_gen = np.zeros_like(p)
            q_gen[:, inv] = combos.reshape(-1, len(inv))
        ok = np.all(np.abs(q_gen) <= head + 1e-9, axis=1)
        p, q = p[ok], (q_gen - q_load)[ok]
        vm = nonlinear_magnitudes(ctx, p, q)

    points = len(vm)
    if points == 0:
        raise OracleError("no admissible grid points (check the decision)")
    best = int(np.argmax(scenario.sigma * vm[:, scenario.node]))
    return BruteForceResult(
        scenario=scenario,
        vm_nonlinear=float(vm[best, scenario.node]),
        vm_linear=float(linear_magnitudes(ctx, p[best], q[best])[scenario.node]),
        points=points,
    )
