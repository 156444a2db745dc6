"""Independent validation of flexibility results against the full physics.

The solver's claims rest on a linearized power flow and a first-order
magnitude expansion.  This module closes the loop without reusing either:
worst-case injections coming out of the follower LPs are pushed through the
nonlinear power flow, and on small feeders a brute-force grid plays the
adversary directly in the nonlinear model (including volt-var droop,
solved together with the flow).  Both hand the power flow whole stacks of
injection profiles rather than one profile at a time.  It solves them by
fixed-point sweeps of the Z-bus map from the anchor, on the linear model's
own factorization, and accepts a row only once its power mismatch,
recomputed from the admittance matrix, is below a tolerance tighter than
Newton's; a row the sweeps do not settle falls back to the Newton solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bilevel import BilevelError, UpperDecision, screened_families
from .feeder import MODE_CONSTANT_PF, MODE_VOLT_VAR
from .follower import (
    EXTREMA,
    MAX_V,
    POSITIVE,
    FlexContext,
    Scenario,
    build_follower,
    fixes_q,
    slot_gamma,
    slot_qbar,
    slot_qset,
)
from .powerflow import OperatingPoint, solve_nonlinear_pf

GRID_STEPS = 7  # brute-force grid values per device's Δp box
GRID_Q_STEPS = 5  # brute-force reactive levels per inverter's cone (free q)
GRID_MAX_DEVICES = 4  # flexible devices the brute-force grid accepts


class OracleError(RuntimeError):
    pass


def linear_magnitudes(ctx: FlexContext, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Voltage magnitudes as the LP sees them (linear flow + first-order |v|),
    for one injection profile ``(n,)`` or a stack ``(P, n)``."""
    v = ctx.lpf.voltages(p, q)
    return ctx.taylor.magnitude(v.real, v.imag)


def _nonlinear_flow(ctx: FlexContext, p: np.ndarray, q: np.ndarray, slope=None) -> OperatingPoint:
    """The power flow of one injection profile ``(n,)`` or a stack ``(P, n)``,
    swept on the context's linear model with Newton as the fallback."""
    return solve_nonlinear_pf(
        ctx.feeder, p, q, index=ctx.index, Y=ctx.ybus, slope=slope, lpf=ctx.lpf
    )


def nonlinear_magnitudes(ctx: FlexContext, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Nonlinear |v| of one injection profile ``(n,)`` or a stack ``(P, n)``."""
    return _nonlinear_flow(ctx, p, q).vm


def linearization_error(ctx: FlexContext, p: np.ndarray, q: np.ndarray) -> float:
    """Worst nodal |v| gap between the linear model and the nonlinear solution."""
    return float(np.max(np.abs(linear_magnitudes(ctx, p, q) - nonlinear_magnitudes(ctx, p, q))))


# ---------------------------------------------------------------------------
# Re-evaluating LP worst cases through the nonlinear power flow
# ---------------------------------------------------------------------------

@dataclass
class ScenarioCheck:
    scenario: Scenario
    lp_vm: float  # follower optimum (linear model)
    nl_vm: float  # nonlinear |v| at the same injections, scenario node
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
    newton_fallback_rows: int = 0  # distinct profiles the fixed-point sweeps left to Newton

    def within(self, tol: float) -> bool:
        return self.max_error <= tol


def verify_decision(
    ctx: FlexContext,
    mode: str,
    decision: UpperDecision,
    *,
    direction: str = "both",
) -> OracleReport:
    """Push every follower's worst-case injections through the nonlinear flow.

    For each scenario the follower LP is solved at the decision, its argmax
    injection profile is evaluated exactly, and the report collects the
    largest |v| discrepancy plus how far the nonlinear voltages stray outside
    the band.  Each activation takes the n argmax rows of each extremum
    from one ``values`` call: one follower serves both extrema.  The rows of
    all activations are stacked and exact
    repeats dropped (first occurrences kept): a follower's knapsack fill
    depends on its target only through the order of its gains, so many
    targets share one dispatch.  The distinct profiles go through one
    stacked power flow and one matrix product of the linear model.
    The rows come from ``bilevel.screened_families``, the sweep
    ``bilevel.feasibility_check`` screens with: ``family_follower`` at the
    decision's slots, the context's own, so a verify after a solve on the
    same context re-slots the solve's followers, and a constant-q decision
    without q_set slots is checked with free q_gen, the stronger adversary.
    """
    scenarios: list[Scenario] = []
    lp_vm: list[np.ndarray] = []
    injections: list[np.ndarray] = []  # rows [p, q] (2n wide) per activation
    try:
        for rows, mf, vals in screened_families(ctx, mode, decision, direction):
            problem = mf.problem
            x = np.zeros((len(rows), problem.n_vars))
            x[:, mf.device_cols] = vals.devices
            injections.append(np.concatenate(problem.injections(x), axis=1))
            lp_vm.append(vals.sigma * vals.objective)
            scenarios += rows
    except BilevelError as exc:  # the decision lacks slots, or a follower has no optimum
        raise OracleError(str(exc)) from None
    pq = np.concatenate(injections)
    stack_row: dict[bytes, int] = {}  # profile bytes -> its row in the power-flow stack
    row = np.array([stack_row.setdefault(r.tobytes(), len(stack_row)) for r in pq])
    first = np.unique(row, return_index=True)[1]
    p, q = pq[first, : ctx.n], pq[first, ctx.n :]
    vm_lin = linear_magnitudes(ctx, p, q)
    flow = _nonlinear_flow(ctx, p, q)
    vm_nl = flow.vm
    errors = np.max(np.abs(vm_lin - vm_nl), axis=1)[row]
    excess = np.max(np.maximum(vm_nl - ctx.v_max, ctx.v_min - vm_nl), axis=1)[row]
    nl_vm = vm_nl[row, [sc.node for sc in scenarios]]
    checks = [
        ScenarioCheck(scenario=sc, lp_vm=lp, nl_vm=nl, error=err, band_excess=ex)
        for sc, lp, nl, err, ex in zip(
            scenarios, np.concatenate(lp_vm).tolist(), nl_vm.tolist(), errors.tolist(),
            excess.tolist(),
        )
    ]
    worst = int(np.argmax(errors))  # first of the largest errors
    return OracleReport(
        checks=checks,
        max_error=checks[worst].error,
        max_band_excess=float(excess.max()),
        profile_scenario=checks[worst].scenario,
        profile_linear=vm_lin[row[worst]],
        profile_nonlinear=vm_nl[row[worst]],
        newton_fallback_rows=flow.newton_fallback_rows,
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
    ctx: FlexContext, p: np.ndarray, qbar: np.ndarray, q_other: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Equilibrium of volt-var control and the nonlinear power flow.

    q_inverter(vm) follows the droop line through (v_min, +q̄) and
    (v_max, -q̄); loads' reactive draw is in ``q_other``.  ``p`` and
    ``q_other`` hold one profile ``(n,)`` or a stack ``(P, n)``.  The line
    is an intercept q̄·(v_max + v_min)/band added to ``q_other`` and a
    slope 2q̄/band in |v|, so one stacked power flow finds every
    profile's equilibrium with the droop joined to the flow.  Returns
    (vm, q) in the input's shape, q the droop line at the solved |v|.  A
    profile without an equilibrium the fallback Newton solve reaches raises
    ``PowerFlowError`` for the whole stack.
    """
    band = ctx.v_max - ctx.v_min
    slope = 2.0 * qbar / band
    q_fixed = q_other + qbar * (ctx.v_max + ctx.v_min) / band
    vm = _nonlinear_flow(ctx, p, q_fixed, slope).vm
    return vm, q_fixed - slope * vm


@dataclass
class ActivationExtremes:
    """The brute force's extreme |v| at every node under one activation."""

    points: int  # admissible grid points evaluated
    vm_nonlinear: dict[str, np.ndarray]  # extremum -> (n,) extreme |v| at each node
    vm_linear: dict[str, np.ndarray]  # extremum -> (n,) linear |v| at the same points


def brute_force_extremes(
    ctx: FlexContext, mode: str, decision: UpperDecision, activation: str
) -> ActivationExtremes:
    """Grid-search the adversary directly in the nonlinear model.

    Enumerates device deviations on a grid (plus inverter reactive output
    for constant-Q without a q_set) as one array of grid points, keeps the
    points that respect the sign rules, device limits, the exact
    apparent-power circle and the aggregate bound (boolean masks over the
    array), and solves all of them in one stacked power flow (volt-var:
    with the droop line joined to the flow, ``_droop_voltages``; a point
    without a droop equilibrium raises ``PowerFlowError``).  The grid
    depends on the activation but not on the node or the extremum, so this
    one solve gives every scenario of ``activation``: the extreme at a node
    is the first grid point, in enumeration order, with the most adverse
    |v| there.  Each
    flexible device's box takes ``GRID_STEPS`` values and, for free q, each
    inverter's cone ``GRID_Q_STEPS`` levels; only meant for feeders with at
    most ``GRID_MAX_DEVICES`` flexible devices.
    """
    dev = ctx.devices
    proto = Scenario(node=0, activation=activation, extremum=MAX_V)
    problem = build_follower(ctx, proto, mode, fix_q=fixes_q(mode, decision.setpoints))
    n = ctx.n

    dims: list[tuple[str, int, np.ndarray]] = []  # (kind, node, grid values)
    columns = [("dpg", k, problem.i_dpg(k)) for k in dev.inverter_nodes]
    columns += [("dpl", k, problem.i_dpl(k)) for k in dev.load_nodes]
    for kind, k, v in sorted(columns, key=lambda c: c[1]):  # node by node, Δp_gen first
        lo, hi = problem.lb[v], problem.ub[v]
        if hi - lo > 1e-12:
            dims.append((kind, k, np.linspace(lo, hi, GRID_STEPS)))
    if len(dims) > GRID_MAX_DEVICES:
        raise OracleError(
            f"{len(dims)} flexible devices exceed the brute-force limit {GRID_MAX_DEVICES}"
        )

    # Every grid point as a row, in itertools.product order.
    grid = np.array(list(itertools.product(*(d[2] for d in dims))), dtype=float)
    grid = grid.reshape(-1, len(dims))
    dpg = np.zeros((len(grid), n))
    dpl = np.zeros((len(grid), n))
    for j, (kind, k, _) in enumerate(dims):
        (dpg if kind == "dpg" else dpl)[:, k] = grid[:, j]
    agg = np.sum(dpg, axis=1) - np.sum(dpl, axis=1)
    if activation == POSITIVE:
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
        ok = np.all(np.abs(q + q_load) <= head + 1e-9, axis=1)
        vm, p, q = vm[ok], p[ok], q[ok]
    else:
        q_gen = np.zeros_like(pg)
        if mode == MODE_CONSTANT_PF:
            gamma = np.array([decision.setpoints[slot_gamma(k)] for k in inv])
            q_gen[:, inv] = gamma * pg[:, inv]
        elif problem.fix_q:
            q_gen[:, inv] = [decision.setpoints[slot_qset(k)] for k in inv]
            in_cone = np.all(np.abs(q_gen) <= dev.gamma_const * pg + 1e-9, axis=1)
            p, q_load, head, q_gen = (a[in_cone] for a in (p, q_load, head, q_gen))
        else:
            # Free q: GRID_Q_STEPS levels across each inverter's cone, every
            # combination per grid point, in itertools.product order.
            cone = dev.gamma_const[inv] * pg[:, inv]
            levels = np.linspace(-cone, cone, GRID_Q_STEPS, axis=-1)  # (point, inverter, level)
            pick = itertools.product(range(GRID_Q_STEPS), repeat=len(inv))
            pick = np.array(list(pick), dtype=int).reshape(-1, len(inv))
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
    # Per extremum, the first most adverse grid point at each node; the
    # linear |v| of all 2n chosen points comes from one stacked product.
    sigma = np.array([Scenario(0, activation, ext).sigma for ext in EXTREMA])
    best = np.argmax(sigma[:, None, None] * vm, axis=1)  # (extremum, node)
    nodes = np.arange(n)
    vm_lin = linear_magnitudes(ctx, p[best.ravel()], q[best.ravel()]).reshape(len(EXTREMA), n, n)
    return ActivationExtremes(
        points=points,
        vm_nonlinear=dict(zip(EXTREMA, vm[best, nodes])),
        vm_linear=dict(zip(EXTREMA, np.diagonal(vm_lin, axis1=1, axis2=2))),
    )


def brute_force_worst_voltage(
    ctx: FlexContext, mode: str, decision: UpperDecision, scenario: Scenario
) -> BruteForceResult:
    """The brute-force extreme of one scenario, read off its activation's grid.

    ``brute_force_extremes`` runs once per activation and is kept in
    ``ctx.brute_force`` while the mode, the activation's band edge and the
    setpoint values stay the same (the context is frozen); a call that
    raises keeps nothing.  One grid per activation serves a whole loop over
    ``all_scenarios``, which orders node -> activation -> extremum.
    """
    activation = scenario.activation
    edge = decision.dp_plus if activation == POSITIVE else decision.dp_minus
    key = (mode, edge, tuple(sorted(decision.setpoints.items())))
    if activation not in ctx.brute_force or ctx.brute_force[activation][0] != key:
        ctx.brute_force[activation] = (key, brute_force_extremes(ctx, mode, decision, activation))
    extremes = ctx.brute_force[activation][1]
    return BruteForceResult(
        scenario=scenario,
        vm_nonlinear=float(extremes.vm_nonlinear[scenario.extremum][scenario.node]),
        vm_linear=float(extremes.vm_linear[scenario.extremum][scenario.node]),
        points=extremes.points,
    )
