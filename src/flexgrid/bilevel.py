"""Bilevel flexibility solver: worst-case screening, single-level ideal case,
feasibility checking and the iterative driver tying them together.

The DSO wants the widest aggregate band [Δp-, Δp+] (plus inverter setpoints)
such that every adversarial follower keeps its node's voltage magnitude
inside [v_min, v_max].  Three steps:

1. ``worst_case_limits`` — per-node safe bounds under adversarial setpoints.
   The follower optimum is concave, piecewise linear and nondecreasing in
   |band edge|, with the aggregate-row dual as its slope, so each bound is
   found by a tangent/secant walk over its breakpoints;
2. ``assemble_single_level``/``solve_single_level`` — the ideal case for a
   subset of followers, reformulated through LP duality: follower primal
   rows + dual feasibility rows + a strong-duality row certify follower
   optimality inside a single maximization, with the products of upper-level
   decisions and follower quantities handled by McCormick + spatial
   branch-and-bound;
3. ``feasibility_check`` — re-screen all followers at the accepted decision,
   feeding violators back into step 2 (``run_iterative``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bnb import BilinearProgram, BnBResult, spatial_branch_and_bound
from .feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR
from .follower import (
    ACTIVATIONS,
    MAX_V,
    NEGATIVE,
    POSITIVE,
    SLOT_DP_MINUS,
    SLOT_DP_PLUS,
    FlexContext,
    FollowerProblem,
    MaterializedFollower,
    Scenario,
    all_scenarios,
    available_flexibility_bounds,
    build_follower,
    fix_worst_case_setpoints,
    screened_extrema,
    slot_gamma,
    slot_qbar,
    slot_qset,
)
from .lp import EQ, GE, INFEASIBLE, LE, MAX, OPTIMAL, DualCertificate, LinearProgram

EDGE_TOL_REL = 1e-6  # band-edge tolerance, relative to the availability span
EDGE_ROOT_TOL = 1e-12  # a safe edge whose objective is this close to the limit is the root
FEAS_TOL_PU = 1e-6
LAMBDA_CAP = 1e3  # McCormick box of every follower dual that meets a slot in a product
DUAL_BOX = "dual_box"  # B&B status of an incumbent the λ box may have cut off
VM_BOX = (0.0, 2.0)  # conservative |v| box for volt-var products


class BilevelError(RuntimeError):
    pass


class InfeasibleAnchorError(BilevelError):
    """The current operating point already violates the voltage band."""


def check_anchor(ctx: FlexContext) -> None:
    """The iterative method assumes the current operating point is legal."""
    vm = ctx.anchor.vm
    if np.any(vm > ctx.v_max + 1e-9) or np.any(vm < ctx.v_min - 1e-9):
        k = int(np.argmax(np.maximum(vm - ctx.v_max, ctx.v_min - vm)))
        bus, phase = ctx.index.nodes[k]
        raise InfeasibleAnchorError(
            f"anchor voltage {vm[k]:.4f} p.u. at ({bus}, {phase}) violates "
            f"[{ctx.v_min}, {ctx.v_max}]; no flexibility band exists"
        )


# ---------------------------------------------------------------------------
# Step 1: worst-case screening
# ---------------------------------------------------------------------------

@dataclass
class WorstCaseLimits:
    """Per-node safe band edges under adversarial setpoints (all p.u.)."""

    upper: np.ndarray  # Δp+ limit per node (>= 0)
    lower: np.ndarray  # Δp- limit per node (<= 0)
    upper_family: list[str]  # extremum family attaining each upper limit
    lower_family: list[str]
    dp_box: tuple[float, float]  # (Δp_lower, Δp_upper) availability bounds
    direction: str

    @property
    def range_upper(self) -> float:
        return float(np.min(self.upper)) if self.upper.size else 0.0

    @property
    def range_lower(self) -> float:
        return float(np.max(self.lower)) if self.lower.size else 0.0

    @property
    def binding_upper(self) -> tuple[int, str]:
        k = int(np.argmin(self.upper))
        return k, self.upper_family[k]

    @property
    def binding_lower(self) -> tuple[int, str]:
        k = int(np.argmax(self.lower))
        return k, self.lower_family[k]


def _family_follower(
    ctx: FlexContext, mode: str, activation: str, extremum: str,
    slots: dict[str, float], *, fix_q: bool,
) -> MaterializedFollower:
    """The follower LP of one (activation, extremum) family at fixed slots.

    Only the objective depends on the target node, so one materialized LP
    serves every node of the family: each solve swaps its node in.  ``slots``
    may carry more than the family reads (both band edges, say).
    """
    problem = build_follower(
        ctx, Scenario(node=0, activation=activation, extremum=extremum), mode, fix_q=fix_q
    )
    missing = [s for s in problem.slot_names if s not in slots]
    if missing:
        raise BilevelError(f"decision lacks slots required by followers: {missing}")
    return problem.materialize({s: slots[s] for s in problem.slot_names})


def _edge_walk(
    mf: MaterializedFollower, node: int, tol_abs: float
) -> tuple[float, DualCertificate | None]:
    """Largest |band edge| keeping the follower's extreme |v| at ``node`` in
    band, with the certificate of the solve that confirmed it safe (None when
    no solve did: a zero far end, or a follower out of band at zero).

    The far end is the family's band edge as materialized in ``mf``.  With
    F(s) the follower objective at |edge| = s, the edge is in band while
    F(s) <= c.  F is concave, piecewise linear and nondecreasing, and the
    aggregate-row dual is its slope, so a tangent step from the infeasible
    end lands on the feasible side (exactly at the root once that end sits
    on the crossing segment) and a secant step across a bracket lands on
    the infeasible side.  Every step is confirmed by a solve, so the result
    is a verified safe edge within ``tol_abs`` of the root whatever the
    duals say.  A step outside the bracket, or one following two steps that
    did not halve it, falls back to the midpoint (to zero while no safe edge
    is known), so rounding in the solver's objectives cannot make the walk
    creep: once a safe edge is known, every three solves at least halve the
    bracket.
    """
    ctx = mf.problem.ctx
    scenario = mf.problem.scenario
    full = mf.slots[scenario.dp_slot]
    if full == 0.0:
        return 0.0, None
    sign = 1.0 if full > 0 else -1.0
    # The objective is sigma * |v|, so both extrema compare it from below.
    c = (ctx.v_max if scenario.extremum == MAX_V else -ctx.v_min) + 1e-9
    # Steps aim half the stopping slack inside c, so a step that is exact up
    # to rounding confirms as feasible and ends the walk.
    aim = c - 0.5 * EDGE_ROOT_TOL

    def value(s: float) -> tuple[float, float, DualCertificate]:
        cert = mf.solve(node=node, dp_bound=sign * s)
        if cert.status == INFEASIBLE:
            raise BilevelError(
                "follower LP infeasible during screening; followers are "
                "feasible by construction at Δp = 0, so this signals an "
                "assembly bug or inconsistent device data"
            )
        return cert.objective, sign * mf.agg_dual(cert), cert

    hi = abs(full)
    f_hi, g_hi, cert = value(hi)
    if f_hi <= c:
        return full, cert
    lo = f_lo = cert_lo = None  # lo: largest edge confirmed feasible
    tangent = True
    widths = [hi]  # hi - lo after each solve, lo = 0 until confirmed
    while lo is None or (hi - lo > tol_abs and f_lo < c - EDGE_ROOT_TOL):
        if len(widths) > 2 and widths[-1] > 0.5 * widths[-3]:
            s = -math.inf  # two steps that did not halve the bracket
        elif tangent:
            s = hi - (f_hi - aim) / g_hi if g_hi > 0.0 else -math.inf
        else:
            s = lo + (hi - lo) * (aim - f_lo) / (f_hi - f_lo)
        if lo is None:
            if not 0.0 <= s < hi:
                s = 0.0
        elif not lo < s < hi:
            s = 0.5 * (lo + hi)
        f, g, cert = value(s)
        if f <= c:
            lo, f_lo, cert_lo, tangent = s, f, cert, False
        elif s == 0.0:
            return 0.0, None
        else:
            hi, f_hi, g_hi, tangent = s, f, g, True
        widths.append(hi - (lo or 0.0))
    return sign * lo, cert_lo


def worst_case_limits(
    ctx: FlexContext,
    mode: str,
    *,
    direction: str = "both",
) -> WorstCaseLimits:
    """Per-node worst-case band limits (step 1 of the iterative method).

    For every node and activation case, the follower is given adversarial
    setpoints (constant-Q leaves reactive power to the adversary outright)
    and the largest safe band edge is found by ``_edge_walk``; positive
    activations produce Δp+ limits, negative ones Δp- limits.  A node's
    limit is the tightest over the extremum families selected by
    ``direction``.  The global safe range is (max of lower, min of upper).
    """
    check_anchor(ctx)
    n = ctx.n
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    tol_abs = EDGE_TOL_REL * max(dp_up, -dp_lo, 1e-12)
    extrema = screened_extrema(direction)

    upper = np.full(n, dp_up)
    lower = np.full(n, dp_lo)
    upper_family = [extrema[0]] * n
    lower_family = [extrema[0]] * n
    for activation in ACTIVATIONS:
        for extremum in extrema:
            slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
            if mode != MODE_CONSTANT_Q:
                slots.update(fix_worst_case_setpoints(ctx, mode, extremum))
            mf = _family_follower(ctx, mode, activation, extremum, slots, fix_q=False)
            for k in range(n):
                lim = _edge_walk(mf, k, tol_abs)[0]
                if activation == POSITIVE:
                    if lim < upper[k] - 1e-15:
                        upper[k] = lim
                        upper_family[k] = extremum
                else:
                    if lim > lower[k] + 1e-15:
                        lower[k] = lim
                        lower_family[k] = extremum
    return WorstCaseLimits(
        upper=upper, lower=lower, upper_family=upper_family,
        lower_family=lower_family, dp_box=(dp_lo, dp_up), direction=direction,
    )


# ---------------------------------------------------------------------------
# Step 2: single-level reformulation of the ideal case
# ---------------------------------------------------------------------------

@dataclass
class UpperDecision:
    """A DSO offer: the band edges plus per-inverter setpoint slots (p.u.)."""

    dp_plus: float
    dp_minus: float
    setpoints: dict[str, float]
    mode: str

    @property
    def slots(self) -> dict[str, float]:
        """Every slot value of the offer: the setpoints and both band edges."""
        return {**self.setpoints, SLOT_DP_PLUS: self.dp_plus, SLOT_DP_MINUS: self.dp_minus}


@dataclass
class FollowerBlock:
    scenario: Scenario
    problem: FollowerProblem
    x_offset: int  # first index of the follower primal block
    dual_offset: int  # first index of the row-dual block
    zl: dict[int, int] = field(default_factory=dict)  # follower var -> zl index
    zu: dict[int, int] = field(default_factory=dict)


@dataclass
class SingleLevelMap:
    ctx: FlexContext
    mode: str
    upper_vars: dict[str, int]  # slot name -> variable index (incl. dp slots)
    setpoint_slots: list[str]
    blocks: list[FollowerBlock]
    product_duals: list[int]  # dual variable indices that appear in products


def setpoint_boxes(ctx: FlexContext, mode: str) -> dict[str, tuple[float, float]]:
    """Feasible boxes for the upper-level setpoint slots of ``mode``."""
    dev = ctx.devices
    boxes: dict[str, tuple[float, float]] = {}
    for k in dev.inverter_nodes:
        if mode == MODE_CONSTANT_PF:
            cap = float(dev.gamma_cap[k])
            boxes[slot_gamma(k)] = (-cap, cap)
        elif mode == MODE_VOLT_VAR:
            boxes[slot_qbar(k)] = (0.0, float(dev.s_cap[k]))
        elif mode == MODE_CONSTANT_Q:
            cap = float(dev.gamma_const[k] * min(dev.p_gen_max[k], dev.s_cap[k]))
            boxes[slot_qset(k)] = (-cap, cap)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return boxes


def neutral_setpoints(ctx: FlexContext, mode: str) -> dict[str, float]:
    """Setpoints that reproduce the anchor at zero activation (all zeros)."""
    return {name: 0.0 for name in setpoint_boxes(ctx, mode)}


def assemble_single_level(
    ctx: FlexContext,
    mode: str,
    followers: list[Scenario],
    *,
    fixed_setpoints: dict[str, float] | None = None,
) -> tuple[BilinearProgram, SingleLevelMap]:
    """Strong-duality reformulation of the ideal case for a follower subset.

    Per follower: its primal rows (upper-level slots entering linearly or as
    registered products), dual-feasibility rows over its variables, one
    strong-duality row tying primal to dual objective, and the voltage band
    on its optimal magnitude.  Upper-level objective: maximize Δp+ - Δp-.

    Products appear between a slot variable and either a follower variable
    (mode rows) or a row dual (dual rows and the strong-duality row's
    parametric right-hand side).  Only duals participating in products get
    the ±``LAMBDA_CAP`` McCormick box.  ``fixed_setpoints`` pins chosen slots to
    constants (degenerate boxes), used for worst-case cross-checks.
    """
    if not followers:
        raise ValueError("need at least one follower scenario")
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    fixed_setpoints = fixed_setpoints or {}

    lp = LinearProgram(sense=MAX, name="single-level")
    bp = BilinearProgram(base=lp)

    upper_vars: dict[str, int] = {}
    upper_vars[SLOT_DP_PLUS] = lp.add_var("dp_plus", lb=0.0, ub=dp_up, obj=1.0)
    upper_vars[SLOT_DP_MINUS] = lp.add_var("dp_minus", lb=dp_lo, ub=0.0, obj=-1.0)
    sp_boxes = setpoint_boxes(ctx, mode)
    for name, (lo, hi) in sp_boxes.items():
        if name in fixed_setpoints:
            v = float(fixed_setpoints[name])
            if not (lo - 1e-12 <= v <= hi + 1e-12):
                raise ValueError(f"fixed setpoint {name}={v} outside its box [{lo}, {hi}]")
            lo = hi = v
        upper_vars[name] = lp.add_var(name, lb=lo, ub=hi)

    blocks: list[FollowerBlock] = []
    product_duals: list[int] = []
    fix_q = mode == MODE_CONSTANT_Q

    for scenario in followers:
        problem = build_follower(ctx, scenario, mode, fix_q=fix_q)
        n_x = problem.n_vars
        x0 = lp.n_vars
        tag = f"s{scenario.number}k{scenario.node}"
        lb, ub = problem.lb.copy(), problem.ub.copy()
        if mode == MODE_VOLT_VAR:
            # Volt-var products need a finite box on the (free) magnitudes.
            vm = problem.i_vm(np.arange(problem.n))
            lb[vm], ub[vm] = VM_BOX
        for v in range(n_x):
            lp.add_var(f"{tag}.x{v}", lb=lb[v], ub=ub[v])
        d0 = lp.n_vars
        for r, row in enumerate(problem.rows):
            has_product = bool(row.coeff_slots or row.rhs_slots)
            lim = LAMBDA_CAP if has_product else math.inf
            if row.relation == LE:
                lo, hi = 0.0, lim
            elif row.relation == GE:
                lo, hi = -lim, 0.0
            else:
                lo, hi = -lim, lim
            d = lp.add_var(f"{tag}.lam[{row.name}]", lb=lo, ub=hi)
            if has_product:
                product_duals.append(d)
        block = FollowerBlock(
            scenario=scenario, problem=problem, x_offset=x0, dual_offset=d0
        )
        for v in range(n_x):
            if math.isfinite(problem.lb[v]):
                block.zl[v] = lp.add_var(f"{tag}.zl[{v}]", lb=0.0)
            if math.isfinite(problem.ub[v]):
                block.zu[v] = lp.add_var(f"{tag}.zu[{v}]", lb=0.0)
        blocks.append(block)

        # Primal rows: slot-linear terms move to the LHS, products registered.
        for r, row in enumerate(problem.rows):
            idx = list(x0 + row.idx)
            val = list(row.val)
            for slot, c in row.rhs_slots:
                idx.append(upper_vars[slot])
                val.append(-c)
            rid = lp.add_row(
                (np.array(idx, dtype=np.int64), np.array(val)),
                row.relation, row.rhs, name=f"{tag}.{row.name}",
            )
            for var, slot, c in row.coeff_slots:
                bp.add_term(rid, c, upper_vars[slot], x0 + var)

        # Column view of the follower matrix for the dual-feasibility rows.
        col_lin: list[list[tuple[int, float]]] = [[] for _ in range(n_x)]
        col_slot: list[list[tuple[int, str, float]]] = [[] for _ in range(n_x)]
        for r, row in enumerate(problem.rows):
            for j, a in zip(row.idx, row.val):
                col_lin[int(j)].append((r, float(a)))
            for var, slot, c in row.coeff_slots:
                col_slot[var].append((r, slot, c))
        c_obj = problem.objective
        for v in range(n_x):
            idx = [d0 + r for r, _ in col_lin[v]]
            val = [a for _, a in col_lin[v]]
            if v in block.zu:
                idx.append(block.zu[v])
                val.append(1.0)
            if v in block.zl:
                idx.append(block.zl[v])
                val.append(-1.0)
            rid = lp.add_row(
                (np.array(idx, dtype=np.int64), np.array(val)),
                EQ, float(c_obj[v]), name=f"{tag}.dual[{v}]",
            )
            for r, slot, c in col_slot[v]:
                bp.add_term(rid, c, upper_vars[slot], d0 + r)

        # Strong duality: primal objective >= dual objective (weak duality
        # provides <=, so the pair pins equality).
        sd_idx: list[int] = []
        sd_val: list[float] = []
        nz = np.nonzero(c_obj)[0]
        for v in nz:
            sd_idx.append(x0 + int(v))
            sd_val.append(float(c_obj[v]))
        for r, row in enumerate(problem.rows):
            if row.rhs != 0.0:
                sd_idx.append(d0 + r)
                sd_val.append(-row.rhs)
        for v, zi in block.zu.items():
            if problem.ub[v] != 0.0:
                sd_idx.append(zi)
                sd_val.append(-problem.ub[v])
        for v, zi in block.zl.items():
            if problem.lb[v] != 0.0:
                sd_idx.append(zi)
                sd_val.append(problem.lb[v])
        rid = lp.add_row(
            (np.array(sd_idx, dtype=np.int64), np.array(sd_val)),
            GE, 0.0, name=f"{tag}.strong_duality",
        )
        for r, row in enumerate(problem.rows):
            for slot, c in row.rhs_slots:
                bp.add_term(rid, -c, upper_vars[slot], d0 + r)

        # Voltage band on this follower's optimal magnitude.
        vm_var = x0 + problem.i_vm(scenario.node)
        lp.add_row({vm_var: 1.0}, LE, ctx.v_max, name=f"{tag}.band_hi")
        lp.add_row({vm_var: 1.0}, GE, ctx.v_min, name=f"{tag}.band_lo")

    slmap = SingleLevelMap(
        ctx=ctx, mode=mode, upper_vars=upper_vars,
        setpoint_slots=list(sp_boxes), blocks=blocks,
        product_duals=product_duals,
    )
    return bp, slmap


def _decision_from_x(slmap: SingleLevelMap, x: np.ndarray) -> UpperDecision:
    up = slmap.upper_vars
    setpoints = {name: float(x[up[name]]) for name in slmap.setpoint_slots}
    return UpperDecision(
        dp_plus=float(x[up[SLOT_DP_PLUS]]),
        dp_minus=float(x[up[SLOT_DP_MINUS]]),
        setpoints=setpoints,
        mode=slmap.mode,
    )


Families = dict[tuple[str, str], MaterializedFollower]


def _family_followers(slmap: SingleLevelMap, slots: dict[str, float]) -> Families:
    """One materialized follower per (activation, extremum) family of the blocks.

    Each block's LP is its family's LP with the block's node as objective,
    so the single-level heuristics re-slot these instead of rebuilding.
    """
    keys = dict.fromkeys((b.scenario.activation, b.scenario.extremum) for b in slmap.blocks)
    return {
        (activation, extremum): _family_follower(
            slmap.ctx, slmap.mode, activation, extremum, slots,
            fix_q=slmap.mode == MODE_CONSTANT_Q,
        )
        for activation, extremum in keys
    }


def _complete_point(
    slmap: SingleLevelMap,
    families: Families,
    decision_slots: dict[str, float],
    lb: np.ndarray,
    ub: np.ndarray,
    certs: dict[Scenario, DualCertificate] | None = None,
) -> np.ndarray | None:
    """Assemble a full single-level point from fixed upper-level values.

    With the upper level pinned, every follower is an ordinary LP; its
    optimal primal/dual pair satisfies the primal, dual and strong-duality
    rows by construction, so a full single-level point can be assembled
    exactly.  ``certs`` holds follower solutions already made at exactly
    these values (the band-edge walk's last safe solves), which are reused
    instead of solved again.  Returns None when a follower leaves the
    voltage band or fails to solve (the candidate would be rejected anyway).
    """
    ctx = slmap.ctx
    certs = certs or {}
    x = np.zeros(lb.shape[0])
    for name, vi in slmap.upper_vars.items():
        x[vi] = decision_slots[name]
    for mf in families.values():
        mf.set_slots(decision_slots)
    for block in slmap.blocks:
        sc = block.scenario
        cert = certs.get(sc)
        if cert is None:
            cert = families[(sc.activation, sc.extremum)].solve(node=sc.node)
        if cert.status != OPTIMAL:
            return None
        vm = block.problem.worst_voltage(cert)
        if vm > ctx.v_max + 1e-9 or vm < ctx.v_min - 1e-9:
            return None
        nx = block.problem.n_vars
        lo = lb[block.x_offset:block.x_offset + nx]
        hi = ub[block.x_offset:block.x_offset + nx]
        x[block.x_offset:block.x_offset + nx] = np.clip(cert.x, lo, hi)
        x[block.dual_offset:block.dual_offset + len(block.problem.rows)] = cert.row_duals
        # Bound duals in the z >= 0 convention of the assembly.
        zl = -cert.lower_duals
        zu = cert.upper_duals
        for v, zi in block.zl.items():
            x[zi] = max(zl[v], 0.0)
        for v, zi in block.zu.items():
            x[zi] = max(zu[v], 0.0)
    return x


def _edge_limited_decision(
    slmap: SingleLevelMap,
    families: Families,
    setpoints: dict[str, float],
    lb: np.ndarray,
    ub: np.ndarray,
    tol_abs: float,
) -> tuple[dict[str, float], dict[Scenario, DualCertificate]] | None:
    """Largest feasible band edges for fixed setpoints.

    Feasibility decomposes by direction: positive followers only see the
    upper edge and negative followers the lower one, so each edge is the
    tightest per-follower ``_edge_walk``.  Returns the decision with the
    walk certificates solved at exactly its edges (for ``_complete_point``),
    or None when a follower is infeasible outright at these setpoints (a
    constant-Q setpoint outside the cone reachable under the activation's
    sign rules does that).
    """
    up = slmap.upper_vars
    dp_up = float(ub[up[SLOT_DP_PLUS]])
    dp_lo = float(lb[up[SLOT_DP_MINUS]])
    slots = {**setpoints, SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
    walks: dict[Scenario, tuple[float, DualCertificate | None]] = {}
    t_pos, t_neg = dp_up, dp_lo
    try:
        for family, mf in families.items():
            mf.set_slots(slots)
            for sc in (block.scenario for block in slmap.blocks):
                if (sc.activation, sc.extremum) != family:
                    continue
                edge, _ = walks[sc] = _edge_walk(mf, sc.node, tol_abs)
                if sc.activation == POSITIVE:
                    t_pos = min(t_pos, edge)
                else:
                    t_neg = max(t_neg, edge)
    except BilevelError:
        return None
    out = dict(setpoints)
    out[SLOT_DP_PLUS] = max(t_pos, 0.0)
    out[SLOT_DP_MINUS] = min(t_neg, 0.0)
    certs = {
        sc: cert for sc, (edge, cert) in walks.items()
        if cert is not None and edge == out[sc.dp_slot]
    }
    return out, certs


def _candidate_setpoint_sets(
    slmap: SingleLevelMap, lb: np.ndarray, ub: np.ndarray
) -> list[dict[str, float]]:
    """Bang-bang heuristic setpoints: neutral, full-absorb, full-boost.

    Droop authority boxes start at zero, so "absorb" means full authority
    there; degenerate (fixed) boxes collapse all three to the same point.
    """
    up = slmap.upper_vars
    cands: list[dict[str, float]] = []
    for kind in ("neutral", "absorb", "boost"):
        c: dict[str, float] = {}
        for name in slmap.setpoint_slots:
            vi = up[name]
            lo, hi = float(lb[vi]), float(ub[vi])
            if kind == "neutral":
                v = min(max(0.0, lo), hi)
            elif kind == "absorb":
                v = hi if name.startswith("qbar[") else lo
            else:
                v = hi
            c[name] = v
        if c not in cands:
            cands.append(c)
    return cands


def _presolve_points(
    slmap: SingleLevelMap,
    families: Families,
    lb: np.ndarray,
    ub: np.ndarray,
    tol_abs: float,
) -> list[np.ndarray]:
    """Heuristic incumbents: bang-bang setpoints with their largest safe band edges."""
    points: list[np.ndarray] = []
    for sp in _candidate_setpoint_sets(slmap, lb, ub):
        walked = _edge_limited_decision(slmap, families, sp, lb, ub, tol_abs)
        if walked is None:
            continue
        decision, certs = walked
        x = _complete_point(slmap, families, decision, lb, ub, certs)
        if x is not None:
            points.append(x)
    return points


def _completion_hook(
    slmap: SingleLevelMap,
    families: Families,
    lb: np.ndarray,
    ub: np.ndarray,
    tol_abs: float,
):
    """Candidate generator for the B&B: fix the upper level, solve followers.

    Tries the relaxation's own upper-level values first; when a follower
    leaves the band at those values (the usual case early on, while the
    product envelopes still let the relaxation pair loose setpoints with
    full band edges), retries with the edges cut back to the largest pair
    feasible for the relaxation's setpoints, which turns nearly every node
    into a producer of genuine incumbents.
    """

    def hook(x_rel: np.ndarray):
        up = slmap.upper_vars
        # Clamp upper-level values into their boxes to kill LP roundoff.
        decision_slots = {
            name: float(min(max(x_rel[vi], lb[vi]), ub[vi]))
            for name, vi in up.items()
        }
        x = _complete_point(slmap, families, decision_slots, lb, ub)
        if x is not None:
            return x
        setpoints = {name: decision_slots[name] for name in slmap.setpoint_slots}
        walked = _edge_limited_decision(slmap, families, setpoints, lb, ub, tol_abs)
        if walked is None:
            return None
        dec, certs = walked
        return _complete_point(slmap, families, dec, lb, ub, certs)

    return hook


@dataclass
class SingleLevelResult:
    decision: UpperDecision
    objective: float
    bnb: BnBResult
    escalations: int = 0  # always 0: the λ box is never widened (the benchmark still reads it)


def solve_single_level(
    ctx: FlexContext,
    mode: str,
    followers: list[Scenario],
    *,
    epsilon: float = 1e-4,
    fixed_setpoints: dict[str, float] | None = None,
    node_limit: int = 5000,
) -> SingleLevelResult:
    """Solve the ideal case for a follower subset by spatial branch-and-bound.

    The duals that meet a slot in a product sit in a ±``LAMBDA_CAP`` box, a
    big-M that nothing certifies.  So when the incumbent is below the
    availability ceiling and either one of its product duals sits at the box
    or some completion's duals left it (the B&B rejects such a point), the
    box may have cut off a wider band: the B&B status becomes ``DUAL_BOX``,
    never optimal.  Raises ``BilevelError`` when no incumbent is found.
    """
    bp, slmap = assemble_single_level(ctx, mode, followers, fixed_setpoints=fixed_setpoints)
    lb = np.array(bp.base.lb)
    ub = np.array(bp.base.ub)
    up = slmap.upper_vars
    dp_span = float(ub[up[SLOT_DP_PLUS]]) - float(lb[up[SLOT_DP_MINUS]])
    tol_abs = EDGE_TOL_REL * max(dp_span, 1e-12)
    # Any in-box slot values will do: every use re-slots the followers first.
    families = _family_followers(slmap, {name: float(lb[vi]) for name, vi in up.items()})
    duals = slmap.product_duals
    left_box = False

    def boxed(x: np.ndarray | None) -> np.ndarray | None:
        nonlocal left_box
        if x is not None and np.any(np.abs(x[duals]) > LAMBDA_CAP):
            left_box = True
        return x

    warm = [boxed(x) for x in _presolve_points(slmap, families, lb, ub, tol_abs)]
    hook = _completion_hook(slmap, families, lb, ub, tol_abs)
    res = spatial_branch_and_bound(
        bp, epsilon=epsilon, node_limit=node_limit,
        incumbent_hook=lambda x_rel: boxed(hook(x_rel)), initial_points=warm,
    )
    if res.x is None:
        raise BilevelError(
            f"single-level solve failed: no incumbent (branch-and-bound {res.status} "
            f"after {res.nodes} node(s)); either the upper-level setpoints force a "
            "follower out of the voltage band at zero deviation, or the dual boxes "
            "cut off every completion"
        )
    # The deviation boxes alone cap the objective, so no dual box can cut off
    # anything above an incumbent at the availability ceiling.
    at_ceiling = res.objective >= dp_span - 1e-9 * (1.0 + dp_span)
    box_active = np.any(np.abs(res.x[duals]) >= 0.999 * LAMBDA_CAP)
    if not at_ceiling and (left_box or box_active):
        res = replace(res, status=DUAL_BOX)
    return SingleLevelResult(
        decision=_decision_from_x(slmap, res.x), objective=res.objective, bnb=res,
    )


# ---------------------------------------------------------------------------
# Step 3: feasibility re-screening
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    scenario: Scenario
    worst_vm: float
    amount: float  # p.u. beyond the band


@dataclass
class FeasibilityReport:
    violations: list[Violation]
    worst_vm: dict[tuple[int, str, str], float]  # (node, activation, extremum) -> |v|

    @property
    def ok(self) -> bool:
        return not self.violations


def feasibility_check(
    ctx: FlexContext,
    mode: str,
    decision: UpperDecision,
    *,
    direction: str = "both",
    tol: float = FEAS_TOL_PU,
) -> FeasibilityReport:
    """Screen every follower at a fixed decision.

    Solves the 4n (or direction-filtered 2n) follower LPs with the decision's
    band edges and setpoints and reports scenarios whose extreme voltage
    leaves [v_min - tol, v_max + tol].  A follower reported infeasible by the
    LP engine is an assembly bug: at Δp = 0 every follower admits the
    zero-deviation point.
    """
    violations: list[Violation] = []
    worst: dict[tuple[int, str, str], float] = {}
    for activation in ACTIVATIONS:
        for extremum in screened_extrema(direction):
            mf = _family_follower(
                ctx, mode, activation, extremum, decision.slots,
                fix_q=mode == MODE_CONSTANT_Q,
            )
            for k in range(ctx.n):
                cert = mf.solve(node=k)
                if cert.status != OPTIMAL:
                    raise BilevelError(
                        f"follower (node {k}, {activation}/{extremum}) reported "
                        f"{cert.status}; followers are feasible by construction"
                    )
                scenario = Scenario(node=k, activation=activation, extremum=extremum)
                vm = scenario.sigma * cert.objective
                worst[(k, activation, extremum)] = vm
                amount = max(vm - ctx.v_max, ctx.v_min - vm)
                if amount > tol:
                    violations.append(
                        Violation(scenario=scenario, worst_vm=vm, amount=float(amount))
                    )
    violations.sort(key=lambda v: (-v.amount, v.scenario.node, v.scenario.number))
    return FeasibilityReport(violations=violations, worst_vm=worst)


# ---------------------------------------------------------------------------
# The iterative driver
# ---------------------------------------------------------------------------

@dataclass
class FlexibilityResult:
    mode: str
    direction: str
    decision: UpperDecision
    iterations: int
    converged: bool
    worst_case: WorstCaseLimits
    followers: list[Scenario]
    objective_history: list[float]
    feasibility: FeasibilityReport
    single_level: SingleLevelResult

    @property
    def dp_plus(self) -> float:
        return self.decision.dp_plus

    @property
    def dp_minus(self) -> float:
        return self.decision.dp_minus


def run_iterative(
    ctx: FlexContext,
    mode: str,
    *,
    direction: str = "both",
    epsilon: float = 1e-4,
    max_iterations: int | None = None,
    node_limit: int = 5000,
) -> FlexibilityResult:
    """Worst-case screening, then ideal-case solves with feasibility cuts.

    Seeds the ideal case with the followers that bound the worst-case range
    (ties broken toward the lowest node index), solves the single-level
    program, re-screens all followers at the accepted decision, and folds any
    violators back in.  The active set only grows, so the objective history
    is nonincreasing; the iteration cap defaults to the number of available
    scenarios (4n, direction-filtered 2n).  The run has converged when the
    accepted band survives the re-screening and the last branch-and-bound
    proved it optimal; a band that stopped at ``node_limit``, or whose
    dual box binds (``DUAL_BOX``), is feasible but unproven.
    """
    if max_iterations is not None and max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    check_anchor(ctx)
    if ctx.n == 0:
        raise BilevelError("feeder has no non-slack nodes")
    wc = worst_case_limits(ctx, mode, direction=direction)
    scenarios_all = all_scenarios(ctx.n, direction=direction)
    cap = max_iterations if max_iterations is not None else len(scenarios_all)

    k_up, fam_up = wc.binding_upper
    k_lo, fam_lo = wc.binding_lower
    active: list[Scenario] = [Scenario(node=k_up, activation=POSITIVE, extremum=fam_up)]
    seed_lo = Scenario(node=k_lo, activation=NEGATIVE, extremum=fam_lo)
    if seed_lo not in active:
        active.append(seed_lo)

    history: list[float] = []
    result: SingleLevelResult | None = None
    report: FeasibilityReport | None = None
    converged = False
    iterations = 0
    for iterations in range(1, cap + 1):
        result = solve_single_level(
            ctx, mode, active, epsilon=epsilon, node_limit=node_limit
        )
        history.append(result.objective)
        report = feasibility_check(
            ctx, mode, result.decision, direction=direction
        )
        if report.ok:
            converged = result.bnb.status == OPTIMAL
            break
        added = False
        for v in report.violations:
            if v.scenario not in active:
                active.append(v.scenario)
                added = True
        if not added:
            # Same violators as before: tolerance knife-edge; stop rather than loop.
            break
    assert result is not None and report is not None
    return FlexibilityResult(
        mode=mode,
        direction=direction,
        decision=result.decision,
        iterations=iterations,
        converged=converged,
        worst_case=wc,
        followers=list(active),
        objective_history=history,
        feasibility=report,
        single_level=result,
    )
