"""Bilevel flexibility solver: worst-case screening, single-level ideal case,
feasibility checking and the iterative driver tying them together.

The DSO wants the widest aggregate band [Δp-, Δp+] (plus inverter setpoints)
such that every adversarial follower keeps its node's voltage magnitude
inside [v_min, v_max].  Three steps:

1. ``worst_case_limits`` — per-node safe bounds under adversarial setpoints.
   The follower optimum is concave, piecewise linear and nondecreasing in
   |band edge|, with the aggregate-row dual as its slope, so each bound is
   found by a tangent/secant walk over its breakpoints.  A family's n nodes
   walk in lockstep: each step evaluates every open walk with one call of
   the follower's batched closed form;
2. ``assemble_single_level``/``solve_single_level`` — the ideal case for a
   subset of followers, reformulated through LP duality: follower primal
   rows + dual feasibility rows + a strong-duality row certify follower
   optimality inside a single maximization, with the products of upper-level
   decisions and follower quantities handled by McCormick + spatial
   branch-and-bound.  Each band edge is read by one activation's followers
   only, so the program splits into a positive and a negative half whose
   bounds, summed, bound the band; the joint search runs only when the
   walks at the halves' setpoints leave a gap.  Incumbents all come from
   fixing the setpoints (the bang-bang ones before a search, each node's
   relaxation setpoints during it), walking the band edges as in step 1
   and completing the point with the followers' optimal primal/dual pairs,
   each family's evaluated with one batched call at the walked decision.
   The walk returns only the band edges, so it shares no code path with
   the completion;
3. ``feasibility_check`` — re-screen all followers at the accepted decision,
   one batched evaluation per family, feeding violators back into step 2
   (``run_iterative``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bnb import NODE_LIMIT, BilinearProgram, BnBResult, spatial_branch_and_bound
from .feeder import MODE_CONSTANT_Q, MODE_VOLT_VAR
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
    fixes_q,
    screened_extrema,
    setpoint_boxes,
)
from .lp import EQ, GE, LE, MAX, OPTIMAL, LinearProgram

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


def family_follower(
    ctx: FlexContext, mode: str, activation: str, extremum: str, slots: dict[str, float]
) -> MaterializedFollower:
    """The follower LP of one (activation, extremum) family at fixed slots.

    Only the objective depends on the target node, so one materialized LP
    serves every node of the family: ``values`` solves any batch of them at
    once.  ``slots`` may carry more than the family reads (both band edges,
    say); whether constant-q followers hold q_gen at q_set is read off them
    (``fixes_q``).
    """
    scenario = Scenario(node=0, activation=activation, extremum=extremum)
    problem = build_follower(ctx, scenario, mode, fix_q=fixes_q(mode, slots))
    missing = [s for s in problem.slot_names if s not in slots]
    if missing:
        raise BilevelError(f"decision lacks slots required by followers: {missing}")
    return problem.materialize({s: slots[s] for s in problem.slot_names})


def _walk(full: float, c: float, tol_abs: float):
    """One target's band-edge walk from the far end |edge| = ``full``, as a
    coroutine: it yields each |edge| s to evaluate, is sent (F(s), F'(s))
    back, and returns the largest |edge| confirmed safe (None when F(0) > c).

    With F(s) the follower objective at |edge| = s, the edge is in band
    while F(s) <= c.  F is concave, piecewise linear and nondecreasing, and
    the aggregate-row dual is its slope, so a tangent step from the
    infeasible end lands on the feasible side (exactly at the root once that
    end sits on the crossing segment) and a secant step across a bracket
    lands on the infeasible side.  Every step is confirmed by an evaluation,
    so the result is a verified safe edge within ``tol_abs`` of the root
    whatever the duals say.  A step outside the bracket, or one following
    two steps that did not halve it, falls back to the midpoint (to zero
    while no safe edge is known), so rounding in the objectives cannot make
    the walk creep: once a safe edge is known, every three evaluations at
    least halve the bracket.
    """
    # Steps aim half the stopping slack inside c, so a step that is exact up
    # to rounding confirms as feasible and ends the walk.
    aim = c - 0.5 * EDGE_ROOT_TOL
    hi = full
    f_hi, g_hi = yield hi
    if f_hi <= c:
        return full
    lo = f_lo = None  # lo: largest edge confirmed feasible
    tangent = True
    widths = [hi]  # hi - lo after each evaluation, lo = 0 until confirmed
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
        f, g = yield s
        if f <= c:
            lo, f_lo, tangent = s, f, False
        elif s == 0.0:
            return None
        else:
            hi, f_hi, g_hi, tangent = s, f, g, True
        widths.append(hi - (lo or 0.0))
    return lo


def _edge_walk(mf: MaterializedFollower, nodes, tol_abs: float) -> np.ndarray:
    """Largest |band edge| keeping the follower's extreme |v| in band, for
    each target node in ``nodes``, signed like the far end (0 where the
    follower is out of band at zero).

    The far end is the family's band edge as materialized in ``mf``.  Each
    target takes the steps of its own ``_walk``, and the targets walk in
    lockstep: each step evaluates every target whose walk is still open
    with one ``mf.values`` call.
    """
    ctx = mf.problem.ctx
    scenario = mf.problem.scenario
    nodes = np.asarray(nodes, dtype=np.int64)
    limits = np.zeros(nodes.size)
    full = mf.slots[scenario.dp_slot]
    if full == 0.0:
        return limits
    sign = 1.0 if full > 0 else -1.0
    # The objective is sigma * |v|, so both extrema compare it from below.
    c = (ctx.v_max if scenario.extremum == MAX_V else -ctx.v_min) + 1e-9
    walks = [_walk(abs(full), c, tol_abs) for _ in range(nodes.size)]
    live = list(range(nodes.size))
    steps = [next(w) for w in walks]
    while live:
        vals = mf.values(nodes[live], sign * np.array(steps))
        if not vals.optimal.all():
            raise BilevelError(
                "follower LP infeasible during screening; followers are "
                "feasible by construction at Δp = 0, so this signals an "
                "assembly bug or inconsistent device data"
            )
        walking, steps = [], []
        slopes = (sign * vals.agg_dual).tolist()
        for t, f, g in zip(live, vals.objective.tolist(), slopes):
            try:
                steps.append(walks[t].send((f, g)))
                walking.append(t)
            except StopIteration as stop:
                if stop.value is not None:
                    limits[t] = sign * stop.value
        live = walking
    return limits


def worst_case_limits(
    ctx: FlexContext,
    mode: str,
    *,
    direction: str = "both",
) -> WorstCaseLimits:
    """Per-node worst-case band limits (step 1 of the iterative method).

    For every node and activation case, the follower is given adversarial
    setpoints (constant-Q leaves reactive power to the adversary outright)
    and the largest safe band edge is found by ``_edge_walk``, which walks
    a family's n nodes in lockstep, one kernel call per step; positive
    activations produce Δp+ limits, negative ones Δp- limits.  A node's
    limit is the tightest over the extremum families selected by
    ``direction``.  The global safe range is (max of lower, min of upper).
    """
    check_anchor(ctx)
    if ctx.n == 0:
        raise BilevelError("feeder has no non-slack nodes")
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
            mf = family_follower(ctx, mode, activation, extremum, slots)
            lim = _edge_walk(mf, np.arange(n), tol_abs)
            if activation == POSITIVE:
                tighter, limits, family = lim < upper - 1e-15, upper, upper_family
            else:
                tighter, limits, family = lim > lower + 1e-15, lower, lower_family
            limits[tighter] = lim[tighter]
            for k in np.flatnonzero(tighter):
                family[k] = extremum
    return WorstCaseLimits(
        upper=upper, lower=lower, upper_family=upper_family,
        lower_family=lower_family, dp_box=(dp_lo, dp_up),
    )


# ---------------------------------------------------------------------------
# Step 2: single-level reformulation of the ideal case
# ---------------------------------------------------------------------------

@dataclass
class UpperDecision:
    """A DSO offer: the band edges plus per-inverter setpoint slots (p.u.).
    Its constant-q q_set slots fix q_gen; without them the adversary owns it
    (``fixes_q``)."""

    dp_plus: float
    dp_minus: float
    setpoints: dict[str, float]

    @property
    def slots(self) -> dict[str, float]:
        """Every slot value of the offer: the setpoints and both band edges."""
        return {**self.setpoints, SLOT_DP_PLUS: self.dp_plus, SLOT_DP_MINUS: self.dp_minus}


@dataclass
class FollowerBlock:
    """One follower's share of the single-level program.

    The block keeps the follower's device columns and all its rows but the
    magnitude-sensitivity rows ``vm[j]`` of the nodes whose |v_j| the single
    level does not read; it drops those rows with their |v_j| columns.  It
    reads the target node's |v| (objective and band rows) and, in volt-var,
    each inverter node's (its droop row ``vv[k]`` holds the product q̄·|v_k|).
    A dropped |v_j| is free, costs nothing and appears in its own slot-free
    = row only, so its dual-feasibility row pins that row's dual to 0:
    dropping the column, the row, its dual and the dual row leaves the exact
    projection of the full block, for the bilinear program and for every
    McCormick relaxation of it, since no dropped entry meets a product.
    Each pair of index arrays maps follower entries to single-level columns.
    """

    scenario: Scenario
    problem: FollowerProblem
    x_vars: np.ndarray  # kept follower variables
    x_cols: np.ndarray  # ... and their columns
    rows: np.ndarray  # kept follower rows
    dual_cols: np.ndarray  # ... and the columns of their duals
    zl_vars: np.ndarray  # variables with a finite lower bound
    zl_cols: np.ndarray  # ... and the columns of their bound duals
    zu_vars: np.ndarray  # the same for finite upper bounds
    zu_cols: np.ndarray


@dataclass
class SingleLevelMap:
    ctx: FlexContext
    upper_vars: dict[str, int]  # slot name -> variable index (incl. dp slots)
    setpoint_slots: list[str]
    blocks: list[FollowerBlock]
    product_duals: list[int]  # dual variable indices that appear in products


def neutral_setpoints(ctx: FlexContext, mode: str) -> dict[str, float]:
    """Setpoints that reproduce the anchor at zero activation (all zeros)."""
    return {name: 0.0 for name in setpoint_boxes(ctx, mode)}


def assemble_single_level(
    ctx: FlexContext,
    mode: str,
    followers: list[Scenario],
) -> tuple[BilinearProgram, SingleLevelMap]:
    """Strong-duality reformulation of the ideal case for a follower subset.

    Per follower: its primal rows (upper-level slots entering linearly or as
    registered products), dual-feasibility rows over its variables, one
    strong-duality row tying primal to dual objective, and the voltage band
    on its optimal magnitude.  Upper-level objective: maximize Δp+ - Δp-.
    Each follower block keeps only the |v| columns and vm rows the program
    reads: the target node's, and in volt-var each inverter node's, whose
    droop row holds the product q̄·|v_k|.  The other vm rows, their |v|
    columns, duals and dual rows drop out exactly (see ``FollowerBlock``).
    Each block is stacked from the follower's triplets as arrays, with one
    ``add_vars`` and one ``add_rows`` call.

    Products appear between a slot variable and either a follower variable
    (mode rows) or a row dual (dual rows and the strong-duality row's
    parametric right-hand side).  Only duals participating in products get
    the ±``LAMBDA_CAP`` McCormick box.
    """
    if not followers:
        raise ValueError("need at least one follower scenario")
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)

    lp = LinearProgram(sense=MAX)
    bp = BilinearProgram(base=lp)

    upper_vars: dict[str, int] = {}
    upper_vars[SLOT_DP_PLUS] = lp.add_var("dp_plus", lb=0.0, ub=dp_up, obj=1.0)
    upper_vars[SLOT_DP_MINUS] = lp.add_var("dp_minus", lb=dp_lo, ub=0.0, obj=-1.0)
    sp_boxes = setpoint_boxes(ctx, mode)
    for name, (lo, hi) in sp_boxes.items():
        upper_vars[name] = lp.add_var(name, lb=lo, ub=hi)

    blocks: list[FollowerBlock] = []
    product_duals: list[int] = []
    # The blocks match the families the completion evaluates at these slots.
    fix_q = fixes_q(mode, sp_boxes)

    for scenario in followers:
        problem = build_follower(ctx, scenario, mode, fix_q=fix_q)
        tag = f"s{scenario.number}k{scenario.node}"
        # The |v| read here: the target's (objective, band rows) and, in
        # volt-var, the droop rows' at the inverter nodes (``FollowerBlock``).
        read = {scenario.node}
        if mode == MODE_VOLT_VAR:
            read.update(ctx.devices.inverter_nodes)
        unread = np.array([j for j in range(problem.n) if j not in read], dtype=np.int64)
        keep_x = np.ones(problem.n_vars, dtype=bool)
        keep_x[problem.i_vm(unread)] = False
        keep_r = np.ones(problem.n_rows, dtype=bool)
        keep_r[problem.row_index("vm", unread)] = False
        x_vars, kept = np.flatnonzero(keep_x), np.flatnonzero(keep_r)
        n_x, n_k = x_vars.size, kept.size
        # Where kept: a variable's position among the kept variables, a row's
        # among the kept rows.
        x_pos, r_pos = np.cumsum(keep_x) - 1, np.cumsum(keep_r) - 1
        rhs_slots = [t for t in problem.rhs_slots if keep_r[t[0]]]
        coeff_slots = [t for t in problem.coeff_slots if keep_r[t[0]]]
        has_product = np.zeros(problem.n_rows, dtype=bool)
        has_product[[t[0] for t in coeff_slots + rhs_slots]] = True

        # Columns: the kept variables, one dual per kept row, then zl and zu
        # per kept variable for its finite bounds.
        lb, ub = problem.lb[x_vars], problem.ub[x_vars]
        box_lb, box_ub = lb.copy(), ub.copy()
        if mode == MODE_VOLT_VAR:
            # Volt-var products need a finite box on the (free) magnitudes.
            vm = x_pos[problem.i_vm(np.array(sorted(read)))]
            box_lb[vm], box_ub[vm] = VM_BOX
        relations = [problem.relations[r] for r in kept.tolist()]
        row_names = [problem.row_names[r] for r in kept.tolist()]
        rel, lim = np.array(relations), np.where(has_product[kept], LAMBDA_CAP, math.inf)
        finite = np.column_stack([np.isfinite(lb), np.isfinite(ub)]).ravel()
        z_var, z_up = np.repeat(x_vars, 2)[finite], np.tile([False, True], n_x)[finite]
        columns = lp.add_vars(
            [f"{tag}.x{v}" for v in x_vars.tolist()]
            + [f"{tag}.lam[{name}]" for name in row_names]
            + [f"{tag}.z{'u' if u else 'l'}[{v}]" for v, u in zip(z_var.tolist(), z_up.tolist())],
            np.concatenate([box_lb, np.where(rel == LE, 0.0, -lim), np.zeros(z_var.size)]),
            np.concatenate([box_ub, np.where(rel == GE, 0.0, lim), np.full(z_var.size, math.inf)]),
        )
        x_col, d_col = columns[0] + x_pos, columns[n_x] + r_pos  # where kept
        z_col = columns[n_x + n_k:]
        zl_var, zl, zu_var, zu = z_var[~z_up], z_col[~z_up], z_var[z_up], z_col[z_up]
        product_duals += d_col[kept[has_product[kept]]].tolist()

        # Rows, numbered within the block: the kept primal rows (A, and -c on
        # the slot column of each rhs slot term), one dual-feasibility row per
        # kept variable (Aᵀλ + z_u - z_l = c), the strong-duality row (primal
        # objective >= dual objective; weak duality gives <=, so the pair
        # pins equality) and the voltage band on the follower's optimal |v|.
        sd = n_k + n_x
        t = keep_r[problem.a_row]
        a_row, a_col, a_val = problem.a_row[t], problem.a_col[t], problem.a_val[t]
        c_obj = problem.objective
        obj, nz_rhs = np.flatnonzero(c_obj), kept[problem.rhs[kept] != 0.0]
        u_nz, l_nz = problem.ub[zu_var] != 0.0, problem.lb[zl_var] != 0.0
        sd_cols = np.concatenate([x_col[obj], d_col[nz_rhs], zu[u_nz], zl[l_nz]])
        sd_vals = np.concatenate([
            c_obj[obj], -problem.rhs[nz_rhs], -problem.ub[zu_var[u_nz]], problem.lb[zl_var[l_nz]],
        ])
        vm_col = x_col[problem.i_vm(scenario.node)]
        entries = [
            (r_pos[a_row], x_col[a_col], a_val),
            ([r_pos[r] for r, _, _ in rhs_slots], [upper_vars[s] for _, s, _ in rhs_slots],
             [-c for _, _, c in rhs_slots]),
            (n_k + x_pos[a_col], d_col[a_row], a_val),
            (n_k + x_pos[zu_var], zu, np.ones(zu.size)),
            (n_k + x_pos[zl_var], zl, -np.ones(zl.size)),
            (np.full(sd_cols.size, sd), sd_cols, sd_vals),
            ([sd + 1, sd + 2], [vm_col, vm_col], [1.0, 1.0]),
        ]
        first = int(lp.add_rows(
            [np.concatenate(a) for a in zip(*entries)],
            relations + [EQ] * n_x + [GE, LE, GE],
            np.concatenate([problem.rhs[kept], c_obj[x_vars], [0.0, ctx.v_max, ctx.v_min]]),
            [f"{tag}.{name}" for name in row_names] + [f"{tag}.dual[{v}]" for v in x_vars.tolist()]
            + [f"{tag}.strong_duality", f"{tag}.band_hi", f"{tag}.band_lo"],
        )[0])

        # Products: slot x follower variable in the primal rows, slot x dual in
        # the dual rows and in the strong-duality row's parametric rhs.
        for r, v, s, c in coeff_slots:
            bp.add_term(first + int(r_pos[r]), c, upper_vars[s], int(x_col[v]))
        for r, v, s, c in sorted(coeff_slots, key=lambda term: term[1]):
            bp.add_term(first + n_k + int(x_pos[v]), c, upper_vars[s], int(d_col[r]))
        for r, s, c in rhs_slots:
            bp.add_term(first + sd, -c, upper_vars[s], int(d_col[r]))
        blocks.append(FollowerBlock(
            scenario=scenario, problem=problem, x_vars=x_vars, x_cols=x_col[x_vars],
            rows=kept, dual_cols=d_col[kept],
            zl_vars=zl_var, zl_cols=zl, zu_vars=zu_var, zu_cols=zu,
        ))

    slmap = SingleLevelMap(
        ctx=ctx, upper_vars=upper_vars,
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
    )


Families = dict[tuple[str, str], MaterializedFollower]


def _family_followers(
    ctx: FlexContext, mode: str, followers: list[Scenario], slots: dict[str, float]
) -> Families:
    """One materialized follower per (activation, extremum) family of ``followers``.

    Each follower's LP is its family's LP with the follower's node as
    objective, so the single-level heuristics re-slot these instead of
    rebuilding.
    """
    keys = dict.fromkeys((sc.activation, sc.extremum) for sc in followers)
    return {
        (activation, extremum): family_follower(ctx, mode, activation, extremum, slots)
        for activation, extremum in keys
    }


def _complete_point(
    slmap: SingleLevelMap,
    families: Families,
    decision_slots: dict[str, float],
    lb: np.ndarray,
    ub: np.ndarray,
) -> np.ndarray | None:
    """Assemble a full single-level point from fixed upper-level values.

    With the upper level pinned, every follower is an ordinary LP; its
    optimal primal/dual pair satisfies the primal, dual and strong-duality
    rows by construction, so a full single-level point can be assembled
    exactly.  Each family's blocks are evaluated with one ``values`` call
    at the decision, and each block's certificate is built from its row.
    Returns None when a follower leaves the voltage band or fails to solve
    (the candidate would be rejected anyway).
    """
    ctx = slmap.ctx
    x = np.zeros(lb.shape[0])
    for name, vi in slmap.upper_vars.items():
        x[vi] = decision_slots[name]
    for family, mf in families.items():
        mf.set_slots(decision_slots)
        blocks = [b for b in slmap.blocks if (b.scenario.activation, b.scenario.extremum) == family]
        vals = mf.values([b.scenario.node for b in blocks])
        for i, block in enumerate(blocks):
            cert = mf.certificate(vals, i)
            if cert.status != OPTIMAL:
                return None
            vm = block.problem.worst_voltage(cert)
            if vm > ctx.v_max + 1e-9 or vm < ctx.v_min - 1e-9:
                return None
            # Only the kept entries: the dropped rows' duals are 0 (see
            # ``FollowerBlock``).  Bound duals in the z >= 0 convention of the
            # assembly.
            cols = block.x_cols
            x[cols] = np.clip(cert.x[block.x_vars], lb[cols], ub[cols])
            x[block.dual_cols] = cert.row_duals[block.rows]
            x[block.zl_cols] = np.maximum(-cert.lower_duals[block.zl_vars], 0.0)
            x[block.zu_cols] = np.maximum(cert.upper_duals[block.zu_vars], 0.0)
    return x


def _edge_limited_decision(
    families: Families,
    followers: list[Scenario],
    setpoints: dict[str, float],
    dp_box: tuple[float, float],
    tol_abs: float,
) -> dict[str, float] | None:
    """Largest feasible band edges for fixed setpoints, within ``dp_box``
    (Δp_lower, Δp_upper).

    Feasibility decomposes by direction: positive followers only see the
    upper edge and negative followers the lower one, so each edge is the
    tightest ``_edge_walk`` over the followers, each family's followers
    walked in one call.  Returns the decision's slots, or None when a
    follower is infeasible outright at these setpoints (a constant-Q
    setpoint outside the cone reachable under the activation's sign rules
    does that).
    """
    dp_lo, dp_up = dp_box
    slots = {**setpoints, SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
    t_pos, t_neg = dp_up, dp_lo
    try:
        for family, mf in families.items():
            mf.set_slots(slots)
            nodes = [sc.node for sc in followers if (sc.activation, sc.extremum) == family]
            edges = _edge_walk(mf, nodes, tol_abs).tolist()
            if family[0] == POSITIVE:
                t_pos = min([t_pos, *edges])
            else:
                t_neg = max([t_neg, *edges])
    except BilevelError:
        return None
    return {**setpoints, SLOT_DP_PLUS: max(t_pos, 0.0), SLOT_DP_MINUS: min(t_neg, 0.0)}


def _candidate_setpoint_sets(boxes: dict[str, tuple[float, float]]) -> list[dict[str, float]]:
    """Bang-bang heuristic setpoints: neutral (0 clamped into each box),
    every lower end and every upper end, duplicates dropped (zero-width
    boxes collapse them)."""
    cands: list[dict[str, float]] = []
    for c in (
        {name: min(max(0.0, lo), hi) for name, (lo, hi) in boxes.items()},
        {name: lo for name, (lo, _) in boxes.items()},
        {name: hi for name, (_, hi) in boxes.items()},
    ):
        if c not in cands:
            cands.append(c)
    return cands


JOINT = "joint"  # the search over all active followers
SPLIT = "split"  # the bound summed from the POSITIVE and NEGATIVE halves' searches


@dataclass
class SingleLevelResult:
    """A single-level solve.  ``bnb`` holds the status, gap and ``bound`` of
    the whole solve, in ``nodes`` every relaxation it solved and in
    ``cold_resolves`` those solved again cold after a warm solve;
    ``nodes_by_search`` splits the nodes by search (POSITIVE, NEGATIVE, JOINT)
    and ``bound_by`` names the bound that holds (SPLIT or JOINT).  ``bnb.x``
    is the joint program's point, None when the halves settled the band
    without the joint program."""

    decision: UpperDecision
    objective: float
    bnb: BnBResult
    nodes_by_search: dict[str, int]
    bound_by: str
    escalations: int = 0  # always 0: the λ box is never widened (the benchmark still reads it)


def solve_single_level(
    ctx: FlexContext,
    mode: str,
    followers: list[Scenario],
    *,
    epsilon: float = 1e-4,
    node_limit: int = 5000,
    split: bool = True,
) -> SingleLevelResult:
    """Solve the ideal case for a follower subset by spatial branch-and-bound.

    The presolve walks every follower at the bang-bang setpoints.  When the
    followers hold both activations and none of these walks reaches the
    availability ceiling, the program is split: positive followers read only Δp+ and
    negative ones only Δp-, so each activation's followers form a half
    whose other edge sits at its box end, and each half gets its own
    search.  Giving each half its own copy of the setpoints is a
    relaxation, so U+ + U- - span bounds the band, U± being each half's
    bound.  Walking all followers at each half's final setpoints gives
    joint incumbents; when the best is within ``epsilon`` of that bound,
    it is the proven band.  Otherwise (and always with ``split=False``,
    with one activation or at the ceiling) the joint search over all
    followers runs, seeded with every walked point and started from the
    split bound.  ``node_limit`` caps the relaxations of the whole solve:
    the positive half draws first, the negative half gets the rest, the
    joint search what is left after both.  A family's walk at a setpoint
    set is made once per solve, over the presolve and every search's node
    hook.  ``split=False`` runs the joint search alone: it is the
    reference the tests hold the split solve to.

    The duals that meet a slot in a product sit in a ±``LAMBDA_CAP`` box, a
    big-M that nothing certifies.  So when the band is below the
    availability ceiling and in some search either one of its incumbent's
    product duals sits at the box or some completion's duals left it (the
    B&B rejects such a point), the box may have cut off a wider band: the
    status becomes ``DUAL_BOX``, never optimal.  Raises ``BilevelError``
    when a search finds no incumbent.
    """
    boxes = setpoint_boxes(ctx, mode)
    dp_box = available_flexibility_bounds(ctx.devices)
    dp_span = dp_box[1] - dp_box[0]
    tol_abs = EDGE_TOL_REL * max(dp_span, 1e-12)
    # Any in-box slot values will do: every use re-slots the followers first.
    families = _family_followers(ctx, mode, followers, {
        SLOT_DP_PLUS: 0.0, SLOT_DP_MINUS: dp_box[0], **{n: lo for n, (lo, _) in boxes.items()},
    })
    # The relaxations keep landing on the same box vertices (often the
    # presolve's, or the other half's), and a family's walk depends on the
    # setpoints alone: walk each family once at each set.
    walks: dict[tuple, dict[str, float] | None] = {}

    def walk(fams: Families, setpoints: dict[str, float]) -> dict[str, float] | None:
        """The widest safe band edges at ``setpoints`` for the families
        ``fams``; an edge none of them reads stays at its box end."""
        key = tuple(setpoints.values())
        for family in fams:
            if (family, key) not in walks:
                walks[family, key] = _edge_limited_decision(
                    {family: families[family]}, followers, setpoints, dp_box, tol_abs
                )
        edges = [walks[family, key] for family in fams]
        if None in edges:
            return None
        return {**setpoints, SLOT_DP_PLUS: min(e[SLOT_DP_PLUS] for e in edges),
                SLOT_DP_MINUS: max(e[SLOT_DP_MINUS] for e in edges)}

    def search(subset: list[Scenario], seeds: list[dict[str, float]], limit: int,
               bound: float | None = None) -> tuple[BnBResult, UpperDecision, bool]:
        """Branch and bound over the single level of ``subset``, seeded with
        the walks at ``seeds``; gives the result, its decision and whether
        the λ box binds."""
        bp, slmap = assemble_single_level(ctx, mode, subset)
        lb, ub = np.array(bp.base.lb), np.array(bp.base.ub)
        up, duals = slmap.upper_vars, slmap.product_duals
        fams = {f: families[f] for f in dict.fromkeys((sc.activation, sc.extremum) for sc in subset)}
        points: dict[tuple[float, ...], np.ndarray | None] = {}
        left_box = False

        def walk_once(setpoints: dict[str, float]) -> np.ndarray | None:
            """A candidate incumbent: the walk at ``setpoints`` completed
            with every follower's optimal primal/dual pair."""
            nonlocal left_box
            key = tuple(setpoints.values())
            if key not in points:
                decision = walk(fams, setpoints)
                x = None if decision is None else _complete_point(slmap, fams, decision, lb, ub)
                left_box |= x is not None and bool(np.any(np.abs(x[duals]) > LAMBDA_CAP))
                points[key] = x
            return points[key]

        def hook(x_rel: np.ndarray) -> np.ndarray | None:
            # Clamp the relaxation's setpoints into their boxes to kill LP roundoff.
            return walk_once({
                name: float(min(max(x_rel[up[name]], lb[up[name]]), ub[up[name]]))
                for name in slmap.setpoint_slots
            })

        res = spatial_branch_and_bound(
            bp, epsilon=epsilon, node_limit=limit, incumbent_hook=hook,
            initial_points=[walk_once(sp) for sp in seeds], bound=bound,
        )
        if res.x is None:
            raise BilevelError(
                f"single-level solve failed: no incumbent (branch-and-bound {res.status} "
                f"after {res.nodes} node(s)); either the upper-level setpoints force a "
                "follower out of the voltage band at zero deviation, or the dual boxes "
                "cut off every completion"
            )
        box = left_box or bool(np.any(np.abs(res.x[duals]) >= 0.999 * LAMBDA_CAP))
        return res, _decision_from_x(slmap, res.x), box

    def at_ceiling(width: float) -> bool:
        return width >= dp_span - 1e-9 * (1.0 + dp_span)

    def result(res: BnBResult, decision: UpperDecision, box: bool,
               nodes: dict[str, int], bound_by: str) -> SingleLevelResult:
        # The deviation boxes alone cap the objective, so no dual box can cut
        # off anything above an incumbent at the availability ceiling.
        if box and not at_ceiling(res.objective):
            res = replace(res, status=DUAL_BOX)
        return SingleLevelResult(
            decision=decision, objective=res.objective, bnb=res,
            nodes_by_search={POSITIVE: 0, NEGATIVE: 0, JOINT: 0, **nodes}, bound_by=bound_by,
        )

    def width(d: dict[str, float]) -> float:
        return d[SLOT_DP_PLUS] - d[SLOT_DP_MINUS]

    candidates = _candidate_setpoint_sets(boxes)
    halves = {a: [sc for sc in followers if sc.activation == a] for a in ACTIVATIONS}
    presolve: list[dict[str, float]] = []
    if split and all(halves.values()):
        # Up to the first walk that reaches the ceiling, where no bound can
        # do better (the joint search then walks the rest in its own order).
        for sp in candidates:
            d = walk(families, sp)
            if d is not None:
                presolve.append(d)
                if at_ceiling(width(d)):
                    break
    if not presolve or at_ceiling(width(presolve[-1])):
        res, decision, box = search(followers, candidates, node_limit)
        return result(res, decision, box, {JOINT: res.nodes}, JOINT)

    budget, nodes, finals, split_bound, box = node_limit, {}, [], -dp_span, False
    cold_resolves = 0
    for activation, subset in halves.items():
        res, decision, half_box = search(subset, candidates, budget)
        budget -= res.nodes
        nodes[activation] = res.nodes
        cold_resolves += res.cold_resolves
        finals.append(decision.setpoints)
        # A half's objective is its own edge plus the other edge's whole box,
        # so the span caps it, also for a half stopped before its root.
        split_bound += min(res.bound, dp_span)
        box |= half_box
    best = max(presolve + [d for d in (walk(families, sp) for sp in finals) if d is not None],
               key=width)
    proven = split_bound <= width(best) + epsilon * (1.0 + abs(width(best)))
    if not proven and budget > 0:
        res, decision, joint_box = search(followers, candidates + finals, budget, split_bound)
        nodes[JOINT] = res.nodes
        res = replace(res, nodes=sum(nodes.values()),
                      cold_resolves=cold_resolves + res.cold_resolves)
        return result(res, decision, box or joint_box, nodes, JOINT)
    res = BnBResult(
        status=OPTIMAL if proven else NODE_LIMIT, x=None, objective=width(best),
        bound=max(split_bound, width(best)), gap=max(split_bound - width(best), 0.0),
        nodes=sum(nodes.values()), cold_resolves=cold_resolves,
    )
    decision = UpperDecision(
        dp_plus=best[SLOT_DP_PLUS], dp_minus=best[SLOT_DP_MINUS],
        setpoints={name: best[name] for name in boxes},
    )
    return result(res, decision, box, nodes, SPLIT)


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
) -> FeasibilityReport:
    """Screen every follower at a fixed decision.

    Solves the 4n (or direction-filtered 2n) follower LPs with the decision's
    band edges and setpoints, each family's n nodes in one ``values`` call,
    and reports scenarios whose extreme voltage leaves [v_min, v_max] by
    more than ``FEAS_TOL_PU``.  A constant-q decision without q_set slots is
    screened with free q_gen (``fixes_q``), the stronger adversary, as
    ``oracle.verify_decision`` checks it.  An infeasible follower is an
    assembly bug: at Δp = 0 every follower admits the zero-deviation point.
    """
    violations: list[Violation] = []
    worst: dict[tuple[int, str, str], float] = {}
    for activation in ACTIVATIONS:
        for extremum in screened_extrema(direction):
            mf = family_follower(ctx, mode, activation, extremum, decision.slots)
            vals = mf.values(np.arange(ctx.n))
            if not vals.optimal.all():
                raise BilevelError(
                    f"follower (node {int(np.argmin(vals.optimal))}, {activation}/{extremum}) "
                    "has no optimum; followers are feasible by construction"
                )
            for k, objective in enumerate(vals.objective.tolist()):
                scenario = Scenario(node=k, activation=activation, extremum=extremum)
                vm = scenario.sigma * objective
                worst[(k, activation, extremum)] = vm
                amount = max(vm - ctx.v_max, ctx.v_min - vm)
                if amount > FEAS_TOL_PU:
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
    stalled: bool  # re-screening found only followers already active
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
    dual box binds (``DUAL_BOX``), is feasible but unproven.  A re-screening
    that finds only followers already active ends the loop early
    (``stalled``): solving again would give the same decision.
    """
    if max_iterations is not None and max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite non-negative number, got {epsilon}")
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
    converged = stalled = False
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
            stalled = True
            break
    assert result is not None and report is not None
    return FlexibilityResult(
        mode=mode,
        direction=direction,
        decision=result.decision,
        iterations=iterations,
        converged=converged,
        stalled=stalled,
        worst_case=wc,
        followers=list(active),
        objective_history=history,
        feasibility=report,
        single_level=result,
    )
