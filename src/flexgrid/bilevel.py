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
   each activation's evaluated with one batched call at the walked decision.
   The walk returns only the band edges, so it shares no code path with
   the completion;
3. ``feasibility_check`` — re-screen all followers at the accepted decision,
   one batched evaluation per activation, feeding violators back into step 2
   (``run_iterative``).  The run's solves share a ``RunStore``: a search
   whose followers, seeds and budget did not change since an earlier
   iteration, and a family walk whose nodes and setpoints did not, are
   taken from it, so each iteration searches again only what its new
   followers change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bnb import FEAS_TOL, NODE_LIMIT, BilinearProgram, BnBResult, spatial_branch_and_bound
from .feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR, FeederError
from .follower import (
    ACTIVATIONS,
    MAX_V,
    NEGATIVE,
    POSITIVE,
    SIGMA,
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
    per_row,
    screened_extrema,
    setpoint_boxes,
)
from .lp import EQ, GE, LE, MAX, OPTIMAL, LinearProgram

EDGE_TOL_REL = 1e-6  # band-edge tolerance, relative to the availability span
EDGE_ROOT_TOL = 1e-12  # a safe edge whose objective is this close to the limit is the root
FEAS_TOL_PU = 1e-6
# McCormick box of every follower dual that meets a slot in a product and
# has no bound proven by ``FollowerProblem.dual_box``: constant-pf's pfq
# duals and volt-var's.
LAMBDA_CAP = 1e3
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


def check_capability(ctx: FlexContext, problem: FollowerProblem) -> None:
    """Constant-pf followers hold q_gen = γ·(p_gen0 + Δp_gen), so at zero
    deviation each inverter sits at (Δp_gen, q_gen) = (0, γ·p_gen0): its
    region (``FollowerProblem.region``) must hold that point at both ends of
    its γ box, or no follower is feasible there.  Raises ``FeederError``
    naming the first inverter whose capability cannot."""
    _, e, b = problem.region  # at Δp_gen = 0 only e·q_gen <= b remains
    boxes = setpoint_boxes(ctx, MODE_CONSTANT_PF)
    ends = np.array([boxes[s] for s in problem.setpoint_slots]).reshape(-1, 2)
    q0 = ends * ctx.devices.p_gen0[problem.inv][:, None]  # (inverter, end)
    outside = (e[:, None, :] * q0[:, :, None] > b[:, None, :] + FEAS_TOL_PU).any(axis=(1, 2))
    if outside.any():
        i = int(np.argmax(outside))
        bus, phase = ctx.index.nodes[problem.inv[i]]
        raise FeederError(
            f"inverter at bus {bus!r} phase {phase!r}: its capability (s_kva) cannot hold "
            f"the anchor's q_gen = gamma * p_kw at the ends of its constant-pf gamma box "
            f"+/-{ends[i, 1]:.4g}; raise its s_kva or its pf"
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
        return float(np.min(self.upper))

    @property
    def range_lower(self) -> float:
        return float(np.max(self.lower))

    @property
    def binding_upper(self) -> tuple[int, str]:
        k = int(np.argmin(self.upper))
        return k, self.upper_family[k]

    @property
    def binding_lower(self) -> tuple[int, str]:
        k = int(np.argmax(self.lower))
        return k, self.lower_family[k]


def _kept_family(
    ctx: FlexContext, mode: str, activation: str, fix_q: bool, slots: dict[str, float],
) -> MaterializedFollower:
    """The follower ``ctx`` keeps for one activation.  A new one, whose node
    (0) and extremum (max-|v|) are stand-ins, is kept materialized at
    ``slots``, zero where they lack a slot."""
    key = (mode, activation, fix_q)
    if key not in ctx.followers:
        problem = build_follower(ctx, Scenario(0, activation, MAX_V), mode, fix_q=fix_q)
        ctx.followers[key] = problem.materialize(dict.fromkeys(problem.slot_names, 0.0) | slots)
    return ctx.followers[key]


def family_follower(
    ctx: FlexContext, mode: str, activation: str, slots: dict[str, float],
) -> MaterializedFollower:
    """The follower LP of one activation at fixed slots, for both extrema.

    Only the objective depends on the target node and the extremum, whose
    sign σ multiplies it, so one materialized LP serves every (node,
    extremum) family of the activation: ``values`` solves any batch of
    nodes and signs at once.  ``slots`` may carry more than the follower
    reads (both band edges, say); whether constant-q followers hold q_gen
    at q_set is read off them (``fixes_q``).  The follower is materialized
    once per context and kept in ``ctx.followers``, and nowhere else; every
    call after re-slots it, and a re-slot at the same setpoints keeps what
    they derive, whichever extremum reads it next.
    """
    mf = _kept_family(ctx, mode, activation, fixes_q(mode, slots), slots)
    missing = [s for s in mf.problem.slot_names if s not in slots]
    if missing:
        raise BilevelError(f"decision lacks slots required by followers: {missing}")
    mf.set_slots(slots)
    return mf


def _by_family(followers: list[Scenario]) -> dict[tuple[str, str], list[int]]:
    """The target nodes of ``followers`` by (activation, extremum) family, in order."""
    families: dict[tuple[str, str], list[int]] = {}
    for sc in followers:
        families.setdefault((sc.activation, sc.extremum), []).append(sc.node)
    return families


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


def _band_cap(problem: FollowerProblem, sigma) -> np.ndarray:
    """The follower objective sigma*|v| up to which a follower of objective
    sign ``sigma`` (one or one per target) stays in band (both extrema
    compare it from below)."""
    return np.where(np.asarray(sigma) > 0.0, problem.v_max, -problem.v_min) + 1e-9


def _edge_walk(mf: MaterializedFollower, nodes, sigma, tol_abs: float) -> np.ndarray:
    """Largest |band edge| keeping the follower's extreme |v| in band, for
    each target node in ``nodes`` at objective sign ``sigma`` (one per
    node, or one for all), signed like the far end (0 where the follower is
    out of band at zero).

    The far end is the activation's band edge as materialized in ``mf``.
    Each target takes the steps of its own ``_walk``, and the targets walk
    in lockstep: each step evaluates every target whose walk is still open
    with one ``mf.values`` call.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    sigma = per_row(sigma, nodes.shape)
    limits = np.zeros(nodes.size)
    full = mf.slots[mf.problem.scenario.dp_slot]
    if full == 0.0:
        return limits
    sign = 1.0 if full > 0 else -1.0
    walks = [_walk(abs(full), c, tol_abs) for c in _band_cap(mf.problem, sigma).tolist()]
    live = list(range(nodes.size))
    steps = [next(w) for w in walks]
    while live:
        vals = mf.values(nodes[live], sign * np.array(steps), sigma[live])
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
    the n nodes of every extremum that shares those setpoints in lockstep,
    one kernel call per step (constant-q: both extrema at once); positive
    activations produce Δp+ limits, negative ones Δp- limits.  A node's
    limit is the tightest over the extremum families selected by
    ``direction``.  The global safe range is (max of lower, min of upper).
    A constant-pf inverter whose capability cannot hold the anchor at its
    γ box ends raises ``FeederError`` (``check_capability``).
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
        # The extrema by their adversarial slots, each set walked once.
        by_slots: dict[tuple, list[str]] = {}
        for extremum in extrema:
            slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
            if mode != MODE_CONSTANT_Q:
                slots.update(fix_worst_case_setpoints(ctx, mode, extremum))
            by_slots.setdefault(tuple(slots.items()), []).append(extremum)
        limits_of: dict[str, np.ndarray] = {}
        for slots, group in by_slots.items():
            mf = family_follower(ctx, mode, activation, dict(slots))
            if mode == MODE_CONSTANT_PF:
                check_capability(ctx, mf.problem)
            sigma = np.repeat([SIGMA[e] for e in group], n)
            lim = _edge_walk(mf, np.tile(np.arange(n), len(group)), sigma, tol_abs)
            limits_of.update(zip(group, lim.reshape(len(group), n)))
        for extremum in extrema:
            lim = limits_of[extremum]
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
    # The activation's problem, shared by its blocks: its ``scenario.node``,
    # ``scenario.extremum``, ``objective`` and ``to_lp`` are a stand-in's,
    # not the block's target and extremum, which only ``scenario`` gives.
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
    capped_duals: list[int]  # ... those boxed at ±LAMBDA_CAP: constant-pf pfq, volt-var


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
    ``add_vars`` and one ``add_rows`` call; an activation's blocks share
    the problem of the follower ``ctx`` keeps for it (``_kept_family``,
    which keeps a new one at zero slots, for the completion to re-slot) and
    read its objective and dual box at their node and their extremum's
    sign σ, the one place a block's extremum enters.

    Products appear between a slot variable and either a follower variable
    (mode rows) or a row dual (dual rows and the strong-duality row's
    parametric right-hand side).  Only duals participating in products get
    a McCormick box: the bound the closed-form certificate proves for the
    block's target over the setpoint boxes (``FollowerProblem.dual_box``,
    read off the follower's rows: fixed-q constant-q's agg and qfix duals,
    constant-pf's agg dual), and ±``LAMBDA_CAP`` where it proves none
    (``capped_duals``: constant-pf's pfq duals, volt-var's).
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
    capped_duals: list[int] = []
    # The blocks match the followers the completion evaluates at these slots.
    fix_q = fixes_q(mode, sp_boxes)
    problems = {a: _kept_family(ctx, mode, a, fix_q, {}).problem
                for a in dict.fromkeys(sc.activation for sc in followers)}

    for scenario in followers:
        problem = problems[scenario.activation]
        node = scenario.node
        tag = f"s{scenario.number}k{node}"
        # The |v| read here: the target's (objective, band rows) and, in
        # volt-var, the droop rows' at the inverter nodes (``FollowerBlock``).
        read = {node}
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
        rel = np.array(relations)
        derived = problem.dual_box(sp_boxes, node, scenario.sigma)[kept]
        capped = has_product[kept] & np.isinf(derived)
        lim = np.where(capped, LAMBDA_CAP, derived)
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
        capped_duals += d_col[kept[capped]].tolist()

        # Rows, numbered within the block: the kept primal rows (A, and -c on
        # the slot column of each rhs slot term), one dual-feasibility row per
        # kept variable (Aᵀλ + z_u - z_l = c), the strong-duality row (primal
        # objective >= dual objective; weak duality gives <=, so the pair
        # pins equality) and the voltage band on the follower's optimal |v|.
        sd = n_k + n_x
        t = keep_r[problem.a_row]
        a_row, a_col, a_val = problem.a_row[t], problem.a_col[t], problem.a_val[t]
        c_obj = np.zeros(problem.n_vars)  # σ at the target's |v|
        c_obj[problem.i_vm(node)] = scenario.sigma
        obj, nz_rhs = np.flatnonzero(c_obj), kept[problem.rhs[kept] != 0.0]
        u_nz, l_nz = problem.ub[zu_var] != 0.0, problem.lb[zl_var] != 0.0
        sd_cols = np.concatenate([x_col[obj], d_col[nz_rhs], zu[u_nz], zl[l_nz]])
        sd_vals = np.concatenate([
            c_obj[obj], -problem.rhs[nz_rhs], -problem.ub[zu_var[u_nz]], problem.lb[zl_var[l_nz]],
        ])
        vm_col = x_col[problem.i_vm(node)]
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
        product_duals=product_duals, capped_duals=capped_duals,
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


def _complete_point(
    slmap: SingleLevelMap, mode: str,
    decision_slots: dict[str, float],
    lb: np.ndarray,
    ub: np.ndarray,
) -> np.ndarray | None:
    """Assemble a full single-level point from fixed upper-level values.

    With the upper level pinned, every follower is an ordinary LP; its
    optimal primal/dual pair satisfies the primal, dual and strong-duality
    rows by construction, so a full single-level point can be assembled
    exactly.  Each activation's blocks, both extrema's, are evaluated with
    one ``values`` call at the decision, and each block's certificate is
    built from its row.
    Returns None when a follower leaves the voltage band or fails to solve
    (the candidate would be rejected anyway).
    """
    ctx = slmap.ctx
    x = np.zeros(lb.shape[0])
    for name, vi in slmap.upper_vars.items():
        x[vi] = decision_slots[name]
    by_activation: dict[str, list[FollowerBlock]] = {}
    for block in slmap.blocks:
        by_activation.setdefault(block.scenario.activation, []).append(block)
    for activation, blocks in by_activation.items():
        mf = family_follower(ctx, mode, activation, decision_slots)
        scenarios = [b.scenario for b in blocks]
        vals = mf.values([sc.node for sc in scenarios], None, [sc.sigma for sc in scenarios])
        for i, block in enumerate(blocks):
            cert = mf.certificate(vals, i)
            if cert.status != OPTIMAL:
                return None
            vm = block.scenario.sigma * cert.objective
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
    ctx: FlexContext, mode: str,
    families: dict[tuple[str, str], list[int]],
    setpoints: dict[str, float],
    dp_box: tuple[float, float],
    tol_abs: float,
) -> dict[str, float] | None:
    """Largest feasible band edges for fixed setpoints, within ``dp_box``
    (Δp_lower, Δp_upper), for the target nodes ``families`` holds.

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
    for (activation, extremum), nodes in families.items():
        mf = family_follower(ctx, mode, activation, slots)
        try:
            edges = _edge_walk(mf, nodes, SIGMA[extremum], tol_abs).tolist()
        except BilevelError:
            return None
        if activation == POSITIVE:
            t_pos = min([t_pos, *edges])
        else:
            t_neg = max([t_neg, *edges])
    return {**setpoints, SLOT_DP_PLUS: max(t_pos, 0.0), SLOT_DP_MINUS: min(t_neg, 0.0)}


def _could_widen(
    ctx: FlexContext, mode: str,
    families: dict[tuple[str, str], list[int]],
    setpoints: dict[str, float],
    dp_box: tuple[float, float],
    floor: float,
) -> bool:
    """Whether ``_edge_limited_decision`` at ``setpoints`` could give a band
    wider than ``floor``, checked with one ``values`` call per family.

    A wider band needs Δp+ > floor + Δp_lower and Δp- < Δp_upper - floor.
    Each family is evaluated at the edge its activation would need; if one
    of its followers leaves the band there, the walk, whose extreme |v| is
    nondecreasing in |edge|, stops short of that edge, so the band it gives
    is no wider than ``floor``.  No walk goes past the far end of the box,
    so an edge at or beyond it rules the walk out unevaluated; one at or
    past zero rules nothing out.  False only where the walk cannot beat
    ``floor``.
    """
    dp_lo, dp_up = dp_box
    need = {POSITIVE: (floor + dp_lo, dp_up), NEGATIVE: (dp_up - floor, dp_lo)}  # (edge, far end)
    slots = {**setpoints, SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
    for (activation, extremum), nodes in families.items():
        edge, far = need[activation]
        if edge * far <= 0.0:
            continue
        if abs(edge) >= abs(far):
            return False
        mf = family_follower(ctx, mode, activation, slots)
        sigma = SIGMA[extremum]
        vals = mf.values(nodes, edge, sigma)
        if vals.optimal.all() and (vals.objective > _band_cap(mf.problem, sigma)).any():
            return False
    return True


def _check_node_limit(node_limit: int) -> None:
    if not isinstance(node_limit, (int, np.integer)) or node_limit < 0:
        raise ValueError(f"node_limit must be an integer >= 0, got {node_limit!r}")


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
    the whole solve, in ``nodes`` every relaxation it solved, in
    ``cold_resolves`` those solved again cold after a warm solve and in
    ``tightening_lps`` and ``boxes_shrunk`` its root bound tightening's LPs
    and shrunk boxes; ``nodes_by_search`` splits the nodes by search
    (POSITIVE, NEGATIVE, JOINT; 0 for a half its walk proved) and
    ``tightening_by_search`` the (LPs, boxes shrunk) pairs, and ``bound_by``
    names the bound that holds (SPLIT or JOINT).  ``bnb.x`` is the joint
    program's point, None when the halves settled the band without the
    joint program."""

    decision: UpperDecision
    objective: float
    bnb: BnBResult
    nodes_by_search: dict[str, int]
    tightening_by_search: dict[str, tuple[int, int]]
    bound_by: str
    escalations: int = 0  # always 0: the λ box is never widened (the benchmark still reads it)
    reused: tuple[str, ...] = ()  # the searches taken from the run's store, in order


@dataclass
class RunStore:
    """The searches and family walks of one run's single-level solves, kept
    for its later solves.  A search is keyed by its follower subset, seed
    setpoints, node budget, bound and ``epsilon``; a walk by its family,
    the family's target nodes and the setpoints.  Neither key holds the
    context, the mode or ``LAMBDA_CAP``, which a run does not change, so a
    store serves one run (``run_iterative``) and is dropped with it."""

    searches: dict[tuple, tuple[BnBResult, UpperDecision, bool]] = field(default_factory=dict)
    walks: dict[tuple, dict[str, float] | None] = field(default_factory=dict)


def solve_single_level(
    ctx: FlexContext,
    mode: str,
    followers: list[Scenario],
    *,
    epsilon: float = 1e-4,
    node_limit: int = 5000,
    split: bool = True,
    store: RunStore | None = None,
) -> SingleLevelResult:
    """Solve the ideal case for a follower subset by spatial branch-and-bound.

    The presolve walks every follower at the bang-bang setpoints.  When the
    followers hold both activations and none of these walks reaches the
    availability ceiling, the program is split: positive followers read only
    Δp+ and negative ones only Δp-, so each activation's followers form a
    half whose other edge sits at its box end, and each half gets its own
    search.  A half one of whose walks at the bang-bang setpoints reaches
    its edge's box end meets the span that bounds it: that walk proves it,
    at the walk's setpoints and with no search.  Giving each half its own
    copy of the setpoints is a relaxation, so U+ + U- - span bounds the
    band, U± being each half's bound.  Walking all followers at each half's
    final setpoints gives joint incumbents; when the best is within
    ``epsilon`` of that bound, it is the proven band.  Otherwise (and always
    with ``split=False``, with one activation or at the ceiling) the joint
    search over all followers runs, seeded with every walked point and
    started from the split bound.  ``node_limit`` caps the relaxations of
    the whole solve: the positive half's search draws first, the negative
    half's gets the rest, the joint search what is left.  A family's walk at
    a setpoint set is made once per run, over the presolve and every
    search's node hook, each step taking its activation's follower from
    ``family_follower``; a search is made once per run at its followers,
    seeds, budget and bound.  Both are kept in ``store``, which
    ``run_iterative`` passes to each of its solves; without one the solve
    keeps its own.  A search taken from the store returns the result it
    gave, nodes and all, so it draws from ``node_limit`` as when it ran
    (``reused`` names it).  ``split=False`` runs the joint search alone: it
    is the reference the tests hold the split solve to.

    The capped duals (constant-pf's pfq duals and every volt-var dual
    that meets a slot in a product) sit in a ±``LAMBDA_CAP`` box, a big-M
    that nothing certifies.  So when the band is below the availability
    ceiling and in some search either one of its incumbent's capped duals
    sits at the box or some completion's capped duals left it (the B&B
    rejects such a point), the box may have cut off a wider band: the
    status becomes ``DUAL_BOX``, never optimal.  The other boxes (fixed-q
    constant-q's, constant-pf's agg) are proven to hold a certificate at
    every decision, so they never make a band ``DUAL_BOX``.  Raises
    ``BilevelError`` when a search finds no incumbent, or when a
    completion leaves a proven box by more than the B&B tolerates.
    """
    _check_node_limit(node_limit)
    store = RunStore() if store is None else store
    boxes = setpoint_boxes(ctx, mode)
    dp_box = available_flexibility_bounds(ctx.devices)
    dp_span = dp_box[1] - dp_box[0]
    tol_abs = EDGE_TOL_REL * max(dp_span, 1e-12)
    families = _by_family(followers)
    reused: list[str] = []

    def walk(fams: dict, setpoints: dict[str, float]) -> dict[str, float] | None:
        """The widest safe band edges at ``setpoints`` for the families
        ``fams``; an edge none of them reads stays at its box end.  The
        relaxations keep landing on the same box vertices (often the
        presolve's, the other half's or an earlier iteration's), and a
        family's walk depends on its nodes and the setpoints alone: walk
        each family once at each set."""
        keys = {f: (f, tuple(families[f]), tuple(setpoints.values())) for f in fams}
        for family, key in keys.items():
            if key not in store.walks:
                store.walks[key] = _edge_limited_decision(
                    ctx, mode, {family: families[family]}, setpoints, dp_box, tol_abs
                )
        edges = [store.walks[key] for key in keys.values()]
        if None in edges:
            return None
        return {**setpoints, SLOT_DP_PLUS: min(e[SLOT_DP_PLUS] for e in edges),
                SLOT_DP_MINUS: max(e[SLOT_DP_MINUS] for e in edges)}

    def search(label: str, subset: list[Scenario], seeds: list[dict[str, float]], limit: int,
               bound: float | None = None) -> tuple[BnBResult, UpperDecision, bool]:
        """Branch and bound over the single level of ``subset``, seeded with
        the walks at ``seeds``; gives the result, its decision and whether
        the λ box binds.  Taken from the store when the run made it before."""
        made = (tuple(subset), tuple(tuple(sp.values()) for sp in seeds), limit, bound, epsilon)
        if made in store.searches:
            reused.append(label)
            return store.searches[made]
        bp, slmap = assemble_single_level(ctx, mode, subset)
        lb, ub = np.array(bp.base.lb), np.array(bp.base.ub)
        up, capped = slmap.upper_vars, slmap.capped_duals
        derived = np.setdiff1d(slmap.product_duals, capped)
        fams = _by_family(subset)
        points: dict[tuple[float, ...], np.ndarray | None] = {}
        left_box = False

        def walk_once(setpoints: dict[str, float]) -> np.ndarray | None:
            """A candidate incumbent: the walk at ``setpoints`` completed
            with every follower's optimal primal/dual pair."""
            nonlocal left_box
            key = tuple(setpoints.values())
            if key not in points:
                decision = walk(fams, setpoints)
                x = None if decision is None else _complete_point(slmap, mode, decision, lb, ub)
                if x is not None:
                    left_box |= bool(np.any(np.abs(x[capped]) > LAMBDA_CAP))
                    # A derived box holds every certificate, so no completion may
                    # leave it by more than the B&B accepts a point by.
                    excess = np.max(np.maximum(lb - x, x - ub)[derived], initial=0.0)
                    if excess > FEAS_TOL:
                        raise BilevelError(
                            f"a closed-form certificate leaves its derived dual box by {excess:.3g} "
                            f"at setpoints {setpoints}: the box's proof does not hold"
                        )
                points[key] = x
            return points[key]

        def hook(x_rel: np.ndarray, floor: float | None) -> np.ndarray | None:
            # Clamp the relaxation's setpoints into their boxes to kill LP roundoff.
            setpoints = {
                name: float(min(max(x_rel[up[name]], lb[up[name]]), ub[up[name]]))
                for name in slmap.setpoint_slots
            }
            if (floor is not None and tuple(setpoints.values()) not in points
                    and not _could_widen(ctx, mode, fams, setpoints, dp_box, floor)):
                return None  # no walk there can beat the floor
            return walk_once(setpoints)

        res = spatial_branch_and_bound(
            bp, epsilon=epsilon, node_limit=limit, incumbent_hook=hook,
            initial_points=[walk_once(sp) for sp in seeds], bound=bound,
            tighten=mode != MODE_CONSTANT_PF,
        )
        if res.x is None:
            raise BilevelError(
                f"single-level solve failed: no incumbent (branch-and-bound {res.status} "
                f"after {res.nodes} node(s)); either the upper-level setpoints force a "
                "follower out of the voltage band at zero deviation, or the dual boxes "
                "cut off every completion"
            )
        box = left_box or bool(np.any(np.abs(res.x[capped]) >= 0.999 * LAMBDA_CAP))
        store.searches[made] = res, _decision_from_x(slmap, res.x), box
        return store.searches[made]

    def at_ceiling(width: float) -> bool:
        return width >= dp_span - 1e-9 * (1.0 + dp_span)

    def totals(runs: dict[str, BnBResult]) -> dict[str, int]:
        """The counts of the searches ``runs``, summed for the whole solve."""
        return {count: sum(getattr(r, count) for r in runs.values())
                for count in ("nodes", "cold_resolves", "tightening_lps", "boxes_shrunk")}

    def result(res: BnBResult, decision: UpperDecision, box: bool,
               runs: dict[str, BnBResult], bound_by: str) -> SingleLevelResult:
        # The deviation boxes alone cap the objective, so no dual box can cut
        # off anything above an incumbent at the availability ceiling.
        if box and not at_ceiling(res.objective):
            res = replace(res, status=DUAL_BOX)
        labels = (POSITIVE, NEGATIVE, JOINT)
        return SingleLevelResult(
            decision=decision, objective=res.objective, bnb=res,
            nodes_by_search={k: runs[k].nodes if k in runs else 0 for k in labels},
            tightening_by_search={
                k: (runs[k].tightening_lps, runs[k].boxes_shrunk) if k in runs else (0, 0)
                for k in labels
            },
            bound_by=bound_by, reused=tuple(reused),
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
        res, decision, box = search(JOINT, followers, candidates, node_limit)
        return result(res, decision, box, {JOINT: res}, JOINT)

    budget, runs, finals, split_bound, box = node_limit, {}, [], -dp_span, False
    for activation, subset in halves.items():
        # A seed walk at the half's edge meets the span that bounds the half.
        seed = next((sp for sp in candidates if (d := walk(_by_family(subset), sp)) is not None
                     and at_ceiling(width(d))), None)
        if seed is not None:
            finals.append(seed)
            split_bound += dp_span
            continue
        res, decision, half_box = search(activation, subset, candidates, budget)
        budget -= res.nodes
        runs[activation] = res
        finals.append(decision.setpoints)
        # A half's objective is its own edge plus the other edge's whole box,
        # so the span caps it, also for a half stopped before its root.
        split_bound += min(res.bound, dp_span)
        box |= half_box
    best = max(presolve + [d for d in (walk(families, sp) for sp in finals) if d is not None],
               key=width)
    proven = split_bound <= width(best) + epsilon * (1.0 + abs(width(best)))
    if not proven and budget > 0:
        res, decision, joint_box = search(
            JOINT, followers, candidates + finals, budget, split_bound,
        )
        runs[JOINT] = res
        return result(replace(res, **totals(runs)), decision, box or joint_box, runs, JOINT)
    res = BnBResult(
        status=OPTIMAL if proven else NODE_LIMIT, x=None, objective=width(best),
        bound=max(split_bound, width(best)), gap=max(split_bound - width(best), 0.0),
        **totals(runs),
    )
    decision = UpperDecision(
        dp_plus=best[SLOT_DP_PLUS], dp_minus=best[SLOT_DP_MINUS],
        setpoints={name: best[name] for name in boxes},
    )
    return result(res, decision, box, runs, SPLIT)


# ---------------------------------------------------------------------------
# Step 3: feasibility re-screening
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    scenario: Scenario
    worst_vm: float
    amount: float  # p.u. beyond the band


def screened_families(ctx: FlexContext, mode: str, decision: UpperDecision, direction: str):
    """(scenarios, follower, values) per activation at the decision's slots:
    one ``values`` call solves every node's row of each screened extremum,
    extremum by extremum, row i being ``scenarios[i]``.  A decision that
    lacks a slot, or a row without an optimum, raises ``BilevelError``."""
    extrema = screened_extrema(direction)
    nodes = np.arange(len(extrema) * ctx.n) % ctx.n
    sigma = np.repeat([SIGMA[e] for e in extrema], ctx.n)
    for activation in ACTIVATIONS:
        mf = family_follower(ctx, mode, activation, decision.slots)
        vals = mf.values(nodes, None, sigma)
        scenarios = [Scenario(k, activation, e) for e in extrema for k in range(ctx.n)]
        if not vals.optimal.all():
            sc = scenarios[int(np.argmin(vals.optimal))]
            raise BilevelError(
                f"follower (node {sc.node}, {activation}/{sc.extremum}) "
                "has no optimum; followers are feasible by construction"
            )
        yield scenarios, mf, vals


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
    band edges and setpoints, each activation's n nodes of both extrema in
    one ``values`` call (``screened_families``), and reports scenarios
    whose extreme voltage leaves [v_min, v_max] by more than
    ``FEAS_TOL_PU``.  A constant-q decision without q_set slots is
    screened with free q_gen (``fixes_q``), the stronger adversary, as
    ``oracle.verify_decision`` checks it.  An infeasible follower is an
    assembly bug: at Δp = 0 every follower admits the zero-deviation point.
    """
    violations: list[Violation] = []
    worst: dict[tuple[int, str, str], float] = {}
    for scenarios, _, vals in screened_families(ctx, mode, decision, direction):
        for scenario, objective in zip(scenarios, vals.objective.tolist()):
            vm = scenario.sigma * objective
            worst[(scenario.node, scenario.activation, scenario.extremum)] = vm
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
    active_history: list[int]  # the active-set size each iteration solved with
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
    ±``LAMBDA_CAP`` dual box binds (``DUAL_BOX``: constant-pf's pfq duals
    and volt-var's only), is feasible but unproven.  A re-screening
    that finds only followers already active ends the loop early
    (``stalled``): solving again would give the same decision.  Each
    activation's follower (``family_follower``), q_gen held or free, serves
    both extrema: it is made once per context, re-slotted by the screening,
    every single-level solve and re-screening, and read by every assembly.
    The run's solves share one ``RunStore``, so an iteration searches and
    walks again only what its new followers change; the store goes with
    the run.
    """
    _check_node_limit(node_limit)
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
    active_history: list[int] = []
    store = RunStore()
    result: SingleLevelResult | None = None
    report: FeasibilityReport | None = None
    converged = stalled = False
    iterations = 0
    for iterations in range(1, cap + 1):
        active_history.append(len(active))
        result = solve_single_level(
            ctx, mode, active, epsilon=epsilon, node_limit=node_limit, store=store,
        )
        history.append(result.objective)
        report = feasibility_check(ctx, mode, result.decision, direction=direction)
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
        active_history=active_history,
        feasibility=report,
        single_level=result,
    )
