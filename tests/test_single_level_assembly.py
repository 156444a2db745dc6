"""The single-level program against its row-by-row reference assembly.

``reference_single_level`` assembles the program one ``add_var`` per column
and one ``add_row`` per row, with the dual-feasibility rows built from a
dict-of-lists column view.  It reads each follower row's entries from the
follower's triplets, so it checks how ``assemble_single_level`` lays out
and stacks the blocks as arrays, bit for bit: the layout decides which
degenerate vertex HiGHS returns, and so the B&B's node counts.  It boxes
each fixed-q constant-q dual that meets a slot, and each constant-pf agg
dual, by ``derived_dual_box``, written out from the bound's formula, not
read from the follower; the other duals that meet a slot at ±``LAMBDA_CAP``.
"""

import math

import numpy as np
import pytest

from randfeeders import random_context

from flexgrid.bilevel import (
    LAMBDA_CAP,
    VM_BOX,
    FollowerBlock,
    SingleLevelMap,
    assemble_single_level,
    setpoint_boxes,
)
from flexgrid.bnb import BilinearProgram
from flexgrid.feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR
from flexgrid.follower import (
    MAX_V,
    NEGATIVE,
    POSITIVE,
    SLOT_DP_MINUS,
    SLOT_DP_PLUS,
    Scenario,
    all_scenarios,
    available_flexibility_bounds,
    build_follower,
)
from flexgrid.lp import EQ, GE, LE, MAX, LinearProgram

MODES = (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)


def _param_rows(problem):
    """Each follower row as (name, relation, idx, val, rhs, coeff_slots,
    rhs_slots), its entries read from the triplets in order."""
    out = []
    for r, name in enumerate(problem.row_names):
        at = problem.a_row == r
        out.append((
            name, problem.relations[r], problem.a_col[at], problem.a_val[at], float(problem.rhs[r]),
            [(v, s, c) for row, v, s, c in problem.coeff_slots if row == r],
            [(s, c) for row, s, c in problem.rhs_slots if row == r],
        ))
    return out


def derived_dual_box(ctx, scenario, name, gamma_boxes):
    """The bound on |dual| of row ``name`` for ``scenario``'s target t:
    agg in constant-pf (``gamma_boxes`` holds each inverter node's γ box)
    or in fixed-q constant-q (``gamma_boxes`` None), or qfix[k].  The agg
    dual is at most μ̄ = max(0, every item gain), the gains being
    sign·σ·(s_p[t,k] + γ·s_q[t,k]) per inverter node k at both ends γ of
    its box (γ = 0 in constant-q) and sign·σ·s_l[t,l] per load node l.  The
    qfix[k] dual is at most |s_q[t,k]| + (|s_p[t,k]| + μ̄)/min(1, γ_k), with
    1 in place of min(1, γ_k) where the cone half-width γ_k is 0."""
    s_p, s_q, s_l, _ = ctx.sensitivities
    t = scenario.node
    sign = 1.0 if scenario.activation == POSITIVE else -1.0
    gains = [sign * scenario.sigma * float(g) for g in s_l[t]]
    for i, k in enumerate(ctx.devices.inverter_nodes):
        for gamma in gamma_boxes[k] if gamma_boxes else (0.0,):
            gains.append(sign * scenario.sigma * (float(s_p[t, i]) + gamma * float(s_q[t, i])))
    mu = max(0.0, *gains)
    if name == "agg":
        return mu
    assert name.startswith("qfix[")
    k = int(name[5:-1])
    i = list(ctx.devices.inverter_nodes).index(k)
    gamma = float(ctx.devices.gamma_const[k])
    return abs(float(s_q[t, i])) + (abs(float(s_p[t, i])) + mu) / (min(1.0, gamma) if gamma > 0.0 else 1.0)


def reference_single_level(ctx, mode, followers, fixed_setpoints=None):
    """``assemble_single_level`` one column and one row at a time."""
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    fixed_setpoints = fixed_setpoints or {}
    lp = LinearProgram(sense=MAX)
    bp = BilinearProgram(base=lp)
    upper_vars = {
        SLOT_DP_PLUS: lp.add_var("dp_plus", lb=0.0, ub=dp_up, obj=1.0),
        SLOT_DP_MINUS: lp.add_var("dp_minus", lb=dp_lo, ub=0.0, obj=-1.0),
    }
    sp_boxes = setpoint_boxes(ctx, mode)
    gamma_boxes = {}  # constant-pf: inverter node -> its γ box
    for name, (lo, hi) in sp_boxes.items():
        if name in fixed_setpoints:
            lo = hi = float(fixed_setpoints[name])
        upper_vars[name] = lp.add_var(name, lb=lo, ub=hi)
        if name.startswith("gamma["):
            gamma_boxes[int(name[6:-1])] = (lo, hi)

    blocks, product_duals, capped_duals = [], [], []
    for scenario in followers:
        problem = build_follower(ctx, scenario, mode, fix_q=mode == MODE_CONSTANT_Q)
        tag = f"s{scenario.number}k{scenario.node}"
        read = {scenario.node}
        if mode == MODE_VOLT_VAR:
            read.update(ctx.devices.inverter_nodes)
        unread = np.array([j for j in range(problem.n) if j not in read], dtype=np.int64)
        x_vars = np.setdiff1d(np.arange(problem.n_vars), problem.i_vm(unread))
        unread_rows = {f"vm[{j}]" for j in unread}
        rows = [(r, row) for r, row in enumerate(_param_rows(problem)) if row[0] not in unread_rows]

        lb, ub = problem.lb.copy(), problem.ub.copy()
        if mode == MODE_VOLT_VAR:
            vm = problem.i_vm(np.array(sorted(read)))
            lb[vm], ub[vm] = VM_BOX
        x_col = {int(v): lp.add_var(f"{tag}.x{v}", lb=lb[v], ub=ub[v]) for v in x_vars}
        dual_col = {}
        for r, (name, relation, _, _, _, coeff_slots, rhs_slots) in rows:
            has_product = bool(coeff_slots or rhs_slots)
            derived = mode == MODE_CONSTANT_Q or (mode == MODE_CONSTANT_PF and name == "agg")
            lim = LAMBDA_CAP if has_product else math.inf
            if has_product and derived:
                lim = derived_dual_box(ctx, scenario, name, gamma_boxes)
            lo, hi = {LE: (0.0, lim), GE: (-lim, 0.0), EQ: (-lim, lim)}[relation]
            d = dual_col[r] = lp.add_var(f"{tag}.lam[{name}]", lb=lo, ub=hi)
            if has_product:
                product_duals.append(d)
                if not derived:
                    capped_duals.append(d)
        zl, zu = {}, {}
        for v in x_col:
            if math.isfinite(problem.lb[v]):
                zl[v] = lp.add_var(f"{tag}.zl[{v}]", lb=0.0)
            if math.isfinite(problem.ub[v]):
                zu[v] = lp.add_var(f"{tag}.zu[{v}]", lb=0.0)

        col = np.full(problem.n_vars, -1, dtype=np.int64)
        col[x_vars] = list(x_col.values())
        for r, (name, relation, idx, val, rhs, coeff_slots, rhs_slots) in rows:
            idx, val = list(col[idx]), list(val)
            for slot, c in rhs_slots:
                idx.append(upper_vars[slot])
                val.append(-c)
            rid = lp.add_row((np.array(idx, dtype=np.int64), np.array(val)), relation, rhs,
                             name=f"{tag}.{name}")
            for var, slot, c in coeff_slots:
                bp.add_term(rid, c, upper_vars[slot], x_col[var])

        col_lin = {v: [] for v in x_col}
        col_slot = {v: [] for v in x_col}
        for r, (_, _, idx, val, _, coeff_slots, _) in rows:
            for j, a in zip(idx, val):
                col_lin[int(j)].append((dual_col[r], float(a)))
            for var, slot, c in coeff_slots:
                col_slot[var].append((dual_col[r], slot, c))
        c_obj = problem.objective
        for v in x_col:
            idx = [d for d, _ in col_lin[v]]
            val = [a for _, a in col_lin[v]]
            if v in zu:
                idx.append(zu[v])
                val.append(1.0)
            if v in zl:
                idx.append(zl[v])
                val.append(-1.0)
            rid = lp.add_row((np.array(idx, dtype=np.int64), np.array(val)), EQ, float(c_obj[v]),
                             name=f"{tag}.dual[{v}]")
            for d, slot, c in col_slot[v]:
                bp.add_term(rid, c, upper_vars[slot], d)

        sd_idx, sd_val = [], []
        for v in np.nonzero(c_obj)[0]:
            sd_idx.append(x_col[int(v)])
            sd_val.append(float(c_obj[v]))
        for r, (_, _, _, _, rhs, _, _) in rows:
            if rhs != 0.0:
                sd_idx.append(dual_col[r])
                sd_val.append(-rhs)
        for v, zi in zu.items():
            if problem.ub[v] != 0.0:
                sd_idx.append(zi)
                sd_val.append(-problem.ub[v])
        for v, zi in zl.items():
            if problem.lb[v] != 0.0:
                sd_idx.append(zi)
                sd_val.append(problem.lb[v])
        rid = lp.add_row((np.array(sd_idx, dtype=np.int64), np.array(sd_val)), GE, 0.0,
                         name=f"{tag}.strong_duality")
        for r, (_, _, _, _, _, _, rhs_slots) in rows:
            for slot, c in rhs_slots:
                bp.add_term(rid, -c, upper_vars[slot], dual_col[r])

        vm_var = x_col[problem.i_vm(scenario.node)]
        lp.add_row({vm_var: 1.0}, LE, ctx.v_max, name=f"{tag}.band_hi")
        lp.add_row({vm_var: 1.0}, GE, ctx.v_min, name=f"{tag}.band_lo")

        keys = lambda d: np.array(list(d), dtype=np.int64)
        values = lambda d: np.array(list(d.values()), dtype=np.int64)
        blocks.append(FollowerBlock(
            scenario=scenario, problem=problem, x_vars=keys(x_col), x_cols=values(x_col),
            rows=keys(dual_col), dual_cols=values(dual_col), zl_vars=keys(zl), zl_cols=values(zl),
            zu_vars=keys(zu), zu_cols=values(zu),
        ))

    slmap = SingleLevelMap(
        ctx=ctx, upper_vars=upper_vars, setpoint_slots=list(sp_boxes),
        blocks=blocks, product_duals=product_duals, capped_duals=capped_duals,
    )
    return bp, slmap


def _upper_ends(ctx, mode):
    return {name: hi for name, (_, hi) in setpoint_boxes(ctx, mode).items()}


# The final active set of the binding 13-bus study (constant-pf, overvoltage,
# v_max 0.5 mV above the anchor, B&B node cap 2).
IEEE13_BINDING_FOLLOWERS = [Scenario(1, POSITIVE, MAX_V)] + [
    Scenario(k, NEGATIVE, MAX_V) for k in (1, 31, 22, 34, 28, 25, 19, 16)
]


def _cases():
    everyone = lambda ctx: all_scenarios(ctx.n)
    cases = []
    for mode in MODES:
        cases.append(pytest.param("pv_tight_ctx", mode, everyone, None, id=f"pv-{mode}"))
        cases.append(pytest.param("pv_tight_ctx", mode, everyone, _upper_ends, id=f"pv-{mode}-fixed"))
        cases.append(pytest.param(
            "ieee13_binding_ctx", mode, lambda ctx: IEEE13_BINDING_FOLLOWERS, None,
            id=f"ieee13-binding-{mode}",
        ))
    cases.append(pytest.param("gen7202_volt_var_ctx", MODE_VOLT_VAR, everyone, None,
                              id="gen7202-z2-volt-var"))
    cases.append(pytest.param("gen7200_constant_pf_ctx", MODE_CONSTANT_PF, everyone, None,
                              id="gen7200-z2-constant-pf"))
    return cases


@pytest.fixture(scope="module")
def gen7202_volt_var_ctx():
    """The volt-var feeder of the binding-small benchmark workload."""
    return random_context(np.random.default_rng(7202), mode=MODE_VOLT_VAR, z_scale=2.0)


@pytest.fixture(scope="module")
def gen7200_constant_pf_ctx():
    """A constant-pf feeder of the binding-small benchmark workload, where
    some targets' agg bound comes from the lower end of a γ box."""
    return random_context(np.random.default_rng(7200), mode=MODE_CONSTANT_PF, z_scale=2.0)


@pytest.mark.parametrize("ctx_name, mode, followers, fixed", _cases())
def test_assembly_matches_the_row_by_row_reference(
    request, pin_setpoints, ctx_name, mode, followers, fixed,
):
    ctx = request.getfixturevalue(ctx_name)
    followers = followers(ctx)
    fixed = fixed(ctx, mode) if fixed else None
    if fixed:
        pin_setpoints(fixed)
    bp, slmap = assemble_single_level(ctx, mode, followers)
    ref_bp, ref_map = reference_single_level(ctx, mode, followers, fixed)

    got, want = bp.base.materialize(), ref_bp.base.materialize()
    assert got.sense == want.sense
    for name in ("c", "row_lb", "row_ub", "lb", "ub"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.A, name), getattr(want.A, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert bp.terms == ref_bp.terms
    assert bp.base.var_names == ref_bp.base.var_names
    assert bp.base.row_names == ref_bp.base.row_names
    assert slmap.product_duals == ref_map.product_duals
    assert slmap.capped_duals == ref_map.capped_duals
    assert slmap.upper_vars == ref_map.upper_vars
    assert slmap.setpoint_slots == ref_map.setpoint_slots
    assert len(slmap.blocks) == len(ref_map.blocks)
    for block, ref in zip(slmap.blocks, ref_map.blocks):
        assert block.scenario == ref.scenario
        for name in ("x_vars", "x_cols", "rows", "dual_cols", "zl_vars", "zl_cols", "zu_vars", "zu_cols"):
            assert np.array_equal(getattr(block, name), getattr(ref, name)), name
    # Not vacuous: every case's program carries products.
    assert bp.terms and slmap.product_duals


@pytest.mark.parametrize("ctx_name, mode, followers, fixed", _cases())
def test_every_product_is_an_upper_slot_times_a_follower_column_in_a_row(
    request, pin_setpoints, ctx_name, mode, followers, fixed,
):
    """The products the B&B relaxes are all of one kind: each sits on a row
    of the base program and multiplies an upper-level slot (first) with a
    follower-side column, never a square."""
    ctx = request.getfixturevalue(ctx_name)
    if fixed:
        pin_setpoints(fixed(ctx, mode))
    bp, slmap = assemble_single_level(ctx, mode, followers(ctx))
    upper = set(slmap.upper_vars.values())
    assert bp.terms
    for t in bp.terms:
        assert 0 <= t.row < bp.base.n_rows
        assert t.var_i in upper and t.var_j not in upper
