"""Worst-case screening, single-level ideal case, and the iterative driver."""

import numpy as np
import pytest

from randfeeders import random_context

from flexgrid import bilevel, build_context, load_feeder
from flexgrid.bilevel import (
    DUAL_BOX,
    JOINT,
    SPLIT,
    BilevelError,
    UpperDecision,
    assemble_single_level,
    check_anchor,
    feasibility_check,
    neutral_setpoints,
    run_iterative,
    setpoint_boxes,
    solve_single_level,
    worst_case_limits,
)
from flexgrid.feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR
from flexgrid.follower import (
    MAX_V,
    MIN_V,
    NEGATIVE,
    POSITIVE,
    SLOT_DP_MINUS,
    SLOT_DP_PLUS,
    Scenario,
    all_scenarios,
    available_flexibility_bounds,
    build_follower,
    fix_worst_case_setpoints,
    slot_gamma,
    slot_qbar,
    slot_qset,
)
from flexgrid.lp import GE, LE, OPTIMAL, DualCertificate, verify_strong_duality

MODES = (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)


def test_check_anchor_rejects_out_of_band_operation(pv_model):
    vm = build_context(pv_model).anchor.vm
    ctx = build_context(pv_model, v_min=float(np.max(vm)) + 0.01, v_max=1.5)
    with pytest.raises(BilevelError, match="anchor voltage"):
        check_anchor(ctx)
    with pytest.raises(BilevelError, match="anchor voltage"):
        worst_case_limits(ctx, MODE_CONSTANT_PF)


def test_slack_only_feeder_has_no_flexibility_problem():
    doc = {
        "base_kva": 100.0, "base_kv": 2.4, "slack": "s",
        "buses": [{"id": "s", "phases": "abc"}],
        "segments": [], "loads": [], "inverters": [],
    }
    ctx = build_context(load_feeder(doc))
    with pytest.raises(BilevelError, match="no non-slack nodes"):
        run_iterative(ctx, MODE_CONSTANT_PF)


def test_setpoint_boxes_per_mode(pv_ctx):
    dev = pv_ctx.devices
    pf = setpoint_boxes(pv_ctx, MODE_CONSTANT_PF)
    vv = setpoint_boxes(pv_ctx, MODE_VOLT_VAR)
    cq = setpoint_boxes(pv_ctx, MODE_CONSTANT_Q)
    for k in dev.inverter_nodes:
        cap = dev.gamma_cap[k]
        assert pf[slot_gamma(k)] == (pytest.approx(-cap), pytest.approx(cap))
        assert vv[slot_qbar(k)] == (0.0, pytest.approx(dev.s_cap[k]))
        hold = dev.gamma_const[k] * min(dev.p_gen_max[k], dev.s_cap[k])
        assert cq[slot_qset(k)] == (pytest.approx(-hold), pytest.approx(hold))
    assert len(pf) == len(dev.inverter_nodes)
    with pytest.raises(ValueError, match="unknown mode"):
        setpoint_boxes(pv_ctx, "manual")
    assert neutral_setpoints(pv_ctx, MODE_VOLT_VAR) == {
        name: 0.0 for name in vv
    }


def test_upper_decision_slot_view():
    dec = UpperDecision(
        dp_plus=0.4, dp_minus=-0.2,
        setpoints={"gamma[2]": 0.1},
    )
    assert dec.slots == {"gamma[2]": 0.1, SLOT_DP_PLUS: 0.4, SLOT_DP_MINUS: -0.2}


# --- worst-case screening --------------------------------------------------


def test_worst_case_limits_structure(pv_tight_ctx):
    wc = worst_case_limits(pv_tight_ctx, MODE_CONSTANT_PF)
    n = pv_tight_ctx.n
    assert wc.upper.shape == (n,) and wc.lower.shape == (n,)
    assert np.all(wc.upper >= 0.0) and np.all(wc.lower <= 0.0)
    dp_lo, dp_up = wc.dp_box
    assert np.all(wc.upper <= dp_up + 1e-12)
    assert np.all(wc.lower >= dp_lo - 1e-12)
    assert wc.range_upper == pytest.approx(float(np.min(wc.upper)))
    assert wc.range_lower == pytest.approx(float(np.max(wc.lower)))
    k, fam = wc.binding_upper
    assert wc.upper[k] == wc.range_upper and fam in (MIN_V, MAX_V)

    over = worst_case_limits(pv_tight_ctx, MODE_CONSTANT_PF, direction="overvoltage")
    assert all(f == MAX_V for f in over.upper_family + over.lower_family)
    # screening fewer families can only loosen the per-node limits
    assert np.all(over.upper >= wc.upper - 1e-9)
    assert np.all(over.lower <= wc.lower + 1e-9)

    with pytest.raises(ValueError, match="direction"):
        worst_case_limits(pv_tight_ctx, MODE_CONSTANT_PF, direction="up")


def test_bisection_agrees_with_grid_threshold(pv_tight_ctx):
    """Independent check of one screening limit by brute-force thresholding."""
    ctx = pv_tight_ctx
    wc = worst_case_limits(ctx, MODE_CONSTANT_PF, direction="overvoltage")
    k, fam = wc.binding_upper
    assert fam == MAX_V

    sc = Scenario(node=k, activation=POSITIVE, extremum=MAX_V)
    problem = build_follower(ctx, sc, MODE_CONSTANT_PF)
    slots = fix_worst_case_setpoints(ctx, MODE_CONSTANT_PF, MAX_V)
    slots[SLOT_DP_PLUS] = 0.0
    mf = problem.materialize(slots)
    _, dp_up = wc.dp_box
    grid = np.linspace(0.0, dp_up, 81)
    feas = [
        problem.worst_voltage(mf.solve(dp_bound=float(t))) <= ctx.v_max + 1e-9
        for t in grid
    ]
    last_ok = grid[max(i for i, f in enumerate(feas) if f)]
    assert feas[0], "zero band must always be safe"
    assert abs(wc.upper[k] - last_ok) <= (grid[1] - grid[0]) + 1e-6 * dp_up


def test_wider_band_never_shrinks_the_limits(pv_model):
    vm = build_context(pv_model).anchor.vm
    lo, hi = float(np.min(vm)), float(np.max(vm))
    tight = build_context(pv_model, v_min=lo - 0.008, v_max=hi + 0.003)
    wide = build_context(pv_model, v_min=lo - 0.016, v_max=hi + 0.006)
    for mode in MODES:
        wt = worst_case_limits(tight, mode)
        ww = worst_case_limits(wide, mode)
        assert ww.range_upper >= wt.range_upper - 1e-9
        assert ww.range_lower <= wt.range_lower + 1e-9


# --- single-level ideal case ----------------------------------------------


def test_assemble_rejects_bad_inputs(pv_tight_ctx, pin_setpoints):
    with pytest.raises(ValueError, match="at least one follower"):
        assemble_single_level(pv_tight_ctx, MODE_CONSTANT_PF, [])
    sc = [Scenario(0, POSITIVE, MAX_V)]
    cap = pv_tight_ctx.devices.gamma_cap[pv_tight_ctx.devices.inverter_nodes[0]]
    pin_setpoints({slot_gamma(pv_tight_ctx.devices.inverter_nodes[0]): cap + 1.0})
    with pytest.raises(ValueError, match="outside its box"):
        assemble_single_level(pv_tight_ctx, MODE_CONSTANT_PF, sc)


def test_single_level_structure(pv_tight_ctx):
    followers = [Scenario(4, POSITIVE, MAX_V), Scenario(0, POSITIVE, MIN_V)]
    bp, slmap = assemble_single_level(pv_tight_ctx, MODE_CONSTANT_PF, followers)
    lp = bp.base
    assert lp.var_names[lp.n_vars - 1].startswith("s")  # follower blocks exist
    assert lp.obj[slmap.upper_vars[SLOT_DP_PLUS]] == 1.0
    assert lp.obj[slmap.upper_vars[SLOT_DP_MINUS]] == -1.0
    assert len(slmap.blocks) == 2
    # every registered product touches an upper-level slot variable
    slot_vars = set(slmap.upper_vars.values())
    for t in bp.terms:
        assert t.var_i in slot_vars or t.var_j in slot_vars
    # only duals of slot-bearing rows get the lambda box
    for d in slmap.product_duals:
        assert np.isfinite(lp.lb[d]) or np.isfinite(lp.ub[d])


def test_single_level_matches_bisection_at_fixed_setpoints(pv_tight_ctx, pin_setpoints):
    """Dual route to the same number: strong-duality B&B vs direct bisection."""
    ctx = pv_tight_ctx
    for mode, extremum in ((MODE_CONSTANT_PF, MAX_V), (MODE_VOLT_VAR, MAX_V)):
        direction = "overvoltage" if extremum == MAX_V else "undervoltage"
        wc = worst_case_limits(ctx, mode, direction=direction)
        k, _ = wc.binding_upper
        adv = fix_worst_case_setpoints(ctx, mode, extremum)
        pin_setpoints(adv)
        res = solve_single_level(ctx, mode, [Scenario(k, POSITIVE, extremum)], epsilon=1e-5)
        dp_lo, dp_up = wc.dp_box
        span = dp_up - dp_lo
        assert res.decision.dp_plus == pytest.approx(wc.upper[k], abs=2e-3 * span)
        # no negative follower in sight: the lower edge runs to availability
        assert res.decision.dp_minus == pytest.approx(dp_lo, abs=2e-3 * span)
        for name, v in res.decision.setpoints.items():
            assert v == pytest.approx(adv[name], abs=1e-9)


def test_single_level_solution_is_clean(pv_tight_ctx):
    res = solve_single_level(
        pv_tight_ctx, MODE_CONSTANT_PF, [Scenario(4, POSITIVE, MAX_V)]
    )
    assert res.bnb.status == "optimal"
    assert res.objective == pytest.approx(
        res.decision.dp_plus - res.decision.dp_minus, abs=1e-9
    )
    boxes = setpoint_boxes(pv_tight_ctx, MODE_CONSTANT_PF)
    for name, v in res.decision.setpoints.items():
        lo, hi = boxes[name]
        assert lo - 1e-9 <= v <= hi + 1e-9
    assert res.decision.dp_plus >= -1e-12
    assert res.decision.dp_minus <= 1e-12
    assert res.escalations == 0


def _lift_block(block, x):
    """A single-level block lifted into its follower's full LP: the dropped
    |v_j| rebuilt from the sensitivities, the dropped rows' duals 0."""
    p = block.problem
    xf = np.zeros(p.n_vars)
    xf[block.x_vars] = x[block.x_cols]
    dpg, dpl, qg = xf[p.i_dpg(p.inv)], xf[p.i_dpl(p.loads)], xf[p.i_qg(p.inv)]
    vm = p.m0 + p.s_p @ dpg - p.s_l @ dpl + p.s_q @ qg
    dropped = np.array([j for j in range(p.n) if p.i_vm(j) not in block.x_vars], dtype=np.int64)
    xf[p.i_vm(dropped)] = vm[dropped]
    row_duals = np.zeros(p.n_rows)
    row_duals[block.rows] = x[block.dual_cols]
    lower, upper = np.zeros(p.n_vars), np.zeros(p.n_vars)
    lower[block.zl_vars] = -x[block.zl_cols]
    upper[block.zu_vars] = x[block.zu_cols]
    return DualCertificate(
        status=OPTIMAL, objective=float(p.objective @ xf), x=xf,
        row_duals=row_duals, lower_duals=lower, upper_duals=upper,
    )


def _lift_cases():
    fixed_hi = lambda ctx, mode: {n: hi for n, (_, hi) in setpoint_boxes(ctx, mode).items()}
    pv_all = lambda ctx: all_scenarios(ctx.n)
    ieee13 = lambda ctx: [
        Scenario(1, POSITIVE, MAX_V), Scenario(1, NEGATIVE, MAX_V),
        Scenario(6, POSITIVE, MAX_V), Scenario(35, NEGATIVE, MAX_V),
    ]
    return [
        pytest.param("pv_tight_ctx", MODE_CONSTANT_PF, pv_all, fixed_hi, id="pv-constant-pf"),
        pytest.param("pv_tight_ctx", MODE_CONSTANT_Q, pv_all, fixed_hi, id="pv-constant-q"),
        pytest.param("pv_tight_ctx", MODE_VOLT_VAR, pv_all, None, id="pv-volt-var"),
        pytest.param("ieee13_binding_ctx", MODE_CONSTANT_PF, ieee13, None, id="ieee13-constant-pf"),
    ]


@pytest.mark.parametrize("ctx_name, mode, followers, fixed", _lift_cases())
def test_reduced_blocks_lift_to_certified_follower_optima(
    request, pin_setpoints, ctx_name, mode, followers, fixed
):
    """Each block keeps the vm rows of the |v| the single level reads: the
    target's, and in volt-var every inverter node's.  Lifted into the
    follower's own LP (``to_lp``, which the assembly does not use), each
    block of the joint search's incumbent is primal feasible, dual feasible
    and passes the strong-duality check: dropping the rest was exact."""
    ctx = request.getfixturevalue(ctx_name)
    followers = followers(ctx)
    if fixed:
        pin_setpoints(fixed(ctx, mode))
    res = solve_single_level(ctx, mode, followers, node_limit=5, split=False)
    _, slmap = assemble_single_level(ctx, mode, followers)
    inverters = set(ctx.devices.inverter_nodes)
    slots = res.decision.slots
    binding = False
    for block in slmap.blocks:
        p, node = block.problem, block.scenario.node
        vm_rows = [p.row_names[r] for r in block.rows if p.row_names[r].startswith("vm[")]
        want = {node} | (inverters if mode == MODE_VOLT_VAR else set())
        assert sorted(vm_rows) == sorted(f"vm[{k}]" for k in want)

        lp = p.to_lp({s: slots[s] for s in p.slot_names})
        cert = _lift_block(block, res.bnb.x)
        x = cert.x
        A = np.array([lp.row_dense(r) for r in range(lp.n_rows)])
        ax, rhs = A @ x, np.array(lp.rhs)
        for r, rel in enumerate(lp.relations):
            if rel != GE:
                assert ax[r] <= rhs[r] + 1e-6, lp.row_names[r]
            if rel != LE:
                assert ax[r] >= rhs[r] - 1e-6, lp.row_names[r]
        assert np.all(x >= np.array(lp.lb) - 1e-9) and np.all(x <= np.array(lp.ub) + 1e-9)
        resid = np.array(lp.obj) - A.T @ cert.row_duals - cert.lower_duals - cert.upper_duals
        assert np.max(np.abs(resid)) <= 1e-6
        rep = verify_strong_duality(lp, cert)
        assert rep.ok, (block.scenario, rep.gap, rep.max_slackness)
        limit = ctx.v_max if block.scenario.sigma > 0 else ctx.v_min
        binding |= abs(x[p.i_vm(node)] - limit) < 1e-6
    # Not vacuous where the band binds: some follower sits at its voltage limit.
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    assert binding or res.objective >= dp_up - dp_lo - 1e-9


@pytest.mark.parametrize("mode", [MODE_CONSTANT_PF, MODE_VOLT_VAR])
def test_dual_box_escalation_reaches_the_same_band(pv_tight_ctx, mode, monkeypatch):
    """No escalation is needed to reach the same band: a λ box as small as
    the one a doubling from 0.01 used to end at gives the default box's band
    in one pass, and a box too tight is an error, never silently widened."""
    followers = [Scenario(4, POSITIVE, MAX_V)]
    ref = solve_single_level(pv_tight_ctx, mode, followers)
    assembled = []
    assemble = bilevel.assemble_single_level
    monkeypatch.setattr(bilevel, "assemble_single_level",
                        lambda *a, **kw: assembled.append(1) or assemble(*a, **kw))
    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.04)
    res = solve_single_level(pv_tight_ctx, mode, followers)
    assert len(assembled) == 1
    assert res.escalations == 0
    assert res.bnb.status == "optimal"
    assert res.decision.dp_plus == pytest.approx(ref.decision.dp_plus, abs=1e-9)
    assert res.decision.dp_minus == pytest.approx(ref.decision.dp_minus, abs=1e-9)
    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.01)
    with pytest.raises(BilevelError, match="no incumbent"):
        solve_single_level(pv_tight_ctx, mode, followers)
    assert len(assembled) == 2


def test_a_binding_dual_box_leaves_the_band_unproven(pv_tight_ctx, monkeypatch):
    """A λ box that cuts off the optimum gives a feasible band marked
    ``dual_box``, not converged, from one assembly per single-level solve."""
    full = run_iterative(pv_tight_ctx, MODE_CONSTANT_Q)
    assert full.converged

    calls = {"assemble": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bilevel, "assemble_single_level",
                        counted("assemble", bilevel.assemble_single_level))
    monkeypatch.setattr(bilevel, "solve_single_level",
                        counted("solve", bilevel.solve_single_level))
    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.01)
    res = run_iterative(pv_tight_ctx, MODE_CONSTANT_Q)
    assert res.single_level.bnb.status == DUAL_BOX
    assert res.converged is False
    assert res.single_level.escalations == 0
    assert calls["assemble"] == calls["solve"] == res.iterations
    assert feasibility_check(pv_tight_ctx, MODE_CONSTANT_Q, res.decision).ok
    # The box really cut: the band is narrower than the one a wide box proves.
    assert res.dp_plus - res.dp_minus < full.dp_plus - full.dp_minus - 0.1


def test_a_dual_box_cannot_cut_below_an_incumbent_at_the_ceiling(pv_tight_ctx, monkeypatch):
    """Completions leave this box, but the incumbent already offers the whole
    availability band, which no dual box can cut: the proof stands."""
    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.006)
    res = run_iterative(pv_tight_ctx, MODE_VOLT_VAR)
    assert res.single_level.bnb.status == "optimal" and res.converged
    dp_lo, dp_up = res.worst_case.dp_box
    assert res.dp_plus - res.dp_minus == pytest.approx(dp_up - dp_lo)


def test_a_dual_box_that_cuts_off_every_completion_is_an_error(monkeypatch):
    """No incumbent under the box is a solver failure, not a narrower band."""
    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.02)
    with pytest.raises(BilevelError, match="no incumbent"):
        run_iterative(random_context(np.random.default_rng(7200)), MODE_CONSTANT_PF)


# --- feasibility check and the driver -------------------------------------


def test_feasibility_check_flags_an_oversized_band(pv_tight_ctx):
    ctx = pv_tight_ctx
    dp_lo, dp_up = worst_case_limits(ctx, MODE_CONSTANT_PF).dp_box
    # full availability with full-boost setpoints: load pickup on one phase
    # raises a coupled phase past the ceiling (the screening caps Δp- at -0.24)
    reckless = UpperDecision(
        dp_plus=dp_up, dp_minus=dp_lo,
        setpoints=fix_worst_case_setpoints(ctx, MODE_CONSTANT_PF, MAX_V),
    )
    report = feasibility_check(ctx, MODE_CONSTANT_PF, reckless)
    assert len(report.worst_vm) == 4 * ctx.n
    assert not report.ok and report.violations
    amounts = [v.amount for v in report.violations]
    assert amounts == sorted(amounts, reverse=True)
    for v in report.violations:
        vm = report.worst_vm[(v.scenario.node, v.scenario.activation, v.scenario.extremum)]
        assert v.worst_vm == vm
        assert v.amount == pytest.approx(max(vm - ctx.v_max, ctx.v_min - vm))

    timid = UpperDecision(
        dp_plus=0.0, dp_minus=0.0,
        setpoints=neutral_setpoints(ctx, MODE_CONSTANT_PF),
    )
    assert feasibility_check(ctx, MODE_CONSTANT_PF, timid).ok

    with pytest.raises(BilevelError, match="lacks slots"):
        feasibility_check(
            ctx, MODE_CONSTANT_PF,
            UpperDecision(0.0, 0.0, {}),
        )


@pytest.mark.parametrize("mode", MODES)
def test_iterative_driver_contains_the_worst_case(pv_tight_ctx, mode):
    res = run_iterative(pv_tight_ctx, mode)
    assert res.converged and res.feasibility.ok
    wc = res.worst_case
    tol = 1e-6 * (1.0 + wc.dp_box[1] - wc.dp_box[0])
    # the coordinated (ideal) band contains the uncoordinated (worst) one
    assert res.dp_plus >= wc.range_upper - tol
    assert res.dp_minus <= wc.range_lower + tol
    assert res.dp_plus >= -1e-12 and res.dp_minus <= 1e-12
    hist = res.objective_history
    assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
    assert res.iterations == len(hist)
    assert len(res.followers) >= 2
    # the accepted decision really is feasible when re-screened from scratch
    assert feasibility_check(pv_tight_ctx, mode, res.decision).ok


def test_node_limit_leaves_a_feasible_band_unconverged():
    """A band the B&B did not prove optimal is feasible, not converged."""
    res = run_iterative(random_context(np.random.default_rng(7200)), MODE_CONSTANT_PF, node_limit=1)
    assert res.single_level.bnb.status == "node_limit"
    assert res.single_level.bnb.gap > 1e-3
    assert res.feasibility.ok
    assert not res.converged


def test_the_active_set_grows_by_the_rescreen_violators(ieee13_model, monkeypatch):
    """13-bus constant-pf with v_max 0.5 mV above the anchor: the first band
    fails its re-screen, the violators not yet active join the two seeds,
    and the second band passes (unproven at the node cap of 2)."""
    anchor = build_context(ieee13_model).anchor
    ctx = build_context(ieee13_model, v_min=0.9, v_max=float(anchor.vm.max()) + 0.0005)
    reports = []
    real = bilevel.feasibility_check

    def recording(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(bilevel, "feasibility_check", recording)
    res = run_iterative(ctx, MODE_CONSTANT_PF, direction="overvoltage", node_limit=2)
    assert res.iterations == len(reports) == 2
    assert res.objective_history == pytest.approx([2.73973, 2.27571], abs=1e-5)
    assert res.feasibility.ok and not res.converged and not res.stalled
    assert res.single_level.bnb.status == "node_limit"

    (k_up, fam_up), (k_lo, fam_lo) = res.worst_case.binding_upper, res.worst_case.binding_lower
    seeds = [Scenario(k_up, POSITIVE, fam_up), Scenario(k_lo, NEGATIVE, fam_lo)]
    added = [v.scenario for v in reports[0].violations if v.scenario not in seeds]
    assert not reports[0].ok and added
    assert res.followers == seeds + added
    assert len(res.followers) == 9


def test_direction_filter_restricts_the_follower_pool(pv_tight_ctx):
    res = run_iterative(pv_tight_ctx, MODE_CONSTANT_PF, direction="overvoltage")
    assert res.direction == "overvoltage"
    assert all(s.extremum == MAX_V for s in res.followers)
    assert res.converged


def _completed_from_own_solves(slmap, families, decision, lb, ub):
    """The single-level point at ``decision``, one block at a time from the
    block's own ``solve`` at the decision's edge, entry by entry (None where
    a follower fails or leaves the band)."""
    ctx = slmap.ctx
    x = np.zeros(lb.size)
    for name, vi in slmap.upper_vars.items():
        x[vi] = decision[name]
    for block in slmap.blocks:
        sc = block.scenario
        mf = families[(sc.activation, sc.extremum)]
        mf.set_slots(decision)
        cert = mf.solve(node=sc.node, dp_bound=decision[sc.dp_slot])
        vm = block.problem.worst_voltage(cert) if cert.status == OPTIMAL else np.nan
        if not ctx.v_min - 1e-9 <= vm <= ctx.v_max + 1e-9:
            return None
        for v, col in zip(block.x_vars.tolist(), block.x_cols.tolist()):
            x[col] = min(max(cert.x[v], lb[col]), ub[col])
        for r, col in zip(block.rows.tolist(), block.dual_cols.tolist()):
            x[col] = cert.row_duals[r]
        for v, col in zip(block.zl_vars.tolist(), block.zl_cols.tolist()):
            x[col] = max(-cert.lower_duals[v], 0.0)
        for v, col in zip(block.zu_vars.tolist(), block.zu_cols.tolist()):
            x[col] = max(cert.upper_duals[v], 0.0)
    return x


@pytest.mark.parametrize("mode", MODES)
def test_completion_evaluates_each_family_once(pv_tight_ctx, mode, monkeypatch):
    """At the walked decisions of random setpoints, on feeders whose walks
    stop inside the availability box, the completion makes one ``values``
    call per family and no ``solve`` call beyond the fallback rows, and its
    point is, bit for bit, the one assembled from each block's own solve at
    the decision's edge."""
    from flexgrid.bilevel import (
        EDGE_TOL_REL,
        _complete_point,
        _edge_limited_decision,
        _family_followers,
    )
    from flexgrid.follower import MaterializedFollower

    calls = {"values": 0, "solve": 0, "fallback": 0}
    values, solve = MaterializedFollower.values, MaterializedFollower.solve

    def count_values(self, nodes, edges=None):
        calls["values"] += 1
        vals = values(self, nodes, edges)
        calls["fallback"] += len(vals.fallback)
        return vals

    def count_solve(self, **kwargs):
        calls["solve"] += 1
        return solve(self, **kwargs)

    rng = np.random.default_rng(17)
    contexts = [pv_tight_ctx] + [
        random_context(np.random.default_rng(seed), mode=mode, z_scale=2.0)
        for seed in (7200, 7201, 7202)
    ]
    completed = inside = 0
    for ctx in contexts:
        followers = all_scenarios(ctx.n)
        bp, slmap = assemble_single_level(ctx, mode, followers)
        lb, ub = np.array(bp.base.lb), np.array(bp.base.ub)
        up = slmap.upper_vars
        dp_box = (lb[up[SLOT_DP_MINUS]], ub[up[SLOT_DP_PLUS]])
        families = _family_followers(ctx, mode, followers, {n: float(lb[vi]) for n, vi in up.items()})
        boxes = setpoint_boxes(ctx, mode)
        for _ in range(10):
            setpoints = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in boxes.items()}
            decision = _edge_limited_decision(
                families, followers, setpoints, dp_box, EDGE_TOL_REL * (dp_box[1] - dp_box[0])
            )
            if decision is None:
                continue
            inside += (decision[SLOT_DP_PLUS] < dp_box[1]) + (decision[SLOT_DP_MINUS] > dp_box[0])
            calls.update(values=0, solve=0, fallback=0)
            with monkeypatch.context() as m:
                m.setattr(MaterializedFollower, "values", count_values)
                m.setattr(MaterializedFollower, "solve", count_solve)
                x = _complete_point(slmap, families, decision, lb, ub)
            assert calls["values"] == len(families)
            assert calls["solve"] == calls["fallback"]
            want = _completed_from_own_solves(slmap, families, decision, lb, ub)
            assert x is not None and want is not None
            assert np.array_equal(x, want)
            completed += 1
    assert completed > 0 and inside > 0


@pytest.mark.parametrize("mode", MODES)
def test_walk_certificates_are_the_solves_at_the_decision_edges(pv_tight_ctx, mode):
    """At the walked decisions of random setpoints, every certificate built
    from a family's one ``values`` call at the decision is, bit for bit, the
    follower's own solve at the decision's edge; on feeders whose walks stop
    inside the availability box."""
    from flexgrid.bilevel import EDGE_TOL_REL, _edge_limited_decision, _family_followers

    rng = np.random.default_rng(17)
    contexts = [pv_tight_ctx] + [
        random_context(np.random.default_rng(seed), mode=mode, z_scale=2.0)
        for seed in (7200, 7201, 7202)
    ]
    checked = inside = 0
    for ctx in contexts:
        followers = all_scenarios(ctx.n)
        bp, slmap = assemble_single_level(ctx, mode, followers)
        lb, ub = np.array(bp.base.lb), np.array(bp.base.ub)
        up = slmap.upper_vars
        dp_box = (lb[up[SLOT_DP_MINUS]], ub[up[SLOT_DP_PLUS]])
        families = _family_followers(ctx, mode, followers, {n: float(lb[vi]) for n, vi in up.items()})
        boxes = setpoint_boxes(ctx, mode)
        for _ in range(10):
            setpoints = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in boxes.items()}
            decision = _edge_limited_decision(
                families, followers, setpoints, dp_box, EDGE_TOL_REL * (dp_box[1] - dp_box[0])
            )
            if decision is None:
                continue
            inside += (decision[SLOT_DP_PLUS] < dp_box[1]) + (decision[SLOT_DP_MINUS] > dp_box[0])
            for (activation, extremum), mf in families.items():
                mf.set_slots(decision)
                fam = [sc for sc in followers if (sc.activation, sc.extremum) == (activation, extremum)]
                vals = mf.values([sc.node for sc in fam])
                for i, sc in enumerate(fam):
                    cert = mf.certificate(vals, i)
                    want = mf.solve(node=sc.node, dp_bound=decision[sc.dp_slot])
                    assert (cert.status, cert.objective, cert.method) == (
                        want.status, want.objective, want.method), sc
                    for field in ("x", "row_duals", "lower_duals", "upper_duals"):
                        assert np.array_equal(getattr(cert, field), getattr(want, field)), (sc, field)
                    checked += 1
    assert checked > 0 and inside > 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fixed", [False, True], ids=["free", "one-fixed"])
def test_candidate_setpoints_are_neutral_then_the_box_ends(pv_tight_ctx, pin_setpoints, mode, fixed):
    """Neutral (0 clamped into each box), every lower end, every upper end,
    duplicates dropped: in volt-var the lower ends are the neutral point.
    The boxes the solve draws them from are the assembled program's."""
    from flexgrid.bilevel import _candidate_setpoint_sets

    ctx = pv_tight_ctx
    boxes = setpoint_boxes(ctx, mode)
    assert len(boxes) == 2
    first = next(iter(boxes))
    pin = {first: 0.5 * boxes[first][1]} if fixed else {}
    pin_setpoints(pin)
    bp, slmap = assemble_single_level(ctx, mode, [Scenario(ctx.n - 1, POSITIVE, MAX_V)])
    neutral = {name: 0.0 for name in boxes} | pin
    lower = {name: lo for name, (lo, _) in boxes.items()} | pin
    upper = {name: hi for name, (_, hi) in boxes.items()} | pin
    want = [neutral, upper] if mode == MODE_VOLT_VAR else [neutral, lower, upper]
    up, lb, ub = slmap.upper_vars, bp.base.lb, bp.base.ub
    assembled = {name: (lb[up[name]], ub[up[name]]) for name in slmap.setpoint_slots}
    assert bilevel.setpoint_boxes(ctx, mode) == assembled
    assert _candidate_setpoint_sets(assembled) == want


def test_the_node_hook_widens_the_presolve_band():
    """The bang-bang setpoints walk to 0.329407 p.u. on this feeder; only the
    walks from the nodes' relaxation setpoints reach the wider band."""
    ctx = random_context(np.random.default_rng(7210), mode=MODE_CONSTANT_PF, z_scale=2.0)
    res = run_iterative(ctx, MODE_CONSTANT_PF, node_limit=300)
    assert res.feasibility.ok
    assert res.dp_plus - res.dp_minus >= 0.339017


def _recorded_walks(monkeypatch):
    """Patch the single level to record, for each search, the activations
    of its program and the clamped setpoints its node hook walks, and for
    each family walk (family, setpoints, the activations of the search
    whose hook walks it or None)."""
    searches, walks = [], []
    current = None
    assemble = bilevel.assemble_single_level

    def capture_map(*args, **kwargs):
        bp, slmap = assemble(*args, **kwargs)
        activations = {b.scenario.activation for b in slmap.blocks}
        searches.append((slmap, np.array(bp.base.lb), np.array(bp.base.ub), activations, []))
        return bp, slmap

    search = bilevel.spatial_branch_and_bound

    def watch_hook(bp, *, incumbent_hook, **kwargs):
        slmap, lb, ub, activations, hook_keys = searches[-1]  # assembled just before
        up = slmap.upper_vars

        def hook(x_rel):
            nonlocal current
            hook_keys.append(tuple(
                float(min(max(x_rel[up[name]], lb[up[name]]), ub[up[name]]))
                for name in slmap.setpoint_slots
            ))
            current = activations
            try:
                return incumbent_hook(x_rel)
            finally:
                current = None

        return search(bp, incumbent_hook=hook, **kwargs)

    walk = bilevel._edge_limited_decision

    def count_walk(families, followers, setpoints, *args):
        walks.extend((family, tuple(setpoints.values()), current) for family in families)
        return walk(families, followers, setpoints, *args)

    monkeypatch.setattr(bilevel, "assemble_single_level", capture_map)
    monkeypatch.setattr(bilevel, "spatial_branch_and_bound", watch_hook)
    monkeypatch.setattr(bilevel, "_edge_limited_decision", count_walk)
    return searches, walks


def _seed_followers(seed):
    """A binding feeder and the two seed followers, one per activation,
    that its run closes on in one iteration."""
    ctx = random_context(np.random.default_rng(seed))
    res = run_iterative(ctx, MODE_CONSTANT_PF)
    assert res.iterations == 1
    assert [sc.activation for sc in res.followers] == [POSITIVE, NEGATIVE]
    return ctx, res.followers


def test_the_node_hook_walks_each_setpoint_set_once(monkeypatch):
    """The joint search's relaxations land on few distinct setpoint sets,
    some of them the presolve's; each family is walked once at each set
    over the presolve and the hook, and the search is the one that walked
    them every time: 87 nodes to a band bit-identical to 0.31177 / -0.22848
    p.u."""
    ctx, followers = _seed_followers(7200)
    searches, walks = _recorded_walks(monkeypatch)
    res = solve_single_level(ctx, MODE_CONSTANT_PF, followers, split=False)
    assert res.bnb.nodes == 87 and res.bound_by == JOINT
    assert res.nodes_by_search == {POSITIVE: 0, NEGATIVE: 0, JOINT: 87}
    [(_, _, _, _, hook_keys)] = searches
    presolve_keys = [key for _, key, hook in walks if hook is None]
    assert len(hook_keys) > len(set(hook_keys))  # the relaxations repeat setpoints
    assert set(hook_keys) & set(presolve_keys)  # ... and revisit the presolve's
    families = {family for family, _, _ in walks}
    keys = set(hook_keys) | set(presolve_keys)
    assert sorted((f, k) for f, k, _ in walks) == sorted((f, k) for f in families for k in keys)
    assert (res.decision.dp_plus.hex(), res.decision.dp_minus.hex()) == (
        "0x1.3f3e0370cdc88p-2", "-0x1.d3eb769efd182p-3",
    )


def test_the_split_walks_each_family_once_per_setpoint_set(monkeypatch):
    """Split by activation, the same followers close in 1 + 43 nodes, not
    the joint search's 87, to the same band bit for bit.  Each half's hook
    walks only its own families, no family is walked twice at one setpoint
    set over the presolve and both halves, and the decision's setpoints,
    one half's final ones, are walked by every family."""
    ctx, followers = _seed_followers(7200)
    searches, walks = _recorded_walks(monkeypatch)
    res = solve_single_level(ctx, MODE_CONSTANT_PF, followers)
    assert res.bnb.status == "optimal" and res.bound_by == SPLIT and res.bnb.x is None
    assert res.nodes_by_search == {POSITIVE: 1, NEGATIVE: 43, JOINT: 0}
    assert res.bnb.nodes == 44
    assert [activations for _, _, _, activations, _ in searches] == [{POSITIVE}, {NEGATIVE}]
    assert all(family[0] in hook for family, _, hook in walks if hook is not None)
    pairs = [(family, key) for family, key, _ in walks]
    assert len(pairs) == len(set(pairs))
    families = {family for family, _ in pairs}
    assert {family[0] for family in families} == {POSITIVE, NEGATIVE}
    decided = tuple(res.decision.setpoints.values())
    assert {family for family, key in pairs if key == decided} == families
    assert (res.decision.dp_plus.hex(), res.decision.dp_minus.hex()) == (
        "0x1.3f3e0370cdc88p-2", "-0x1.d3eb769efd182p-3",
    )
    assert res.bnb.bound <= res.objective + 1e-4 * (1.0 + res.objective)


@pytest.mark.parametrize("mode", MODES)
def test_raw_band_edges_that_complete_never_beat_the_edge_walk(pv_tight_ctx, mode):
    """At fixed setpoints every follower's extreme |v| is nondecreasing in
    |band edge|, so whenever in-box edges keep every follower in band, the
    walk at the same setpoints reaches them (within its tolerance): a
    completion at raw relaxation edges would add no incumbent."""
    from flexgrid.bilevel import (
        EDGE_TOL_REL,
        _complete_point,
        _edge_limited_decision,
        _family_followers,
    )

    rng = np.random.default_rng(11)
    contexts = [pv_tight_ctx] + [
        random_context(np.random.default_rng(seed), mode=mode) for seed in (7200, 7201, 7202)
    ]
    completed = binding = 0
    for ctx in contexts:
        followers = all_scenarios(ctx.n)
        bp, slmap = assemble_single_level(ctx, mode, followers)
        lb, ub = np.array(bp.base.lb), np.array(bp.base.ub)
        up = slmap.upper_vars
        dp_up, dp_lo = ub[up[SLOT_DP_PLUS]], lb[up[SLOT_DP_MINUS]]
        tol_abs = EDGE_TOL_REL * (dp_up - dp_lo)
        families = _family_followers(ctx, mode, followers, {n: float(lb[vi]) for n, vi in up.items()})
        boxes = setpoint_boxes(ctx, mode)
        for _ in range(30):
            setpoints = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in boxes.items()}
            raw = {**setpoints, SLOT_DP_PLUS: float(rng.uniform(0.0, dp_up)),
                   SLOT_DP_MINUS: float(rng.uniform(dp_lo, 0.0))}
            if _complete_point(slmap, families, raw, lb, ub) is None:
                continue
            completed += 1
            edges = _edge_limited_decision(families, followers, setpoints, (dp_lo, dp_up), tol_abs)
            assert edges is not None
            assert edges[SLOT_DP_PLUS] >= raw[SLOT_DP_PLUS] - tol_abs
            assert edges[SLOT_DP_MINUS] <= raw[SLOT_DP_MINUS] + tol_abs
            binding += (edges[SLOT_DP_PLUS] < dp_up) + (edges[SLOT_DP_MINUS] > dp_lo)
    # Not vacuous: raw edges complete, and some walks stop inside the box.
    assert completed > 0 and binding > 0


def test_a_binding_dual_box_in_a_half_leaves_the_split_band_unproven(monkeypatch):
    """A half's λ box binds as the joint search's does: below the ceiling,
    a box the halves' incumbents reach marks the split's band ``dual_box``,
    and a box just wider leaves the same band proven."""
    ctx, followers = _seed_followers(7200)
    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.02335)
    boxed = solve_single_level(ctx, MODE_CONSTANT_PF, followers)
    assert boxed.bound_by == SPLIT and boxed.bnb.status == DUAL_BOX
    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.0235)
    wider = solve_single_level(ctx, MODE_CONSTANT_PF, followers)
    assert wider.bound_by == SPLIT and wider.bnb.status == "optimal"
    assert wider.objective == boxed.objective


def test_the_split_proves_a_band_the_joint_search_loses():
    """7210-z2 constant-q: split by activation, the solve at
    ``node_limit=2000`` proves 0.42583 p.u., and the joint search over the
    two seed followers proves the same band.  7208-z2 constant-pf: the
    split proves 0.46450 p.u. in 96 nodes, where the joint search over the
    same followers, capped at 400, stops at that band unproven, its bound
    above 0.67 p.u."""
    epsilon = 1e-4
    ctx = random_context(np.random.default_rng(7210), mode=MODE_CONSTANT_Q, z_scale=2.0)
    res = run_iterative(ctx, MODE_CONSTANT_Q, node_limit=2000)
    assert res.converged and res.single_level.bnb.status == "optimal"
    assert res.single_level.bound_by == SPLIT
    assert res.dp_plus - res.dp_minus == pytest.approx(0.42583, abs=1e-5)
    assert res.iterations == 1
    joint = solve_single_level(ctx, MODE_CONSTANT_Q, res.followers, node_limit=2000, split=False)
    assert joint.bnb.status == "optimal"
    assert joint.objective == pytest.approx(res.single_level.objective,
                                            abs=epsilon * (1.0 + joint.objective))

    ctx = random_context(np.random.default_rng(7208), mode=MODE_CONSTANT_PF, z_scale=2.0)
    res = run_iterative(ctx, MODE_CONSTANT_PF, node_limit=400)
    assert res.converged and res.single_level.bound_by == SPLIT
    assert res.single_level.bnb.nodes == 96
    assert res.dp_plus - res.dp_minus == pytest.approx(0.46450, abs=1e-5)
    joint = solve_single_level(ctx, MODE_CONSTANT_PF, res.followers, node_limit=400, split=False)
    assert joint.bnb.status == "node_limit"
    assert joint.objective <= res.single_level.objective + epsilon
    assert joint.bnb.bound > 0.67


@pytest.mark.parametrize("seed, z_scale, mode", [
    (7200, 2.0, MODE_CONSTANT_PF),
    (7201, 3.0, MODE_CONSTANT_PF),
    (7233, 3.0, MODE_CONSTANT_PF),
    (7219, 3.0, MODE_CONSTANT_PF),
    (7235, 3.0, MODE_CONSTANT_PF),
    (7201, 3.0, MODE_CONSTANT_Q),
    (7202, 2.0, MODE_VOLT_VAR),
])
def test_the_split_agrees_with_the_joint_search(seed, z_scale, mode):
    """On the final active set of a binding run, the split and the joint
    search, its oracle, both prove the band and agree within ``epsilon``.
    On 7235-z3 the walks stop below the split bound, so the joint search
    runs from it, and it never takes more nodes than on its own."""
    epsilon = 1e-4
    ctx = random_context(np.random.default_rng(seed), mode=mode, z_scale=z_scale)
    followers = run_iterative(ctx, mode, epsilon=epsilon).followers
    split = solve_single_level(ctx, mode, followers, epsilon=epsilon)
    joint = solve_single_level(ctx, mode, followers, epsilon=epsilon, split=False)
    assert split.bnb.status == joint.bnb.status == "optimal"
    assert split.objective == pytest.approx(joint.objective, abs=epsilon * (1.0 + joint.objective))
    assert split.objective == pytest.approx(split.decision.dp_plus - split.decision.dp_minus)
    assert split.bnb.nodes == sum(split.nodes_by_search.values())
    assert split.nodes_by_search[POSITIVE] >= 1 and split.nodes_by_search[NEGATIVE] >= 1
    fallback = split.nodes_by_search[JOINT]
    assert (fallback > 0) == (split.bound_by == JOINT) == (seed == 7235)
    assert fallback <= joint.bnb.nodes
    assert feasibility_check(ctx, mode, split.decision).ok
