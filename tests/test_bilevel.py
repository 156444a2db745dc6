"""Worst-case screening, single-level ideal case, and the iterative driver."""

import numpy as np
import pytest

from feedergen import random_context

from flexgrid import bilevel, build_context, load_feeder
from flexgrid.bilevel import (
    DUAL_BOX,
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
    POSITIVE,
    SLOT_DP_MINUS,
    SLOT_DP_PLUS,
    Scenario,
    build_follower,
    fix_worst_case_setpoints,
    slot_gamma,
    slot_qbar,
    slot_qset,
)

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
        setpoints={"gamma[2]": 0.1}, mode=MODE_CONSTANT_PF,
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


def test_assemble_rejects_bad_inputs(pv_tight_ctx):
    with pytest.raises(ValueError, match="at least one follower"):
        assemble_single_level(pv_tight_ctx, MODE_CONSTANT_PF, [])
    sc = [Scenario(0, POSITIVE, MAX_V)]
    cap = pv_tight_ctx.devices.gamma_cap[pv_tight_ctx.devices.inverter_nodes[0]]
    bad = {slot_gamma(pv_tight_ctx.devices.inverter_nodes[0]): cap + 1.0}
    with pytest.raises(ValueError, match="outside its box"):
        assemble_single_level(pv_tight_ctx, MODE_CONSTANT_PF, sc, fixed_setpoints=bad)


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


def test_single_level_matches_bisection_at_fixed_setpoints(pv_tight_ctx):
    """Dual route to the same number: strong-duality B&B vs direct bisection."""
    ctx = pv_tight_ctx
    for mode, extremum in ((MODE_CONSTANT_PF, MAX_V), (MODE_VOLT_VAR, MAX_V)):
        direction = "overvoltage" if extremum == MAX_V else "undervoltage"
        wc = worst_case_limits(ctx, mode, direction=direction)
        k, _ = wc.binding_upper
        adv = fix_worst_case_setpoints(ctx, mode, extremum)
        res = solve_single_level(
            ctx, mode, [Scenario(k, POSITIVE, extremum)],
            epsilon=1e-5, fixed_setpoints=adv,
        )
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
        mode=MODE_CONSTANT_PF,
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
        mode=MODE_CONSTANT_PF,
    )
    assert feasibility_check(ctx, MODE_CONSTANT_PF, timid).ok

    with pytest.raises(BilevelError, match="lacks slots"):
        feasibility_check(
            ctx, MODE_CONSTANT_PF,
            UpperDecision(0.0, 0.0, {}, MODE_CONSTANT_PF),
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


def test_direction_filter_restricts_the_follower_pool(pv_tight_ctx):
    res = run_iterative(pv_tight_ctx, MODE_CONSTANT_PF, direction="overvoltage")
    assert res.direction == "overvoltage"
    assert all(s.extremum == MAX_V for s in res.followers)
    assert res.converged


@pytest.mark.parametrize("mode", MODES)
def test_completion_reuses_the_edge_walk_certificates(pv_tight_ctx, mode, monkeypatch):
    """Each side's only block decides its edge, so the walk's last safe solves
    complete the point without a follower solve, bit-identical to solving
    the blocks again."""
    from flexgrid.bilevel import (
        EDGE_TOL_REL,
        _complete_point,
        _edge_limited_decision,
        _family_followers,
    )
    from flexgrid.follower import NEGATIVE, MaterializedFollower

    ctx = pv_tight_ctx
    followers = [Scenario(ctx.n - 1, POSITIVE, MAX_V), Scenario(0, NEGATIVE, MIN_V)]
    bp, slmap = assemble_single_level(ctx, mode, followers)
    lb, ub = np.array(bp.base.lb), np.array(bp.base.ub)
    up = slmap.upper_vars
    families = _family_followers(slmap, {name: float(lb[vi]) for name, vi in up.items()})
    tol_abs = EDGE_TOL_REL * (ub[up[SLOT_DP_PLUS]] - lb[up[SLOT_DP_MINUS]])
    decision, certs = _edge_limited_decision(
        slmap, families, neutral_setpoints(ctx, mode), lb, ub, tol_abs
    )
    assert set(certs) == set(followers)

    calls = []
    solve = MaterializedFollower.solve
    monkeypatch.setattr(MaterializedFollower, "solve",
                        lambda self, **kw: calls.append(1) or solve(self, **kw))
    reused = _complete_point(slmap, families, decision, lb, ub, certs)
    assert not calls
    fresh = _complete_point(slmap, families, decision, lb, ub)
    assert len(calls) == len(followers)
    assert reused is not None and np.array_equal(reused, fresh)
