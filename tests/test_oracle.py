"""Nonlinear re-validation: injections, Newton cross-checks, brute force."""

import itertools

import numpy as np
import pytest

from flexgrid import build_context, load_feeder
from flexgrid.bilevel import UpperDecision, neutral_setpoints, run_iterative, setpoint_boxes
from flexgrid.feeder import (
    MODE_CONSTANT_PF,
    MODE_CONSTANT_Q,
    MODE_VOLT_VAR,
    assemble_ybus,
)
from flexgrid.follower import (
    MAX_V,
    MIN_V,
    NEGATIVE,
    POSITIVE,
    SLOT_DP_PLUS,
    Scenario,
    all_scenarios,
    build_follower,
    slot_gamma,
    slot_qbar,
    slot_qset,
)
from flexgrid.oracle import (
    BruteForceResult,
    OracleError,
    _droop_voltages,
    brute_force_worst_voltage,
    decision_fixes_q,
    linear_magnitudes,
    linearization_error,
    nonlinear_magnitudes,
    verify_decision,
)
from flexgrid.powerflow import anchor_injections

from feedergen import random_context


def one_inverter_doc(mode, **params):
    """Slack plus a single-phase bus carrying one oversized inverter."""
    return {
        "base_kva": 100.0,
        "base_kv": 2.4,
        "slack": "s",
        "buses": [{"id": "s", "phases": "abc"}, {"id": "m", "phases": "a"}],
        "segments": [{
            "from": "s", "to": "m",
            "z": [[0.9, 1.7], [0.0, 0.0], [0.0, 0.0],
                  [0.0, 0.0], [0.9, 1.7], [0.0, 0.0],
                  [0.0, 0.0], [0.0, 0.0], [0.9, 1.7]],
        }],
        "loads": [],
        "inverters": [{
            "bus": "m", "phase": "a", "p_kw": 8.0, "p_min": 0.0,
            "p_max": 16.0, "s_kva": 30.0, "mode": mode,
            "mode_params": {"pf": 0.92, "gamma": 0.4, **params},
        }],
    }


def test_follower_injections_recover_the_device_bookkeeping(pv_ctx):
    problem = build_follower(
        pv_ctx, Scenario(0, POSITIVE, MAX_V), MODE_CONSTANT_PF
    )
    n = pv_ctx.n
    dev = pv_ctx.devices
    inv, loads = np.array(dev.inverter_nodes), np.array(dev.load_nodes)
    rng = np.random.default_rng(3)
    x = np.zeros(problem.n_vars)
    dpg, dpl, qg = np.zeros(n), np.zeros(n), np.zeros(n)
    dpg[inv] = rng.normal(scale=0.02, size=inv.size)
    dpl[loads] = rng.normal(scale=0.02, size=loads.size)
    qg[inv] = rng.normal(scale=0.01, size=inv.size)
    x[problem.i_dpg(inv)] = dpg[inv]
    x[problem.i_dpl(loads)] = dpl[loads]
    x[problem.i_qg(inv)] = qg[inv]
    p, q = problem.injections(x)
    ql = dev.beta_load * (dev.p_load0 + dpl)  # constant-power-factor loads
    assert np.allclose(p, dev.p_gen0 + dpg - dev.p_load0 - dpl, atol=1e-15)
    assert np.allclose(q, qg - ql, atol=1e-15)


def test_magnitude_routes_agree_at_the_anchor(pv_ctx):
    p0, q0 = anchor_injections(pv_ctx.feeder, pv_ctx.index)
    assert np.allclose(
        linear_magnitudes(pv_ctx, p0, q0), pv_ctx.anchor.vm, atol=1e-12
    )
    assert np.allclose(
        nonlinear_magnitudes(pv_ctx, p0, q0), pv_ctx.anchor.vm, atol=1e-9
    )
    assert linearization_error(pv_ctx, p0, q0) < 1e-9
    # explicit admittance pass-through changes nothing
    Y = assemble_ybus(pv_ctx.feeder, pv_ctx.index)
    assert np.allclose(
        nonlinear_magnitudes(pv_ctx, p0, q0, Y=Y),
        nonlinear_magnitudes(pv_ctx, p0, q0),
        atol=1e-12,
    )


def test_linearization_error_stays_small_off_anchor(pv_ctx):
    p0, q0 = anchor_injections(pv_ctx.feeder, pv_ctx.index)
    err = linearization_error(pv_ctx, p0 + 0.05, q0 - 0.03)
    assert 0.0 < err < 5e-3


def test_verify_decision_on_a_converged_result(pv_tight_ctx):
    res = run_iterative(pv_tight_ctx, MODE_CONSTANT_PF)
    assert res.converged
    rep = verify_decision(pv_tight_ctx, MODE_CONSTANT_PF, res.decision)
    n = pv_tight_ctx.n
    assert len(rep.checks) == 4 * n
    assert rep.max_error == pytest.approx(max(c.error for c in rep.checks))
    assert rep.within(0.01) and not rep.within(rep.max_error / 2)
    # the decision was accepted under the linear model; the nonlinear excess
    # can only be as large as the linearization gap
    assert rep.max_band_excess <= rep.max_error + 1e-6
    assert rep.profile_scenario is not None
    assert rep.profile_linear.shape == (n,)
    assert rep.profile_nonlinear.shape == (n,)
    worst = max(rep.checks, key=lambda c: c.error)
    assert rep.profile_scenario == worst.scenario
    for c in rep.checks:
        assert abs(c.lp_vm - c.nl_vm) <= rep.max_error + 1e-12

    over = verify_decision(
        pv_tight_ctx, MODE_CONSTANT_PF, res.decision, direction="overvoltage"
    )
    assert len(over.checks) == 2 * n
    assert all(c.scenario.extremum == MAX_V for c in over.checks)


def test_verify_decision_requires_all_slots(pv_tight_ctx):
    bare = UpperDecision(dp_plus=0.1, dp_minus=-0.1, setpoints={}, mode=MODE_CONSTANT_PF)
    with pytest.raises(OracleError, match="lacks slots"):
        verify_decision(pv_tight_ctx, MODE_CONSTANT_PF, bare)


def test_brute_force_agrees_with_the_lp_adversary():
    # one device, loose apparent-power cap: the LP optimum sits on a box
    # corner that the brute-force grid hits exactly
    ctx = build_context(load_feeder(one_inverter_doc(MODE_CONSTANT_PF)))
    decision = UpperDecision(
        dp_plus=0.1, dp_minus=0.0,
        setpoints={slot_gamma(0): 0.3}, mode=MODE_CONSTANT_PF,
    )
    sc = Scenario(0, POSITIVE, MAX_V)
    problem = build_follower(ctx, sc, MODE_CONSTANT_PF)
    cert = problem.solve(
        {slot_gamma(0): 0.3, SLOT_DP_PLUS: decision.dp_plus}
    )
    bf = brute_force_worst_voltage(ctx, MODE_CONSTANT_PF, decision, sc)
    assert bf.points == 7  # every dpg grid point respects the wide band
    assert bf.vm_linear == pytest.approx(problem.worst_voltage(cert), abs=1e-9)
    assert bf.vm_nonlinear == pytest.approx(bf.vm_linear, abs=2e-3)
    assert bf.vm_nonlinear > ctx.anchor.vm[0]


def test_droop_fixed_point_is_self_consistent():
    ctx = build_context(load_feeder(one_inverter_doc(MODE_VOLT_VAR)))
    Y = assemble_ybus(ctx.feeder, ctx.index)
    p = np.array([0.12])
    qbar = np.array([0.08])
    q_other = np.zeros(1)
    vm, q = _droop_voltages(ctx, p, qbar, q_other, Y=Y)
    # the droop line and the power flow hold simultaneously
    band = ctx.v_max - ctx.v_min
    q_line = qbar * ((ctx.v_max + ctx.v_min) - 2.0 * vm) / band
    assert np.allclose(q, q_other + q_line, atol=1e-8)
    assert np.allclose(vm, nonlinear_magnitudes(ctx, p, q, Y=Y), atol=1e-8)


def test_brute_force_volt_var_runs_the_droop(pv_model):
    ctx = build_context(load_feeder(one_inverter_doc(MODE_VOLT_VAR)))
    decision = UpperDecision(
        dp_plus=0.08, dp_minus=0.0,
        setpoints={slot_qbar(0): 0.1}, mode=MODE_VOLT_VAR,
    )
    bf = brute_force_worst_voltage(
        ctx, MODE_VOLT_VAR, decision, Scenario(0, POSITIVE, MAX_V)
    )
    assert bf.points > 0
    assert abs(bf.vm_nonlinear - bf.vm_linear) < 5e-3


def test_brute_force_refuses_large_fleets(pv_tight_ctx):
    decision = UpperDecision(
        dp_plus=0.1, dp_minus=-0.1,
        setpoints=neutral_setpoints(pv_tight_ctx, MODE_CONSTANT_PF),
        mode=MODE_CONSTANT_PF,
    )
    # negative activation opens boxes on all three loads plus both inverters
    with pytest.raises(OracleError, match="brute-force limit"):
        brute_force_worst_voltage(
            pv_tight_ctx, MODE_CONSTANT_PF, decision, Scenario(0, NEGATIVE, MAX_V)
        )


def test_brute_force_detects_an_unreachable_setpoint():
    ctx = build_context(load_feeder(one_inverter_doc(MODE_CONSTANT_Q)))
    dev = ctx.devices
    q_deep = float(dev.gamma_const[0] * dev.p_gen_max[0] * 1.5)  # outside the cone
    decision = UpperDecision(
        dp_plus=0.05, dp_minus=0.0,
        setpoints={slot_qset(0): q_deep}, mode=MODE_CONSTANT_Q,
    )
    with pytest.raises(OracleError, match="no admissible grid points"):
        brute_force_worst_voltage(
            ctx, MODE_CONSTANT_Q, decision, Scenario(0, POSITIVE, MAX_V)
        )


# ---------------------------------------------------------------------------
# The stacked brute force against the per-point loop it replaced
# ---------------------------------------------------------------------------

def _reference_droop(ctx, p, qbar, q_other, *, Y, max_iter=100, tol=1e-10):
    """Volt-var fixed point of one profile, one Newton solve per Picard step."""
    band = ctx.v_max - ctx.v_min
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


def _reference_brute_force(ctx, mode, decision, scenario, *, steps=7, q_steps=5):
    """The grid adversary as a Python loop with one Newton solve per point.

    Returns the result and the linear |v| at the scenario node of every
    point whose nonlinear |v| ties the extreme within 1e-12.
    """
    dev = ctx.devices
    fix_q = decision_fixes_q(mode, decision)
    problem = build_follower(ctx, scenario, mode, fix_q=fix_q)
    n = ctx.n
    dims = []
    for k in range(n):
        if k in dev.inverter_nodes:
            lo, hi = problem.lb[problem.i_dpg(k)], problem.ub[problem.i_dpg(k)]
            if hi - lo > 1e-12:
                dims.append(("dpg", k, np.linspace(lo, hi, steps)))
        if k in dev.load_nodes:
            lo, hi = problem.lb[problem.i_dpl(k)], problem.ub[problem.i_dpl(k)]
            if hi - lo > 1e-12:
                dims.append(("dpl", k, np.linspace(lo, hi, steps)))
    free_q = mode == MODE_CONSTANT_Q and not fix_q
    dp_cap = decision.dp_plus if scenario.activation == POSITIVE else decision.dp_minus
    Y = assemble_ybus(ctx.feeder, ctx.index)
    evaluated = []  # (|v| at the scenario node, p, q) per admissible point

    for combo in itertools.product(*[d[2] for d in dims]) if dims else [()]:
        dpg = np.zeros(n)
        dpl = np.zeros(n)
        for (kind, k, _), value in zip(dims, combo):
            if kind == "dpg":
                dpg[k] = value
            else:
                dpl[k] = value
        agg = float(np.sum(dpg) - np.sum(dpl))
        if scenario.activation == POSITIVE and agg > dp_cap + 1e-9:
            continue
        if scenario.activation != POSITIVE and agg < dp_cap - 1e-9:
            continue
        pg = dev.p_gen0 + dpg
        p = pg - (dev.p_load0 + dpl)
        q_load = dev.beta_load * (dev.p_load0 + dpl)
        head = np.sqrt(np.maximum(dev.s_cap**2 - pg**2, 0.0))

        def finish(q_gen):
            if np.any(np.abs(q_gen) > head + 1e-9):
                return
            q = q_gen - q_load
            evaluated.append((nonlinear_magnitudes(ctx, p, q, Y=Y)[scenario.node], p, q))

        if mode == MODE_CONSTANT_PF:
            q_gen = np.zeros(n)
            for k in dev.inverter_nodes:
                q_gen[k] = decision.setpoints[slot_gamma(k)] * pg[k]
            finish(q_gen)
        elif mode == MODE_CONSTANT_Q and fix_q:
            q_gen = np.zeros(n)
            for k in dev.inverter_nodes:
                q_gen[k] = decision.setpoints[slot_qset(k)]
            if np.all(np.abs(q_gen) <= dev.gamma_const * pg + 1e-9):
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
        else:
            qbar = np.zeros(n)
            for k in dev.inverter_nodes:
                qbar[k] = decision.setpoints[slot_qbar(k)]
            try:
                vm, q = _reference_droop(ctx, p, qbar, -q_load, Y=Y)
            except OracleError:
                continue
            if np.any(np.abs(q + q_load) > head + 1e-9):
                continue
            evaluated.append((vm[scenario.node], p, q))

    if not evaluated:
        raise OracleError("no admissible grid points")
    sigma = scenario.sigma
    best = None
    for i, (vm, _, _) in enumerate(evaluated):  # the first strict improvement wins
        if best is None or sigma * vm > sigma * evaluated[best][0]:
            best = i
    vm_best, p, q = evaluated[best]

    def lin_at(p, q):
        return float(linear_magnitudes(ctx, p, q)[scenario.node])

    ties = [lin_at(p, q) for vm, p, q in evaluated if abs(vm - vm_best) <= 1e-12]
    result = BruteForceResult(
        scenario=scenario, vm_nonlinear=float(vm_best), vm_linear=lin_at(p, q),
        points=len(evaluated),
    )
    return result, ties


def _assert_matches_reference(ctx, mode, decision, scenarios):
    for sc in scenarios:
        try:
            ref, ties = _reference_brute_force(ctx, mode, decision, sc)
        except OracleError:
            with pytest.raises(OracleError, match="no admissible grid points"):
                brute_force_worst_voltage(ctx, mode, decision, sc)
            continue
        got = brute_force_worst_voltage(ctx, mode, decision, sc)
        assert got.scenario == sc
        assert got.points == ref.points, sc
        assert abs(got.vm_nonlinear - ref.vm_nonlinear) <= 1e-12, sc
        # a rounding tie in the nonlinear |v| may pick another extreme point
        assert any(abs(got.vm_linear - lin) <= 1e-12 for lin in ties), sc


@pytest.mark.parametrize(
    "seed,mode,nodes",
    [
        (7204, MODE_CONSTANT_Q, (0, 5)),
        (7205, MODE_VOLT_VAR, (0, 5)),
        (7206, MODE_CONSTANT_PF, None),
        (7208, MODE_VOLT_VAR, None),
    ],
)
def test_stacked_brute_force_matches_the_per_point_loop(seed, mode, nodes):
    """At the solved decision, on every scenario of the listed nodes (all if None).

    Every scenario of one activation evaluates the same grid, so the node
    subsets on the two six-node feeders, kept for suite time, still cover
    every grid point.
    """
    ctx = random_context(np.random.default_rng(seed), mode=mode)
    decision = run_iterative(ctx, mode, direction="both").decision
    scenarios = [sc for sc in all_scenarios(ctx.n) if nodes is None or sc.node in nodes]
    _assert_matches_reference(ctx, mode, decision, scenarios)


@pytest.mark.parametrize("mode", [MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR])
def test_stacked_brute_force_matches_the_per_point_loop_on_one_inverter(mode):
    ctx = build_context(load_feeder(one_inverter_doc(mode)))
    decision = run_iterative(ctx, mode, direction="both").decision
    # the solved decisions sit at zero setpoints; also try the box ends,
    # and constant-q without a q_set (the free reactive sub-grid)
    setpoint_sets = [decision.setpoints]
    for end in (0, 1):
        setpoint_sets.append({s: box[end] for s, box in setpoint_boxes(ctx, mode).items()})
    if mode == MODE_CONSTANT_Q:
        setpoint_sets.append({})
    for setpoints in setpoint_sets:
        trial = UpperDecision(
            dp_plus=decision.dp_plus, dp_minus=decision.dp_minus, setpoints=setpoints, mode=mode
        )
        _assert_matches_reference(ctx, mode, trial, all_scenarios(ctx.n))


@pytest.mark.parametrize("seed,mode", [(7207, MODE_CONSTANT_Q), (7208, MODE_VOLT_VAR)])
def test_stacked_brute_force_matches_off_the_solved_setpoints(seed, mode):
    """Free-q sub-grids and a strong droop on generated feeders.

    Every scenario of one activation evaluates the same grid, so one
    scenario per activation covers every point.
    """
    ctx = random_context(np.random.default_rng(seed), mode=mode)
    decision = run_iterative(ctx, mode, direction="both").decision
    setpoints = {} if mode == MODE_CONSTANT_Q else {
        s: box[1] for s, box in setpoint_boxes(ctx, mode).items()
    }
    trial = UpperDecision(
        dp_plus=decision.dp_plus, dp_minus=decision.dp_minus, setpoints=setpoints, mode=mode
    )
    scenarios = [Scenario(0, POSITIVE, MAX_V), Scenario(ctx.n - 1, NEGATIVE, MIN_V)]
    _assert_matches_reference(ctx, mode, trial, scenarios)


@pytest.mark.parametrize("qbar,max_iter,all_settle", [(0.1, 30, True), (0.15, 6, False)])
def test_stacked_droop_matches_the_per_profile_iteration(qbar, max_iter, all_settle):
    """Rows that need the damped retries, or never settle, behave as alone.

    On a narrow band the droop gain is high: with q̄ = 0.1 and 30 steps some
    profiles settle undamped and the rest only at half damping; with
    q̄ = 0.15 and 6 steps one profile settles and the rest never do.
    """
    ctx = build_context(load_feeder(one_inverter_doc(MODE_VOLT_VAR)), v_min=0.995, v_max=1.005)
    Y = assemble_ybus(ctx.feeder, ctx.index)
    p = np.linspace(0.0, 0.3, 7)[:, None]
    q_other = np.zeros_like(p)
    vm, q = _droop_voltages(ctx, p, np.array([qbar]), q_other, Y=Y, max_iter=max_iter)
    assert vm.shape == q.shape == p.shape
    settled = 0
    for i in range(len(p)):
        try:
            vm_ref, q_ref = _reference_droop(
                ctx, p[i], np.array([qbar]), q_other[i], Y=Y, max_iter=max_iter
            )
        except OracleError:
            assert np.isnan(vm[i]).all() and np.isnan(q[i]).all(), i
            continue
        settled += 1
        assert np.max(np.abs(vm[i] - vm_ref)) <= 1e-12, i
        assert np.max(np.abs(q[i] - q_ref)) <= 1e-12, i
    assert settled > 0
    assert (settled == len(p)) == all_settle
