"""Nonlinear re-validation: injections, Newton cross-checks, brute force."""

import numpy as np
import pytest

from flexgrid import build_context, load_feeder
from flexgrid.bilevel import UpperDecision, neutral_setpoints, run_iterative
from flexgrid.feeder import (
    MODE_CONSTANT_PF,
    MODE_CONSTANT_Q,
    MODE_VOLT_VAR,
    assemble_ybus,
)
from flexgrid.follower import (
    MAX_V,
    NEGATIVE,
    POSITIVE,
    SLOT_DP_PLUS,
    Scenario,
    build_follower,
    slot_gamma,
    slot_qbar,
    slot_qset,
)
from flexgrid.oracle import (
    OracleError,
    _droop_voltages,
    brute_force_worst_voltage,
    linear_magnitudes,
    linearization_error,
    nonlinear_magnitudes,
    verify_decision,
)
from flexgrid.powerflow import anchor_injections


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
    nodes = np.arange(n)
    rng = np.random.default_rng(3)
    x = np.zeros(problem.n_vars)
    dpg = rng.normal(scale=0.02, size=n)
    dpl = rng.normal(scale=0.02, size=n)
    qg = rng.normal(scale=0.01, size=n)
    x[problem.i_dpg(nodes)] = dpg
    x[problem.i_dpl(nodes)] = dpl
    x[problem.i_qg(nodes)] = qg
    p, q = problem.injections(x)
    dev = pv_ctx.devices
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
