"""Nonlinear re-validation: injections, Newton cross-checks, brute force."""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from flexgrid import build_context, follower, load_feeder, oracle, powerflow
from flexgrid.bilevel import (
    BilevelError,
    UpperDecision,
    family_follower,
    feasibility_check,
    run_iterative,
    setpoint_boxes,
)
from flexgrid.feeder import (
    MODE_CONSTANT_PF,
    MODE_CONSTANT_Q,
    MODE_VOLT_VAR,
)
from flexgrid.follower import (
    ACTIVATIONS,
    MAX_V,
    NEGATIVE,
    POSITIVE,
    SLOT_DP_MINUS,
    SLOT_DP_PLUS,
    FollowerProblem,
    Scenario,
    _FreeQ,
    _Knapsack,
    all_scenarios,
    available_flexibility_bounds,
    build_follower,
    fixes_q,
    screened_extrema,
    slot_gamma,
    slot_qbar,
    slot_qset,
)
from flexgrid.oracle import (
    BruteForceResult,
    OracleError,
    OracleReport,
    ScenarioCheck,
    _droop_voltages,
    brute_force_extremes,
    brute_force_worst_voltage,
    linear_magnitudes,
    linearization_error,
    nonlinear_magnitudes,
    verify_decision,
)
from flexgrid.powerflow import NEWTON_TOL, PowerFlowError, anchor_injections

from corpus import BINDING_FEEDERS, corpus_context
from randfeeders import random_context


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


@pytest.mark.parametrize("mode", [MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR])
def test_the_slots_pick_the_family_for_the_re_screen_and_the_oracle(pv_tight_ctx, mode):
    """A constant-q follower owns q_gen at the screening's slots and holds
    it at a decision's q_set slots; at the decision the re-screen and the
    oracle evaluate the same families, to the bit."""
    ctx = pv_tight_ctx
    decision = run_iterative(ctx, mode).decision
    if mode == MODE_CONSTANT_Q:
        dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
        for activation in ACTIVATIONS:
            free = family_follower(ctx, mode, activation, {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo})
            held = family_follower(ctx, mode, activation, decision.slots)
            assert type(free) is _FreeQ and type(held) is _Knapsack
            qfix = [[r for r in mf.problem.row_names if r.startswith("qfix")] for mf in (free, held)]
            assert qfix == [[], [f"qfix[{k}]" for k in ctx.devices.inverter_nodes]]
    worst = feasibility_check(ctx, mode, decision).worst_vm
    checks = verify_decision(ctx, mode, decision).checks
    assert len(checks) == len(worst) == 4 * ctx.n
    for c in checks:
        assert c.lp_vm == worst[(c.scenario.node, c.scenario.activation, c.scenario.extremum)]


def test_a_constant_q_decision_without_q_set_is_screened_with_free_q(pv_tight_ctx):
    """Without q_set slots the re-screen and the oracle leave q_gen to the
    adversary, whose optima bound those at any q_set from above."""
    ctx = pv_tight_ctx
    decision = run_iterative(ctx, MODE_CONSTANT_Q).decision
    bare = dataclasses.replace(decision, setpoints={})
    held = feasibility_check(ctx, MODE_CONSTANT_Q, decision).worst_vm
    free = feasibility_check(ctx, MODE_CONSTANT_Q, bare).worst_vm
    for c in verify_decision(ctx, MODE_CONSTANT_Q, bare).checks:
        key = (c.scenario.node, c.scenario.activation, c.scenario.extremum)
        assert c.lp_vm == free[key]
        assert c.scenario.sigma * free[key] >= c.scenario.sigma * held[key] - 1e-12


def test_verify_decision_requires_all_slots(pv_tight_ctx):
    bare = UpperDecision(dp_plus=0.1, dp_minus=-0.1, setpoints={})
    with pytest.raises(OracleError, match="lacks slots"):
        verify_decision(pv_tight_ctx, MODE_CONSTANT_PF, bare)


def test_a_follower_row_without_an_optimum_stops_screening_and_verify(pv_model, monkeypatch):
    """Both sweeps over the screened families refuse a family whose ``values``
    report a row without an optimum: ``feasibility_check`` with
    ``BilevelError`` and ``verify_decision`` with ``OracleError``, each
    naming the first such row of the first family."""
    ctx = build_context(pv_model)
    decision = UpperDecision(
        dp_plus=0.1, dp_minus=-0.1,
        setpoints=dict.fromkeys(setpoint_boxes(ctx, MODE_CONSTANT_PF), 0.0),
    )
    solved = follower.MaterializedFollower.values

    def row_two_without_optimum(self, nodes, edges=None, sigma=None):
        vals = solved(self, nodes, edges, sigma)
        optimal = vals.optimal.copy()
        optimal[2] = False
        return dataclasses.replace(vals, optimal=optimal)

    monkeypatch.setattr(follower.MaterializedFollower, "values", row_two_without_optimum)
    message = r"follower \(node 2, positive/min\) has no optimum"
    with pytest.raises(BilevelError, match=message):
        feasibility_check(ctx, MODE_CONSTANT_PF, decision)
    with pytest.raises(OracleError, match=message):
        verify_decision(ctx, MODE_CONSTANT_PF, decision)


@pytest.mark.parametrize("mode", [MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR])
@pytest.mark.parametrize("direction", ["both", "overvoltage"])
def test_a_re_screen_and_a_verify_make_one_kernel_call_per_activation(mode, direction, monkeypatch):
    """One follower serves both extrema of an activation, so at a run's
    decision ``feasibility_check`` and ``verify_decision`` each fill the
    rows of every node and screened extremum of one activation with one
    closed-form kernel call (``follower._fill``): two calls whatever the
    direction, of 2n rows each under "both" and of n under "overvoltage".
    Any further call is a one-row fallback solve."""
    ctx = corpus_context(7210, 3.0, mode)
    decision = run_iterative(ctx, mode, direction=direction).decision
    rows, fallbacks = [], []
    fill, solve = follower._fill, follower.MaterializedFollower.solve
    monkeypatch.setattr(follower, "_fill", lambda gain, *args: rows.append(len(gain)) or fill(gain, *args))
    monkeypatch.setattr(follower.MaterializedFollower, "solve",
                        lambda self, *args, **kwargs: fallbacks.append(1) or solve(self, *args, **kwargs))
    want = [len(screened_extrema(direction)) * ctx.n] * len(ACTIVATIONS)
    for sweep in (feasibility_check, verify_decision):
        rows.clear(), fallbacks.clear()
        sweep(ctx, mode, decision, direction=direction)
        assert [r for r in rows if r > 1] == want, sweep.__name__
        assert len(rows) == len(want) + len(fallbacks), sweep.__name__


def _report_bits(report):
    """Everything a report holds, with each float as its exact bits."""
    checks = [
        (c.scenario, *(float(v).hex() for v in (c.lp_vm, c.nl_vm, c.error, c.band_excess)))
        for c in report.checks
    ]
    profiles = [report.profile_linear.tobytes(), report.profile_nonlinear.tobytes()]
    extremes = report.max_error.hex(), report.max_band_excess.hex()
    return checks, report.profile_scenario, profiles, extremes


@pytest.mark.parametrize("mode", [MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR])
def test_a_verify_after_a_run_re_slots_the_runs_followers(mode, monkeypatch):
    """``verify_decision`` on the context a run solved materializes no
    follower, and reports to the bit what a verify on a copy of the
    context reports, which builds its own followers: one per activation,
    serving both extrema."""
    ctx = corpus_context(7210, 3.0, mode)
    decision = run_iterative(ctx, mode).decision
    made = []
    materialize = FollowerProblem.materialize
    monkeypatch.setattr(FollowerProblem, "materialize",
                        lambda problem, slots: made.append(1) or materialize(problem, slots))
    report = verify_decision(ctx, mode, decision)
    assert made == []
    fresh = verify_decision(dataclasses.replace(ctx), mode, decision)
    assert len(made) == 2
    assert _report_bits(report) == _report_bits(fresh)


@pytest.mark.parametrize("mode", [MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR])
def test_a_context_is_freed_by_its_last_reference(mode):
    """A context that kept its followers through a run and a verify, and
    its brute-force grids through a recheck, is freed as soon as the last
    reference to it goes, without the cycle collector: no follower refers
    back to it, and no module keeps a grid.  The run's, verify's and
    recheck's results keep no reference to it either."""
    ctx = corpus_context(7210, 3.0, mode)
    res = run_iterative(ctx, mode)
    report = verify_decision(ctx, mode, res.decision)
    # The neutral decision reproduces the anchor: its grid is the anchor alone.
    neutral = UpperDecision(
        dp_plus=0.0, dp_minus=0.0, setpoints=dict.fromkeys(setpoint_boxes(ctx, mode), 0.0)
    )
    brute = brute_force_worst_voltage(ctx, mode, neutral, res.followers[0])
    assert ctx.followers and ctx.brute_force
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert ref() is None
    finally:
        gc.enable()
    assert res.followers and report.checks and brute.points


# ---------------------------------------------------------------------------
# One Newton stack of distinct profiles against one stack per family
# ---------------------------------------------------------------------------

def _argmax_families(ctx, mode, decision, direction):
    """Per (activation, extremum) family: its prototype scenario, the
    objectives of its n followers and the (p, q) of their argmax dispatches."""
    fix_q = fixes_q(mode, decision.setpoints)
    families = []
    for activation in ACTIVATIONS:
        for extremum in screened_extrema(direction):
            proto = Scenario(0, activation, extremum)
            problem = build_follower(ctx, proto, mode, fix_q=fix_q)
            mf = problem.materialize({s: decision.slots[s] for s in problem.slot_names})
            vals = mf.values(np.arange(ctx.n))
            assert vals.optimal.all()
            x = np.zeros((ctx.n, problem.n_vars))
            x[:, mf.device_cols] = vals.devices
            families.append((proto, vals.objective, *problem.injections(x)))
    return families


def _reference_verify(ctx, mode, decision, direction):
    """``verify_decision`` with one stacked Newton solve per family, repeats
    included."""
    checks, profiles = [], []
    for proto, objective, p, q in _argmax_families(ctx, mode, decision, direction):
        vm_lin = linear_magnitudes(ctx, p, q)
        vm_nl = nonlinear_magnitudes(ctx, p, q)
        errors = np.max(np.abs(vm_lin - vm_nl), axis=1)
        excess = np.max(np.maximum(vm_nl - ctx.v_max, ctx.v_min - vm_nl), axis=1)
        profiles += zip(vm_lin, vm_nl)
        checks += [
            ScenarioCheck(
                scenario=Scenario(k, proto.activation, proto.extremum),
                lp_vm=proto.sigma * obj,
                nl_vm=float(vm_nl[k, k]),
                error=float(errors[k]),
                band_excess=float(excess[k]),
            )
            for k, obj in enumerate(objective.tolist())
        ]
    worst = int(np.argmax([c.error for c in checks]))
    return OracleReport(
        checks=checks,
        max_error=checks[worst].error,
        max_band_excess=max(c.band_excess for c in checks),
        profile_scenario=checks[worst].scenario,
        profile_linear=profiles[worst][0],
        profile_nonlinear=profiles[worst][1],
    )


def _assert_same_report(got, ref, tol):
    """Field by field; ``tol`` 0 asks for the same bits."""

    def same(a, b, what):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape, what
        if tol == 0:
            assert a.tobytes() == b.tobytes(), what
        else:
            assert np.max(np.abs(a - b), initial=0.0) <= tol, what

    assert [c.scenario for c in got.checks] == [c.scenario for c in ref.checks]
    for field in ("lp_vm", "nl_vm", "error", "band_excess"):
        same([getattr(c, field) for c in got.checks], [getattr(c, field) for c in ref.checks],
             field)
    same(got.max_error, ref.max_error, "max_error")
    same(got.max_band_excess, ref.max_band_excess, "max_band_excess")
    assert got.profile_scenario == ref.profile_scenario
    same(got.profile_linear, ref.profile_linear, "profile_linear")
    same(got.profile_nonlinear, ref.profile_nonlinear, "profile_nonlinear")


@pytest.fixture(scope="module")
def solved_study(ieee13_binding_ctx, pv_tight_ctx):
    """(ctx, accepted decision) of a named study in a mode, solved once."""
    held = {}

    def solved(study, mode):
        if (study, mode) not in held:
            if study == "ieee13-binding":  # the binding-13bus benchmark case
                ctx, options = ieee13_binding_ctx, {"direction": "overvoltage", "node_limit": 2}
            elif study == "pv-tight":
                ctx, options = pv_tight_ctx, {}
            else:  # "gen<seed>": the weak-grid generator feeders of binding-small
                rng = np.random.default_rng(int(study.removeprefix("gen")))
                ctx, options = random_context(rng, mode=mode, z_scale=2.0), {"direction": "both"}
            held[study, mode] = ctx, run_iterative(ctx, mode, **options).decision
        return held[study, mode]

    return solved


# The benchmark's cases among the studies below (ceiling-13bus and
# nonlinear-recheck aside), whose reports must keep every bit.
BENCHMARK_VERIFIES = {
    ("ieee13-binding", MODE_CONSTANT_PF, "overvoltage"),
    ("gen7200", MODE_CONSTANT_PF, "both"),
    ("gen7201", MODE_CONSTANT_Q, "both"),
    ("gen7202", MODE_VOLT_VAR, "both"),
}
MODES = (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)


@pytest.mark.parametrize(
    "study,mode,direction",
    [("ieee13-binding", MODE_CONSTANT_PF, d) for d in ("overvoltage", "both")]
    + [
        (study, mode, d)
        for study in ("pv-tight", "gen7200", "gen7201", "gen7202")
        for mode in MODES
        for d in ("both", "overvoltage")
    ],
)
def test_verify_matches_one_newton_stack_per_family(solved_study, study, mode, direction):
    """Deduplicated profiles in one Newton stack report what one stack per
    family reported: the same bits on the benchmark's cases, and within
    1e-12 p.u. elsewhere (a row's last bits may depend on its stack)."""
    ctx, decision = solved_study(study, mode)
    got = verify_decision(ctx, mode, decision, direction=direction)
    ref = _reference_verify(ctx, mode, decision, direction)
    _assert_same_report(got, ref, 0 if (study, mode, direction) in BENCHMARK_VERIFIES else 1e-12)


def test_verify_splits_its_stack_into_newton_chunks(solved_study, monkeypatch):
    """A stack over the memory budget is solved in chunks with the same result."""
    ctx, decision = solved_study("ieee13-binding", MODE_CONSTANT_PF)
    ref = _reference_verify(ctx, MODE_CONSTANT_PF, decision, "both")
    chunks = []
    newton = powerflow._newton
    monkeypatch.setattr(powerflow, "NEWTON_STACK_BYTES",
                        4 * powerflow.ROW_BYTES_PER_NODE2 * ctx.n**2)
    monkeypatch.setattr(powerflow, "_newton", lambda YLL, i_lin, v_flat, s_spec, *out: (
        chunks.append(len(s_spec)) or newton(YLL, i_lin, v_flat, s_spec, *out)))
    got = verify_decision(ctx, MODE_CONSTANT_PF, decision, direction="both")
    assert len(chunks) > 1 and max(chunks) == 4
    _assert_same_report(got, ref, 1e-12)


def test_verify_makes_one_newton_call_over_the_distinct_profiles(ieee13_model, monkeypatch):
    """At the availability ceiling every target of a family shares one
    dispatch: the 72 scenarios of the overvoltage verify take one Newton
    call over their few distinct (p, q) rows."""
    ctx = build_context(ieee13_model)
    decision = run_iterative(ctx, MODE_CONSTANT_PF, direction="overvoltage").decision
    families = _argmax_families(ctx, MODE_CONSTANT_PF, decision, "overvoltage")
    rows = np.concatenate([np.concatenate([p, q], axis=1) for *_, p, q in families])
    distinct = len(np.unique(rows, axis=0))
    calls = []
    solve = oracle.solve_nonlinear_pf
    monkeypatch.setattr(oracle, "solve_nonlinear_pf",
                        lambda model, p, q, **kw: calls.append(len(p)) or solve(model, p, q, **kw))
    report = verify_decision(ctx, MODE_CONSTANT_PF, decision, direction="overvoltage")
    assert len(report.checks) == len(rows) == 72
    assert calls == [distinct]
    assert distinct <= 6


def test_brute_force_agrees_with_the_lp_adversary():
    # one device, loose apparent-power cap: the LP optimum sits on a box
    # corner that the brute-force grid hits exactly
    ctx = build_context(load_feeder(one_inverter_doc(MODE_CONSTANT_PF)))
    decision = UpperDecision(
        dp_plus=0.1, dp_minus=0.0,
        setpoints={slot_gamma(0): 0.3},
    )
    sc = Scenario(0, POSITIVE, MAX_V)
    problem = build_follower(ctx, sc, MODE_CONSTANT_PF)
    cert = problem.solve(
        {slot_gamma(0): 0.3, SLOT_DP_PLUS: decision.dp_plus}
    )
    bf = brute_force_worst_voltage(ctx, MODE_CONSTANT_PF, decision, sc)
    assert bf.points == 7  # every dpg grid point respects the wide band
    assert bf.vm_linear == pytest.approx(cert.objective, abs=1e-9)  # σ = +1: the objective is |v|
    assert bf.vm_nonlinear == pytest.approx(bf.vm_linear, abs=2e-3)
    assert bf.vm_nonlinear > ctx.anchor.vm[0]


def test_droop_fixed_point_is_self_consistent():
    ctx = build_context(load_feeder(one_inverter_doc(MODE_VOLT_VAR)))
    p = np.array([0.12])
    qbar = np.array([0.08])
    q_other = np.zeros(1)
    vm, q = _droop_voltages(ctx, p, qbar, q_other)
    # the droop line and the power flow hold simultaneously
    band = ctx.v_max - ctx.v_min
    q_line = qbar * ((ctx.v_max + ctx.v_min) - 2.0 * vm) / band
    assert np.allclose(q, q_other + q_line, atol=1e-8)
    assert np.allclose(vm, nonlinear_magnitudes(ctx, p, q), atol=1e-8)


def test_brute_force_volt_var_runs_the_droop(pv_model):
    ctx = build_context(load_feeder(one_inverter_doc(MODE_VOLT_VAR)))
    decision = UpperDecision(
        dp_plus=0.08, dp_minus=0.0,
        setpoints={slot_qbar(0): 0.1},
    )
    bf = brute_force_worst_voltage(
        ctx, MODE_VOLT_VAR, decision, Scenario(0, POSITIVE, MAX_V)
    )
    assert bf.points > 0
    assert abs(bf.vm_nonlinear - bf.vm_linear) < 5e-3


def test_brute_force_refuses_large_fleets(pv_tight_ctx):
    decision = UpperDecision(
        dp_plus=0.1, dp_minus=-0.1,
        setpoints=dict.fromkeys(setpoint_boxes(pv_tight_ctx, MODE_CONSTANT_PF), 0.0),
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
        setpoints={slot_qset(0): q_deep},
    )
    with pytest.raises(OracleError, match="no admissible grid points"):
        brute_force_worst_voltage(
            ctx, MODE_CONSTANT_Q, decision, Scenario(0, POSITIVE, MAX_V)
        )


# ---------------------------------------------------------------------------
# The stacked brute force against the per-point loop it replaced
# ---------------------------------------------------------------------------

def _reference_droop(ctx, p, qbar, q_other, *, max_iter=100, tol=1e-10):
    """Volt-var fixed point of one profile by damped Picard iteration, one
    Newton solve per step: the test oracle of the joint droop solve."""
    band = ctx.v_max - ctx.v_min
    for alpha in (1.0, 0.5, 0.2):
        vm = ctx.anchor.vm.copy()
        for _ in range(max_iter):
            q_inv = qbar * ((ctx.v_max + ctx.v_min) - 2.0 * vm) / band
            q = q_other + q_inv
            new_vm = nonlinear_magnitudes(ctx, p, q)
            if np.max(np.abs(new_vm - vm)) < tol:
                return new_vm, q
            vm = vm + alpha * (new_vm - vm)
    raise OracleError("volt-var droop fixed point did not converge")


def _reference_grid(ctx, mode, decision, activation, *, steps=7, q_steps=5):
    """The grid adversary as a Python loop with one Newton solve per point.

    Returns (nonlinear |v| at every node, p, q) of every admissible point of
    ``activation``'s grid, in enumeration order.
    """
    dev = ctx.devices
    fix_q = fixes_q(mode, decision.setpoints)
    problem = build_follower(ctx, Scenario(0, activation, MAX_V), mode, fix_q=fix_q)
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
    dp_cap = decision.dp_plus if activation == POSITIVE else decision.dp_minus
    evaluated = []  # (|v| at every node, p, q) per admissible point

    for combo in itertools.product(*[d[2] for d in dims]) if dims else [()]:
        dpg = np.zeros(n)
        dpl = np.zeros(n)
        for (kind, k, _), value in zip(dims, combo):
            if kind == "dpg":
                dpg[k] = value
            else:
                dpl[k] = value
        agg = float(np.sum(dpg) - np.sum(dpl))
        if activation == POSITIVE and agg > dp_cap + 1e-9:
            continue
        if activation != POSITIVE and agg < dp_cap - 1e-9:
            continue
        pg = dev.p_gen0 + dpg
        p = pg - (dev.p_load0 + dpl)
        q_load = dev.beta_load * (dev.p_load0 + dpl)
        head = np.sqrt(np.maximum(dev.s_cap**2 - pg**2, 0.0))

        def finish(q_gen):
            if np.any(np.abs(q_gen) > head + 1e-9):
                return
            q = q_gen - q_load
            evaluated.append((nonlinear_magnitudes(ctx, p, q), p, q))

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
            vm, q = _droop_voltages(ctx, p, qbar, -q_load)  # the droop solve, alone
            if np.any(np.abs(q + q_load) > head + 1e-9):
                continue
            evaluated.append((vm, p, q))

    if not evaluated:
        raise OracleError("no admissible grid points")
    return evaluated


def _reference_extreme(ctx, evaluated, scenario):
    """The scenario's extreme over a reference grid, and the linear |v| at the
    scenario node of every point whose nonlinear |v| ties it within 1e-12."""
    k, sigma = scenario.node, scenario.sigma
    best = None
    for i, (vm, _, _) in enumerate(evaluated):  # the first strict improvement wins
        if best is None or sigma * vm[k] > sigma * evaluated[best][0][k]:
            best = i
    vm_best, p, q = evaluated[best]

    def lin_at(p, q):
        return float(linear_magnitudes(ctx, p, q)[k])

    ties = [lin_at(p, q) for vm, p, q in evaluated if abs(vm[k] - vm_best[k]) <= 1e-12]
    result = BruteForceResult(
        scenario=scenario, vm_nonlinear=float(vm_best[k]), vm_linear=lin_at(p, q),
        points=len(evaluated),
    )
    return result, ties


def _assert_matches_reference(ctx, mode, decision, scenarios):
    grids = {}  # activation -> reference grid, None where it has no admissible point
    for sc in scenarios:
        if sc.activation not in grids:
            try:
                grids[sc.activation] = _reference_grid(ctx, mode, decision, sc.activation)
            except OracleError:
                grids[sc.activation] = None
        if grids[sc.activation] is None:
            with pytest.raises(OracleError, match="no admissible grid points"):
                brute_force_worst_voltage(ctx, mode, decision, sc)
            continue
        ref, ties = _reference_extreme(ctx, grids[sc.activation], sc)
        got = brute_force_worst_voltage(ctx, mode, decision, sc)
        assert got.scenario == sc
        assert got.points == ref.points, sc
        assert abs(got.vm_nonlinear - ref.vm_nonlinear) <= 1e-12, sc
        # a rounding tie in the nonlinear |v| may pick another extreme point
        assert any(abs(got.vm_linear - lin) <= 1e-12 for lin in ties), sc


@pytest.mark.parametrize(
    "seed,mode",
    [
        (7204, MODE_CONSTANT_Q),
        (7205, MODE_VOLT_VAR),
        (7206, MODE_CONSTANT_PF),
        (7208, MODE_VOLT_VAR),
    ],
)
def test_stacked_brute_force_matches_the_per_point_loop(seed, mode):
    """At the solved decision, on every scenario of every node."""
    ctx = random_context(np.random.default_rng(seed), mode=mode)
    decision = run_iterative(ctx, mode, direction="both").decision
    _assert_matches_reference(ctx, mode, decision, all_scenarios(ctx.n))


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
            dp_plus=decision.dp_plus, dp_minus=decision.dp_minus, setpoints=setpoints
        )
        _assert_matches_reference(ctx, mode, trial, all_scenarios(ctx.n))


@pytest.mark.parametrize("seed,mode", [(7207, MODE_CONSTANT_Q), (7208, MODE_VOLT_VAR)])
def test_stacked_brute_force_matches_off_the_solved_setpoints(seed, mode):
    """Free-q sub-grids and a strong droop on generated feeders."""
    ctx = random_context(np.random.default_rng(seed), mode=mode)
    decision = run_iterative(ctx, mode, direction="both").decision
    setpoints = {} if mode == MODE_CONSTANT_Q else {
        s: box[1] for s, box in setpoint_boxes(ctx, mode).items()
    }
    trial = UpperDecision(
        dp_plus=decision.dp_plus, dp_minus=decision.dp_minus, setpoints=setpoints
    )
    _assert_matches_reference(ctx, mode, trial, all_scenarios(ctx.n))


# ---------------------------------------------------------------------------
# The joint droop solve against Picard iteration
# ---------------------------------------------------------------------------

PICARD_TOL = 1e-10  # ``_reference_droop``'s stopping move


def _droop_tolerance(ctx):
    """How far two solves of one droop equilibrium may part in |v|.

    Each Newton solve stops at a power mismatch below ``NEWTON_TOL``, which
    moves |v| by at most about ||Z||∞·NEWTON_TOL, Z the inverse of the
    admittance matrix's load block; two solves can part by twice that.
    Picard returns G(v) with |G(v) - v| below ``PICARD_TOL``, and under the
    droop's negative feedback the fixed point of G is no farther from G(v)
    than that."""
    ns = len(ctx.index.slack_nodes)
    z_norm = np.abs(np.linalg.inv(ctx.ybus[ns:, ns:])).sum(axis=1).max()
    return PICARD_TOL + 2 * NEWTON_TOL * z_norm


def _assert_droop_equilibrium(ctx, p, qbar, q_other, vm, q):
    """q is the droop line at vm, and the plain Newton |v| at q is vm."""
    band = ctx.v_max - ctx.v_min
    line = q_other + qbar * ((ctx.v_max + ctx.v_min) - 2.0 * vm) / band
    assert np.max(np.abs(q - line)) <= 1e-12
    assert np.max(np.abs(nonlinear_magnitudes(ctx, p, q) - vm)) <= _droop_tolerance(ctx)


def _narrow_band():
    """The one-inverter feeder on a 0.01 p.u. band, where the droop gain is
    high, and seven active-power profiles."""
    ctx = build_context(load_feeder(one_inverter_doc(MODE_VOLT_VAR)), v_min=0.995, v_max=1.005)
    p = np.linspace(0.0, 0.3, 7)[:, None]
    return ctx, p, np.zeros_like(p)


@pytest.mark.parametrize("qbar", [0.1, 0.15])
def test_the_droop_solve_matches_picard_on_a_narrow_band(qbar):
    ctx, p, q_other = _narrow_band()
    qbar = np.array([qbar])
    vm, q = _droop_voltages(ctx, p, qbar, q_other)
    assert vm.shape == q.shape == p.shape
    tol = _droop_tolerance(ctx)
    slope = 2.0 * qbar / (ctx.v_max - ctx.v_min)
    for i in range(len(p)):
        vm_ref, q_ref = _reference_droop(ctx, p[i], qbar, q_other[i])
        assert np.max(np.abs(vm[i] - vm_ref)) <= tol, i
        # Picard's q is the line at its last iterate, within PICARD_TOL of vm_ref.
        assert np.max(np.abs(q[i] - q_ref)) <= slope.max() * (tol + PICARD_TOL), i


@pytest.mark.parametrize("qbar", [0.3, 1.0])
def test_the_droop_solve_settles_where_picard_fails(qbar):
    """At these gains damped Picard leaves the feasible injections on every
    profile; the joint solve still finds an equilibrium."""
    ctx, p, q_other = _narrow_band()
    qbar = np.array([qbar])
    vm, q = _droop_voltages(ctx, p, qbar, q_other)
    for i in range(len(p)):
        with pytest.raises((OracleError, PowerFlowError)):
            _reference_droop(ctx, p[i], qbar, q_other[i])
        _assert_droop_equilibrium(ctx, p[i], qbar, q_other[i], vm[i], q[i])


def test_the_droop_solve_matches_picard_on_the_corpus():
    """Each corpus feeder at full droop authority, under its anchor's
    injections scaled from 0 to 2: every profile is an equilibrium, and
    equals Picard's wherever Picard settles.  Picard settles on no profile
    of 7210-z3 and 7235-z3."""
    amp = np.linspace(0.0, 2.0, 5)[:, None]
    unsettled = set()
    for seed, z_scale in BINDING_FEEDERS:
        ctx = corpus_context(seed, z_scale, MODE_VOLT_VAR)
        p0, q0 = anchor_injections(ctx.feeder, ctx.index)
        p, q_other = amp * p0, amp * q0
        boxes = setpoint_boxes(ctx, MODE_VOLT_VAR)
        qbar = np.zeros(ctx.n)
        for k in ctx.devices.inverter_nodes:
            qbar[k] = boxes[slot_qbar(k)][1]
        vm, q = _droop_voltages(ctx, p, qbar, q_other)
        tol = _droop_tolerance(ctx)
        settled = 0
        for i in range(len(p)):
            _assert_droop_equilibrium(ctx, p[i], qbar, q_other[i], vm[i], q[i])
            try:
                vm_ref, _ = _reference_droop(ctx, p[i], qbar, q_other[i])
            except (OracleError, PowerFlowError):
                continue
            settled += 1
            assert np.max(np.abs(vm[i] - vm_ref)) <= tol, (seed, z_scale, i)
        if not settled:
            unsettled.add((seed, z_scale))
    assert unsettled == {(7210, 3.0), (7235, 3.0)}


@pytest.mark.parametrize("seed", [7210, 7235])
def test_the_brute_force_rechecks_a_weak_volt_var_feeder(seed):
    """On these z 3 feeders damped Picard reaches no droop equilibrium; the
    joint solve does, and the decision holds the band in the Newton model."""
    ctx = corpus_context(seed, 3.0, MODE_VOLT_VAR)
    decision = run_iterative(ctx, MODE_VOLT_VAR, direction="both", node_limit=400).decision
    for sc in all_scenarios(ctx.n):
        bf = brute_force_worst_voltage(ctx, MODE_VOLT_VAR, decision, sc)
        assert bf.points > 0
        assert max(bf.vm_nonlinear - ctx.v_max, ctx.v_min - bf.vm_nonlinear) <= 0.0, sc


# ---------------------------------------------------------------------------
# One grid per activation behind the per-scenario call
# ---------------------------------------------------------------------------

def _solved(seed, mode):
    ctx = random_context(np.random.default_rng(seed), mode=mode)
    return ctx, run_iterative(ctx, mode, direction="both").decision


@pytest.mark.parametrize("seed,mode", [(7204, MODE_CONSTANT_Q), (7205, MODE_VOLT_VAR)])
def test_a_scenario_loop_builds_one_grid_per_activation(seed, mode, monkeypatch):
    """The 4n scenarios make exactly the Newton calls of the two
    activations' grids, one per grid (volt-var: the droop solve), and each
    answer is read off its activation's extremes."""
    ctx, decision = _solved(seed, mode)
    calls = []
    real = oracle.solve_nonlinear_pf
    monkeypatch.setattr(oracle, "solve_nonlinear_pf",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    extremes = {}
    for activation in (POSITIVE, NEGATIVE):
        extremes[activation] = brute_force_extremes(ctx, mode, decision, activation)
    per_grid = len(calls)
    assert per_grid == 2

    calls.clear()
    ctx.brute_force.clear()
    for sc in all_scenarios(ctx.n):
        got = brute_force_worst_voltage(ctx, mode, decision, sc)
        ext = extremes[sc.activation]
        assert got.points == ext.points
        assert got.vm_nonlinear == ext.vm_nonlinear[sc.extremum][sc.node]
        assert got.vm_linear == ext.vm_linear[sc.extremum][sc.node]
    assert len(calls) == per_grid


def _fresh(ctx, mode, decision, scenario):
    """The brute force on ``ctx`` after its kept grids are cleared."""
    ctx.brute_force.clear()
    return brute_force_worst_voltage(ctx, mode, decision, scenario)


@pytest.mark.parametrize("change", ["setpoints in place", "dp_plus", "v_max", "v_max in place"])
def test_the_brute_force_memo_misses_on_any_changed_input(change):
    """A decision or context changed after a call gives what a memo-cleared
    call gives, and not the answer kept for the old inputs.  A context's
    limits cannot change in place: it is frozen."""
    ctx, solved = _solved(7205, MODE_VOLT_VAR)
    boxes = setpoint_boxes(ctx, MODE_VOLT_VAR)
    # Full droop authority, so that the droop and its v_max show.
    decision = dataclasses.replace(solved, setpoints={slot: hi for slot, (_, hi) in boxes.items()})
    sc = Scenario(0, POSITIVE, MAX_V)
    before = _fresh(ctx, MODE_VOLT_VAR, decision, sc)
    if change == "setpoints in place":
        for slot, (lo, hi) in boxes.items():
            decision.setpoints[slot] = (lo + hi) / 2
    elif change == "dp_plus":
        decision = dataclasses.replace(decision, dp_plus=decision.dp_plus / 2)
    elif change == "v_max":
        ctx = dataclasses.replace(ctx, v_max=ctx.v_max + 0.02)
    else:
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.v_max += 0.02
        return
    after = brute_force_worst_voltage(ctx, MODE_VOLT_VAR, decision, sc)
    assert after != before
    assert after == _fresh(ctx, MODE_VOLT_VAR, decision, sc)


def test_a_raising_brute_force_keeps_nothing(monkeypatch):
    """Each call at an unreachable setpoint builds its grid and raises again."""
    ctx = build_context(load_feeder(one_inverter_doc(MODE_CONSTANT_Q)))
    q_deep = float(ctx.devices.gamma_const[0] * ctx.devices.p_gen_max[0] * 1.5)
    decision = UpperDecision(
        dp_plus=0.05, dp_minus=0.0, setpoints={slot_qset(0): q_deep},
    )
    builds = []
    real = oracle.build_follower
    monkeypatch.setattr(oracle, "build_follower",
                        lambda *args, **kwargs: builds.append(1) or real(*args, **kwargs))
    for _ in range(3):
        with pytest.raises(OracleError, match="no admissible grid points"):
            brute_force_worst_voltage(ctx, MODE_CONSTANT_Q, decision, Scenario(0, POSITIVE, MAX_V))
    assert len(builds) == 3
