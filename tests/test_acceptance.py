"""End-to-end acceptance suite: one pass/fail line per criterion under -v.

The expensive artifacts are built once at module scope and shared: the three
13-node solves (one per inverter mode) and a batch of 21 randomized small
feeders solved end to end.  Every numeric claim is checked against a route
that does not share code with the implementation under test: a grid adversary
driving Newton solves, vertex enumeration over active sets, a zooming mesh
for bilinear programs, and the duality identity for follower certificates.
"""

import time

import numpy as np
import pytest

from conftest import balanced_doc, pv_doc
from randfeeders import bf_worst_vm, random_context, random_slots
from lpgen import grid_oracle, random_bilinear, random_lp, vertex_enumeration_optimum

from flexgrid.bilevel import run_iterative
from flexgrid.bnb import spatial_branch_and_bound
from flexgrid.feeder import (
    MODE_CONSTANT_PF,
    MODE_CONSTANT_Q,
    MODE_VOLT_VAR,
    load_feeder,
)
from flexgrid.follower import (
    MAX_V,
    MIN_V,
    NEGATIVE,
    POSITIVE,
    Scenario,
    all_scenarios,
    available_flexibility_bounds,
    build_context,
    build_follower,
    fix_worst_case_setpoints,
    fixes_q,
)
from flexgrid.lp import solve_materialized, verify_strong_duality
from flexgrid.oracle import linear_magnitudes, verify_decision
from flexgrid.powerflow import anchor_injections

MODES = (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)
N_RANDOM_FEEDERS = 21  # seven per inverter mode


# ---------------------------------------------------------------------------
# Shared artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ieee13_runs(ieee13_model):
    """The 13-node feeder solved in all three modes, with wall-clock times."""
    ctx = build_context(ieee13_model, v_min=0.9, v_max=1.1)
    runs = {}
    for mode in MODES:
        t0 = time.monotonic()
        res = run_iterative(ctx, mode, direction="overvoltage")
        runs[mode] = (res, time.monotonic() - t0)
    return ctx, runs


@pytest.fixture(scope="module")
def random_batch():
    """21 random 2-4 bus feeders (snug bands) solved end to end."""
    records = []
    for i in range(N_RANDOM_FEEDERS):
        mode = MODES[i % 3]
        rng = np.random.default_rng(7200 + i)
        ctx = random_context(rng, mode=mode)
        res = run_iterative(ctx, mode)
        records.append({"seed": 7200 + i, "mode": mode, "ctx": ctx, "res": res})
    return records


def _decision_problem(ctx, scenario, mode, decision):
    """Follower for a scenario at an accepted decision, plus its slot values."""
    problem = build_follower(ctx, scenario, mode, fix_q=fixes_q(mode, decision.setpoints))
    slots = {
        k: v for k, v in decision.slots.items()
        if k in problem.slot_names
    }
    return problem, slots


@pytest.fixture(scope="module")
def solved_scenarios(random_batch, ieee13_runs):
    """Every follower certificate produced at an accepted decision.

    For the random batch that is all 4n scenarios per feeder; for the 13-node
    runs, the active follower set of each mode.  Entries are
    (context, problem, scenario, slots, certificate) with only optimal statuses kept
    (an adversarial band can make isolated scenarios infeasible).
    """
    solved = []
    for rec in random_batch:
        ctx, mode, res = rec["ctx"], rec["mode"], rec["res"]
        for sc in all_scenarios(ctx.n):
            problem, slots = _decision_problem(ctx, sc, mode, res.decision)
            cert = problem.solve(slots)
            if cert.is_optimal:
                solved.append((ctx, problem, sc, slots, cert))
    ctx13, runs = ieee13_runs
    for mode, (res, _) in runs.items():
        for sc in res.followers:
            problem, slots = _decision_problem(ctx13, sc, mode, res.decision)
            cert = problem.solve(slots)
            if cert.is_optimal:
                solved.append((ctx13, problem, sc, slots, cert))
    return solved


# ---------------------------------------------------------------------------
# 1. Full-range recovery on the 13-node feeder
# ---------------------------------------------------------------------------

def test_full_range_recovery_on_the_13_node_feeder(ieee13_runs):
    ctx, runs = ieee13_runs
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    kw = ctx.feeder.base_kva
    assert dp_up * kw == pytest.approx(1640.0, abs=1e-6)
    assert dp_lo * kw == pytest.approx(-1640.0, abs=1e-6)
    for mode in MODES:
        res, elapsed = runs[mode]
        assert res.converged, mode
        assert res.iterations <= 4, mode
        assert elapsed < 120.0, mode
        # the full availability band is recovered to 1%, symmetrically
        assert res.dp_plus == pytest.approx(dp_up, rel=0.01)
        assert res.dp_minus == pytest.approx(dp_lo, rel=0.01)
        assert res.dp_plus + res.dp_minus == pytest.approx(0.0, abs=0.01 * dp_up)


# ---------------------------------------------------------------------------
# 2. Worst-case limits vs. the brute-force nonlinear adversary
# ---------------------------------------------------------------------------

def _binding_limit_window(rec, side):
    """Check the nonlinear adversary confirms the binding per-node limit.

    The brute-force worst voltage is monotone in the band size, so showing
    "inside the window the grid adversary stays in band, just past it the
    band is breached" brackets the nonlinear limit inside the tolerance
    window around the bisection limit.  The window is
    max(1e-3 * availability, 0.01 p.u. of voltage mapped through the
    aggregate-bound sensitivity at the limit).
    """
    ctx, mode, res = rec["ctx"], rec["mode"], rec["res"]
    wc = res.worst_case
    dp_lo, dp_up = wc.dp_box
    if side == "upper":
        k, fam = wc.binding_upper
        t, full, act = float(wc.upper[k]), dp_up, POSITIVE
    else:
        k, fam = wc.binding_lower
        t, full, act = float(wc.lower[k]), dp_lo, NEGATIVE
    if full == 0.0:
        assert t == 0.0
        return
    # constant-q screening hands reactive power to the adversary outright,
    # so there are no setpoints to pin down
    setpoints = {} if mode == MODE_CONSTANT_Q else fix_worst_case_setpoints(ctx, mode, fam)
    sigma = 1.0 if fam == MAX_V else -1.0
    edge = ctx.v_max if fam == MAX_V else ctx.v_min

    sc = Scenario(k, act, fam)
    problem = build_follower(ctx, sc, mode)
    vals = problem.materialize({**setpoints, sc.dp_slot: t}).values([k])
    lam = abs(float(vals.agg_dual[0])) if vals.optimal[0] else 0.0
    tol = 1e-3 * abs(full)
    if lam > 1e-12:
        tol = max(tol, 0.01 / lam)
    tol = min(tol, abs(full))

    sgn = 1.0 if full > 0 else -1.0

    def worst(band):
        return bf_worst_vm(ctx, mode, setpoints, act, fam, k, sgn * band,
                           steps=5, q_steps=5)

    vm_in = worst(max(abs(t) - tol, 0.0))
    assert sigma * (vm_in - edge) <= 1e-9, (rec["seed"], side, t, vm_in)
    if abs(t) + tol < abs(full):
        vm_out = worst(abs(t) + tol)
        assert sigma * (vm_out - edge) >= -1e-9, (rec["seed"], side, t, vm_out)


def test_worst_case_limits_match_the_nonlinear_oracle_on_random_feeders(random_batch):
    assert len(random_batch) >= 20
    for rec in random_batch:
        assert rec["res"].converged, rec["seed"]
        _binding_limit_window(rec, "upper")
        _binding_limit_window(rec, "lower")
        # end-to-end: the solved band survives the Newton-based verification
        report = verify_decision(rec["ctx"], rec["mode"], rec["res"].decision)
        assert report.max_band_excess <= 0.01 + 1e-9, rec["seed"]
        assert all(c.band_excess <= 0.01 + 1e-9 for c in report.checks), rec["seed"]


# ---------------------------------------------------------------------------
# 3. Strong duality on accepted solutions and random follower instances
# ---------------------------------------------------------------------------

def test_strong_duality_holds_for_accepted_and_random_followers(
    solved_scenarios, random_batch
):
    # every follower solved at an accepted decision carries a tight certificate
    assert len(solved_scenarios) >= 80
    for _, problem, sc, slots, cert in solved_scenarios:
        rep = verify_strong_duality(problem.to_lp(slots), cert)
        assert rep.gap <= 1e-6 * (1.0 + abs(rep.primal_objective))
        assert rep.ok, (sc, rep.gap, rep.max_slackness)

    # ... and on 100 fresh random instances (setpoints and bands drawn
    # uniformly inside their boxes over the batch feeders)
    rng = np.random.default_rng(90210)
    verified = 0
    attempts = 0
    while verified < 100:
        rec = random_batch[attempts % len(random_batch)]
        attempts += 1
        assert attempts < 300, "too many infeasible draws"
        ctx, mode = rec["ctx"], rec["mode"]
        sc = Scenario(
            int(rng.integers(ctx.n)),
            POSITIVE if rng.random() < 0.5 else NEGATIVE,
            MAX_V if rng.random() < 0.5 else MIN_V,
        )
        fix_q = mode == MODE_CONSTANT_Q and rng.random() < 0.5
        problem = build_follower(ctx, sc, mode, fix_q=fix_q)
        slots = random_slots(rng, ctx, mode, problem=problem)
        lp = problem.to_lp(slots)
        cert = solve_materialized(lp.materialize())
        if cert.status != "optimal":
            continue
        rep = verify_strong_duality(lp, cert)
        assert rep.gap <= 1e-6 * (1.0 + abs(rep.primal_objective))
        assert rep.ok, (rec["seed"], sc, rep.gap, rep.max_slackness)
        verified += 1


# ---------------------------------------------------------------------------
# 4. Linearization error at converged 13-node decisions
# ---------------------------------------------------------------------------

def test_linearization_error_stays_within_a_hundredth_pu(ieee13_runs):
    ctx, runs = ieee13_runs
    for mode in MODES:
        res, _ = runs[mode]
        report = verify_decision(ctx, mode, res.decision, direction="overvoltage")
        assert report.max_error <= 0.01, (mode, report.max_error)


# ---------------------------------------------------------------------------
# 5. Nesting and monotonicity
# ---------------------------------------------------------------------------

def test_worst_case_nests_inside_ideal_and_follower_optimum_is_monotone(
    ieee13_runs, random_batch
):
    ctx13, runs = ieee13_runs
    cases = [res for res, _ in runs.values()]
    cases += [rec["res"] for rec in random_batch]
    for res in cases:
        wc = res.worst_case
        slop = 1e-6 * (1.0 + res.dp_plus - res.dp_minus)
        assert wc.range_lower <= 0.0 <= wc.range_upper
        assert wc.range_upper <= res.dp_plus + slop
        assert wc.range_lower >= res.dp_minus - slop

    # growing the aggregate deviation box can only improve the adversary
    boxes = 0
    for i, rec in enumerate(random_batch[:5]):
        ctx, mode, res = rec["ctx"], rec["mode"], rec["res"]
        dp_lo, dp_up = res.worst_case.dp_box
        if i % 2 == 0:
            k, fam = res.worst_case.binding_upper
            sc, full = Scenario(k, POSITIVE, fam), dp_up
        else:
            k, fam = res.worst_case.binding_lower
            sc, full = Scenario(k, NEGATIVE, fam), dp_lo
        problem, slots = _decision_problem(ctx, sc, mode, res.decision)
        mf = problem.materialize(slots)
        prev = -np.inf
        for t in np.linspace(0.0, full, 10):
            cert = mf.certificate(mf.values([k], float(t)), 0)
            assert cert.is_optimal, (rec["seed"], t)
            assert cert.objective >= prev - 1e-9 * (1.0 + abs(cert.objective))
            prev = cert.objective
            boxes += 1
    assert boxes == 50


# ---------------------------------------------------------------------------
# 6. Optimizer cores vs. exhaustive references
# ---------------------------------------------------------------------------

def test_lp_and_branch_and_bound_match_exhaustive_references():
    rng = np.random.default_rng(424242)
    for i in range(200):
        lp = random_lp(rng, max_vars=12)
        ref = vertex_enumeration_optimum(lp)
        assert ref is not None, i
        cert = solve_materialized(lp.materialize())
        assert cert.status == "optimal", i
        assert cert.objective == pytest.approx(ref, abs=1e-8), i

    branched = 0
    for i in range(20):
        bp = random_bilinear(rng)
        ref = grid_oracle(bp)
        assert ref is not None, i
        res = spatial_branch_and_bound(bp, epsilon=5e-5)
        assert res.status == "optimal", i
        assert abs(res.objective - ref) <= 1e-4 * (1.0 + abs(ref)), (
            i, res.objective, ref,
        )
        branched += res.nodes > 1
    assert branched >= 6


# ---------------------------------------------------------------------------
# 7. Anchor exactness of the linear voltage model
# ---------------------------------------------------------------------------

def test_linear_model_reproduces_every_anchor_exactly(ieee13_model, random_batch):
    contexts = [
        build_context(ieee13_model),
        build_context(load_feeder(pv_doc())),
        build_context(load_feeder(balanced_doc())),
    ]
    contexts += [rec["ctx"] for rec in random_batch]
    for ctx in contexts:
        p0, q0 = anchor_injections(ctx.feeder, ctx.index)
        vm = linear_magnitudes(ctx, p0, q0)
        assert float(np.max(np.abs(vm - ctx.anchor.vm))) <= 1e-9


# ---------------------------------------------------------------------------
# 8. Activation sign rules in every solved scenario
# ---------------------------------------------------------------------------

def test_activation_sign_rules_hold_in_every_solved_scenario(solved_scenarios):
    assert len(solved_scenarios) >= 80
    for _, problem, sc, _, cert in solved_scenarios:
        dev = problem.devices
        dpg = cert.x[problem.i_dpg(np.array(dev.inverter_nodes))]
        dpl = cert.x[problem.i_dpl(np.array(dev.load_nodes))]
        if sc.activation == POSITIVE:
            assert float(np.min(dpg)) >= 0.0, sc
            assert float(np.max(dpl)) <= 0.0, sc
        else:
            assert float(np.max(dpg)) <= 0.0, sc
            assert float(np.min(dpl)) >= 0.0, sc


def test_argmax_magnitudes_are_the_linear_flow_of_its_injections(solved_scenarios):
    """Every follower argmax carries the |v| profile its own injections give."""
    assert len(solved_scenarios) >= 80
    for ctx, problem, sc, _, cert in solved_scenarios:
        p, q = problem.injections(cert.x)
        vm = cert.x[problem.i_vm(np.arange(problem.n))]
        assert np.max(np.abs(vm - linear_magnitudes(ctx, p, q))) <= 1e-9, sc
