"""Adversarial follower LPs: structure, anchor recovery, duals, sign rules."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexgrid import build_context, load_feeder
from flexgrid.feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR
from flexgrid.follower import (
    ACTIVATIONS,
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
    setpoint_boxes,
    slot_gamma,
    slot_qbar,
    slot_qset,
)
from flexgrid.lp import verify_strong_duality
from flexgrid.oracle import linear_magnitudes

from conftest import pv_doc
from corpus import BINDING_FEEDERS, corpus_context
from randfeeders import random_context, random_slots

MODES = (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)


def neutral_slots(problem):
    """Zero band plus inert setpoints: the adversary can only sit still."""
    slots = {}
    for name in problem.slot_names:
        slots[name] = 0.0
    return slots


# --- scenario bookkeeping -------------------------------------------------


def test_a_context_is_frozen(pv_ctx):
    """What a context derives and keeps (sensitivities, followers) stays
    valid: none of its fields can be reassigned."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        pv_ctx.v_max = 1.05
    with pytest.raises(dataclasses.FrozenInstanceError):
        pv_ctx.devices = None


def test_scenario_numbering_and_signs():
    table = {
        (POSITIVE, MIN_V): (1, -1.0, 1.0, SLOT_DP_PLUS),
        (POSITIVE, MAX_V): (2, 1.0, 1.0, SLOT_DP_PLUS),
        (NEGATIVE, MIN_V): (3, -1.0, -1.0, SLOT_DP_MINUS),
        (NEGATIVE, MAX_V): (4, 1.0, -1.0, SLOT_DP_MINUS),
    }
    for (act, ext), (number, sigma, sign, dp_slot) in table.items():
        sc = Scenario(node=2, activation=act, extremum=ext)
        assert sc.number == number
        assert sc.sigma == sigma
        assert sc.sign == sign
        assert sc.dp_slot == dp_slot
    with pytest.raises(ValueError, match="activation"):
        Scenario(node=0, activation="up", extremum=MIN_V)
    with pytest.raises(ValueError, match="extremum"):
        Scenario(node=0, activation=POSITIVE, extremum="worst")


def test_all_scenarios_enumeration_and_direction_filter():
    both = all_scenarios(3)
    assert len(both) == 12
    assert [s.number for s in both[:4]] == [1, 2, 3, 4]
    assert {s.node for s in both} == {0, 1, 2}

    over = all_scenarios(3, direction="overvoltage")
    assert len(over) == 6 and all(s.extremum == MAX_V for s in over)
    under = all_scenarios(3, direction="undervoltage")
    assert len(under) == 6 and all(s.extremum == MIN_V for s in under)
    with pytest.raises(ValueError, match="direction"):
        all_scenarios(3, direction="sideways")


def test_aggregate_band_bounds_from_device_sheets(pv_model):
    ctx = build_context(pv_model)
    lo, up = available_flexibility_bounds(ctx.devices)
    # loads can rise by 22+13+20 kW, inverters are already at their maxima;
    # downward: loads shed 12+7+6, inverters back off 10+8 (base 100 kVA)
    assert up == pytest.approx(0.55)
    assert lo == pytest.approx(-0.43)


def test_worst_case_setpoints_per_mode(pv_ctx):
    dev = pv_ctx.devices
    boost = fix_worst_case_setpoints(pv_ctx, MODE_CONSTANT_PF, MAX_V)
    for k in dev.inverter_nodes:
        assert boost[slot_gamma(k)] == pytest.approx(dev.gamma_cap[k])
    sag = fix_worst_case_setpoints(pv_ctx, MODE_CONSTANT_PF, MIN_V)
    for k in dev.inverter_nodes:
        assert sag[slot_gamma(k)] == pytest.approx(-dev.gamma_cap[k])

    vv_hi = fix_worst_case_setpoints(pv_ctx, MODE_VOLT_VAR, MAX_V)
    vv_lo = fix_worst_case_setpoints(pv_ctx, MODE_VOLT_VAR, MIN_V)
    for k in dev.inverter_nodes:
        assert vv_hi[slot_qbar(k)] == 0.0
        assert vv_lo[slot_qbar(k)] == pytest.approx(dev.s_cap[k])

    with pytest.raises(ValueError, match="constant-q"):
        fix_worst_case_setpoints(pv_ctx, MODE_CONSTANT_Q, MAX_V)
    with pytest.raises(ValueError, match="extremum"):
        fix_worst_case_setpoints(pv_ctx, MODE_CONSTANT_PF, "peak")


# --- LP structure ---------------------------------------------------------


def test_row_and_slot_structure_per_mode(pv_ctx):
    n = pv_ctx.n
    inv = pv_ctx.devices.inverter_nodes
    sc = Scenario(node=0, activation=POSITIVE, extremum=MAX_V)
    base_rows = n + 2 * len(inv)  # vm, cap_hi/lo

    fp = build_follower(pv_ctx, sc, MODE_CONSTANT_PF)
    assert fp.n_rows == base_rows + len(inv) + 1
    assert fp.slot_names == [slot_gamma(k) for k in inv] + [SLOT_DP_PLUS]

    cq = build_follower(pv_ctx, sc, MODE_CONSTANT_Q)
    assert cq.n_rows == base_rows + 2 * len(inv) + 1
    assert cq.slot_names == [SLOT_DP_PLUS]

    cqf = build_follower(pv_ctx, sc, MODE_CONSTANT_Q, fix_q=True)
    assert cqf.n_rows == base_rows + 3 * len(inv) + 1
    assert cqf.slot_names == [slot_qset(k) for k in inv] + [SLOT_DP_PLUS]

    vv = build_follower(pv_ctx, sc, MODE_VOLT_VAR)
    assert vv.n_rows == base_rows + len(inv) + 1
    assert vv.slot_names == [slot_qbar(k) for k in inv] + [SLOT_DP_PLUS]

    with pytest.raises(ValueError, match="unknown mode"):
        build_follower(pv_ctx, sc, "droopy")
    with pytest.raises(KeyError, match="missing slot"):
        fp.to_lp({SLOT_DP_PLUS: 0.0})


@settings(max_examples=120, deadline=None)
@given(theta=st.floats(0.0, 2 * math.pi), r=st.floats(0.0, 1.0))
def test_capability_rows_contain_the_true_disc(theta, r):
    # any (p, q) with p^2 + q^2 <= s^2 satisfies both 45-degree cuts
    s = 0.18
    pg0 = 0.10
    p = r * s * math.cos(theta)
    q = r * s * math.sin(theta)
    dpg = p - pg0
    cap = math.sqrt(2.0) * s - pg0
    assert dpg + q <= cap + 1e-12
    assert dpg - q <= cap + 1e-12
    assert abs(q) <= s + 1e-12


@pytest.fixture(scope="module")
def ieee13_ctx(ieee13_model):
    return build_context(ieee13_model)


@pytest.mark.parametrize("feeder", ["pv", "ieee13", "random_batch"])
def test_one_column_per_device(request, feeder):
    """|v| at every node, Δp_gen and q_gen at each inverter node and Δp_load
    at each load node, and no other column.  A unit step in a column moves
    the injections ``injections`` decodes at that column's node only, and an
    accessor asked for a device the node lacks raises."""
    if feeder == "random_batch":
        modes = (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)
        contexts = [random_context(np.random.default_rng(7200 + i), mode=modes[i % 3])
                    for i in range(6)]
    else:
        contexts = [request.getfixturevalue("pv_ctx" if feeder == "pv" else "ieee13_ctx")]
    missing = 0
    for ctx in contexts:
        dev, n = ctx.devices, ctx.n
        inv, loads = np.array(dev.inverter_nodes), np.array(dev.load_nodes)
        problem = build_follower(ctx, Scenario(0, POSITIVE, MAX_V), MODE_CONSTANT_PF)
        assert problem.n_vars == n + 2 * inv.size + loads.size
        cols = np.concatenate([problem.i_vm(np.arange(n)), problem.i_dpg(inv),
                               problem.i_qg(inv), problem.i_dpl(loads)])
        assert sorted(cols.tolist()) == list(range(problem.n_vars))

        zero = problem.injections(np.zeros(problem.n_vars))
        for kind, nodes, accessor in (("dpg", inv, problem.i_dpg), ("qg", inv, problem.i_qg),
                                      ("dpl", loads, problem.i_dpl)):
            for k in nodes:
                x = np.zeros(problem.n_vars)
                x[accessor(k)] = 1.0
                moved = np.flatnonzero(np.any(np.array(problem.injections(x)) != zero, axis=0))
                assert moved.tolist() == [k], (kind, k)
            for k in np.setdiff1d(np.arange(n), nodes):
                missing += 1
                with pytest.raises(KeyError, match="no "):
                    accessor(k)
                with pytest.raises(KeyError, match="no "):
                    accessor(np.array([*nodes[:1], k]))
    assert missing > 0


@pytest.mark.parametrize("feeder", ["pv", "ieee13"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("activation", (POSITIVE, NEGATIVE))
def test_magnitude_rows_match_the_linear_flow(request, feeder, mode, activation):
    """The vm rows are |v| of the linear flow, column by column.

    Rebuilds every coefficient from unit device perturbations pushed through
    ``linear_magnitudes`` (Z2 and the Taylor weights applied to injections),
    a route that shares no code with the row assembly.
    """
    ctx = request.getfixturevalue("pv_ctx" if feeder == "pv" else "ieee13_ctx")
    problem = build_follower(
        ctx, Scenario(0, activation, MAX_V), mode, fix_q=mode == MODE_CONSTANT_Q
    )
    n, dev = ctx.n, ctx.devices
    rows = [r for r, name in enumerate(problem.row_names) if name.startswith("vm[")]
    assert [problem.row_names[r] for r in rows] == [f"vm[{k}]" for k in range(n)]
    slotted = {t[0] for t in problem.coeff_slots} | {t[0] for t in problem.rhs_slots}
    A = np.zeros((n, problem.n_vars))
    for k, r in enumerate(rows):
        assert r not in slotted
        at = problem.a_row == r
        np.add.at(A[k], problem.a_col[at], problem.a_val[at])
    rhs = problem.rhs[rows]

    def magnitudes(dpg, dpl, qg):
        p_load = dev.p_load0 + dpl
        p = dev.p_gen0 + dpg - p_load
        q = qg - dev.beta_load * p_load
        return linear_magnitudes(ctx, p, q)

    zero = np.zeros(n)
    base = magnitudes(zero, zero, zero)
    assert np.allclose(rhs, base, rtol=0.0, atol=1e-12)
    nodes = np.arange(n)
    assert np.array_equal(A[:, problem.i_vm(nodes)], np.eye(n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        # row k reads |v_k| + a·x = m0_k, so d|v_k|/dx_j = -a_kj
        columns = []
        if j in dev.inverter_nodes:
            columns += [(problem.i_dpg(j), magnitudes(e, zero, zero)),
                        (problem.i_qg(j), magnitudes(zero, zero, e))]
        if j in dev.load_nodes:
            columns += [(problem.i_dpl(j), magnitudes(zero, e, zero))]
        for col, vm in columns:
            assert np.allclose(-A[:, col], vm - base, rtol=0.0, atol=1e-12), (j, col)


def test_sign_rule_boxes(pv_ctx):
    dev = pv_ctx.devices
    pos = build_follower(pv_ctx, Scenario(0, POSITIVE, MAX_V), MODE_CONSTANT_PF)
    neg = build_follower(pv_ctx, Scenario(0, NEGATIVE, MAX_V), MODE_CONSTANT_PF)
    # positive activation: generation may only rise, load may only shed;
    # negative activation mirrored
    for k in dev.inverter_nodes:
        assert pos.lb[pos.i_dpg(k)] >= -1e-12
        assert neg.ub[neg.i_dpg(k)] <= 1e-12
    for k in dev.load_nodes:
        assert pos.ub[pos.i_dpl(k)] <= 1e-12
        assert neg.lb[neg.i_dpl(k)] >= -1e-12
    for k in dev.inverter_nodes:
        assert pos.ub[pos.i_dpg(k)] == pytest.approx(
            min(dev.p_gen_max[k], dev.s_cap[k]) - dev.p_gen0[k]
        )


def test_empty_deviation_box_is_rejected():
    ctx = build_context(load_feeder(pv_doc()))
    k = ctx.devices.inverter_nodes[0]
    ctx.devices.p_gen_min[k] = ctx.devices.p_gen0[k] + 0.05  # must back *up*
    with pytest.raises(ValueError, match="empty deviation box"):
        build_follower(ctx, Scenario(0, NEGATIVE, MAX_V), MODE_CONSTANT_PF)
    ctx = build_context(load_feeder(pv_doc()))
    ctx.devices.s_cap[k] = 0.0  # rated below its output: it may not raise it
    build_follower(ctx, Scenario(0, NEGATIVE, MAX_V), MODE_CONSTANT_PF)
    with pytest.raises(ValueError, match="empty deviation box"):
        build_follower(ctx, Scenario(0, POSITIVE, MAX_V), MODE_CONSTANT_PF)


# --- solves ---------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("activation", [POSITIVE, NEGATIVE])
def test_zero_band_recovers_the_anchor(pv_ctx, mode, activation):
    """With Δp = 0 and inert setpoints every node sits at its anchor voltage."""
    fix_q = mode == MODE_CONSTANT_Q  # otherwise the adversary still owns q_gen
    for node in (0, pv_ctx.n - 1):
        for ext in (MIN_V, MAX_V):
            sc = Scenario(node, activation, ext)
            problem = build_follower(pv_ctx, sc, mode, fix_q=fix_q)
            cert = problem.solve(neutral_slots(problem))
            assert cert.is_optimal
            vm = sc.sigma * cert.objective
            assert vm == pytest.approx(pv_ctx.anchor.vm[node], abs=1e-9)


def test_worst_voltage_orders_extrema(pv_ctx):
    slots_hi = dict(fix_worst_case_setpoints(pv_ctx, MODE_CONSTANT_PF, MAX_V))
    slots_hi[SLOT_DP_PLUS] = 0.3
    lo_p = build_follower(pv_ctx, Scenario(4, POSITIVE, MIN_V), MODE_CONSTANT_PF)
    hi_p = build_follower(pv_ctx, Scenario(4, POSITIVE, MAX_V), MODE_CONSTANT_PF)
    v_lo = -lo_p.solve(slots_hi).objective  # σ = -1: the objective is -|v|
    v_hi = hi_p.solve(slots_hi).objective
    assert v_lo <= v_hi
    assert v_hi > pv_ctx.anchor.vm[4]  # boosting generation raises the node


def test_free_reactive_power_dominates_fixed(pv_ctx):
    sc = Scenario(4, POSITIVE, MAX_V)
    free = build_follower(pv_ctx, sc, MODE_CONSTANT_Q)
    fixed = build_follower(pv_ctx, sc, MODE_CONSTANT_Q, fix_q=True)
    slots = {SLOT_DP_PLUS: 0.2}
    slots_fixed = dict(slots)
    for k in pv_ctx.devices.inverter_nodes:
        slots_fixed[slot_qset(k)] = 0.0
    f_free = free.materialize(slots).values([sc.node]).objective[0]
    c_fixed = fixed.solve(slots_fixed)
    # the fixed-q feasible set is a slice of the free one
    assert f_free >= c_fixed.objective - 1e-9


def test_fix_q_rows_bind_the_reactive_output(pv_ctx):
    sc = Scenario(2, POSITIVE, MAX_V)
    problem = build_follower(pv_ctx, sc, MODE_CONSTANT_Q, fix_q=True)
    slots = {SLOT_DP_PLUS: 0.1}
    want = {}
    for k in pv_ctx.devices.inverter_nodes:
        q = 0.3 * pv_ctx.devices.gamma_const[k] * pv_ctx.devices.p_gen0[k]
        slots[slot_qset(k)] = q
        want[k] = q
    cert = problem.solve(slots)
    assert cert.is_optimal
    for k, q in want.items():
        assert cert.x[problem.i_qg(k)] == pytest.approx(q, abs=1e-9)


def test_node_swap_matches_dedicated_problem(pv_ctx):
    slots = {slot_gamma(k): 0.1 for k in pv_ctx.devices.inverter_nodes}
    slots[SLOT_DP_PLUS] = 0.25
    base = build_follower(pv_ctx, Scenario(0, POSITIVE, MAX_V), MODE_CONSTANT_PF)
    mat = base.materialize(slots)
    for node in range(pv_ctx.n):
        want = build_follower(
            pv_ctx, Scenario(node, POSITIVE, MAX_V), MODE_CONSTANT_PF
        ).solve(slots)
        got = mat.solve(node=node)
        assert got.objective == pytest.approx(want.objective, abs=1e-9)


def test_dp_bound_override_matches_fresh_slots(pv_ctx):
    problem = build_follower(pv_ctx, Scenario(3, POSITIVE, MAX_V), MODE_CONSTANT_PF)
    slots0 = {slot_gamma(k): 0.0 for k in pv_ctx.devices.inverter_nodes}
    mat = problem.materialize({**slots0, SLOT_DP_PLUS: 0.05})
    for t in (0.0, 0.12, 0.4):
        got = mat.solve(dp_bound=t)
        want = problem.solve({**slots0, SLOT_DP_PLUS: t})
        assert got.objective == pytest.approx(want.objective, abs=1e-9)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("activation", (POSITIVE, NEGATIVE))
def test_set_slots_matches_a_fresh_materialization(pv_ctx, mode, activation):
    rng = np.random.default_rng(5)
    problem = build_follower(
        pv_ctx, Scenario(0, activation, MAX_V), mode, fix_q=mode == MODE_CONSTANT_Q
    )
    mat = problem.materialize(random_slots(rng, pv_ctx, mode, problem=problem))
    for _ in range(3):
        slots = random_slots(rng, pv_ctx, mode)  # extra slots are ignored
        mat.set_slots(slots)
        fresh = problem.materialize(slots)
        assert mat.slots == fresh.slots
        for node in range(pv_ctx.n):
            for dp_bound in (None, 0.0):
                got = mat.solve(node=node, dp_bound=dp_bound)
                want = fresh.solve(node=node, dp_bound=dp_bound)
                assert (got.status, got.method) == (want.status, want.method)
                assert got.objective == want.objective
                for field in ("x", "row_duals", "lower_duals", "upper_duals"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_aggregate_dual_is_band_sensitivity(pv_ctx):
    problem = build_follower(pv_ctx, Scenario(4, POSITIVE, MAX_V), MODE_CONSTANT_PF)
    slots = {slot_gamma(k): 0.2 for k in pv_ctx.devices.inverter_nodes}
    mat = problem.materialize({**slots, SLOT_DP_PLUS: 0.0})
    t, h = 0.2, 1e-5
    cert = mat.solve(dp_bound=t)
    lam = mat.agg_dual(cert)
    up = mat.solve(dp_bound=t + h).objective
    dn = mat.solve(dp_bound=t - h).objective
    lo = min((up - cert.objective) / h, (cert.objective - dn) / h)
    hi = max((up - cert.objective) / h, (cert.objective - dn) / h)
    assert lo - 1e-6 <= lam <= hi + 1e-6
    assert lam >= -1e-12  # a wider band can never hurt the adversary


@pytest.mark.parametrize("mode", MODES)
def test_strong_duality_on_random_instances(mode):
    rng = np.random.default_rng(hash(mode) % 2**31)
    done = 0
    while done < 6:
        ctx = random_context(rng, mode=mode)
        sc = Scenario(
            int(rng.integers(ctx.n)),
            POSITIVE if rng.random() < 0.5 else NEGATIVE,
            MAX_V if rng.random() < 0.5 else MIN_V,
        )
        # Constant-q holds q_gen: a free-q certificate is HiGHS's, not a closed form.
        problem = build_follower(ctx, sc, mode, fix_q=mode == MODE_CONSTANT_Q)
        slots = random_slots(rng, ctx, mode, problem=problem)
        cert = problem.solve(slots)
        if not cert.is_optimal:
            continue  # a random band can be infeasible; that is fine here
        rep = verify_strong_duality(problem.to_lp(slots), cert)
        assert rep.ok, (mode, rep.gap, rep.max_slackness)
        done += 1


# --- the knapsack followers' affine form: ``gains`` and ``intervals`` ------


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", (MODE_CONSTANT_PF, MODE_CONSTANT_Q))
@pytest.mark.parametrize("feeder", ["pv", "corpus"])
def test_stacked_affine_form_matches_each_setpoint_and_the_knapsack(pv_ctx, mode, feeder):
    """Row i of a stacked ``gains``/``intervals`` call is the call at κ_i bit
    for bit, for a slice, an array and a single node as targets, and a
    re-slotted knapsack follower holds exactly ``gains(κ, slice(None))`` and
    ``intervals(κ, q0)``, with κ and q0 read off its slots here: constant-pf
    κ = γ, q0 = γ·p_gen0; fixed-q constant-q κ = 0, q0 = q_set."""
    ctx = pv_ctx if feeder == "pv" else corpus_context(7208, 2.0, mode)
    rng = np.random.default_rng(36)
    for activation in ACTIVATIONS:
        problem = build_follower(ctx, Scenario(0, activation, MAX_V), mode, fix_q=True)
        m = problem.inv.size
        kappa, q0 = rng.uniform(-0.5, 0.5, (5, m)), rng.uniform(-0.05, 0.05, (5, m))
        for targets in (slice(None), np.array([ctx.n - 1, 0]), ctx.n - 1):
            stacked = problem.gains(kappa, targets)
            for i in range(len(kappa)):
                assert _same_bits(stacked[i], problem.gains(kappa[i], targets))
        assert _same_bits(problem.gains(kappa[0], 1), problem.gains(kappa[0], slice(None))[1])
        stacked = problem.intervals(kappa, q0)
        for i in range(len(kappa)):
            for got, want in zip(stacked, problem.intervals(kappa[i], q0[i]), strict=True):
                assert _same_bits(got[i], want)

        mf = problem.materialize(random_slots(rng, ctx, mode, problem=problem))
        for _ in range(3):
            slots = random_slots(rng, ctx, mode, problem=problem)
            mf.set_slots(slots)
            values = np.array([slots[s] for s in problem.setpoint_slots])
            if mode == MODE_CONSTANT_PF:
                k, q = values, values * ctx.devices.p_gen0[problem.inv]
            else:
                k, q = np.zeros(m), values
            assert _same_bits(mf.gains, problem.gains(k, slice(None)))
            lo, hi, c_lo, c_hi, ap, nonempty = problem.intervals(k, q)
            item_lo, item_hi = mf.z_box(lo, hi)
            assert _same_bits(mf.item_lo, item_lo) and _same_bits(mf.item_hi, item_hi)
            for got, want in ((mf.c_lo, c_lo), (mf.c_hi, c_hi), (mf.ap, ap)):
                assert _same_bits(got, want)
            assert mf.feasible == nonempty.all()


def interval_cuts(ctx) -> set[tuple[int, str, float, str, bool]]:
    """Where a region row with e != 0 ends an inverter's constant-pf Δp_gen
    interval somewhere in its γ box, as (node, activation, γ, the row's
    kind, whether the interval is nonempty).

    With q0 = γ·p_gen0 a row's end (b - e·p_gen0·γ)/(a + e·γ) is monotone
    in γ on either side of its pole -a/e, and the box rows (e = 0) stay put.
    So where such a row cuts an interval inside the box, one of them cuts it
    at an end of that stretch of monotony too: at the points ``intervals`` is
    evaluated at, the box's ends and both sides of each pole inside it.
    """
    boxes = setpoint_boxes(ctx, MODE_CONSTANT_PF)
    cuts = set()
    for activation in ACTIVATIONS:
        problem = build_follower(ctx, Scenario(0, activation, MAX_V), MODE_CONSTANT_PF)
        a, e, _ = problem.region
        points = []
        for i, slot in enumerate(problem.setpoint_slots):
            lo, hi = boxes[slot]
            with np.errstate(divide="ignore", invalid="ignore"):
                poles = -a[i] / e[i]
            poles = poles[(lo < poles) & (poles < hi)]
            points.append([lo, hi, *np.nextafter(poles, -np.inf), *np.nextafter(poles, np.inf)])
        # One stacked call: column i runs through inverter i's points, padded
        # with its lower end.
        width = max(map(len, points), default=0)
        gamma = np.array([p + p[:1] * (width - len(p)) for p in points]).T
        p_gen0 = ctx.devices.p_gen0[problem.inv]
        _, _, c_lo, c_hi, _, nonempty = problem.intervals(gamma, gamma * p_gen0)
        for kinds in (c_lo, c_hi):
            for r, i in zip(*np.nonzero(e[np.arange(len(points)), kinds] != 0.0)):
                cuts.add((
                    int(problem.inv[i]), activation, float(gamma[r, i]),
                    problem.region_kinds[kinds[r, i]], bool(nonempty[r, i]),
                ))
    return cuts


def test_no_capability_row_cuts_a_binding_constant_pf_interval(ieee13_binding_ctx):
    """On binding-13bus and the 14 constant-pf corpus feeders, every
    constant-pf Δp_gen interval is its box over the whole γ box: no row that
    reads q_gen ends it."""
    assert interval_cuts(ieee13_binding_ctx) == set()
    for seed, z_scale in BINDING_FEEDERS:
        assert interval_cuts(corpus_context(seed, z_scale, MODE_CONSTANT_PF)) == set(), seed


def test_a_tight_capability_cuts_the_constant_pf_interval():
    """With s_cap = p_gen_max = p_gen0 the capability octagon is tighter than
    the 0.9 power factor: at |γ| = cap the anchor's own q_gen = γ·p_gen0
    leaves it, since √2 - 1 < cap.  Under negative activation the cap row
    on γ's side ends Δp_gen's interval below 0 (cap_lo at -cap, cap_hi at
    +cap); under positive activation, whose box is the point 0, the interval
    is empty.  Inside the box both start at |γ| = √2 - 1; the helper sees
    them at its ends."""
    doc = pv_doc()
    for inv in doc["inverters"]:
        inv["s_kva"] = inv["p_max"]
    ctx = build_context(load_feeder(doc))
    boxes = setpoint_boxes(ctx, MODE_CONSTANT_PF)
    want = set()
    for k in ctx.devices.inverter_nodes:
        lo, hi = boxes[slot_gamma(k)]
        for activation in ACTIVATIONS:
            nonempty = activation == NEGATIVE
            want |= {(k, activation, lo, "cap_lo", nonempty), (k, activation, hi, "cap_hi", nonempty)}
    assert ctx.devices.inverter_nodes == (2, 4)
    assert interval_cuts(ctx) == want
    assert interval_cuts(build_context(load_feeder(pv_doc()))) == set()
