"""The closed-form follower solves against HiGHS.

Every follower mode is solved in closed form by
``MaterializedFollower.values``: constant-pf and fixed-q constant-q
followers (and any follower with no inverter) as fractional knapsacks,
free-q constant-q followers over segments of their concave node gains, and
volt-var followers through the droop rows solved for q_gen.  The oracle
shares no code with that path: HiGHS on the follower's plain LP from
``problem.to_lp``, with the target node's objective.  The knapsack and
volt-var followers also certify their optima in closed form, and every
such certificate must pass the LP-level checks the single-level completion
relies on: strong duality, and dual feasibility of its row and bound duals
(which ``verify_strong_duality`` does not test).  q_gen is free only in the
screening, which reads values alone, so a free-q certificate is HiGHS's:
there the values themselves are checked against HiGHS, their devices as a
point of the LP attaining its optimum and their aggregate dual through the
Lagrangian bound it gives.
"""

import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest

import flexgrid.lp
from edgewalk import scalar_edge_walk
from corpus import BINDING_FEEDERS, corpus_context
from randfeeders import random_context

from flexgrid import build_context, load_feeder
from flexgrid.bilevel import (
    EDGE_TOL_REL,
    UpperDecision,
    _edge_walk,
    family_follower,
    feasibility_check,
    run_iterative,
    setpoint_boxes,
    worst_case_limits,
)
from flexgrid.feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR
from flexgrid.follower import (
    ACTIVATIONS,
    CLOSED_FORM,
    EXTREMA,
    MAX_V,
    MIN_V,
    POSITIVE,
    SIGMA,
    SLOT_DP_MINUS,
    SLOT_DP_PLUS,
    Scenario,
    _FreeQ,
    _Knapsack,
    _VoltVar,
    available_flexibility_bounds,
    build_follower,
    fix_worst_case_setpoints,
    fixes_q,
    slot_qbar,
    slot_qset,
)
from flexgrid.lp import (
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    solve_materialized,
    verify_strong_duality,
)
from flexgrid.oracle import verify_decision

# (mode, fix_q) of every follower kind the closed forms solve.
FOLLOWER_KINDS = (
    (MODE_CONSTANT_PF, False),
    (MODE_CONSTANT_Q, True),
    (MODE_CONSTANT_Q, False),
    (MODE_VOLT_VAR, False),
)


def _pv_tight(pv_model):
    probe = build_context(pv_model)
    vm = probe.anchor.vm
    return build_context(pv_model, v_min=float(np.min(vm) - 0.010),
                         v_max=float(np.max(vm) + 0.004))


def _corpus(name, pv_model, ieee13_model):
    if name == "pv":
        return [build_context(pv_model)]
    if name == "pv_tight":
        return [_pv_tight(pv_model)]
    if name == "ieee13":
        return [build_context(ieee13_model)]
    if name == "random_batch":
        modes = (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)
        return [random_context(np.random.default_rng(7200 + i), mode=modes[i % 3])
                for i in range(21)]
    return [random_context(np.random.default_rng(seed), mode=mode, z_scale=2.0)
            for seed, mode in ((7200, MODE_CONSTANT_PF), (7201, MODE_CONSTANT_Q),
                               (7202, MODE_VOLT_VAR))]


def _setpoint_draws(rng, ctx, mode):
    """Uniform setpoints in their boxes, plus (constant-q) q_set inside the
    cone both activations can reach, so negative followers are feasible too."""
    boxes = setpoint_boxes(ctx, mode)
    draws = [{name: float(rng.uniform(lo, hi)) for name, (lo, hi) in boxes.items()}]
    if mode == MODE_CONSTANT_Q:
        dev = ctx.devices
        draws.append({
            slot_qset(k): float(rng.uniform(-1.0, 1.0) * dev.gamma_const[k] * dev.p_gen0[k])
            for k in dev.inverter_nodes
        })
    return draws


class Oracle:
    """HiGHS on the follower's plain LP from ``problem.to_lp``, materialized
    once and solved with the target node's objective at sign ``sigma``
    (default the problem's scenario's) and the band edge as the aggregate
    row's bound, both written into a copy of the materialized arrays (the
    edge goes on each side the agg row's relation bounds)."""

    def __init__(self, problem, slots, sigma=None):
        self.problem = problem
        self.sigma = problem.scenario.sigma if sigma is None else sigma
        self.lp = problem.to_lp(slots)
        self.mat = self.lp.materialize()
        self.agg = problem.row_names.index("agg")
        self.vm = problem.i_vm(np.arange(problem.n))
        self.A = np.array([self.lp.row_dense(r) for r in range(self.lp.n_rows)])

    def retarget(self, node, edge):
        """Set the node's objective and the edge on the LP container."""
        self.lp.rhs[self.agg] = float(edge)
        for v in self.vm:
            self.lp.obj[v] = 0.0
        self.lp.obj[self.problem.i_vm(node)] = self.sigma

    def solve(self, node, edge):
        self.retarget(node, edge)
        row_lb, row_ub = self.mat.row_lb.copy(), self.mat.row_ub.copy()
        rel = self.lp.relations[self.agg]
        if rel != GE:
            row_ub[self.agg] = edge
        if rel != LE:
            row_lb[self.agg] = edge
        return solve_materialized(dataclasses.replace(
            self.mat, c=np.array(self.lp.obj), row_lb=row_lb, row_ub=row_ub))

    def dual_infeasibility(self, cert):
        """Largest violation of c = A'y + lower + upper and of the dual signs."""
        lp = self.lp
        resid = np.array(lp.obj) - self.A.T @ cert.row_duals - cert.lower_duals - cert.upper_duals
        worst = float(np.max(np.abs(resid)))
        for r, rel in enumerate(lp.relations):
            if rel == LE:
                worst = max(worst, -cert.row_duals[r])
            elif rel == GE:
                worst = max(worst, cert.row_duals[r])
        worst = max(worst, float(np.max(cert.lower_duals)), float(-np.min(cert.upper_duals)))
        return worst

    def infeasibility(self, mf, devices):
        """Largest violation of the rows (as last retargeted) and the bounds
        by the LP point of ``mf``'s device columns ``devices``, with the
        |v| they give."""
        p = self.problem
        x = np.zeros(p.n_vars)
        x[mf.device_cols] = devices
        x[self.vm] = p.m0 + mf.s_dev @ devices
        ax = self.A @ x - np.array(self.lp.rhs)
        rel = np.array(self.lp.relations)
        rows = np.where(rel == LE, ax, np.where(rel == GE, -ax, np.abs(ax)))
        return max(float(rows.max()), float(np.max(p.lb - x)), float(np.max(x - p.ub)))

    def lagrangian(self, node, edge, mu):
        """The Lagrangian bound at agg dual ``mu``: HiGHS's optimum of the LP
        with the agg row priced at ``mu`` in the objective instead of
        imposed (its bound put beyond any aggregate the device boxes allow),
        plus mu·edge.  It is the optimum exactly when ``mu`` is an optimal
        dual of the agg row."""
        self.retarget(node, edge)
        row_lb, row_ub = self.mat.row_lb.copy(), self.mat.row_ub.copy()
        row_lb[self.agg], row_ub[self.agg] = -np.inf, 1e9
        c = np.array(self.lp.obj) - mu * self.A[self.agg]
        cert = solve_materialized(dataclasses.replace(self.mat, c=c, row_lb=row_lb, row_ub=row_ub))
        return cert.objective + mu * edge


def _breakpoint_edge(mf, node, edge):
    """A band edge on a kink of F(s), the follower's objective at |band edge|
    s: the first kink beyond |edge|, or the first beyond zero when F is
    linear from |edge| on; None when there is neither.

    F is concave and piecewise linear with the aggregate dual as its slope,
    so the tangents at the two ends of an interval meet at or beyond its
    first kink, and a point where F still lies on the left tangent is that
    kink.  Only one-target ``values`` calls are read.
    """
    sign = 1.0 if mf.problem.scenario.activation == POSITIVE else -1.0
    full = abs(mf.slots[mf.problem.scenario.dp_slot])

    def tangent(s):
        vals = mf.values([node], [sign * s])
        if not vals.optimal[0]:
            return None
        return float(vals.objective[0]), sign * float(vals.agg_dual[0])

    for lo, hi in ((abs(edge), full), (0.0, abs(edge))):
        ends = tangent(lo), tangent(hi)
        if None in ends:
            continue
        (f_lo, g_lo), (f_hi, g_hi) = ends
        for _ in range(20):
            if g_lo - g_hi <= 1e-12:
                break  # one piece: no kink inside
            s = min(max((f_hi - f_lo + g_lo * lo - g_hi * hi) / (g_lo - g_hi), lo), hi)
            f_s, g_s = tangent(s)
            if f_s >= f_lo + g_lo * (s - lo) - 1e-12:
                return sign * s
            hi, f_hi, g_hi = s, f_s, g_s
    return None


def _check_certificate(oracle, mf, node, edge, where):
    want = oracle.solve(node, edge)
    got = mf.certificate(mf.values([node], edge), 0)
    assert got.method == CLOSED_FORM, where  # these draws never cut a volt-var optimum
    assert got.status == want.status, where
    if got.status == INFEASIBLE:
        return None
    assert got.status == OPTIMAL
    assert abs(got.objective - want.objective) <= 1e-9, where
    oracle.retarget(node, edge)
    rep = verify_strong_duality(oracle.lp, got)
    assert rep.ok, (where, rep.gap, rep.max_slackness)
    assert oracle.dual_infeasibility(got) <= 1e-9, where
    return got.objective, mf.agg_dual(got)


def _check_free_q_values(oracle, mf, vals, i, where):
    """Row ``i`` of a free-q follower's ``values`` against HiGHS: the closed
    form certifies it, its objective is HiGHS's optimum, its devices are a
    point of the LP, and its aggregate dual is an optimal dual of the agg
    row (signed for the row's relation, its Lagrangian bound meets the
    optimum).  Returns (objective, aggregate dual), or None where the LP is
    infeasible."""
    node, edge = int(vals.nodes[i]), float(vals.edges[i])
    want = oracle.solve(node, edge)
    assert vals.certified[i], where
    assert vals.optimal[i] == want.is_optimal, where
    if not want.is_optimal:
        return None
    f, mu = float(vals.objective[i]), float(vals.agg_dual[i])
    assert abs(f - want.objective) <= 1e-9, where
    assert oracle.infeasibility(mf, vals.devices[i]) <= 1e-9, where
    assert (mu >= 0.0) if oracle.lp.relations[oracle.agg] == LE else (mu <= 0.0), where
    assert abs(oracle.lagrangian(node, edge, mu) - want.objective) <= 1e-9, where
    return f, mu


def _free_q(mf):
    """Whether ``mf`` leaves q_gen free: closed-form values, HiGHS certificates."""
    p = mf.problem
    return p.mode == MODE_CONSTANT_Q and not p.fix_q and p.inv.size > 0


def _check_subgradient(oracle, mf, node, edge, f, agg_dual, h, where):
    """The aggregate dual of the optimum ``f`` lies between the one-sided
    difference quotients."""
    sign = 1.0 if mf.problem.scenario.activation == POSITIVE else -1.0
    wider = oracle.solve(node, edge + sign * h)
    narrower = oracle.solve(node, edge - sign * h)
    right = (wider.objective - f) / h
    left = np.inf if narrower.status == INFEASIBLE else (f - narrower.objective) / h
    slope = sign * agg_dual
    assert right - 1e-5 <= slope <= left + 1e-5, (where, right, slope, left)


@pytest.mark.parametrize("corpus", ["pv", "pv_tight", "ieee13", "random_batch", "weak_grid"])
def test_closed_form_matches_highs(corpus, pv_model, ieee13_model):
    rng = np.random.default_rng(2024)
    for c_i, ctx in enumerate(_corpus(corpus, pv_model, ieee13_model)):
        dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
        h = 1e-4 * max(dp_up, -dp_lo, 1e-3)
        stride = max(2, ctx.n // 4)  # difference quotients at two to four nodes per follower
        for mode, fix_q in FOLLOWER_KINDS:
            draws = _setpoint_draws(rng, ctx, mode) if fix_q or mode != MODE_CONSTANT_Q else [{}]
            for sp_i, setpoints in enumerate(draws):
                for activation in ACTIVATIONS:
                    full = dp_up if activation == POSITIVE else dp_lo
                    for extremum in EXTREMA:
                        problem = build_follower(ctx, Scenario(0, activation, extremum), mode,
                                                 fix_q=fix_q)
                        slots = {**setpoints, SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
                        slots = {s: slots[s] for s in problem.slot_names}
                        mf = problem.materialize(slots)
                        oracle = Oracle(problem, slots)
                        for k in range(ctx.n):
                            interior = float(rng.uniform(0.05, 0.95)) * full
                            edges = {"zero": 0.0, "full": full, "interior": interior}
                            if mf.values([k], [interior]).optimal[0]:
                                kink = _breakpoint_edge(mf, k, interior)
                                if kink is not None:
                                    edges["breakpoint"] = kink
                            for kind, edge in edges.items():
                                where = (corpus, c_i, mode, fix_q, sp_i, activation, extremum,
                                         k, kind)
                                if _free_q(mf):
                                    got = _check_free_q_values(
                                        oracle, mf, mf.values([k], [edge]), 0, where)
                                else:
                                    got = _check_certificate(oracle, mf, k, edge, where)
                                if got is not None and k % stride == 0:
                                    _check_subgradient(oracle, mf, k, edge, *got, h, where)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_q_set_outside_the_cone_is_infeasible_on_both_paths(pv_ctx, activation):
    dev = pv_ctx.devices
    k = dev.inverter_nodes[0]
    reach = dev.gamma_const[k] * min(dev.p_gen_max[k], dev.s_cap[k])
    for q in (1.2 * reach + 1e-3, -1.2 * reach - 1e-3):
        slots = {**dict.fromkeys(setpoint_boxes(pv_ctx, MODE_CONSTANT_Q), 0.0), slot_qset(k): q,
                 SLOT_DP_PLUS: 0.2, SLOT_DP_MINUS: -0.2}
        problem = build_follower(pv_ctx, Scenario(0, activation, EXTREMA[0]),
                                 MODE_CONSTANT_Q, fix_q=True)
        slots = {s: slots[s] for s in problem.slot_names}
        assert solve_materialized(problem.to_lp(slots).materialize()).status == INFEASIBLE
        mf = problem.materialize(slots)
        for node in range(pv_ctx.n):
            assert mf.certificate(mf.values([node]), 0).status == INFEASIBLE


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 2.0])
def test_fixed_q_certificates_stay_in_their_derived_dual_boxes(pv_model, gamma):
    """Every closed-form fixed-q certificate keeps its agg and qfix duals,
    the ones that meet a slot in the single level, inside
    ``FollowerProblem.dual_box``: both activations and extrema, every target
    node, band edges from zero to the availability end, q_set at both ends
    of its box and drawn inside it, on three feeders whose cone half-width
    ``gamma`` is set to 0, 1e-3 and 2.  The aggregate dual reaches its bound
    somewhere, so the box is not vacuous."""
    rng = np.random.default_rng(26)
    probes = [build_context(pv_model), _pv_tight(pv_model),
              random_context(np.random.default_rng(7201), mode=MODE_CONSTANT_Q, z_scale=2.0)]
    families, reached = set(), 0
    for probe in probes:
        dev = probe.devices
        ctx = dataclasses.replace(probe, devices=dataclasses.replace(
            dev, gamma_const=np.where(dev.s_cap > 0.0, gamma, 0.0)))
        boxes = setpoint_boxes(ctx, MODE_CONSTANT_Q)
        dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
        draws = [{name: box[end] for name, box in boxes.items()} for end in (0, 1)]
        draws += [{name: float(rng.uniform(*box)) for name, box in boxes.items()} for _ in range(3)]
        nodes = np.repeat(np.arange(ctx.n), 4)
        for activation in ACTIVATIONS:
            full = dp_up if activation == POSITIVE else dp_lo
            for extremum in EXTREMA:
                problem = build_follower(ctx, Scenario(0, activation, extremum), MODE_CONSTANT_Q,
                                         fix_q=True)
                dual_box = [problem.dual_box(boxes, t) for t in range(ctx.n)]
                for q_set in draws:
                    mf = family_follower(ctx, MODE_CONSTANT_Q, activation,
                                         {**q_set, SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo})
                    p = mf.problem
                    slot_rows = [p.row_names.index("agg"), *p.row_index("qfix").tolist()]
                    share = np.column_stack([np.zeros(ctx.n), np.ones(ctx.n), rng.uniform(size=(ctx.n, 2))])
                    vals = mf.values(nodes, full * share.ravel(), SIGMA[extremum])
                    for i in np.flatnonzero(vals.optimal).tolist():
                        cert = mf.certificate(vals, i)
                        assert cert.method == CLOSED_FORM
                        box = dual_box[int(nodes[i])]
                        assert np.flatnonzero(np.isfinite(box)).tolist() == sorted(slot_rows)
                        duals = np.abs(cert.row_duals[slot_rows])
                        where = (gamma, activation, extremum, int(nodes[i]), q_set)
                        assert np.all(duals <= box[slot_rows] + 1e-12), where
                        reached += bool(box[slot_rows[0]] > 0.0 and duals[0] == box[slot_rows[0]])
                        families.add((activation, extremum))
    assert len(families) == 4 and reached > 0


def test_constant_pf_agg_duals_stay_in_their_derived_box():
    """Every closed-form constant-pf certificate on the 14 constant-pf
    feeders of the binding corpus keeps its agg dual inside
    ``FollowerProblem.dual_box`` (μ̄, from the gains at both ends of the γ
    box), bit for bit: both activations and extrema, every target node,
    random band edges from zero to the availability end, and γ at the
    lower ends, the upper ends, a random end per inverter and random
    points of the box.  Of the rows that meet a slot only agg is bounded;
    the pfq rows keep ±``LAMBDA_CAP``.  The dual reaches μ̄ somewhere, so
    the box is not vacuous."""
    rng = np.random.default_rng(27)
    reached = checked = 0
    for seed, z_scale in BINDING_FEEDERS:
        ctx = corpus_context(seed, z_scale, MODE_CONSTANT_PF)
        boxes = setpoint_boxes(ctx, MODE_CONSTANT_PF)
        dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
        draws = [{name: box[end] for name, box in boxes.items()} for end in (0, 1)]
        draws.append({name: box[int(rng.integers(2))] for name, box in boxes.items()})
        draws += [{name: float(rng.uniform(*box)) for name, box in boxes.items()} for _ in range(3)]
        nodes = np.repeat(np.arange(ctx.n), 4)
        for activation in ACTIVATIONS:
            full = dp_up if activation == POSITIVE else dp_lo
            for extremum in EXTREMA:
                problem = build_follower(ctx, Scenario(0, activation, extremum), MODE_CONSTANT_PF)
                dual_box = [problem.dual_box(boxes, t) for t in range(ctx.n)]
                for gammas in draws:
                    mf = family_follower(ctx, MODE_CONSTANT_PF, activation,
                                         {**gammas, SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo})
                    agg = mf.problem.row_names.index("agg")
                    share = np.column_stack([np.zeros(ctx.n), np.ones(ctx.n), rng.uniform(size=(ctx.n, 2))])
                    vals = mf.values(nodes, full * share.ravel(), SIGMA[extremum])
                    for i in np.flatnonzero(vals.optimal).tolist():
                        cert = mf.certificate(vals, i)
                        assert cert.method == CLOSED_FORM
                        box = dual_box[int(nodes[i])]
                        assert np.flatnonzero(np.isfinite(box)).tolist() == [agg]
                        dual = abs(float(cert.row_duals[agg]))
                        assert dual <= box[agg], (seed, z_scale, activation, extremum, int(nodes[i]), gammas)
                        reached += bool(box[agg] > 0.0 and dual == box[agg])
                        checked += 1
    assert checked > 1000 and reached > 0


def test_closed_form_followers_never_call_highs(ieee13_model, pv_ctx, monkeypatch):
    """Screening in every mode, feasibility and the Newton re-check in
    constant-pf and volt-var on the 13-bus feeder, and a fixed-q constant-q
    feasibility check, run without HiGHS."""
    def no_highs(*args, **kwargs):
        raise AssertionError("HiGHS called for a closed-form follower")

    monkeypatch.setattr(flexgrid.lp, "linprog", no_highs)
    ctx = build_context(ieee13_model)
    for mode in (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR):
        wc = worst_case_limits(ctx, mode, direction="overvoltage")
        assert wc.upper.shape == (ctx.n,)
        if mode == MODE_CONSTANT_Q:
            continue
        decision = UpperDecision(
            dp_plus=wc.range_upper, dp_minus=wc.range_lower,
            setpoints=dict.fromkeys(setpoint_boxes(ctx, mode), 0.0),
        )
        assert feasibility_check(ctx, mode, decision).worst_vm
        assert verify_decision(ctx, mode, decision, direction="overvoltage").checks

    decision_q = UpperDecision(
        dp_plus=0.1, dp_minus=-0.1,
        setpoints=dict.fromkeys(setpoint_boxes(pv_ctx, MODE_CONSTANT_Q), 0.0),
    )
    report = feasibility_check(pv_ctx, MODE_CONSTANT_Q, decision_q)
    assert len(report.worst_vm) == 4 * pv_ctx.n


def _cut_duals(problem, cert):
    """Largest |dual| a certificate puts on a capability row or a q_gen bound."""
    caps = [i for i, name in enumerate(problem.row_names) if name.startswith("cap_")]
    qg = problem.i_qg(np.array(problem.devices.inverter_nodes))
    return max(np.max(np.abs(cert.row_duals[caps])),
               np.max(np.abs(cert.lower_duals[qg])), np.max(np.abs(cert.upper_duals[qg])))


def test_volt_var_optimum_cut_by_the_capability_falls_back_to_highs(pv_model):
    """The band's lower end just under the inverters' anchor |v|: at q̄ = s_cap
    the droop asks for about s_cap of reactive power, more than the
    capability rows allow near full output, so the closed form's point
    leaves them and HiGHS decides.  Re-slotting the same follower (and so
    dropping its HiGHS arrays) still solves as a fresh materialization."""
    probe = build_context(pv_model)
    dev = probe.devices
    v_min = float(np.max(probe.anchor.vm[list(dev.inverter_nodes)]) - 5e-4)
    ctx = build_context(pv_model, v_min=v_min, v_max=v_min + 0.02)
    dp_lo, dp_up = available_flexibility_bounds(dev)
    cut = {slot_qbar(k): float(dev.s_cap[k]) for k in dev.inverter_nodes}
    off = {slot_qbar(k): 0.0 for k in dev.inverter_nodes}
    cut_optima = 0
    for activation in ACTIVATIONS:
        full = dp_up if activation == POSITIVE else dp_lo
        for extremum in EXTREMA:
            problem = build_follower(ctx, Scenario(0, activation, extremum), MODE_VOLT_VAR)
            slots = {**cut, SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
            mf = problem.materialize(slots)
            oracle = Oracle(problem, mf.slots)
            for k in range(ctx.n):
                for edge in (0.0, 0.5 * full, full):
                    got, want = mf.certificate(mf.values([k], edge), 0), oracle.solve(k, edge)
                    where = (activation, extremum, k, edge)
                    assert got.status == want.status, where
                    if got.is_optimal:
                        assert abs(got.objective - want.objective) <= 1e-9, where
                        if got.method != CLOSED_FORM:
                            cut_optima += _cut_duals(problem, want) > 1e-9
            for again in ({**slots, **off}, slots):
                mf.set_slots(again)
                fresh = problem.materialize(again)
                for k in range(ctx.n):
                    got = mf.certificate(mf.values([k]), 0)
                    want = fresh.certificate(fresh.values([k]), 0)
                    assert (got.status, got.method) == (want.status, want.method), k
                    assert got.objective == want.objective, k
    assert cut_optima > 0


def test_volt_var_singular_droop_system_falls_back_to_highs(pv_ctx, monkeypatch):
    """When the droop system A = I + d·Q̄·S_q[I,I] has no solution
    (``np.linalg.solve`` raises as it does for a singular A), the closed form
    certifies nothing: every solve is HiGHS's on ``to_lp``.  Re-slotting with
    a solvable system brings the closed form back."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    dev = pv_ctx.devices
    dp_lo, dp_up = available_flexibility_bounds(dev)
    rng = np.random.default_rng(5)
    for activation in ACTIVATIONS:
        full = dp_up if activation == POSITIVE else dp_lo
        for extremum in EXTREMA:
            problem = build_follower(pv_ctx, Scenario(0, activation, extremum), MODE_VOLT_VAR)
            slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
            slots.update({slot_qbar(k): float(rng.uniform(0.0, dev.s_cap[k]))
                          for k in dev.inverter_nodes})
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", singular)
                mf = problem.materialize(slots)
            oracle = Oracle(problem, mf.slots)
            for k in range(pv_ctx.n):
                for edge in (0.0, 0.5 * full, full):
                    got, want = mf.certificate(mf.values([k], edge), 0), oracle.solve(k, edge)
                    where = (activation, extremum, k, edge)
                    assert got.method != CLOSED_FORM, where
                    assert got.status == want.status, where
                    if got.is_optimal:
                        assert abs(got.objective - want.objective) <= 1e-9, where
            mf.set_slots(slots)
            assert mf.solve().method == CLOSED_FORM


def _one_inverter_feeder():
    """Slack plus one single-phase node carrying an inverter and nothing else."""
    z = [[0.0, 0.0]] * 9
    z[0] = z[4] = z[8] = [1.0, 2.0]
    return load_feeder({
        "base_kva": 100.0, "base_kv": 2.4, "slack": "s",
        "buses": [{"id": "s", "phases": "abc"}, {"id": "m", "phases": "a"}],
        "segments": [{"from": "s", "to": "m", "z": z}],
        "loads": [],
        "inverters": [{"bus": "m", "phase": "a", "p_kw": 8.0, "p_min": 0.0, "p_max": 16.0,
                       "s_kva": 30.0, "mode": "volt-var", "mode_params": {"pf": 0.92}}],
    })


def test_volt_var_at_a_singular_droop_system_falls_back_to_highs():
    """One inverter k re-slotted at q̄ = -1/(d·S_q[k,k]) makes the droop
    system A = 1 + d·q̄·S_q[k,k] exactly 0, so ``np.linalg.solve`` raises and
    every solve is HiGHS's on ``to_lp``.  The band is centred on the node's
    linearized anchor magnitude, where the singular droop row still admits
    the zero deviation, so those LPs have optima to compare."""
    model = _one_inverter_feeder()
    probe = build_context(model)
    m0 = build_follower(probe, Scenario(0, POSITIVE, MAX_V), MODE_VOLT_VAR).m0[0]
    ctx = build_context(model, v_min=m0 - 0.05, v_max=m0 + 0.05)
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    d = 2.0 / (ctx.v_max - ctx.v_min)
    for activation in ACTIVATIONS:
        full = dp_up if activation == POSITIVE else dp_lo
        for extremum in EXTREMA:
            problem = build_follower(ctx, Scenario(0, activation, extremum), MODE_VOLT_VAR)
            s = problem.s_q[problem.inv][0, 0]
            # The q̄ within 200 ulps of -1/(d·s) whose A rounds to exactly 0
            # (this feeder's S_q[k,k] has one; not every value does).
            lo = hi = -1.0 / (d * s)
            near = [lo]
            for _ in range(200):
                lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
                near += [lo, hi]
            qbar = next(q for q in near if 1.0 + (d * q) * s == 0.0)
            slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo, slot_qbar(0): float(qbar)}
            mf = problem.materialize(slots)
            assert mf.k is None  # the droop solve failed: no closed form
            oracle = Oracle(problem, mf.slots)
            for edge in (0.0, 0.5 * full, full):
                where = (activation, extremum, edge)
                got, want = mf.certificate(mf.values([0], edge), 0), oracle.solve(0, edge)
                assert got.method != CLOSED_FORM, where
                assert got.status == want.status == OPTIMAL, where
                assert abs(got.objective - want.objective) <= 1e-9, where
                assert verify_strong_duality(oracle.lp, got).ok, where
                assert oracle.dual_infeasibility(got) <= 1e-9, where


def test_free_q_optimum_cut_by_the_capability_stays_closed_form(pv_model):
    """Free-q constant-q with a tight s_cap and a wide cone: the capability
    rows and the q_gen bounds cut h(Δp_gen) into three segments, and as
    segments of the closed form they leave its values exact."""
    probe = build_context(pv_model)
    dev = probe.devices
    has_inv = dev.s_cap > 0.0
    tight = dataclasses.replace(
        dev, s_cap=np.where(has_inv, 1.05 * dev.p_gen_max, 0.0),
        gamma_const=np.where(has_inv, 5.0, 0.0),
    )
    ctx = dataclasses.replace(probe, devices=tight)
    dp_lo, dp_up = available_flexibility_bounds(tight)
    rng = np.random.default_rng(11)
    cut = 0
    for activation in ACTIVATIONS:
        full = dp_up if activation == POSITIVE else dp_lo
        for extremum in EXTREMA:
            problem = build_follower(ctx, Scenario(0, activation, extremum), MODE_CONSTANT_Q)
            slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
            mf = problem.materialize(slots)
            oracle = Oracle(problem, mf.slots)
            for k in range(ctx.n):
                edges = [0.0, full, float(rng.uniform(0.05, 0.95)) * full]
                kink = _breakpoint_edge(mf, k, edges[-1])
                edges += [] if kink is None else [kink]
                for edge in edges:
                    where = (activation, extremum, k, edge)
                    _check_free_q_values(oracle, mf, mf.values([k], [edge]), 0, where)
                    cut += _cut_duals(problem, oracle.solve(k, edge)) > 1e-9
    assert cut > 0


def test_free_q_falls_back_when_the_capability_excludes_the_operating_point(pv_model):
    """An inverter whose constant-q cone has a negative width, held at its
    output (p_gen_min = p_gen0): h < 0 on its Δp_gen box, which the closed
    form does not certify; HiGHS finds the LP infeasible, before and after
    re-slotting.  (An inverter rated below its output cannot serve: its
    Δp_gen box is empty, which ``build_follower`` rejects.)"""
    probe = build_context(pv_model)
    dev = probe.devices
    k = dev.inverter_nodes[0]
    at_k = np.arange(probe.n) == k
    ctx = dataclasses.replace(probe, devices=dataclasses.replace(
        dev, gamma_const=np.where(at_k, -0.5, dev.gamma_const),
        p_gen_min=np.where(at_k, dev.p_gen0, dev.p_gen_min),
    ))
    for activation in ACTIVATIONS:
        problem = build_follower(ctx, Scenario(0, activation, EXTREMA[1]), MODE_CONSTANT_Q)
        mf = problem.materialize({SLOT_DP_PLUS: 0.1, SLOT_DP_MINUS: -0.1})
        for slots in (mf.slots, {SLOT_DP_PLUS: 0.05, SLOT_DP_MINUS: -0.05}):
            mf.set_slots(slots)
            fresh = problem.materialize(slots)
            assert solve_materialized(problem.to_lp(mf.slots).materialize()).status == INFEASIBLE
            for node in range(ctx.n):
                got = mf.certificate(mf.values([node]), 0)
                want = fresh.certificate(fresh.values([node]), 0)
                assert got.status == want.status == INFEASIBLE
                assert got.method != CLOSED_FORM


class HighsFollower:
    """The HiGHS-backed stand-in for a materialized follower: the
    ``problem``/``slots``/``values`` interface the scalar walk reads, for
    one target per call, solved by the ``Oracle`` on the follower's plain
    LP at its problem's extremum."""

    def __init__(self, problem, slots):
        self.problem = problem
        self.slots = dict(slots)
        self.oracle = Oracle(problem, slots)
        self.solves = 0

    def values(self, nodes, edges, sigma=None):
        (node,), (edge,) = nodes, edges
        self.solves += 1
        cert = self.oracle.solve(node, edge)
        ok = cert.is_optimal
        return SimpleNamespace(
            objective=np.array([cert.objective if ok else np.nan]),
            agg_dual=np.array([cert.row_duals[self.oracle.agg] if ok else np.nan]),
            optimal=np.array([ok]),
        )


@pytest.mark.parametrize("corpus", ["pv_tight", "ieee13"])
def test_edge_walk_over_the_closed_form_matches_highs(corpus, pv_model, ieee13_model):
    """Per node, in constant-pf, free-q constant-q and volt-var screening:
    the lockstep walk over the closed form gives the scalar walk's limit
    over HiGHS within tol_abs, the same binding family, and evaluates no
    target more often than that walk solves it."""
    ctx = _corpus(corpus, pv_model, ieee13_model)[0]
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    tol_abs = EDGE_TOL_REL * max(dp_up, -dp_lo, 1e-12)
    for mode in (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR):
        for activation in ACTIVATIONS:
            limits = {"closed": {}, "highs": {}}
            for extremum in EXTREMA:
                slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
                if mode != MODE_CONSTANT_Q:
                    slots.update(fix_worst_case_setpoints(ctx, mode, extremum))
                mf = family_follower(ctx, mode, activation, slots)
                own = build_follower(ctx, Scenario(0, activation, extremum), mode,
                                     fix_q=mf.problem.fix_q)
                reference = HighsFollower(own, mf.slots)
                rows = np.zeros(ctx.n, dtype=int)
                values = functools.partial(type(mf).values, mf)
                mf.values = lambda nodes, edges, sigma: (
                    np.add.at(rows, nodes, 1) or values(nodes, edges, sigma))
                closed = _edge_walk(mf, np.arange(ctx.n), SIGMA[extremum], tol_abs)
                for k in range(ctx.n):
                    before = reference.solves
                    limits["closed"][extremum, k] = closed[k]
                    limits["highs"][extremum, k] = scalar_edge_walk(reference, k, tol_abs)
                    where = (mode, activation, extremum, k)
                    assert rows[k] <= reference.solves - before, where
            for k in range(ctx.n):
                got = [limits["closed"][e, k] for e in EXTREMA]
                want = [limits["highs"][e, k] for e in EXTREMA]
                assert np.allclose(got, want, rtol=0.0, atol=tol_abs), (mode, activation, k)
                tightest = np.argmin if activation == POSITIVE else np.argmax
                assert tightest(got) == tightest(want), (mode, activation, k, got, want)


# ---------------------------------------------------------------------------
# The batched kernel: ``values`` against per-target ``solve`` and HiGHS
# ---------------------------------------------------------------------------


def _cut_context(pv_model):
    """The band's lower end just under the inverters' anchor |v|: at q̄ = s_cap
    the droop asks for more reactive power than the capability rows allow
    near full output, so some volt-var optima need the fallback."""
    probe = build_context(pv_model)
    dev = probe.devices
    v_min = float(np.max(probe.anchor.vm[list(dev.inverter_nodes)]) - 5e-4)
    return build_context(pv_model, v_min=v_min, v_max=v_min + 0.02)


def _free_q_excluded_context(pv_model):
    """An inverter whose constant-q cone has a negative width, held at its
    output: h < 0 on its Δp_gen box, which the free-q closed form does not
    certify."""
    probe = build_context(pv_model)
    dev = probe.devices
    at_k = np.arange(probe.n) == dev.inverter_nodes[0]
    return dataclasses.replace(probe, devices=dataclasses.replace(
        dev, gamma_const=np.where(at_k, -0.5, dev.gamma_const),
        p_gen_min=np.where(at_k, dev.p_gen0, dev.p_gen_min),
    ))


def _check_values(mf, nodes, edges, where, sigma=None):
    """One ``values`` call at objective sign ``sigma`` (default the
    scenario's) against a ``solve`` per row (bit for bit, the certificate
    of each row included) and against HiGHS on ``to_lp``; returns the row
    counts (closed-form, fallback).  A free-q row the closed form certifies
    has HiGHS's certificate, the solve's: it is checked against a
    one-target ``values`` call bit for bit and against HiGHS by
    ``_check_free_q_values``."""
    problem = mf.problem
    oracle = Oracle(problem, mf.slots, sigma)
    vals = mf.values(nodes, edges, sigma)
    for i, (node, edge) in enumerate(zip(nodes.tolist(), edges.tolist())):
        got = mf.certificate(mf.values([node], edge, sigma), 0)
        want = oracle.solve(node, edge)
        at = (where, node, edge)
        assert vals.optimal[i] == got.is_optimal == want.is_optimal, at
        free_q = _free_q(mf) and vals.certified[i]
        assert vals.certified[i] == (got.method == CLOSED_FORM) or free_q, at
        if not got.is_optimal:
            continue
        if free_q:
            one = mf.values([node], [edge], sigma)
            for name in ("objective", "agg_dual", "devices"):
                assert np.array_equal(getattr(vals, name)[i], getattr(one, name)[0]), (at, name)
            _check_free_q_values(oracle, mf, vals, i, at)
        else:
            assert vals.objective[i] == got.objective, at
            assert vals.agg_dual[i] == mf.agg_dual(got), at
            assert np.array_equal(vals.devices[i], got.x[mf.device_cols]), at
            assert abs(vals.objective[i] - want.objective) <= 1e-9, at
        cert = mf.certificate(vals, i)
        for name in ("status", "objective", "method"):
            assert getattr(cert, name) == getattr(got, name), (at, name)
        for name in ("x", "row_duals", "lower_duals", "upper_duals"):
            assert np.array_equal(getattr(cert, name), getattr(got, name)), (at, name)
    return int(vals.certified.sum()), int((~vals.certified).sum())


def _batch(rng, n, full):
    """Up to eight nodes at zero, half and the full edge, plus as many random
    (node, edge) rows, shuffled."""
    some = rng.permutation(n)[:8]
    nodes = np.concatenate([np.repeat(some, 3), rng.integers(0, n, 3 * some.size)])
    fractions = np.concatenate([np.tile([0.0, 0.5, 1.0], some.size),
                                rng.uniform(0.0, 1.0, 3 * some.size)])
    order = rng.permutation(nodes.size)
    return nodes[order], fractions[order] * full


# Corpus runs whose decisions the shared followers' min-|v| rows are checked
# at: (seed, z, mode, whether the decision keeps its q_set slots).  Without
# them a constant-q decision leaves q_gen free, which takes ``_FreeQ``'s
# min-|v| table of segment gains.
SHARED_DECISIONS = [
    (7200, 2.0, MODE_CONSTANT_PF, True), (7235, 3.0, MODE_CONSTANT_PF, True),
    (7210, 3.0, MODE_CONSTANT_Q, True), (7201, 2.0, MODE_CONSTANT_Q, False),
    (7210, 3.0, MODE_CONSTANT_Q, False), (7202, 2.0, MODE_VOLT_VAR, True),
    (7208, 3.0, MODE_VOLT_VAR, True),
]
SHARED_KINDS = {(MODE_CONSTANT_PF, True): _Knapsack, (MODE_CONSTANT_Q, True): _Knapsack,
                (MODE_CONSTANT_Q, False): _FreeQ, (MODE_VOLT_VAR, True): _VoltVar}


@pytest.mark.parametrize("seed, z_scale, mode, held", SHARED_DECISIONS)
def test_a_shared_followers_min_rows_match_highs(seed, z_scale, mode, held):
    """One follower serves both extrema of an activation.  At a corpus
    run's decision, the min-|v| rows of the follower the context keeps
    match HiGHS on ``to_lp`` + ``solve_materialized`` within the closed-form
    tolerance, certificates included (``_check_values``), and are bit for
    bit the rows of a follower built for min-|v| alone.  A batch that mixes
    both extrema gives each row the bits of its own extremum's batch."""
    ctx = corpus_context(seed, z_scale, mode)
    decision = run_iterative(ctx, mode).decision
    if not held:
        decision = dataclasses.replace(decision, setpoints={})
    slots = decision.slots
    rng = np.random.default_rng(seed)
    for activation in ACTIVATIONS:
        mf = family_follower(ctx, mode, activation, slots)
        assert type(mf) is SHARED_KINDS[mode, held]
        nodes, edges = _batch(rng, ctx.n, slots[mf.problem.scenario.dp_slot])
        where = (seed, z_scale, mode, held, activation)
        _check_values(mf, nodes, edges, where, SIGMA[MIN_V])
        own = build_follower(ctx, Scenario(0, activation, MIN_V), mode, fix_q=fixes_q(mode, slots))
        alone = own.materialize({s: slots[s] for s in own.slot_names}).values(nodes, edges)
        by_sigma = {sigma: mf.values(nodes, edges, sigma) for sigma in (-1.0, 1.0)}
        sigma = rng.choice([-1.0, 1.0], nodes.size)
        mixed = mf.values(nodes, edges, sigma)
        for name in ("objective", "agg_dual", "devices", "optimal", "certified"):
            assert np.array_equal(getattr(by_sigma[-1.0], name), getattr(alone, name),
                                  equal_nan=True), (where, name)
            for i, s in enumerate(sigma.tolist()):
                assert np.array_equal(getattr(mixed, name)[i], getattr(by_sigma[s], name)[i],
                                      equal_nan=True), (where, name, i)


@pytest.mark.parametrize("corpus", ["pv", "pv_tight", "ieee13"])
def test_values_match_solve_and_highs(corpus, pv_model, ieee13_model):
    """Every follower kind at random setpoints: each row of a shuffled batch
    is the per-target solve's optimum, aggregate dual, devices and
    certificate, and HiGHS's objective."""
    rng = np.random.default_rng(7)
    ctx = _corpus(corpus, pv_model, ieee13_model)[0]
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    for mode, fix_q in FOLLOWER_KINDS:
        draws = _setpoint_draws(rng, ctx, mode) if fix_q or mode != MODE_CONSTANT_Q else [{}]
        for setpoints in draws:
            for activation in ACTIVATIONS:
                for extremum in EXTREMA:
                    problem = build_follower(ctx, Scenario(0, activation, extremum), mode,
                                             fix_q=fix_q)
                    slots = {**setpoints, SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
                    mf = problem.materialize({s: slots[s] for s in problem.slot_names})
                    full = dp_up if activation == POSITIVE else dp_lo
                    nodes, edges = _batch(rng, ctx.n, full)
                    _check_values(mf, nodes, edges, (mode, fix_q, activation, extremum))


def test_values_mix_closed_form_and_fallback_rows(pv_model):
    """Volt-var at q̄ = s_cap under the capability cut: one batch holds rows
    the closed form certifies and rows HiGHS solves, each equal to its own
    solve."""
    ctx = _cut_context(pv_model)
    dev = ctx.devices
    dp_lo, dp_up = available_flexibility_bounds(dev)
    rng = np.random.default_rng(3)
    mixed = 0  # batches with rows of both kinds
    for activation in ACTIVATIONS:
        full = dp_up if activation == POSITIVE else dp_lo
        for extremum in EXTREMA:
            problem = build_follower(ctx, Scenario(0, activation, extremum), MODE_VOLT_VAR)
            slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
            slots.update({slot_qbar(k): float(dev.s_cap[k]) for k in dev.inverter_nodes})
            mf = problem.materialize(slots)
            nodes, edges = _batch(rng, ctx.n, full)
            got = _check_values(mf, nodes, edges, (activation, extremum))
            mixed += got[0] > 0 and got[1] > 0
    assert mixed > 0


def test_values_fall_back_at_a_singular_droop_system(pv_ctx, monkeypatch):
    """A droop system ``np.linalg.solve`` cannot solve leaves every row of a
    volt-var batch to HiGHS."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    dev = pv_ctx.devices
    dp_lo, dp_up = available_flexibility_bounds(dev)
    rng = np.random.default_rng(5)
    for activation in ACTIVATIONS:
        full = dp_up if activation == POSITIVE else dp_lo
        for extremum in EXTREMA:
            problem = build_follower(pv_ctx, Scenario(0, activation, extremum), MODE_VOLT_VAR)
            slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
            slots.update({slot_qbar(k): float(rng.uniform(0.0, dev.s_cap[k]))
                          for k in dev.inverter_nodes})
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", singular)
                mf = problem.materialize(slots)
            nodes, edges = _batch(rng, pv_ctx.n, full)
            assert _check_values(mf, nodes, edges, (activation, extremum)) == (0, nodes.size)


def test_values_fall_back_when_free_q_cannot_certify(pv_model):
    """Free-q constant-q with h < 0 on an inverter's box: every row goes to
    HiGHS, which finds the LP infeasible."""
    ctx = _free_q_excluded_context(pv_model)
    rng = np.random.default_rng(9)
    for activation in ACTIVATIONS:
        for extremum in EXTREMA:
            problem = build_follower(ctx, Scenario(0, activation, extremum), MODE_CONSTANT_Q)
            mf = problem.materialize({SLOT_DP_PLUS: 0.1, SLOT_DP_MINUS: -0.1})
            nodes, edges = _batch(rng, ctx.n, 0.1 if activation == POSITIVE else -0.1)
            assert _check_values(mf, nodes, edges, (activation, extremum)) == (0, nodes.size)
            vals = mf.values(nodes, edges)
            assert not vals.optimal.any()
            assert all(mf.certificate(vals, i).status == INFEASIBLE for i in range(nodes.size))


def _count_fallbacks(monkeypatch):
    """Patch ``values``, ``_highs`` and ``solve`` to count values calls,
    uncertified rows, HiGHS solves of one row and per-target solves."""
    from flexgrid.follower import MaterializedFollower

    counts = {"values": 0, "fallback_rows": 0, "highs": 0, "solves": 0}
    values, highs = MaterializedFollower.values, MaterializedFollower._highs
    solve = MaterializedFollower.solve

    def counting_values(self, nodes, edges=None, sigma=None):
        counts["values"] += 1
        vals = values(self, nodes, edges, sigma)
        counts["fallback_rows"] += int((~vals.certified).sum())
        return vals

    def counting_highs(self, vals, i):
        counts["highs"] += 1
        return highs(self, vals, i)

    def counting_solve(self, *args, **kwargs):
        counts["solves"] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(MaterializedFollower, "values", counting_values)
    monkeypatch.setattr(MaterializedFollower, "_highs", counting_highs)
    monkeypatch.setattr(MaterializedFollower, "solve", counting_solve)
    return counts


def test_screening_solves_only_the_fallback_rows(pv_model, pv_ctx, monkeypatch):
    """``worst_case_limits`` and ``feasibility_check`` reach HiGHS only for
    the rows the closed form cannot certify, one row at a time and never
    through a per-target ``solve``, and the feasibility check makes one
    ``values`` call per activation, for both extrema: with every volt-var
    row uncertified (a singular droop solve), on a batch that mixes both
    kinds (the capability cut) and in constant-pf, which needs no
    fallback."""
    counts = _count_fallbacks(monkeypatch)
    dev = pv_ctx.devices

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", singular)
        wc = worst_case_limits(pv_ctx, MODE_VOLT_VAR)
        assert counts["highs"] == counts["fallback_rows"] > 0 and counts["solves"] == 0
        decision = UpperDecision(
            dp_plus=wc.range_upper, dp_minus=wc.range_lower,
            setpoints=dict.fromkeys(setpoint_boxes(pv_ctx, MODE_VOLT_VAR), 0.0),
        )
        counts.update(dict.fromkeys(counts, 0))
        feasibility_check(pv_ctx, MODE_VOLT_VAR, decision)
        assert counts["values"] == 2
        assert counts["highs"] == counts["fallback_rows"] == 4 * pv_ctx.n
        assert counts["solves"] == 0

    ctx = _cut_context(pv_model)
    dp_lo, dp_up = available_flexibility_bounds(dev)
    cut = UpperDecision(
        dp_plus=dp_up, dp_minus=dp_lo,
        setpoints={slot_qbar(k): float(dev.s_cap[k]) for k in dev.inverter_nodes},
    )
    counts.update(dict.fromkeys(counts, 0))
    feasibility_check(ctx, MODE_VOLT_VAR, cut)
    assert counts["values"] == 2
    assert 0 < counts["highs"] == counts["fallback_rows"] < 4 * ctx.n and counts["solves"] == 0

    counts.update(dict.fromkeys(counts, 0))
    wc = worst_case_limits(pv_ctx, MODE_CONSTANT_PF)
    decision = UpperDecision(
        dp_plus=wc.range_upper, dp_minus=wc.range_lower,
        setpoints=dict.fromkeys(setpoint_boxes(pv_ctx, MODE_CONSTANT_PF), 0.0),
    )
    feasibility_check(pv_ctx, MODE_CONSTANT_PF, decision)
    assert counts["values"] > 4
    assert counts["highs"] == counts["fallback_rows"] == counts["solves"] == 0
