"""The closed-form follower solve against HiGHS.

Constant-pf followers and constant-q followers with a fixed q_set are solved
as fractional knapsacks inside ``MaterializedFollower.solve``.  The oracle
shares no code with that path: HiGHS on the follower's plain LP from
``problem.to_lp``, with the target node's objective.  Every closed-form
certificate must also pass the LP-level checks the single-level
completion relies on: strong duality, and dual feasibility of its row and
bound duals (which ``verify_strong_duality`` does not test).
"""

import numpy as np
import pytest

import flexgrid.lp
from feedergen import random_context

from flexgrid import build_context
from flexgrid.bilevel import (
    EDGE_TOL_REL,
    UpperDecision,
    _edge_limit,
    _family_follower,
    feasibility_check,
    neutral_setpoints,
    setpoint_boxes,
    worst_case_limits,
)
from flexgrid.feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR
from flexgrid.follower import (
    ACTIVATIONS,
    CLOSED_FORM,
    EXTREMA,
    POSITIVE,
    SLOT_DP_MINUS,
    SLOT_DP_PLUS,
    Scenario,
    available_flexibility_bounds,
    build_follower,
    fix_worst_case_setpoints,
    slot_qset,
)
from flexgrid.lp import (
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    solve_lp,
    solve_materialized,
    verify_strong_duality,
)
from flexgrid.oracle import verify_decision

CLOSED_MODES = (MODE_CONSTANT_PF, MODE_CONSTANT_Q)  # constant-q with fix_q=True


def _pv_tight(pv_model):
    probe = build_context(pv_model)
    vm = probe.anchor.vm
    return build_context(pv_model, v_min=float(np.min(vm) - 0.010),
                         v_max=float(np.max(vm) + 0.004), anchor=probe.anchor)


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
    once and solved with the target node's objective and the band edge as
    the aggregate row's right-hand side."""

    def __init__(self, problem, slots):
        self.problem = problem
        self.lp = problem.to_lp(slots)
        self.mat = self.lp.materialize()
        self.agg = problem.row_index("agg")
        self.vm = problem.i_vm(np.arange(problem.n))
        self.A = np.array([self.lp.row_dense(r) for r in range(self.lp.n_rows)])

    def retarget(self, node, edge):
        """Set the node's objective and the edge on the LP container."""
        self.lp.rhs[self.agg] = float(edge)
        for v in self.vm:
            self.lp.obj[v] = 0.0
        self.lp.obj[self.problem.i_vm(node)] = self.problem.scenario.sigma

    def solve(self, node, edge):
        self.retarget(node, edge)
        rhs = np.array(self.lp.rhs)
        return solve_materialized(self.mat, c=np.array(self.lp.obj),
                                  b_ub=rhs[self.mat.ub_rows], b_eq=rhs[self.mat.eq_rows])

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


def _breakpoint_edge(mf, node, edge):
    """A band edge exactly where the fill at ``edge`` fills its partial device
    (or, when no device is partial, where the fill stopped)."""
    ks = mf._knapsack
    cert = mf.solve(node=node, dp_bound=edge)
    p = mf.problem
    nodes = np.arange(p.n)
    z = ks.sign * np.concatenate([cert.x[p.i_dpg(nodes)], -cert.x[p.i_dpl(nodes)]])
    partial = np.flatnonzero((z > ks.z_lo + 1e-12) & (z < ks.z_hi - 1e-12))
    used = float(np.sum(z))
    if partial.size:
        used += float(ks.z_hi[partial[0]] - z[partial[0]])
    return ks.sign * used


def _check_certificate(oracle, mf, node, edge, where):
    want = oracle.solve(node, edge)
    got = mf.solve(node=node, dp_bound=edge)
    assert got.method == CLOSED_FORM, where
    assert got.status == want.status, where
    if got.status == INFEASIBLE:
        return None
    assert got.status == OPTIMAL
    assert abs(got.objective - want.objective) <= 1e-9, where
    oracle.retarget(node, edge)
    rep = verify_strong_duality(oracle.lp, got)
    assert rep.ok, (where, rep.gap, rep.max_slackness)
    assert oracle.dual_infeasibility(got) <= 1e-9, where
    return got


def _check_subgradient(oracle, mf, node, edge, cert, h, where):
    """The aggregate dual lies between the one-sided difference quotients."""
    f = cert.objective
    sign = 1.0 if mf.problem.scenario.activation == POSITIVE else -1.0
    wider = oracle.solve(node, edge + sign * h)
    narrower = oracle.solve(node, edge - sign * h)
    right = (wider.objective - f) / h
    left = np.inf if narrower.status == INFEASIBLE else (f - narrower.objective) / h
    slope = sign * mf.agg_dual(cert)
    assert right - 1e-5 <= slope <= left + 1e-5, (where, right, slope, left)


@pytest.mark.parametrize("corpus", ["pv", "pv_tight", "ieee13", "random_batch", "weak_grid"])
def test_closed_form_matches_highs(corpus, pv_model, ieee13_model):
    rng = np.random.default_rng(2024)
    for c_i, ctx in enumerate(_corpus(corpus, pv_model, ieee13_model)):
        dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
        h = 1e-4 * max(dp_up, -dp_lo, 1e-3)
        stride = max(2, ctx.n // 4)  # difference quotients at two to four nodes per follower
        for mode in CLOSED_MODES:
            for sp_i, setpoints in enumerate(_setpoint_draws(rng, ctx, mode)):
                for activation in ACTIVATIONS:
                    full = dp_up if activation == POSITIVE else dp_lo
                    for extremum in EXTREMA:
                        problem = build_follower(ctx, Scenario(0, activation, extremum), mode,
                                                 fix_q=mode == MODE_CONSTANT_Q)
                        slots = {**setpoints, SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
                        slots = {s: slots[s] for s in problem.slot_names}
                        mf = problem.materialize(slots)
                        oracle = Oracle(problem, slots)
                        for k in range(ctx.n):
                            interior = float(rng.uniform(0.05, 0.95)) * full
                            edges = {"zero": 0.0, "full": full, "interior": interior}
                            if mf.solve(node=k, dp_bound=interior).is_optimal:
                                edges["breakpoint"] = _breakpoint_edge(mf, k, interior)
                            for kind, edge in edges.items():
                                where = (corpus, c_i, mode, sp_i, activation, extremum, k, kind)
                                cert = _check_certificate(oracle, mf, k, edge, where)
                                if cert is not None and k % stride == 0:
                                    _check_subgradient(oracle, mf, k, edge, cert, h, where)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_q_set_outside_the_cone_is_infeasible_on_both_paths(pv_ctx, activation):
    dev = pv_ctx.devices
    k = dev.inverter_nodes[0]
    reach = dev.gamma_const[k] * min(dev.p_gen_max[k], dev.s_cap[k])
    for q in (1.2 * reach + 1e-3, -1.2 * reach - 1e-3):
        slots = {**neutral_setpoints(pv_ctx, MODE_CONSTANT_Q), slot_qset(k): q,
                 SLOT_DP_PLUS: 0.2, SLOT_DP_MINUS: -0.2}
        problem = build_follower(pv_ctx, Scenario(0, activation, EXTREMA[0]),
                                 MODE_CONSTANT_Q, fix_q=True)
        slots = {s: slots[s] for s in problem.slot_names}
        assert solve_lp(problem.to_lp(slots)).status == INFEASIBLE
        mf = problem.materialize(slots)
        for node in range(pv_ctx.n):
            assert mf.solve(node=node).status == INFEASIBLE


def test_closed_form_followers_never_call_highs(ieee13_model, pv_ctx, monkeypatch):
    """Constant-pf screening, feasibility and the Newton re-check on the 13-bus
    feeder, and a fixed-q constant-q feasibility check, run without HiGHS."""
    def no_highs(*args, **kwargs):
        raise AssertionError("HiGHS called for a closed-form follower")

    monkeypatch.setattr(flexgrid.lp, "linprog", no_highs)
    ctx = build_context(ieee13_model)
    wc = worst_case_limits(ctx, MODE_CONSTANT_PF, direction="overvoltage")
    decision = UpperDecision(
        dp_plus=wc.range_upper, dp_minus=wc.range_lower,
        setpoints=neutral_setpoints(ctx, MODE_CONSTANT_PF), mode=MODE_CONSTANT_PF,
    )
    assert feasibility_check(ctx, MODE_CONSTANT_PF, decision).worst_vm
    assert verify_decision(ctx, MODE_CONSTANT_PF, decision, direction="overvoltage").checks

    decision_q = UpperDecision(
        dp_plus=0.1, dp_minus=-0.1,
        setpoints=neutral_setpoints(pv_ctx, MODE_CONSTANT_Q), mode=MODE_CONSTANT_Q,
    )
    report = feasibility_check(pv_ctx, MODE_CONSTANT_Q, decision_q)
    assert len(report.worst_vm) == 4 * pv_ctx.n


class HighsFollower:
    """The HiGHS-backed stand-in for a materialized follower: the same
    ``problem``/``slots``/``solve``/``agg_dual`` interface, solved by the
    ``Oracle`` on the follower's plain LP."""

    def __init__(self, problem, slots):
        self.problem = problem
        self.slots = dict(slots)
        self.oracle = Oracle(problem, slots)
        self.solves = 0

    def solve(self, *, node=None, dp_bound=None):
        self.solves += 1
        node = self.problem.scenario.node if node is None else node
        edge = self.slots[self.problem.scenario.dp_slot] if dp_bound is None else dp_bound
        return self.oracle.solve(node, edge)

    def agg_dual(self, cert):
        return float(cert.row_duals[self.oracle.agg])


@pytest.mark.parametrize("corpus", ["pv_tight", "ieee13"])
def test_edge_walk_over_the_closed_form_matches_highs(corpus, pv_model, ieee13_model):
    """Per node: the same limit within tol_abs, the same binding family, and
    no more solves than the walk makes over HiGHS."""
    ctx = _corpus(corpus, pv_model, ieee13_model)[0]
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    tol_abs = EDGE_TOL_REL * max(dp_up, -dp_lo, 1e-12)
    for activation in ACTIVATIONS:
        limits = {"closed": {}, "highs": {}}
        for extremum in EXTREMA:
            slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo,
                     **fix_worst_case_setpoints(ctx, MODE_CONSTANT_PF, extremum)}
            mf = _family_follower(ctx, MODE_CONSTANT_PF, activation, extremum, slots,
                                  fix_q=False)
            reference = HighsFollower(mf.problem, mf.slots)
            calls = []
            solve = mf.solve
            mf.solve = lambda **kw: calls.append(1) or solve(**kw)
            for k in range(ctx.n):
                before = (len(calls), reference.solves)
                limits["closed"][extremum, k] = _edge_limit(mf, k, tol_abs)
                limits["highs"][extremum, k] = _edge_limit(reference, k, tol_abs)
                where = (activation, extremum, k)
                assert len(calls) - before[0] <= reference.solves - before[1], where
        for k in range(ctx.n):
            got = [limits["closed"][e, k] for e in EXTREMA]
            want = [limits["highs"][e, k] for e in EXTREMA]
            assert np.allclose(got, want, rtol=0.0, atol=tol_abs), (activation, k)
            tightest = np.argmin if activation == POSITIVE else np.argmax
            assert tightest(got) == tightest(want), (activation, k, got, want)
