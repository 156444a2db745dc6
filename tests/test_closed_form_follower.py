"""The closed-form follower solves against HiGHS.

Every follower mode is solved in closed form inside
``MaterializedFollower.solve``: constant-pf and fixed-q constant-q
followers as fractional knapsacks, free-q constant-q followers over
segments of their concave node gains, and volt-var followers through the
droop rows solved for q_gen.  The oracle shares no code with that path:
HiGHS on the follower's plain LP from ``problem.to_lp``, with the target
node's objective.  Every closed-form certificate must also pass the
LP-level checks the single-level completion relies on: strong duality, and
dual feasibility of its row and bound duals (which ``verify_strong_duality``
does not test).
"""

import dataclasses

import numpy as np
import pytest

import flexgrid.lp
from edgewalk import scalar_edge_walk
from randfeeders import random_context

from flexgrid import build_context, load_feeder
from flexgrid.bilevel import (
    EDGE_TOL_REL,
    UpperDecision,
    _edge_walk,
    family_follower,
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
    MAX_V,
    POSITIVE,
    SLOT_DP_MINUS,
    SLOT_DP_PLUS,
    Scenario,
    available_flexibility_bounds,
    build_follower,
    fix_worst_case_setpoints,
    slot_qbar,
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
    once and solved with the target node's objective and the band edge as
    the aggregate row's bound, both written into a copy of the materialized
    arrays (the edge goes on each side the agg row's relation bounds)."""

    def __init__(self, problem, slots):
        self.problem = problem
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
        self.lp.obj[self.problem.i_vm(node)] = self.problem.scenario.sigma

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


def _breakpoint_edge(mf, node, edge):
    """A band edge on a kink of F(s), the follower's objective at |band edge|
    s: the first kink beyond |edge|, or the first beyond zero when F is
    linear from |edge| on; None when there is neither.

    F is concave and piecewise linear with the aggregate dual as its slope,
    so the tangents at the two ends of an interval meet at or beyond its
    first kink, and a point where F still lies on the left tangent is that
    kink.  Only ``solve`` and ``agg_dual`` are read.
    """
    sign = 1.0 if mf.problem.scenario.activation == POSITIVE else -1.0
    full = abs(mf.slots[mf.problem.scenario.dp_slot])

    def tangent(s):
        cert = mf.solve(node=node, dp_bound=sign * s)
        return (cert.objective, sign * mf.agg_dual(cert)) if cert.is_optimal else None

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
    got = mf.solve(node=node, dp_bound=edge)
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
                            if mf.solve(node=k, dp_bound=interior).is_optimal:
                                kink = _breakpoint_edge(mf, k, interior)
                                if kink is not None:
                                    edges["breakpoint"] = kink
                            for kind, edge in edges.items():
                                where = (corpus, c_i, mode, fix_q, sp_i, activation, extremum,
                                         k, kind)
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
            setpoints=neutral_setpoints(ctx, mode),
        )
        assert feasibility_check(ctx, mode, decision).worst_vm
        assert verify_decision(ctx, mode, decision, direction="overvoltage").checks

    decision_q = UpperDecision(
        dp_plus=0.1, dp_minus=-0.1,
        setpoints=neutral_setpoints(pv_ctx, MODE_CONSTANT_Q),
    )
    report = feasibility_check(pv_ctx, MODE_CONSTANT_Q, decision_q)
    assert len(report.worst_vm) == 4 * pv_ctx.n


def _cut_duals(problem, cert):
    """Largest |dual| a certificate puts on a capability row or a q_gen bound."""
    caps = [i for i, name in enumerate(problem.row_names) if name.startswith("cap_")]
    qg = problem.i_qg(np.array(problem.ctx.devices.inverter_nodes))
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
                    got, want = mf.solve(node=k, dp_bound=edge), oracle.solve(k, edge)
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
                    got, want = mf.solve(node=k), fresh.solve(node=k)
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
                    got, want = mf.solve(node=k, dp_bound=edge), oracle.solve(k, edge)
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
                got, want = mf.solve(dp_bound=edge), oracle.solve(0, edge)
                assert got.method != CLOSED_FORM, where
                assert got.status == want.status == OPTIMAL, where
                assert abs(got.objective - want.objective) <= 1e-9, where
                assert verify_strong_duality(oracle.lp, got).ok, where
                assert oracle.dual_infeasibility(got) <= 1e-9, where


def test_free_q_optimum_cut_by_the_capability_stays_closed_form(pv_model):
    """Free-q constant-q with a tight s_cap and a wide cone: the capability
    rows and the q_gen bounds cut h(Δp_gen) into three segments, and as
    segments of the closed form they leave it exact."""
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
                    _check_certificate(oracle, mf, k, edge, (activation, extremum, k, edge))
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
            assert solve_lp(problem.to_lp(mf.slots)).status == INFEASIBLE
            for node in range(ctx.n):
                got, want = mf.solve(node=node), fresh.solve(node=node)
                assert got.status == want.status == INFEASIBLE
                assert got.method != CLOSED_FORM


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
                mf = family_follower(ctx, mode, activation, extremum, slots)
                reference = HighsFollower(mf.problem, mf.slots)
                rows = np.zeros(ctx.n, dtype=int)
                values = mf.values
                mf.values = lambda nodes, edges: np.add.at(rows, nodes, 1) or values(nodes, edges)
                closed = _edge_walk(mf, np.arange(ctx.n), tol_abs)
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


def _check_values(mf, nodes, edges, where):
    """One ``values`` call against a ``solve`` per row (bit for bit, the
    certificate of each row included) and against HiGHS on ``to_lp``;
    returns the row counts (closed-form, fallback)."""
    problem = mf.problem
    oracle = Oracle(problem, mf.slots)
    vals = mf.values(nodes, edges)
    for i, (node, edge) in enumerate(zip(nodes.tolist(), edges.tolist())):
        got, want = mf.solve(node=node, dp_bound=edge), oracle.solve(node, edge)
        at = (where, node, edge)
        assert vals.optimal[i] == got.is_optimal == want.is_optimal, at
        assert vals.certified[i] == (got.method == CLOSED_FORM), at
        if not got.is_optimal:
            continue
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
    """Patch ``values`` and ``solve`` to count values calls, uncertified rows
    and solves."""
    from flexgrid.follower import MaterializedFollower

    counts = {"values": 0, "fallback_rows": 0, "solves": 0}
    values, solve = MaterializedFollower.values, MaterializedFollower.solve

    def counting_values(self, nodes, edges=None):
        counts["values"] += 1
        vals = values(self, nodes, edges)
        counts["fallback_rows"] += int((~vals.certified).sum())
        return vals

    def counting_solve(self, **kwargs):
        counts["solves"] += 1
        return solve(self, **kwargs)

    monkeypatch.setattr(MaterializedFollower, "values", counting_values)
    monkeypatch.setattr(MaterializedFollower, "solve", counting_solve)
    return counts


def test_screening_solves_only_the_fallback_rows(pv_model, pv_ctx, monkeypatch):
    """``worst_case_limits`` and ``feasibility_check`` reach a per-target
    ``solve`` (and so HiGHS) only for the rows the closed form cannot
    certify, and the feasibility check makes one ``values`` call per
    family: with every volt-var row uncertified (a singular droop solve), on
    a batch that mixes both kinds (the capability cut) and in constant-pf,
    which needs no fallback."""
    counts = _count_fallbacks(monkeypatch)
    dev = pv_ctx.devices

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", singular)
        wc = worst_case_limits(pv_ctx, MODE_VOLT_VAR)
        assert counts["solves"] == counts["fallback_rows"] > 0
        decision = UpperDecision(
            dp_plus=wc.range_upper, dp_minus=wc.range_lower,
            setpoints=neutral_setpoints(pv_ctx, MODE_VOLT_VAR),
        )
        counts.update(values=0, fallback_rows=0, solves=0)
        feasibility_check(pv_ctx, MODE_VOLT_VAR, decision)
        assert counts["values"] == 4
        assert counts["solves"] == counts["fallback_rows"] == 4 * pv_ctx.n

    ctx = _cut_context(pv_model)
    dp_lo, dp_up = available_flexibility_bounds(dev)
    cut = UpperDecision(
        dp_plus=dp_up, dp_minus=dp_lo,
        setpoints={slot_qbar(k): float(dev.s_cap[k]) for k in dev.inverter_nodes},
    )
    counts.update(values=0, fallback_rows=0, solves=0)
    feasibility_check(ctx, MODE_VOLT_VAR, cut)
    assert counts["values"] == 4
    assert 0 < counts["solves"] == counts["fallback_rows"] < 4 * ctx.n

    counts.update(values=0, fallback_rows=0, solves=0)
    wc = worst_case_limits(pv_ctx, MODE_CONSTANT_PF)
    decision = UpperDecision(
        dp_plus=wc.range_upper, dp_minus=wc.range_lower,
        setpoints=neutral_setpoints(pv_ctx, MODE_CONSTANT_PF),
    )
    feasibility_check(pv_ctx, MODE_CONSTANT_PF, decision)
    assert counts["values"] > 4 and counts["solves"] == counts["fallback_rows"] == 0
