"""Newton power flow and the anchored linear models.

The reference for the balanced two-bus feeder is the scalar closed form of
the single-branch voltage equation: with W = V / V_slack,

    W = 1 + z * conj(S) / conj(W)
    =>  Im(W) = Im(z * conj(S)),   Re(W) solves a quadratic.

Expected values below were computed from that formula and frozen.
"""

import dataclasses

import numpy as np
import pytest

from flexgrid import powerflow
from flexgrid.feeder import index_nodes, load_feeder
from flexgrid.powerflow import (
    NEWTON_TOL,
    PowerFlowError,
    anchor_injections,
    assemble_ybus,
    build_fixed_point_model,
    magnitude_taylor,
    solve_nonlinear_pf,
)

from conftest import balanced_doc, pv_doc
from randfeeders import random_feeder_doc

Z_PU = (1.0 + 2.0j) / (1e3 * 2.4**2 / 100.0)


def closed_form_w(S):
    """Rotated two-bus voltage W for a per-phase injection S (p.u.)."""
    zs = Z_PU * np.conj(S)
    wq = zs.imag
    wd = 0.5 * (1.0 + np.sqrt(1.0 - 4.0 * (wq**2 - zs.real)))
    return wd + 1j * wq


# frozen from the closed form (see module docstring)
W_ANCHOR = 0.9937869504906172 - 0.004736493422381711j
VM_ANCHOR = 0.9937982377401263
VM_HEAVY = 0.9903025623322447  # S = -0.35 - 0.10j per phase
VM_GEN = 1.0060099338613049  # S = +0.25 + 0.05j per phase


def test_closed_form_frozen_values_unchanged():
    beta = np.sqrt(1.0 - 0.9**2) / 0.9
    assert closed_form_w(-0.18 * (1 + 1j * beta)) == pytest.approx(W_ANCHOR, abs=1e-15)
    assert abs(closed_form_w(-0.35 - 0.10j)) == pytest.approx(VM_HEAVY, abs=1e-15)
    assert abs(closed_form_w(0.25 + 0.05j)) == pytest.approx(VM_GEN, abs=1e-15)


def test_newton_matches_closed_form_balanced():
    model = load_feeder(balanced_doc())
    op = solve_nonlinear_pf(model)
    # per-phase W must match the closed form after undoing the slack rotation
    from flexgrid.powerflow import SLACK_PHASOR

    w = op.v / SLACK_PHASOR
    assert np.max(np.abs(w - W_ANCHOR)) < 1e-9
    assert np.allclose(op.vm, VM_ANCHOR, atol=1e-9)
    assert op.residual < 1e-8
    assert 0 < op.iterations <= 6


@pytest.mark.parametrize("p,q,vm", [(-0.35, -0.10, VM_HEAVY), (0.25, 0.05, VM_GEN)])
def test_newton_matches_closed_form_other_injections(p, q, vm):
    model = load_feeder(balanced_doc())
    n = 3
    op = solve_nonlinear_pf(model, np.full(n, p), np.full(n, q))
    assert np.allclose(op.vm, vm, atol=1e-9)


def test_realized_injections_satisfy_ybus_physics():
    """Independent residual check straight from S = V * conj(Y V)."""
    model = load_feeder(pv_doc())
    op = solve_nonlinear_pf(model)
    Y = assemble_ybus(model, op.index)
    v_full = np.concatenate([op.v_slack, op.v])
    s_full = v_full * np.conj(Y @ v_full)
    ns = len(op.index.slack_nodes)
    assert np.max(np.abs(s_full[ns:].real - op.p_inj)) < 1e-12
    assert np.max(np.abs(s_full[ns:].imag - op.q_inj)) < 1e-12
    assert np.max(np.abs(s_full[:ns] - op.slack_power)) < 1e-12
    # slack balances the feeder: total injected power covers losses >= 0
    loss = float(np.sum(s_full.real))
    assert loss >= 0.0


def test_anchor_injections_table():
    model = load_feeder(pv_doc())
    p, q = anchor_injections(model)
    base = model.base_kva
    # (mid,a) load 20 kW pf .95; (mid,c) inverter 8 kW at unity pf
    beta95 = np.sqrt(1 - 0.95**2) / 0.95
    assert p[0] * base == pytest.approx(-20.0)
    assert q[0] * base == pytest.approx(-20.0 * beta95)
    assert p[2] * base == pytest.approx(8.0)
    assert q[2] == 0.0
    # (end,b) carries both a load and an inverter
    beta93 = np.sqrt(1 - 0.93**2) / 0.93
    assert p[4] * base == pytest.approx(-10.0 + 10.0)
    assert q[4] * base == pytest.approx(-10.0 * beta93)


def test_fixed_point_model_exact_at_anchor():
    for doc in (balanced_doc(), pv_doc()):
        model = load_feeder(doc)
        op = solve_nonlinear_pf(model)
        lpf = build_fixed_point_model(model, op)
        v_lin = lpf.voltages(op.p_inj, op.q_inj)
        assert np.max(np.abs(v_lin - op.v)) < 1e-12


def test_linear_model_first_order_accuracy():
    model = load_feeder(pv_doc())
    op = solve_nonlinear_pf(model)
    lpf = build_fixed_point_model(model, op)
    rng = np.random.default_rng(7)
    dp = rng.uniform(-1, 1, op.index.n)
    dq = rng.uniform(-1, 1, op.index.n)
    errs = []
    for scale in (0.08, 0.02):
        v_lin = lpf.voltages(op.p_inj + scale * dp, op.q_inj + scale * dq)
        v_nl = solve_nonlinear_pf(model, op.p_inj + scale * dp, op.q_inj + scale * dq).v
        errs.append(np.max(np.abs(v_lin - v_nl)))
    # exactness lives at the anchor; away from it the error shrinks at least
    # linearly with the step (it is a secant model, not the tangent)
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 2.5


def test_magnitude_taylor_matches_finite_differences():
    model = load_feeder(pv_doc())
    op = solve_nonlinear_pf(model)
    taylor = magnitude_taylor(op)
    assert np.allclose(taylor.magnitude(op.vd, op.vq), op.vm, atol=1e-14)
    h = 1e-6
    for k in (0, 3):
        vd = op.vd.copy()
        vd[k] += h
        fd = (np.sqrt(vd**2 + op.vq**2)[k] - op.vm[k]) / h
        assert fd == pytest.approx(taylor.alpha_d[k], abs=1e-5)
        vq = op.vq.copy()
        vq[k] += h
        fq = (np.sqrt(op.vd**2 + vq**2)[k] - op.vm[k]) / h
        assert fq == pytest.approx(taylor.alpha_q[k], abs=1e-5)


def test_magnitude_taylor_rejects_zero_anchor():
    model = load_feeder(pv_doc())
    op = solve_nonlinear_pf(model)
    op.v = op.v.copy()
    op.v[0] = 0.0
    with pytest.raises(PowerFlowError, match="positive"):
        magnitude_taylor(op)


def test_no_load_unregulated_feeder_is_flat():
    doc = balanced_doc()
    doc["loads"] = []
    model = load_feeder(doc)
    op = solve_nonlinear_pf(model)
    assert op.iterations == 0
    assert np.allclose(op.vm, 1.0, atol=1e-12)


def test_infeasible_injections_raise():
    model = load_feeder(balanced_doc())
    with pytest.raises(PowerFlowError):
        solve_nonlinear_pf(model, np.full(3, -60.0), np.full(3, -30.0))


def test_bad_injection_shape_raises():
    model = load_feeder(balanced_doc())
    with pytest.raises(ValueError, match="shape"):
        solve_nonlinear_pf(model, np.zeros(2), np.zeros(2))


def test_a_half_given_injection_raises():
    """p without q (or q without p) is refused, not swapped for the anchor's."""
    model = load_feeder(balanced_doc())
    with pytest.raises(ValueError, match="both"):
        solve_nonlinear_pf(model, np.full(3, -0.2))
    with pytest.raises(ValueError, match="both"):
        solve_nonlinear_pf(model, q_inj=np.full(3, -0.05))


def test_bad_slope_shape_raises():
    model = load_feeder(balanced_doc())  # n = 3
    with pytest.raises(ValueError, match="slope"):
        solve_nonlinear_pf(model, np.zeros(3), np.zeros(3), slope=np.ones(2))


# ---------------------------------------------------------------------------
# Stacked solves: a (P, n) stack of profiles in one Newton call
# ---------------------------------------------------------------------------

STACK_ROWS = 24


@pytest.fixture(params=["ieee13", "gen7204", "gen7205"])
def feeder_stack(request, ieee13_model):
    """A feeder and a stack of injection profiles scaled from its anchor's."""
    if request.param == "ieee13":
        model = ieee13_model
    else:
        seed = int(request.param[3:])
        model = load_feeder(random_feeder_doc(np.random.default_rng(seed)))
    index = index_nodes(model)
    p0, q0 = anchor_injections(model, index)
    rng = np.random.default_rng(11)
    # From no load to 2.5 times the anchor, each injection jittered by 20 %.
    amp = np.linspace(0.0, 2.5, STACK_ROWS)[:, None]
    p = amp * p0 * rng.uniform(0.8, 1.2, (STACK_ROWS, index.n))
    q = amp * q0 * rng.uniform(0.8, 1.2, (STACK_ROWS, index.n))
    return model, index, p, q


def test_stacked_newton_matches_lone_solves(feeder_stack):
    model, index, p, q = feeder_stack
    Y = assemble_ybus(model, index)
    op = solve_nonlinear_pf(model, p, q, index=index, Y=Y)
    assert op.v.shape == p.shape and op.slack_power.shape == (STACK_ROWS, 3)
    lone = [solve_nonlinear_pf(model, p[i], q[i], index=index, Y=Y) for i in range(STACK_ROWS)]
    for i, one in enumerate(lone):
        assert np.max(np.abs(op.v[i] - one.v)) <= 1e-12, i
        assert np.max(np.abs(op.p_inj[i] - one.p_inj)) <= 1e-12, i
        assert np.max(np.abs(op.q_inj[i] - one.q_inj)) <= 1e-12, i
        assert np.max(np.abs(op.slack_power[i] - one.slack_power)) <= 1e-12, i
    assert op.iterations == max(one.iterations for one in lone)
    assert op.residual == pytest.approx(max(one.residual for one in lone), abs=1e-12)


def _droop(index, q):
    """A droop line on every node, with a slope from 0.5 to 2 (q per |v|,
    p.u.) and q at 1 p.u. |v|: the intercept q + slope, and the slope."""
    slope = np.linspace(0.5, 2.0, index.n)
    return q + slope, slope


def test_stacked_droop_solve_matches_lone_solves(feeder_stack):
    """With a slope too, a row of a stack solves as it does alone."""
    model, index, p, q = feeder_stack
    Y = assemble_ybus(model, index)
    q, slope = _droop(index, q)
    op = solve_nonlinear_pf(model, p, q, index=index, Y=Y, slope=slope)
    lone = [
        solve_nonlinear_pf(model, p[i], q[i], index=index, Y=Y, slope=slope)
        for i in range(STACK_ROWS)
    ]
    for i, one in enumerate(lone):
        assert np.max(np.abs(op.v[i] - one.v)) <= 1e-12, i
        assert np.max(np.abs(op.q_inj[i] - one.q_inj)) <= 1e-12, i
    assert op.iterations == max(one.iterations for one in lone)


def test_a_slope_lowers_each_reactive_injection_by_its_own_magnitude(feeder_stack):
    """The realized injections are p + j(q - slope·|v|), recomputed from the
    admittance matrix."""
    model, index, p, q = feeder_stack
    Y = assemble_ybus(model, index)
    q, slope = _droop(index, q)
    op = solve_nonlinear_pf(model, p, q, index=index, Y=Y, slope=slope)
    ns = len(index.slack_nodes)
    v_full = np.concatenate([np.tile(op.v_slack, (STACK_ROWS, 1)), op.v], axis=1)
    s_full = v_full * np.conj(v_full @ Y.T)
    assert np.max(np.abs(s_full[:, ns:] - (p + 1j * (q - slope * op.vm)))) < NEWTON_TOL
    assert np.max(np.abs(s_full[:, ns:].imag - op.q_inj)) < 1e-12
    assert op.residual < NEWTON_TOL


def test_rows_leave_the_stack_at_their_own_step():
    """A row that converges early keeps the iterate its lone solve stops at."""
    model = load_feeder(random_feeder_doc(np.random.default_rng(7204)))
    p0, q0 = anchor_injections(model)
    amp = np.array([[2.5], [0.0], [0.5]])
    p, q = amp * p0, amp * q0
    lone = [solve_nonlinear_pf(model, p[i], q[i]) for i in range(3)]
    assert [one.iterations for one in lone] == [3, 0, 2]
    op = solve_nonlinear_pf(model, p, q)
    assert op.iterations == 3
    for i, one in enumerate(lone):
        assert np.max(np.abs(op.v[i] - one.v)) <= 1e-12, i
        assert np.max(np.abs(op.p_inj[i] - one.p_inj)) <= 1e-12, i


def test_stacked_newton_realizes_the_requested_injections(feeder_stack):
    """Every row's S = V conj(Y V), recomputed from the admittance matrix."""
    model, index, p, q = feeder_stack
    Y = assemble_ybus(model, index)
    op = solve_nonlinear_pf(model, p, q, index=index, Y=Y)
    ns = len(index.slack_nodes)
    v_full = np.concatenate([np.tile(op.v_slack, (STACK_ROWS, 1)), op.v], axis=1)
    s_full = v_full * np.conj(v_full @ Y.T)
    assert np.max(np.abs(s_full[:, ns:] - (p + 1j * q))) < NEWTON_TOL
    assert np.max(np.abs(s_full[:, ns:].real - op.p_inj)) < 1e-12
    assert np.max(np.abs(s_full[:, ns:].imag - op.q_inj)) < 1e-12
    assert np.max(np.abs(s_full[:, :ns] - op.slack_power)) < 1e-12


def test_one_row_stack_equals_the_vector_call():
    model = load_feeder(pv_doc())
    p, q = anchor_injections(model)
    p, q = p + 0.03, q - 0.01
    one = solve_nonlinear_pf(model, p, q)
    stack = solve_nonlinear_pf(model, p[None, :], q[None, :])
    assert one.v.shape == (5,) and stack.v.shape == (1, 5)
    assert np.max(np.abs(stack.v[0] - one.v)) <= 1e-12
    assert np.max(np.abs(stack.slack_power[0] - one.slack_power)) <= 1e-12
    assert stack.iterations == one.iterations


def test_stack_with_one_infeasible_row_raises():
    model = load_feeder(balanced_doc())
    p = np.full((4, 3), -0.2)
    q = np.full((4, 3), -0.05)
    solve_nonlinear_pf(model, p, q)  # the feasible rows alone solve
    p[2], q[2] = -60.0, -30.0
    with pytest.raises(PowerFlowError):
        solve_nonlinear_pf(model, p, q)


@pytest.mark.parametrize(
    "p_shape,q_shape",
    [((4, 4), (4, 4)), ((4, 3), (3, 3)), ((4, 3), (3,)), ((2, 4, 3), (2, 4, 3))],
)
def test_bad_stack_shapes_raise(p_shape, q_shape):
    model = load_feeder(balanced_doc())  # n = 3
    with pytest.raises(ValueError, match="shape"):
        solve_nonlinear_pf(model, np.zeros(p_shape), np.zeros(q_shape))


def test_counts_are_python_scalars():
    """Span tracers sum and serialize these; numpy scalars break json.dumps."""
    model = load_feeder(pv_doc())
    p, q = anchor_injections(model)
    for op in (solve_nonlinear_pf(model), solve_nonlinear_pf(model, np.tile(p, (3, 1)), np.tile(q, (3, 1)))):
        assert type(op.iterations) is int
        assert type(op.residual) is float


def test_memory_cap_splits_the_stack_into_chunks(feeder_stack, monkeypatch):
    model, index, p, q = feeder_stack
    Y = assemble_ybus(model, index)
    whole = solve_nonlinear_pf(model, p, q, index=index, Y=Y)
    chunks = []
    newton = powerflow._newton

    def recording(YLL, i_lin, v_flat, s_spec, *rest):
        chunks.append(len(s_spec))
        return newton(YLL, i_lin, v_flat, s_spec, *rest)

    monkeypatch.setattr(powerflow, "_newton", recording)
    solve_nonlinear_pf(model, p, q, index=index, Y=Y)
    assert chunks == [STACK_ROWS]  # the default budget holds the whole stack
    chunks.clear()
    monkeypatch.setattr(
        powerflow, "NEWTON_STACK_BYTES", 3 * powerflow.ROW_BYTES_PER_NODE2 * index.n**2
    )
    capped = solve_nonlinear_pf(model, p, q, index=index, Y=Y)
    assert chunks == [3] * (STACK_ROWS // 3)
    assert np.max(np.abs(capped.vm - whole.vm)) <= 1e-12
    assert capped.iterations == whole.iterations


# ---------------------------------------------------------------------------
# Fixed-point sweeps on the anchored linear model, Newton as the fallback
# ---------------------------------------------------------------------------

def _anchored_model(model, index, Y):
    anchor = solve_nonlinear_pf(model, index=index, Y=Y)
    return build_fixed_point_model(model, anchor, Y=Y)


@pytest.mark.parametrize("slope", [None, 0.05], ids=["no-droop", "droop"])
def test_sweeps_match_newton(feeder_stack, slope):
    """Every row settles by sweeps alone, within 1e-9 p.u. of its Newton
    solve, and realizes the requested injections to ``SWEEP_TOL``."""
    model, index, p, q = feeder_stack
    Y = assemble_ybus(model, index)
    kw = {}
    if slope is not None:
        kw["slope"] = np.full(index.n, slope)
        q = q + kw["slope"]  # the droop line through q at 1 p.u. |v|
    newton = solve_nonlinear_pf(model, p, q, index=index, Y=Y, **kw)
    lpf = _anchored_model(model, index, Y)
    swept = solve_nonlinear_pf(model, p, q, index=index, Y=Y, lpf=lpf, **kw)
    assert newton.newton_fallback_rows == swept.newton_fallback_rows == 0
    assert np.max(np.abs(swept.v - newton.v)) <= 1e-9
    assert swept.residual < powerflow.SWEEP_TOL
    droop = 0.0 if slope is None else kw["slope"] * swept.vm
    s_want = p + 1j * (q - droop)
    assert np.max(np.abs(swept.p_inj + 1j * swept.q_inj - s_want)) < powerflow.SWEEP_TOL


def test_a_wrong_model_falls_back_to_newton(feeder_stack):
    """With z2 off by 1 %, the sweeps' fixed point misses the power flow: the
    mismatch, recomputed from Y, never reaches ``SWEEP_TOL``, so every row
    with an injection goes to Newton and gives Newton's answer.  The row
    without one settles at z1, which z2 does not touch."""
    model, index, p, q = feeder_stack
    Y = assemble_ybus(model, index)
    lpf = _anchored_model(model, index, Y)
    wrong = dataclasses.replace(lpf, z2=lpf.z2 * 1.01)
    swept = solve_nonlinear_pf(model, p, q, index=index, Y=Y, lpf=wrong)
    newton = solve_nonlinear_pf(model, p, q, index=index, Y=Y)
    loaded = np.any((p != 0) | (q != 0), axis=1)
    assert not loaded[0] and loaded[1:].all()
    assert swept.newton_fallback_rows == STACK_ROWS - 1
    assert np.max(np.abs(swept.v - newton.v)) <= 1e-12
    assert np.max(np.abs(swept.q_inj - newton.q_inj)) <= 1e-12


def test_sweeps_that_do_not_contract_fall_back_to_newton(ieee13_model):
    """On ieee13 a droop slope of 0.5 at every node does not contract within
    ``SWEEP_MAX_ITER`` sweeps: every row goes to Newton, whole, and gives
    Newton's bits."""
    index = index_nodes(ieee13_model)
    Y = assemble_ybus(ieee13_model, index)
    p0, q0 = anchor_injections(ieee13_model, index)
    amp = np.linspace(0.0, 2.5, STACK_ROWS)[:, None]
    p, q = amp * p0, amp * q0
    slope = np.full(index.n, 0.5)
    newton = solve_nonlinear_pf(ieee13_model, p, q, index=index, Y=Y, slope=slope)
    swept = solve_nonlinear_pf(ieee13_model, p, q, index=index, Y=Y, slope=slope,
                               lpf=_anchored_model(ieee13_model, index, Y))
    assert swept.newton_fallback_rows == STACK_ROWS
    assert swept.v.tobytes() == newton.v.tobytes()


def test_an_infeasible_row_still_raises_with_a_model():
    model = load_feeder(balanced_doc())
    index = index_nodes(model)
    Y = assemble_ybus(model, index)
    lpf = _anchored_model(model, index, Y)
    p = np.full((4, 3), -0.2)
    q = np.full((4, 3), -0.05)
    assert solve_nonlinear_pf(model, p, q, lpf=lpf).newton_fallback_rows == 0
    p[2], q[2] = -60.0, -30.0
    with pytest.raises(PowerFlowError):
        solve_nonlinear_pf(model, p, q, lpf=lpf)
