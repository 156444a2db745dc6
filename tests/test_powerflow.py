"""Newton power flow and the anchored linear models.

The reference for the balanced two-bus feeder is the scalar closed form of
the single-branch voltage equation: with W = V / V_slack,

    W = 1 + z * conj(S) / conj(W)
    =>  Im(W) = Im(z * conj(S)),   Re(W) solves a quadratic.

Expected values below were computed from that formula and frozen.
"""

import numpy as np
import pytest

from flexgrid.feeder import load_feeder
from flexgrid.powerflow import (
    PowerFlowError,
    anchor_injections,
    assemble_ybus,
    build_fixed_point_model,
    magnitude_taylor,
    solve_nonlinear_pf,
)

from conftest import balanced_doc, pv_doc

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
