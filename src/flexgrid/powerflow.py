"""Three-phase power flow and its anchored linearizations.

Two solvers live here:

* a Newton power flow in rectangular voltage coordinates (dense LU steps,
  flat start at the balanced slack phasor), used to compute operating points
  and as the nonlinear reference everywhere else;
* a fixed-point linear voltage model anchored at an operating point, exact at
  the anchor by construction, plus the first-order voltage-magnitude
  linearization used by the LP layers.

All quantities are per-unit on the feeder bases.  Injections are
generation-positive per non-slack single-phase node, ordered by
``BusPhaseIndex``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feeder import BusPhaseIndex, FeederModel, assemble_ybus, index_nodes

# Balanced positive-sequence slack: phases a, b, c at 1 p.u.
SLACK_PHASOR = np.exp(1j * np.deg2rad(np.array([0.0, -120.0, 120.0])))

NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 50


class PowerFlowError(RuntimeError):
    """Raised when the Newton iteration fails to produce a usable solution."""


@dataclass
class OperatingPoint:
    """A converged power-flow solution.

    ``p_inj``/``q_inj`` hold the *realized* injections V·conj(I) at the
    solution, which agree with the requested ones to the Newton tolerance but
    are exactly consistent with ``v`` — that consistency is what makes the
    anchored linear model reproduce the anchor to machine precision.
    """

    index: BusPhaseIndex
    v: np.ndarray  # complex voltages at non-slack nodes
    v_slack: np.ndarray  # complex voltages at the slack phases
    p_inj: np.ndarray  # realized active injections, p.u., generation-positive
    q_inj: np.ndarray  # realized reactive injections, p.u.
    slack_power: np.ndarray  # complex per-phase power injected by the slack
    iterations: int
    residual: float  # max |S_spec - S(v)| over nodes, p.u.

    @property
    def vd(self) -> np.ndarray:
        return self.v.real

    @property
    def vq(self) -> np.ndarray:
        return self.v.imag

    @property
    def vm(self) -> np.ndarray:
        return np.abs(self.v)


def anchor_injections(
    model: FeederModel, index: BusPhaseIndex | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Current-operating-point injections in p.u.

    Loads draw their constant-power-factor complex power; inverters inject
    their current active power at unity power factor (reactive setpoints are
    decision variables of the upper problems, not part of the anchor).
    """
    if index is None:
        index = index_nodes(model)
    p = np.zeros(index.n)
    q = np.zeros(index.n)
    for ld in model.loads:
        k = index.of(ld.bus, ld.phase)
        beta = np.sqrt(1.0 - ld.pf**2) / ld.pf
        p[k] -= ld.p_kw / model.base_kva
        q[k] -= beta * ld.p_kw / model.base_kva
    for g in model.inverters:
        k = index.of(g.bus, g.phase)
        p[k] += g.p_kw / model.base_kva
    return p, q


def _partition_ybus(Y: np.ndarray, index: BusPhaseIndex):
    ns = len(index.slack_nodes)
    return Y[:ns, :ns], Y[:ns, ns:], Y[ns:, :ns], Y[ns:, ns:]


def solve_nonlinear_pf(
    model: FeederModel,
    p_inj: np.ndarray | None = None,
    q_inj: np.ndarray | None = None,
    *,
    index: BusPhaseIndex | None = None,
    Y: np.ndarray | None = None,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> OperatingPoint:
    """Newton power flow in rectangular coordinates.

    With no injections given, solves the feeder's current operating point
    (see ``anchor_injections``).  Starts flat at the slack phasor replicated
    to every node and iterates full Newton steps with a dense LU solve until
    the power mismatch drops below ``tol`` (p.u.).
    """
    if index is None:
        index = index_nodes(model)
    if Y is None:
        Y = assemble_ybus(model, index)
    if p_inj is None or q_inj is None:
        p_inj, q_inj = anchor_injections(model, index)
    p_inj = np.asarray(p_inj, dtype=float)
    q_inj = np.asarray(q_inj, dtype=float)
    n = index.n
    if p_inj.shape != (n,) or q_inj.shape != (n,):
        raise ValueError(f"injections must have shape ({n},)")

    _, _, YL0, YLL = _partition_ybus(Y, index)
    v0 = SLACK_PHASOR.copy()
    s_spec = p_inj + 1j * q_inj

    # Flat start: slack phasor replicated phase-wise to every node.
    phase_pos = {"a": 0, "b": 1, "c": 2}
    v = np.array([v0[phase_pos[ph]] for (_, ph) in index.nodes], dtype=complex)

    i_lin = YL0 @ v0
    residual = np.inf
    for it in range(1, max_iter + 1):
        i_node = i_lin + YLL @ v
        s_calc = v * np.conj(i_node)
        mismatch = s_spec - s_calc
        residual = float(np.max(np.abs(mismatch))) if n else 0.0
        if residual < tol:
            i_slack = Y[: len(index.slack_nodes)] @ np.concatenate([v0, v])
            return OperatingPoint(
                index=index,
                v=v,
                v_slack=v0,
                p_inj=s_calc.real.copy(),
                q_inj=s_calc.imag.copy(),
                slack_power=v0 * np.conj(i_slack),
                iterations=it - 1,
                residual=residual,
            )
        # d(S)/d(vd) = diag(conj I) + diag(V) conj(YLL);  d(S)/d(vq) = j(diag(conj I) - diag(V) conj(YLL))
        A = np.diag(np.conj(i_node))
        B = v[:, None] * np.conj(YLL)
        dS_dvd = A + B
        dS_dvq = 1j * (A - B)
        J = np.block(
            [
                [dS_dvd.real, dS_dvq.real],
                [dS_dvd.imag, dS_dvq.imag],
            ]
        )
        rhs = np.concatenate([mismatch.real, mismatch.imag])
        try:
            step = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular Jacobian at iteration {it}") from exc
        v = v + step[:n] + 1j * step[n:]
        if np.any(np.abs(v) < 1e-6):
            raise PowerFlowError(
                "voltage magnitude collapsed toward zero; injections are likely infeasible"
            )
    raise PowerFlowError(
        f"Newton power flow did not converge in {max_iter} iterations "
        f"(last mismatch {residual:.3e} p.u.)"
    )


@dataclass
class LinearPFModel:
    """Fixed-point linear voltage model anchored at an operating point.

    V = Z1 + Z2 (P - jQ), i.e. in rectangular coordinates

        V_d = Re(Z1) + Re(Z2) P + Im(Z2) Q
        V_q = Im(Z1) + Im(Z2) P - Re(Z2) Q

    with Z1 the no-load contribution of the slack through the reduced
    admittance and Z2 = Y_LL^-1 diag(conj(V_anchor))^-1.  Evaluating at the
    anchor injections returns the anchor voltages exactly.
    """

    index: BusPhaseIndex
    z1: np.ndarray  # complex offset, length n
    z2: np.ndarray  # complex sensitivity matrix, n x n
    anchor: OperatingPoint

    def voltages(self, p_inj: np.ndarray, q_inj: np.ndarray) -> np.ndarray:
        return self.z1 + self.z2 @ (np.asarray(p_inj) - 1j * np.asarray(q_inj))


def build_fixed_point_model(
    model: FeederModel,
    anchor: OperatingPoint,
    *,
    Y: np.ndarray | None = None,
) -> LinearPFModel:
    """Derive the anchored fixed-point linear model from the admittance matrix."""
    index = anchor.index
    if Y is None:
        Y = assemble_ybus(model, index)
    _, _, YL0, YLL = _partition_ybus(Y, index)
    rhs = np.concatenate(
        [(-YL0 @ anchor.v_slack)[:, None], np.diag(1.0 / np.conj(anchor.v))], axis=1
    )
    sol = np.linalg.solve(YLL, rhs)
    z1 = sol[:, 0]
    z2 = sol[:, 1:]
    return LinearPFModel(index=index, z1=z1, z2=z2, anchor=anchor)


@dataclass
class MagnitudeTaylor:
    """First-order magnitude linearization  |v| ~= alpha_d v_d + alpha_q v_q.

    The coefficients come from expanding v_d^2 + v_q^2 = |v|^2 around the
    anchor; with alpha_d = v_d0/|v0| and alpha_q = v_q0/|v0| the relation is
    exact at the anchor and first-order accurate nearby.
    """

    alpha_d: np.ndarray
    alpha_q: np.ndarray
    vm0: np.ndarray

    def magnitude(self, vd: np.ndarray, vq: np.ndarray) -> np.ndarray:
        return self.alpha_d * vd + self.alpha_q * vq


def magnitude_taylor(anchor: OperatingPoint) -> MagnitudeTaylor:
    vm0 = anchor.vm
    if np.any(vm0 <= 0):
        raise PowerFlowError("anchor voltage magnitude must be positive at every node")
    return MagnitudeTaylor(
        alpha_d=anchor.vd / vm0, alpha_q=anchor.vq / vm0, vm0=vm0.copy()
    )
