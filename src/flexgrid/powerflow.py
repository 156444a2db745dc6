"""Three-phase power flow and its anchored linearizations.

Two solvers live here:

* a Newton power flow in rectangular voltage coordinates (flat start at the
  balanced slack phasor), used to compute operating points and as the
  nonlinear reference everywhere else.  It solves a whole stack of injection
  profiles at once: each iteration takes every unconverged profile's step
  with one stacked LU solve over their Jacobians, volt-var droop lines
  included;
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
# Memory budget of one stacked Newton solve.  A profile in the stack holds
# its complex (n, 2n) derivative block and its real (2n, 2n) Jacobian,
# ROW_BYTES_PER_NODE2 * n^2 bytes; longer stacks are solved in chunks.
NEWTON_STACK_BYTES = 4 * 2**20
ROW_BYTES_PER_NODE2 = 64


class PowerFlowError(RuntimeError):
    """Raised when the Newton iteration fails to produce a usable solution."""


@dataclass
class OperatingPoint:
    """A converged power-flow solution, or a stack of them.

    The per-node arrays have shape ``(n,)`` for one profile and ``(P, n)``
    for a stack of ``P`` (``slack_power`` likewise per slack phase).
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
    iterations: int  # Newton steps (of the slowest profile in a stack)
    residual: float  # max |S_spec - S(v)| over nodes (and profiles), p.u.

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
    slope: np.ndarray | None = None,
) -> OperatingPoint:
    """Newton power flow in rectangular coordinates, one profile or a stack.

    ``p_inj``/``q_inj`` are one injection profile of shape ``(n,)`` or a
    stack of ``P`` profiles of shape ``(P, n)``; with neither given, solves
    the feeder's current operating point (see ``anchor_injections``).  With
    a ``slope`` of shape ``(n,)``, node k injects q_inj[k] - slope[k]·|v_k|
    (a droop line).  Every profile starts flat at the slack phasor
    replicated to every node and takes full Newton steps.  Each iteration
    builds the Jacobians of all unconverged profiles as one ``(P, 2n, 2n)``
    stack and solves them in one stacked LU call.  A profile leaves the
    stack once its own power mismatch drops below ``NEWTON_TOL`` (p.u.), so
    it takes the steps a lone solve would; its last bits may still depend
    on the other rows of its stack (a matrix product's rounding can vary
    with the stack's length).  Stacks larger than ``NEWTON_STACK_BYTES``
    allows are solved in chunks.  The result has the input's shape; for a
    stack, ``iterations`` is the step count of the slowest profile and
    ``residual`` the largest final mismatch.  A singular Jacobian, a
    collapsing voltage or ``NEWTON_MAX_ITER`` steps without convergence in
    any profile raises ``PowerFlowError``.
    """
    if index is None:
        index = index_nodes(model)
    if Y is None:
        Y = assemble_ybus(model, index)
    if (p_inj is None) != (q_inj is None):
        raise ValueError("give both p_inj and q_inj, or neither")
    if p_inj is None:
        p_inj, q_inj = anchor_injections(model, index)
    p_inj = np.asarray(p_inj, dtype=float)
    q_inj = np.asarray(q_inj, dtype=float)
    n = index.n
    if p_inj.shape != q_inj.shape or p_inj.ndim not in (1, 2) or p_inj.shape[-1] != n:
        raise ValueError(f"injections must have shape ({n},) or (P, {n})")
    if slope is not None and np.shape(slope) != (n,):
        raise ValueError(f"slope must have shape ({n},)")

    Y00, Y0L, YL0, YLL = _partition_ybus(Y, index)
    v0 = SLACK_PHASOR.copy()
    # Flat start: slack phasor replicated phase-wise to every node.
    phase_pos = {"a": 0, "b": 1, "c": 2}
    v_flat = np.array([v0[phase_pos[ph]] for (_, ph) in index.nodes], dtype=complex)
    s_spec = np.atleast_2d(p_inj + 1j * q_inj)
    v = np.empty(s_spec.shape, dtype=complex)
    s_calc = np.empty_like(v)
    i_lin = YL0 @ v0
    iterations, residual = 0, 0.0
    rows = max(1, NEWTON_STACK_BYTES // (ROW_BYTES_PER_NODE2 * max(n, 1) ** 2))
    for i in range(0, len(s_spec), rows):
        chunk = slice(i, i + rows)
        steps, worst = _newton(YLL, i_lin, v_flat, s_spec[chunk], v[chunk], s_calc[chunk], slope)
        iterations, residual = max(iterations, steps), max(residual, worst)
    i_slack = Y00 @ v0 + v @ Y0L.T
    slack_power = v0 * np.conj(i_slack)
    if p_inj.ndim == 1:
        v, s_calc, slack_power = v[0], s_calc[0], slack_power[0]
    return OperatingPoint(
        index=index,
        v=v,
        v_slack=v0,
        p_inj=s_calc.real.copy(),
        q_inj=s_calc.imag.copy(),
        slack_power=slack_power,
        iterations=iterations,
        residual=residual,
    )


def _newton(
    YLL: np.ndarray,
    i_lin: np.ndarray,
    v_flat: np.ndarray,
    s_spec: np.ndarray,
    v: np.ndarray,
    s_calc: np.ndarray,
    slope: np.ndarray | None,
) -> tuple[int, float]:
    """Newton iterations on the ``(P, n)`` stack ``s_spec`` from a flat start,
    at most ``NEWTON_MAX_ITER`` of them, until every row's mismatch is below
    ``NEWTON_TOL``.

    With a ``slope`` the equations read S(v) + j·slope·|v| = s_spec.  Writes
    the voltages into ``v`` and the realized injections S(v) into
    ``s_calc``; returns the step count of the slowest row and the largest
    final mismatch.
    """
    m, n = s_spec.shape
    worst = 0.0
    live = np.arange(m)  # rows still iterating, and their iterates and targets
    v_live = np.repeat(v_flat[None, :], m, axis=0)
    s_live = s_spec
    YLL_T = YLL.T
    # [conj(YLL), -j conj(YLL)] per node row: the off-diagonal parts of
    # d(S)/d(vd) and d(S)/d(vq) once scaled by that node's voltage.
    YLL_pair = np.conj(YLL)[:, None, :] * np.array([[1.0], [-1j]])
    diag = 2 * n + 1  # stride of an (n, 2n) block's diagonals in its flat layout
    residual = np.inf
    for it in range(1, NEWTON_MAX_ITER + 1):
        i_node = i_lin + v_live @ YLL_T
        s_now = v_live * np.conj(i_node)
        mismatch = s_live - s_now
        c_d = np.conj(i_node)  # the diagonals of d(S)/d(vd) and d(S)/d(vq)
        c_q = 1j * c_d
        if slope is not None:  # j·slope·|v| joins S, j·slope·(vd, vq)/|v| the diagonals
            vm = np.abs(v_live)
            mismatch -= 1j * slope * vm
            g = 1j * slope / vm
            c_d, c_q = c_d + g * v_live.real, c_q + g * v_live.imag
        residual = np.abs(mismatch).max(axis=1, initial=0.0)
        done = residual < NEWTON_TOL
        finished = np.count_nonzero(done)
        if finished == live.size:  # the last rows converge: the stack took it - 1 steps
            v[live] = v_live
            s_calc[live] = s_now
            return it - 1, max(worst, float(residual.max()))
        if finished:
            v[live[done]] = v_live[done]
            s_calc[live[done]] = s_now[done]
            worst = max(worst, float(residual[done].max()))
            keep = ~done
            live, v_live, s_live, c_d, c_q, mismatch = (
                a[keep] for a in (live, v_live, s_live, c_d, c_q, mismatch)
            )
        # d(S)/d(vd) = diag(conj I) + diag(V) conj(YLL);  d(S)/d(vq) = j(diag(conj I) - diag(V) conj(YLL))
        # Built as the complex (n, 2n) block [d(S)/d(vd), d(S)/d(vq)] of each
        # row, whose real and imaginary parts are the P and Q rows of J.
        dS = (v_live[:, :, None, None] * YLL_pair).reshape(live.size, n, 2 * n)
        flat = dS.reshape(live.size, -1)
        flat[:, ::diag] += c_d  # the diagonal of d(S)/d(vd)
        flat[:, n::diag] += c_q  # the diagonal of d(S)/d(vq)
        J = np.concatenate([dS.real, dS.imag], axis=1)
        rhs = np.concatenate([mismatch.real, mismatch.imag], axis=1)
        try:
            step = np.linalg.solve(J, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular Jacobian at iteration {it}") from exc
        v_live = v_live + step[:, :n] + 1j * step[:, n:]
        if (np.abs(v_live) < 1e-6).any():
            raise PowerFlowError(
                "voltage magnitude collapsed toward zero; injections are likely infeasible"
            )
    raise PowerFlowError(
        f"Newton power flow did not converge in {NEWTON_MAX_ITER} iterations "
        f"(last mismatch {np.max(residual):.3e} p.u.)"
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
        """Voltages of one injection profile ``(n,)`` or a stack ``(P, n)``."""
        return self.z1 + (np.asarray(p_inj) - 1j * np.asarray(q_inj)) @ self.z2.T


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

    def magnitude(self, vd: np.ndarray, vq: np.ndarray) -> np.ndarray:
        return self.alpha_d * vd + self.alpha_q * vq


def magnitude_taylor(anchor: OperatingPoint) -> MagnitudeTaylor:
    vm0 = anchor.vm
    if np.any(vm0 <= 0):
        raise PowerFlowError("anchor voltage magnitude must be positive at every node")
    return MagnitudeTaylor(alpha_d=anchor.vd / vm0, alpha_q=anchor.vq / vm0)
