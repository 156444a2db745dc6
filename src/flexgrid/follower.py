"""Adversarial follower problems: one LP per (node, activation, extremum).

Each follower models an aggregator that redispatches flexible devices against
the DSO's offered band to push one node's voltage magnitude to an extreme.
The LP has a |v| column at each of the n single-phase nodes, Δp_gen and q_gen
columns at each inverter node and a Δp_load column at each load node.  The
linearized power flow, the first-order magnitude relation and the
constant-power-factor load reactive power compose into one affine map from
device deviations to |v|, which enters as one magnitude-sensitivity row per
node.  Around those rows sit the inverter capability outer
approximation, the inverter control-mode rows and the aggregate activation
row, under the activation sign rules (positive activation: loads may only
shed, inverters may only raise; negative mirrored).

Upper-level quantities (the offered band Δp±, per-inverter setpoints γ, q̄ or
q_set) enter as named *slots*: every row stores its follower-variable
coefficients plus optional slot-linear contributions to coefficients and
right-hand side.  Fixing all slots yields an ordinary LP; leaving them
symbolic is what the single-level reformulation consumes.

With the slots fixed, ``MaterializedFollower.solve`` solves every follower
in closed form.  |v| is an affine function of the device deviations and the
aggregate row is the only row coupling nodes' active power, so each mode
reduces to a fractional knapsack, which filling devices in order of gain
solves exactly (Dantzig 1957):

* constant-pf and fixed-q constant-q: the mode row ties each node's q_gen to
  its own Δp_gen (``_Knapsack``);
* free-q constant-q: each node's best q_gen is the end of its cone, box and
  capability range that its gain prefers, a concave piecewise-linear function
  of Δp_gen, so each node's Δp_gen splits into segments of falling gain
  (``_FreeQ``);
* volt-var: at fixed q̄ the droop rows are solved for q_gen, which turns the
  target row of the sensitivities into transformed gains (``_VoltVar``).

Each fill also gives exact row and bound duals.  HiGHS is kept as a fallback
for the one case the closed forms cannot certify, a volt-var point that
leaves the q_gen box or a capability row (and for inconsistent device data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .feeder import (
    MODE_CONSTANT_PF,
    MODE_CONSTANT_Q,
    MODE_VOLT_VAR,
    BusPhaseIndex,
    FeederModel,
    assemble_ybus,
    index_nodes,
)
from .lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    MAX,
    OPTIMAL,
    DualCertificate,
    LinearProgram,
    MaterializedLP,
    solve_materialized,
)
from .powerflow import (
    LinearPFModel,
    MagnitudeTaylor,
    OperatingPoint,
    build_fixed_point_model,
    magnitude_taylor,
    solve_nonlinear_pf,
)

POSITIVE = "positive"
NEGATIVE = "negative"
ACTIVATIONS = (POSITIVE, NEGATIVE)

MIN_V = "min"
MAX_V = "max"
EXTREMA = (MIN_V, MAX_V)

# Extremum families screened for each study direction.
DIRECTIONS = {
    "both": (MIN_V, MAX_V),
    "overvoltage": (MAX_V,),
    "undervoltage": (MIN_V,),
}

# Table ordering of the four scenario families per node.
_SCENARIO_NUMBER = {
    (POSITIVE, MIN_V): 1,
    (POSITIVE, MAX_V): 2,
    (NEGATIVE, MIN_V): 3,
    (NEGATIVE, MAX_V): 4,
}

SLOT_DP_PLUS = "dp_plus"
SLOT_DP_MINUS = "dp_minus"

CLOSED_FORM = "closed-form"  # ``DualCertificate.method`` of the closed-form solves
FEAS_TOL = 1e-7  # row slack the closed form tolerates, HiGHS's primal feasibility default


def slot_gamma(node: int) -> str:
    return f"gamma[{node}]"


def slot_qbar(node: int) -> str:
    return f"qbar[{node}]"


def slot_qset(node: int) -> str:
    return f"qset[{node}]"


@dataclass(frozen=True)
class Scenario:
    node: int
    activation: str  # POSITIVE | NEGATIVE
    extremum: str  # MIN_V | MAX_V

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"bad activation {self.activation!r}")
        if self.extremum not in EXTREMA:
            raise ValueError(f"bad extremum {self.extremum!r}")

    @property
    def sigma(self) -> float:
        """Objective sign: +1 maximizes |v|, -1 minimizes it."""
        return 1.0 if self.extremum == MAX_V else -1.0

    @property
    def number(self) -> int:
        return _SCENARIO_NUMBER[(self.activation, self.extremum)]

    @property
    def dp_slot(self) -> str:
        return SLOT_DP_PLUS if self.activation == POSITIVE else SLOT_DP_MINUS


@dataclass
class NodeDevices:
    """Per-node device data in p.u. (zeros where a device is absent)."""

    p_load0: np.ndarray
    p_load_min: np.ndarray
    p_load_max: np.ndarray
    beta_load: np.ndarray  # sqrt(1-pf^2)/pf, reactive per unit of load draw
    p_gen0: np.ndarray
    p_gen_min: np.ndarray
    p_gen_max: np.ndarray
    s_cap: np.ndarray
    gamma_cap: np.ndarray  # constant-pf mode: |gamma| bound from the pf rating
    gamma_const: np.ndarray  # constant-q mode: fixed cone half-width
    inverter_nodes: tuple[int, ...]
    load_nodes: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.p_load0.shape[0]


def build_devices(model: FeederModel, index: BusPhaseIndex | None = None) -> NodeDevices:
    """Aggregate device fleets into per-node totals (p.u.).

    Co-located devices sum their power quantities; the parser guarantees
    their reactive couplings (load pf, inverter pf and cone width) agree, so
    the Minkowski sum of their capability sets is the same shape scaled.
    """
    if index is None:
        index = index_nodes(model)
    n = index.n
    z = lambda: np.zeros(n)
    dev = NodeDevices(
        p_load0=z(), p_load_min=z(), p_load_max=z(), beta_load=z(),
        p_gen0=z(), p_gen_min=z(), p_gen_max=z(), s_cap=z(),
        gamma_cap=z(), gamma_const=z(), inverter_nodes=(), load_nodes=(),
    )
    base = model.base_kva
    load_nodes = set()
    for ld in model.loads:
        k = index.of(ld.bus, ld.phase)
        load_nodes.add(k)
        dev.p_load0[k] += ld.p_kw / base
        dev.p_load_min[k] += ld.p_min_kw / base
        dev.p_load_max[k] += ld.p_max_kw / base
        dev.beta_load[k] = math.sqrt(1.0 - ld.pf**2) / ld.pf
    inv_nodes = set()
    for g in model.inverters:
        k = index.of(g.bus, g.phase)
        inv_nodes.add(k)
        dev.p_gen0[k] += g.p_kw / base
        dev.p_gen_min[k] += g.p_min_kw / base
        dev.p_gen_max[k] += g.p_max_kw / base
        dev.s_cap[k] += g.s_kva / base
        dev.gamma_cap[k] = math.sqrt(1.0 - g.pf**2) / g.pf
        dev.gamma_const[k] = g.gamma
    dev.inverter_nodes = tuple(sorted(inv_nodes))
    dev.load_nodes = tuple(sorted(load_nodes))
    return dev


@dataclass
class FlexContext:
    """Everything the flexibility problems need about one feeder state."""

    feeder: FeederModel
    index: BusPhaseIndex
    ybus: np.ndarray  # bus admittance matrix in ``index`` order
    anchor: OperatingPoint
    lpf: LinearPFModel
    taylor: MagnitudeTaylor
    devices: NodeDevices
    v_min: float
    v_max: float

    @property
    def n(self) -> int:
        return self.index.n


def build_context(
    model: FeederModel,
    *,
    v_min: float = 0.9,
    v_max: float = 1.1,
    anchor: OperatingPoint | None = None,
) -> FlexContext:
    """Assemble the admittance matrix once, solve the anchor power flow and
    assemble the linearized models."""
    if not v_min < v_max:
        raise ValueError("need v_min < v_max")
    index = index_nodes(model)
    ybus = assemble_ybus(model, index)
    if anchor is None:
        anchor = solve_nonlinear_pf(model, index=index, Y=ybus)
    lpf = build_fixed_point_model(model, anchor, Y=ybus)
    taylor = magnitude_taylor(anchor)
    devices = build_devices(model, index)
    return FlexContext(
        feeder=model, index=index, ybus=ybus, anchor=anchor, lpf=lpf,
        taylor=taylor, devices=devices, v_min=v_min, v_max=v_max,
    )


def available_flexibility_bounds(devices: NodeDevices) -> tuple[float, float]:
    """Aggregate offer-band limits (Δp_lower, Δp_upper) in p.u.

    Upper: sum of device upper bounds minus current operation; lower the
    mirror with lower bounds.  These cap the band the DSO may offer, and the
    band always contains zero.
    """
    up = float(
        np.sum(devices.p_gen_max - devices.p_gen0)
        + np.sum(devices.p_load_max - devices.p_load0)
    )
    dn = float(
        np.sum(devices.p_gen_min - devices.p_gen0)
        + np.sum(devices.p_load_min - devices.p_load0)
    )
    return min(dn, 0.0), max(up, 0.0)


def fix_worst_case_setpoints(ctx: FlexContext, mode: str, extremum: str) -> dict[str, float]:
    """Adversarial setpoint choice for the worst-case screening step.

    Maximum-voltage scenarios get full boost (γ at +cap, volt-var curve
    disabled with q̄ = 0); minimum-voltage scenarios the mirror (γ at -cap,
    q̄ at the apparent-power cap).  Constant-Q keeps its reactive output as a
    follower variable, so there is nothing to fix.
    """
    if extremum not in EXTREMA:
        raise ValueError(f"bad extremum {extremum!r}")
    if mode == MODE_CONSTANT_Q:
        raise ValueError("constant-q mode has no worst-case setpoints to fix")
    dev = ctx.devices
    slots: dict[str, float] = {}
    for k in dev.inverter_nodes:
        if mode == MODE_CONSTANT_PF:
            cap = dev.gamma_cap[k]
            slots[slot_gamma(k)] = cap if extremum == MAX_V else -cap
        elif mode == MODE_VOLT_VAR:
            slots[slot_qbar(k)] = 0.0 if extremum == MAX_V else dev.s_cap[k]
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return slots


@dataclass
class ParamRow:
    """One follower constraint with optional upper-level slot dependences.

    Effective coefficient on follower variable v:
        sum of (idx, val) entries for v  +  sum coeff_slots c * slot_value
    Effective rhs: rhs + sum rhs_slots c * slot_value.
    """

    name: str
    relation: str
    idx: np.ndarray
    val: np.ndarray
    rhs: float = 0.0
    coeff_slots: list[tuple[int, str, float]] = field(default_factory=list)
    rhs_slots: list[tuple[str, float]] = field(default_factory=list)


class FollowerProblem:
    """The adversary's LP for one scenario, with upper-level slots symbolic.

    Variable layout (n single-phase nodes, I the inverter nodes, L the load
    nodes): |v| at every node, then Δp_gen over I, Δp_load over L and q_gen
    over I, n + 2|I| + |L| variables in all.  Only this class knows the
    order: callers index through ``i_vm`` and friends (which accept arrays
    of nodes and raise for a device the node does not have) and decode an
    argmax with ``injections``.

    The voltages are eliminated through the sensitivity rows
        |v_k| - S_p[k,I]·Δp_gen + (S_p[k,L] + S_q[k,L]·diag(β_L))·Δp_load
              - S_q[k,I]·q_gen = m0_k,
    with S_p = diag(α_d) Re Z2 + diag(α_q) Im Z2 and
    S_q = diag(α_d) Im Z2 - diag(α_q) Re Z2.  |v| itself stays a variable
    because the volt-var droop rows and the single-level band rows each read
    the magnitude of one node: eliminating it would turn every droop row's
    one slot product into n of them.
    """

    def __init__(self, ctx: FlexContext, scenario: Scenario, mode: str, *, fix_q: bool = False):
        if mode not in (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR):
            raise ValueError(f"unknown mode {mode!r}")
        self.ctx = ctx
        self.scenario = scenario
        self.mode = mode
        self.fix_q = fix_q
        n = ctx.n
        self.n = n
        self.inv = np.array(ctx.devices.inverter_nodes, dtype=np.int64)
        self.loads = np.array(ctx.devices.load_nodes, dtype=np.int64)
        m, n_loads = self.inv.size, self.loads.size
        # Column of each node's Δp_gen, Δp_load and q_gen; -1 where it has no such device.
        self._dpg, self._dpl, self._qg = (np.full(n, -1, dtype=np.int64) for _ in range(3))
        self._dpg[self.inv] = n + np.arange(m)
        self._dpl[self.loads] = n + m + np.arange(n_loads)
        self._qg[self.inv] = n + m + n_loads + np.arange(m)
        self.n_vars = n + 2 * m + n_loads
        self.lb = np.full(self.n_vars, -np.inf)
        self.ub = np.full(self.n_vars, np.inf)
        self.rows: list[ParamRow] = []
        self.slot_names: list[str] = []
        self._slot_seen: set[str] = set()
        self._build()

    # --- variable layout -------------------------------------------------
    def i_vm(self, k):
        return k

    def i_dpg(self, k):
        return self._column(self._dpg, k, "inverter")

    def i_dpl(self, k):
        return self._column(self._dpl, k, "load")

    def i_qg(self, k):
        return self._column(self._qg, k, "inverter")

    @staticmethod
    def _column(table: np.ndarray, k, device: str):
        """``table[k]`` for a node or an array of nodes; raises where a node has no ``device``."""
        cols = table[k]
        if (cols < 0).any():
            missing = np.atleast_1d(k)[np.atleast_1d(cols) < 0].tolist()
            raise KeyError(f"no {device} at node(s) {missing}")
        return cols

    def injections(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Net nodal injections (p, q) in p.u. encoded by a follower solution
        ``x`` (or by each row of a stack of them)."""
        dev = self.ctx.devices
        dpg, dpl, qg = (np.zeros(x.shape[:-1] + (self.n,)) for _ in range(3))
        dpg[..., self.inv] = x[..., self._dpg[self.inv]]
        dpl[..., self.loads] = x[..., self._dpl[self.loads]]
        qg[..., self.inv] = x[..., self._qg[self.inv]]
        p_load = dev.p_load0 + dpl
        return dev.p_gen0 + dpg - p_load, qg - dev.beta_load * p_load

    @property
    def objective(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        c[self.i_vm(self.scenario.node)] = self.scenario.sigma
        return c

    def _slot(self, name: str) -> str:
        if name not in self._slot_seen:
            self._slot_seen.add(name)
            self.slot_names.append(name)
        return name

    # --- assembly --------------------------------------------------------
    def _build(self) -> None:
        ctx, n, inv, loads = self.ctx, self.n, self.inv, self.loads
        dev = ctx.devices
        sc = self.scenario
        positive = sc.activation == POSITIVE

        # Device deviation bounds with the activation sign rules folded in.
        dpg_lo = np.maximum(dev.p_gen_min[inv], 0.0) - dev.p_gen0[inv]
        dpg_hi = np.minimum(dev.p_gen_max[inv], dev.s_cap[inv]) - dev.p_gen0[inv]
        dpl_lo = dev.p_load_min[loads] - dev.p_load0[loads]
        dpl_hi = dev.p_load_max[loads] - dev.p_load0[loads]
        if positive:
            dpg_lo = np.maximum(dpg_lo, 0.0)
            dpl_hi = np.minimum(dpl_hi, 0.0)
        else:
            dpg_hi = np.minimum(dpg_hi, 0.0)
            dpl_lo = np.maximum(dpl_lo, 0.0)
        bad = {*inv[dpg_lo > dpg_hi + 1e-12].tolist(), *loads[dpl_lo > dpl_hi + 1e-12].tolist()}
        if bad:
            raise ValueError(
                f"empty deviation box at node(s) {sorted(bad)}: "
                "device bounds exclude the current operating point"
            )
        all_dpg, all_dpl, all_qg = self._dpg[inv], self._dpl[loads], self._qg[inv]
        self.lb[all_dpg], self.ub[all_dpg] = dpg_lo, np.maximum(dpg_lo, dpg_hi)
        self.lb[all_dpl], self.ub[all_dpl] = dpl_lo, np.maximum(dpl_lo, dpl_hi)
        self.lb[all_qg], self.ub[all_qg] = -dev.s_cap[inv], dev.s_cap[inv]

        # Magnitude-sensitivity rows: the linear flow v = z1 + Z2 (P - jQ)
        # with P = p_gen0 + Δp_gen - p_load0 - Δp_load and
        # Q = q_gen - β (p_load0 + Δp_load), seen through |v| = α_d v_d + α_q v_q.
        z2 = ctx.lpf.z2
        z1 = ctx.lpf.z1
        t = ctx.taylor
        ad, aq = t.alpha_d[:, None], t.alpha_q[:, None]
        s_p = ad * z2.real + aq * z2.imag
        s_q = ad * z2.imag - aq * z2.real
        m0 = (
            t.alpha_d * z1.real + t.alpha_q * z1.imag
            + s_p @ (dev.p_gen0 - dev.p_load0) - s_q @ (dev.beta_load * dev.p_load0)
        )
        # |v| = m0 + s_p·Δp_gen - s_l·Δp_load + s_q·q_gen over the device
        # columns, kept for the closed form.
        self.s_p, self.s_q = s_p[:, inv], s_q[:, inv]
        self.s_l = s_p[:, loads] + s_q[:, loads] * dev.beta_load[loads]
        self.m0 = m0
        for k in range(n):
            self.rows.append(ParamRow(
                name=f"vm[{k}]", relation=EQ,
                idx=np.concatenate([[self.i_vm(k)], all_dpg, all_dpl, all_qg]),
                val=np.concatenate([[1.0], -self.s_p[k], self.s_l[k], -self.s_q[k]]),
                rhs=float(m0[k]),
            ))

        # Inverter capability outer approximation (box part is in the bounds).
        root2 = math.sqrt(2.0)
        inverters = list(zip(dev.inverter_nodes, all_dpg.tolist(), all_qg.tolist()))
        for k, i_g, i_q in inverters:
            cap = root2 * dev.s_cap[k] - dev.p_gen0[k]
            self.rows.append(ParamRow(
                name=f"cap_hi[{k}]", relation=LE,
                idx=np.array([i_g, i_q]), val=np.array([1.0, 1.0]), rhs=cap,
            ))
            self.rows.append(ParamRow(
                name=f"cap_lo[{k}]", relation=LE,
                idx=np.array([i_g, i_q]), val=np.array([1.0, -1.0]), rhs=cap,
            ))

        # Control-mode rows.
        vband = ctx.v_max - ctx.v_min
        for k, i_g, i_q in inverters:
            if self.mode == MODE_CONSTANT_PF:
                g = self._slot(slot_gamma(k))
                self.rows.append(ParamRow(
                    name=f"pfq[{k}]", relation=EQ,
                    idx=np.array([i_q]), val=np.array([1.0]),
                    coeff_slots=[(i_g, g, -1.0)],
                    rhs_slots=[(g, dev.p_gen0[k])],
                ))
            elif self.mode == MODE_CONSTANT_Q:
                gc = dev.gamma_const[k]
                self.rows.append(ParamRow(
                    name=f"cq_hi[{k}]", relation=LE,
                    idx=np.array([i_q, i_g]), val=np.array([1.0, -gc]), rhs=gc * dev.p_gen0[k],
                ))
                self.rows.append(ParamRow(
                    name=f"cq_lo[{k}]", relation=LE,
                    idx=np.array([i_q, i_g]), val=np.array([-1.0, -gc]), rhs=gc * dev.p_gen0[k],
                ))
                if self.fix_q:
                    q = self._slot(slot_qset(k))
                    self.rows.append(ParamRow(
                        name=f"qfix[{k}]", relation=EQ,
                        idx=np.array([i_q]), val=np.array([1.0]),
                        rhs_slots=[(q, 1.0)],
                    ))
            else:  # volt-var droop through the linearized magnitude
                qb = self._slot(slot_qbar(k))
                self.rows.append(ParamRow(
                    name=f"vv[{k}]", relation=EQ,
                    idx=np.array([i_q]), val=np.array([1.0]),
                    coeff_slots=[(self.i_vm(k), qb, 2.0 / vband)],
                    rhs_slots=[(qb, (ctx.v_max + ctx.v_min) / vband)],
                ))

        # Aggregate activation row: one-sided per activation case.
        dp = self._slot(sc.dp_slot)
        self.rows.append(ParamRow(
            name="agg", relation=LE if positive else GE,
            idx=np.concatenate([all_dpg, all_dpl]),
            val=np.concatenate([np.ones(inv.size), -np.ones(loads.size)]),
            rhs_slots=[(dp, 1.0)],
        ))

    # --- materialization and solving -------------------------------------
    def to_lp(self, slots: dict[str, float]) -> LinearProgram:
        """Instantiate as a plain LP with all slots fixed (builder path)."""
        missing = [s for s in self.slot_names if s not in slots]
        if missing:
            raise KeyError(f"missing slot values: {missing}")
        lp = LinearProgram(sense=MAX, name=f"follower[s{self.scenario.number},k{self.scenario.node}]")
        c = self.objective
        for v in range(self.n_vars):
            lp.add_var(lb=self.lb[v], ub=self.ub[v], obj=c[v])
        for row in self.rows:
            idx, val, rhs = _instantiate(row, slots)
            lp.add_row((idx, val), row.relation, rhs, name=row.name)
        return lp

    def materialize(self, slots: dict[str, float]) -> "MaterializedFollower":
        """The closed-form follower of this problem's mode at ``slots``."""
        if self.mode == MODE_VOLT_VAR:
            mf = _VoltVar(self)
        elif self.mode == MODE_CONSTANT_Q and not self.fix_q:
            mf = _FreeQ(self)
        else:
            mf = _Knapsack(self)
        mf.set_slots(slots)
        return mf

    def solve(self, slots: dict[str, float], *, node: int | None = None) -> DualCertificate:
        return self.materialize(slots).solve(node=node)

    def worst_voltage(self, cert: DualCertificate) -> float:
        """Optimal |v| at the scenario's node (undo the min-objective sign)."""
        return self.scenario.sigma * cert.objective


def _instantiate(row: ParamRow, slots: dict[str, float]) -> tuple[np.ndarray, np.ndarray, float]:
    idx, val, rhs = row.idx, row.val, row.rhs
    if row.coeff_slots:
        extra_i = np.array([v for v, _, _ in row.coeff_slots], dtype=np.int64)
        extra_v = np.array([c * slots[s] for _, s, c in row.coeff_slots])
        idx = np.concatenate([idx, extra_i])
        val = np.concatenate([val, extra_v])
    for s, c in row.rhs_slots:
        rhs += c * slots[s]
    return idx, val, float(rhs)


class MaterializedFollower:
    """One follower at fixed slots, solved for any target node and band edge.

    ``solve`` swaps the target node (objective) and the aggregate-row bound
    (rhs) and solves in closed form; ``FollowerProblem.materialize`` picks
    the subclass of the follower's mode (``_Knapsack``, ``_FreeQ`` or
    ``_VoltVar``).  Every closed form returns the LP's optimum with a full
    dual certificate (row and bound duals in ``problem.rows`` and variable
    order), so strong duality, the single-level completion and the
    band-edge walk read it as they read HiGHS.  When a closed form cannot
    certify its point, the solve falls back to HiGHS on ``mat``, the arrays
    of ``problem.to_lp(slots)``: they are built on the first fallback and
    ``set_slots`` drops them.

    Each closed form reduces the follower at fixed slots to a fractional
    knapsack over z = sign·(Δp_gen, -Δp_load), sign = +1 under positive
    activation and -1 under negative, so the aggregate row reads
    sum(z) <= sign·edge for either activation.  Device arrays run over the
    problem's inverter nodes (Δp_gen, q_gen) and load nodes (Δp_load) in its
    column order.  A subclass's ``_solve_closed`` returns the optimum with
    its certificate, an infeasible certificate, or None when the closed form
    cannot certify the point.
    """

    def __init__(self, problem: FollowerProblem):
        p = self.problem = problem
        nodes = np.arange(p.n)
        self.inv = p.inv
        self.gen_cols, self.load_cols, self.q_cols = p.i_dpg(p.inv), p.i_dpl(p.loads), p.i_qg(p.inv)
        self._row = {r.name: i for i, r in enumerate(p.rows)}
        self.agg_row = self._row["agg"]
        self.vm_rows = self.rows("vm", nodes)
        self.sign = 1.0 if p.scenario.activation == POSITIVE else -1.0
        # Variables whose reduced cost goes to the bound they sit at: all but
        # the free |v| and the columns a subclass balances on its own rows.
        self.box_only = np.ones(p.n_vars, dtype=bool)
        self.box_only[p.i_vm(nodes)] = False

    def set_slots(self, slots: dict[str, float]) -> None:
        """Re-slot in place: the follower ``problem.materialize(slots)`` builds."""
        self.slots = {s: slots[s] for s in self.problem.slot_names}
        self._mat: MaterializedLP | None = None

    @property
    def mat(self) -> MaterializedLP:
        """HiGHS arrays of the LP at the current slots, built on first use."""
        if self._mat is None:
            self._mat = self.problem.to_lp(self.slots).materialize()
        return self._mat

    def solve(self, *, node: int | None = None, dp_bound: float | None = None) -> DualCertificate:
        p = self.problem
        node = p.scenario.node if node is None else node
        edge = self.slots[p.scenario.dp_slot] if dp_bound is None else dp_bound
        cert = self._solve_closed(node, edge)
        if cert is not None:
            return cert
        mat = self.mat
        c = np.zeros(p.n_vars)
        c[p.i_vm(node)] = p.scenario.sigma
        b_ub = mat.ub_sign * mat.b_ub  # back in the original row convention
        b_ub[mat.ub_rows == self.agg_row] = edge
        return solve_materialized(mat, c=c, b_ub=b_ub)

    def _solve_closed(self, node: int, edge: float) -> DualCertificate | None:
        raise NotImplementedError

    def agg_dual(self, cert: DualCertificate) -> float:
        """Sensitivity of the objective to the aggregate bound."""
        return float(cert.row_duals[self.agg_row])

    def rows(self, name: str, nodes: np.ndarray | None = None) -> np.ndarray:
        """Positions of the rows ``name[k]`` over ``nodes`` (default: the inverter nodes)."""
        nodes = self.inv if nodes is None else nodes
        return np.array([self._row[f"{name}[{k}]"] for k in nodes], dtype=np.int64)

    def z_box(self, g_lo: np.ndarray, g_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of z from the inverters' Δp_gen intervals and Δp_load's box."""
        p = self.problem
        l_lo, l_hi = p.lb[self.load_cols], p.ub[self.load_cols]
        if self.sign > 0:
            return np.concatenate([g_lo, -l_hi]), np.concatenate([g_hi, -l_lo])
        return np.concatenate([-g_hi, l_lo]), np.concatenate([-g_lo, l_hi])

    def fill(self, gain: np.ndarray, lo: np.ndarray, hi: np.ndarray, edge: float):
        """``_fill`` over z for gains per unit of z's own variable (Δp_gen, or
        load shed); returns z and the aggregate row's dual, or None."""
        out = _fill(self.sign * gain, lo, hi, self.sign * edge)
        if out is None:
            return None
        z, mu = out
        return z, self.sign * mu

    def certificate(self, node, y, dpg, dpl, q, agg_dual, gain_g, gain_l, gain_q):
        """The point of these device deviations and its certificate.

        The vm rows take σy (y: the target row's weights on the
        sensitivities), agg its dual, and each box-only variable's reduced
        cost goes to the bound it sits at.  Also returns the duals as
        [row duals, lower, upper] and the reduced costs, for the subclass to
        place the rest.
        """
        p = self.problem
        gens, loads, qg = self.gen_cols, self.load_cols, self.q_cols
        sigma = p.scenario.sigma
        x = np.zeros(p.n_vars)
        x[p.i_vm(np.arange(p.n))] = p.m0 + p.s_p @ dpg - p.s_l @ dpl + p.s_q @ q
        x[gens], x[loads], x[qg] = dpg, dpl, q
        n_rows, n_vars = len(p.rows), p.n_vars
        duals = np.zeros(n_rows + 2 * n_vars)
        lower = duals[n_rows:n_rows + n_vars]
        upper = duals[n_rows + n_vars:]
        duals[self.vm_rows] = sigma * y
        duals[self.agg_row] = agg_dual
        reduced = np.zeros(n_vars)
        reduced[gens] = gain_g - agg_dual
        reduced[loads] = agg_dual - gain_l
        reduced[qg] = gain_q
        box = self.box_only
        lower[box] = np.minimum(reduced[box], 0.0)
        upper[box] = np.maximum(reduced[box], 0.0)
        cert = DualCertificate(
            status=OPTIMAL,
            objective=float(sigma * x[p.i_vm(node)]),
            x=x,
            row_duals=duals[:n_rows],
            lower_duals=lower,
            upper_duals=upper,
            method=CLOSED_FORM,
        )
        return cert, duals, reduced


class _Knapsack(MaterializedFollower):
    """Closed-form solve of a follower whose only cross-node row is ``agg``.

    Substituting |v| = m0 + s_p·Δp_gen - s_l·Δp_load + s_q·q_gen and the
    node's mode row (pfq: q_gen = γ(p_gen0 + Δp_gen); qfix: q_gen = q_set)
    leaves each node's Δp_gen in one interval, cut from its own box by the
    q_gen box and the capability (and cone) rows, next to Δp_load's box.
    Row t of the sensitivities gives every device a gain per unit of the
    aggregate row, and filling devices in order of gain until the band
    edge is used up is optimal (Dantzig's fractional knapsack).  The fill
    also yields the duals: the aggregate dual is the gain of the device the
    edge runs out in, each device's reduced cost goes to the constraint
    defining the end of its interval it sits at, and the mode row takes what
    the q_gen column leaves over.  So the certificate satisfies the LP's
    dual-feasibility rows as well as strong duality.
    """

    def __init__(self, problem: FollowerProblem):
        super().__init__(problem)
        p, inv = self.problem, self.inv
        self.mode_rows = self.rows("pfq" if p.mode == MODE_CONSTANT_PF else "qfix")

        # Constraints on an inverter node's (Δp_gen, q_gen), a·Δp_gen + e·q_gen <= b:
        # both bounds of each variable, then the node's inequality rows.  Each
        # column's dual lands at ``target`` of [row duals, lower, upper] as
        # ``dual_sign`` times its multiplier.
        n_rows, n_vars = len(p.rows), p.n_vars
        dpg, qg = self.gen_cols, self.q_cols
        one, zero = np.ones(inv.size), np.zeros(inv.size)
        cols = [
            (one, zero, p.ub[dpg], n_rows + n_vars + dpg, 1.0),
            (-one, zero, -p.lb[dpg], n_rows + dpg, -1.0),
            (zero, one, p.ub[qg], n_rows + n_vars + qg, 1.0),
            (zero, -one, -p.lb[qg], n_rows + qg, -1.0),
        ]
        names = ("cap_hi", "cap_lo") + (("cq_hi", "cq_lo") if p.mode == MODE_CONSTANT_Q else ())
        for name in names:
            r = self.rows(name)
            a = np.array([p.rows[i].val[p.rows[i].idx == v].sum() for i, v in zip(r, dpg)])
            e = np.array([p.rows[i].val[p.rows[i].idx == v].sum() for i, v in zip(r, qg)])
            cols.append((a, e, np.array([p.rows[i].rhs for i in r]), r, 1.0))
        self.a, self.e, self.b, self.target = (
            np.stack([c[i] for c in cols], axis=1) for i in range(4)
        )
        self.dual_sign = np.array([c[4] for c in cols])
        self.box_only[dpg] = self.box_only[qg] = False

    def set_slots(self, slots: dict[str, float]) -> None:
        """Fold each inverter node's rows into its Δp_gen interval at these setpoints."""
        super().set_slots(slots)
        p, inv = self.problem, self.inv
        m = inv.size
        p_gen0 = p.ctx.devices.p_gen0[inv]
        if p.mode == MODE_CONSTANT_PF:
            kappa = np.array([slots[slot_gamma(k)] for k in inv], dtype=float)
            q0 = kappa * p_gen0
        else:
            kappa = np.zeros(m)
            q0 = np.array([slots[slot_qset(k)] for k in inv], dtype=float)
        # With q_gen = q0 + kappa·Δp_gen, column j reads ap_j·Δp_gen <= bp_j.
        ap = self.a + self.e * kappa[:, None]
        bp = self.b - self.e * q0[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = bp / ap
        up = np.where(ap > 0.0, ratio, np.inf)
        dn = np.where(ap < 0.0, ratio, -np.inf)
        self.c_hi, self.c_lo = up.argmin(axis=1), dn.argmax(axis=1)
        hi, lo = up[np.arange(m), self.c_hi], dn[np.arange(m), self.c_lo]
        self.feasible = not (
            np.any((ap == 0.0) & (bp < -FEAS_TOL)) or np.any(lo > hi + FEAS_TOL)
        )
        # An interval empty within the tolerance pinches to a point of the box.
        pinch = lo > hi
        lo[pinch] = hi[pinch] = np.minimum(lo[pinch], self.b[pinch, 0])
        self.ap, self.kappa, self.q0 = ap, kappa, q0
        self.z_lo, self.z_hi = self.z_box(lo, hi)

    def _solve_closed(self, node: int, edge: float) -> DualCertificate:
        p, m = self.problem, self.inv.size
        if not self.feasible:
            return DualCertificate(status=INFEASIBLE, method=CLOSED_FORM)
        sigma = p.scenario.sigma
        gain_g = sigma * (p.s_p[node] + self.kappa * p.s_q[node])  # per unit Δp_gen
        gain_l = sigma * p.s_l[node]  # per unit of load shed, -Δp_load
        gain_q = sigma * p.s_q[node]
        fill = self.fill(np.concatenate([gain_g, gain_l]), self.z_lo, self.z_hi, edge)
        if fill is None:
            return DualCertificate(status=INFEASIBLE, method=CLOSED_FORM)
        z, agg_dual = fill
        dpg, dpl = self.sign * z[:m], -self.sign * z[m:]
        q = self.q0 + self.kappa * dpg  # the mode row pins q_gen
        y = np.zeros(p.n)
        y[node] = 1.0
        cert, duals, reduced = self.certificate(
            node, y, dpg, dpl, q, agg_dual, gain_g, gain_l, gain_q
        )
        # The Δp_gen reduced cost goes to the column defining the interval
        # end it sits at; the mode row balances q_gen.
        r = reduced[self.gen_cols]
        i = np.arange(m)
        col = np.where(r > 0.0, self.c_hi, self.c_lo)
        mult = r / self.ap[i, col]
        duals[self.target[i, col]] += self.dual_sign[col] * mult
        duals[self.mode_rows] = gain_q - mult * self.e[i, col]
        return cert


class _VoltVar(MaterializedFollower):
    """Closed-form solve of a volt-var follower at fixed q̄.

    With u = s_p·Δp_gen - s_l·Δp_load the sensitivity rows read
    |v| = m0 + u + s_q·q_gen, and at the inverter nodes I the droop rows
    q_I = Q̄(c - d·|v|_I), d = 2/(v_max - v_min), c = (v_max + v_min)/(v_max - v_min),
    solve to q_I = A⁻¹(Q̄(c - d·m0_I) - d·Q̄·u_I) with A = I + d·Q̄·s_q[I,I].
    So |v_t| is affine in u with weights y = e_t - E_I·(d·Q̄·w), Aᵀw = s_q[t,I]ᵀ,
    and without the q_gen box and the capability rows the follower is a
    fractional knapsack over the device boxes, with gains σ·s_pᵀy per unit
    Δp_gen and σ·s_lᵀy per unit of load shed.  The certificate puts σy on
    the vm rows, σ(s_qᵀy)_I on the droop rows (which zeroes q_gen's reduced
    cost at I), the fill's dual on agg and nothing on the q_gen box and the
    capability rows.  It is exact when the fill's point meets those; when it
    does not, or A is singular, ``_solve_closed`` returns None.  The fill solves a
    relaxation of the LP, so an infeasible fill is an infeasible LP.
    """

    def __init__(self, problem: FollowerProblem):
        super().__init__(problem)
        p, inv = self.problem, self.inv
        ctx, dev = p.ctx, p.ctx.devices
        band = ctx.v_max - ctx.v_min
        self.d, self.c = 2.0 / band, (ctx.v_max + ctx.v_min) / band
        self.vv_rows = self.rows("vv")
        self.s_q_ii = p.s_q[inv]
        self.z_lo, self.z_hi = self.z_box(p.lb[self.gen_cols], p.ub[self.gen_cols])
        self.q_cap = dev.s_cap[inv]
        self.pq_cap = math.sqrt(2.0) * dev.s_cap[inv] - dev.p_gen0[inv]  # capability rows' rhs
        self.box_only[self.q_cols] = False

    def set_slots(self, slots: dict[str, float]) -> None:
        """Solve the droop system at these q̄ once: q_I = q0 - K·u_I, K = A⁻¹·d·Q̄."""
        super().set_slots(slots)
        p, inv = self.problem, self.inv
        qbar = np.array([slots[slot_qbar(k)] for k in inv], dtype=float)
        dq = self.d * qbar
        a = np.eye(inv.size) + dq[:, None] * self.s_q_ii
        rhs = np.column_stack([qbar * (self.c - self.d * p.m0[inv]), np.diag(dq)])
        try:
            sol = np.linalg.solve(a, rhs) if inv.size else rhs
        except np.linalg.LinAlgError:
            sol = None
        if sol is None or not np.all(np.isfinite(sol)):
            self.q0 = self.k = None
        else:
            self.q0, self.k = sol[:, 0], sol[:, 1:]

    def _solve_closed(self, node: int, edge: float) -> DualCertificate | None:
        if self.k is None:
            return None
        p, inv, m = self.problem, self.inv, self.inv.size
        sigma = p.scenario.sigma
        y = np.zeros(p.n)
        y[node] = 1.0
        y[inv] -= self.k.T @ p.s_q[node]  # d·Q̄·w = Kᵀ·s_q[t,I]ᵀ
        gain_g, gain_l, gain_q = sigma * (y @ p.s_p), sigma * (y @ p.s_l), sigma * (y @ p.s_q)
        fill = self.fill(np.concatenate([gain_g, gain_l]), self.z_lo, self.z_hi, edge)
        if fill is None:
            return DualCertificate(status=INFEASIBLE, method=CLOSED_FORM)
        z, agg_dual = fill
        dpg, dpl = self.sign * z[:m], -self.sign * z[m:]
        q = self.q0 - self.k @ (p.s_p[inv] @ dpg - p.s_l[inv] @ dpl)
        q_abs = np.abs(q)
        if np.any(q_abs > self.q_cap + FEAS_TOL) or np.any(dpg + q_abs > self.pq_cap + FEAS_TOL):
            return None
        cert, duals, _ = self.certificate(node, y, dpg, dpl, q, agg_dual, gain_g, gain_l, gain_q)
        duals[self.vv_rows] = gain_q
        return cert


class _FreeQ(MaterializedFollower):
    """Closed-form solve of a constant-q follower with free q_gen (screening).

    An inverter node's q_gen range is symmetric, |q_gen| <= h(Δp_gen) with
    h = min(γ(p_gen0 + Δp_gen), s_cap, √2·s_cap - p_gen0 - Δp_gen) from the
    cone rows, the q_gen bounds and the capability rows.  So its best q_gen
    is sign(g_q)·h, g_q = σ·s_q[t,k], and the node's gain
    g_x·Δp_gen + |g_q|·h(Δp_gen) is concave and piecewise linear: its
    Δp_gen box splits at the kinks of h into up to three segments of falling
    marginal gain, each defined by one of the three constraints on the side
    g_q prefers, and the greedy fill over the segments stays exact.  In the
    certificate, |g_q| (q_gen's reduced cost) goes to the constraint that
    defines h where the fill leaves Δp_gen, and the rest of Δp_gen's reduced
    cost to the box bound it sits at.  At a kink the two segments'
    constraints share |g_q| so that the Δp_gen column balances.
    """

    def __init__(self, problem: FollowerProblem):
        super().__init__(problem)
        p, inv, dev = self.problem, self.inv, self.problem.ctx.devices
        m, n_rows, n_vars = inv.size, len(p.rows), p.n_vars
        gamma, p0, s = dev.gamma_const[inv], dev.p_gen0[inv], dev.s_cap[inv]
        # h = min over pieces j (cone, q_gen bound, capability row) of
        # b_j - a_j·Δp_gen; the pieces' slopes -a_j fall with j.
        self.a = np.column_stack([-gamma, np.zeros(m), np.ones(m)])
        self.b = np.column_stack([gamma * p0, s, math.sqrt(2.0) * s - p0])
        dpg, qg = self.gen_cols, self.q_cols
        lo, hi = p.lb[dpg], p.ub[dpg]
        # h is concave, so it is >= 0 on the box when it is at both ends (it
        # is for any parsed inverter: s_cap > 0 and 0 <= p_gen0 <= s_cap).
        self.ok = bool(np.all(self._h(lo) >= -FEAS_TOL) and np.all(self._h(hi) >= -FEAS_TOL))
        # Where a piece's multiplier lands in [row duals, lower, upper], and
        # its sign there, with q_gen at +h (side 0) or at -h (side 1).
        self.target = np.stack([
            np.column_stack([self.rows("cq_hi"), n_rows + n_vars + qg, self.rows("cap_hi")]),
            np.column_stack([self.rows("cq_lo"), n_rows + qg, self.rows("cap_lo")]),
        ], axis=2)
        self.dual_sign = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])

        # Segments per node in z order, padded to three: their pieces and z
        # ranges (the first starts at the node's z, the others at 0).
        self.piece = np.zeros((m, 3), dtype=np.int64)
        self.valid = np.zeros((m, 3), dtype=bool)
        self.seg_lo, self.seg_hi = np.zeros((m, 3)), np.zeros((m, 3))
        for i in range(m):
            segments = _envelope(self.a[i], self.b[i], lo[i], hi[i])
            if self.sign < 0:
                segments = [(-x1, -x0, j) for x0, x1, j in reversed(segments)]
            for s_i, (z0, z1, j) in enumerate(segments):
                self.piece[i, s_i], self.valid[i, s_i] = j, True
                self.seg_lo[i, s_i] = z0 if s_i == 0 else 0.0
                self.seg_hi[i, s_i] = z1 if s_i == 0 else z1 - z0
        # Knapsack items: the segments, then Δp_load.
        z_lo, z_hi = self.z_box(lo, hi)
        self.item_lo = np.concatenate([self.seg_lo[self.valid], z_lo[m:]])
        self.item_hi = np.concatenate([self.seg_hi[self.valid], z_hi[m:]])
        self.box_only[dpg] = self.box_only[qg] = False

    def _h(self, x: np.ndarray) -> np.ndarray:
        """h at each inverter node's Δp_gen."""
        return np.min(self.b - self.a * x[:, None], axis=1)

    def _solve_closed(self, node: int, edge: float) -> DualCertificate | None:
        if not self.ok:
            return None
        p, inv = self.problem, self.inv
        sigma = p.scenario.sigma
        m = np.arange(inv.size)
        gain_g, gain_l, gain_q = sigma * p.s_p[node], sigma * p.s_l[node], sigma * p.s_q[node]
        g_abs = np.abs(gain_q)
        seg_gain = gain_g[:, None] - g_abs[:, None] * self.a[m[:, None], self.piece]
        fill = self.fill(
            np.concatenate([seg_gain[self.valid], gain_l]), self.item_lo, self.item_hi, edge,
        )
        if fill is None:
            return DualCertificate(status=INFEASIBLE, method=CLOSED_FORM)
        z, agg_dual = fill
        n_seg = int(self.valid.sum())
        zs = np.zeros(self.valid.shape)
        zs[self.valid] = z[:n_seg]
        dpg = self.sign * zs.sum(axis=1)
        dpl = -self.sign * z[n_seg:]
        side = (gain_q < 0.0).astype(np.int64)
        q = (1.0 - 2.0 * side) * self._h(dpg)
        y = np.zeros(p.n)
        y[node] = 1.0
        cert, duals, reduced = self.certificate(
            node, y, dpg, dpl, q, agg_dual, gain_g, gain_l, gain_q
        )
        # The fill leaves a node's segments full up to one partial segment (or
        # a kink); ``cur`` is the segment defining h there, ``nxt`` the one after.
        full = self.valid & (zs >= self.seg_hi)
        partial = self.valid & ~full & (zs > self.seg_lo)
        n_full, n_valid = full.sum(axis=1), self.valid.sum(axis=1)
        has_partial = partial.any(axis=1)
        cur = np.where(has_partial, partial.argmax(axis=1), np.maximum(n_full - 1, 0))
        kink = ~has_partial & (n_full > 0) & (n_full < n_valid)
        nxt = np.minimum(n_full, 2)
        j_cur, j_nxt = self.piece[m, cur], self.piece[m, nxt]
        a_cur, a_nxt = self.a[m, j_cur], self.a[m, j_nxt]
        r = reduced[self.gen_cols] - a_cur * g_abs  # left for the Δp_gen bounds
        with np.errstate(divide="ignore", invalid="ignore"):
            pi_nxt = np.where(kink, r / (a_nxt - a_cur), 0.0)
        duals[self.target[m, j_cur, side]] += self.dual_sign[j_cur, side] * (g_abs - pi_nxt)
        duals[self.target[m, j_nxt, side]] += self.dual_sign[j_nxt, side] * pi_nxt
        r = np.where(kink | has_partial, 0.0, r)
        n_rows = len(p.rows)
        duals[n_rows + self.gen_cols] = np.minimum(r, 0.0)
        duals[n_rows + p.n_vars + self.gen_cols] = np.maximum(r, 0.0)
        return cert


def _envelope(a: np.ndarray, b: np.ndarray, lo: float, hi: float) -> list[tuple[float, float, int]]:
    """Pieces of h(x) = min_j (b_j - a_j·x) on [lo, hi] as (start, end, j) in
    increasing x; one zero-length piece when the interval is a point."""
    x = lo
    j = min(range(len(a)), key=lambda i: (b[i] - a[i] * x, -a[i]))
    pieces = []
    while True:
        # The next kink: the first crossing by a line that falls faster.
        end, nxt = hi, None
        for i in range(len(a)):
            if a[i] > a[j]:
                t = (b[i] - b[j]) / (a[i] - a[j])
                if t <= end:
                    end, nxt = t, i
        if end > x or not pieces:
            pieces.append((x, max(end, x), j))
        if nxt is None or end >= hi:
            break
        x, j = end, nxt
    return [pc for pc in pieces if pc[1] > pc[0]] or pieces[:1]


def _fill(gain: np.ndarray, lo: np.ndarray, hi: np.ndarray, budget: float):
    """Fractional knapsack: maximize gain·z over lo <= z <= hi with sum(z) <= budget.

    Returns the optimal z and the budget row's dual (the gain of the item
    the budget runs out in, zero when it never does), or None when even
    sum(lo) exceeds the budget.
    """
    room = budget - float(lo.sum())
    if room < -FEAS_TOL:
        return None
    room = max(room, 0.0)
    z = lo.copy()
    up = np.flatnonzero(gain > 0.0)
    order = up[np.argsort(-gain[up], kind="stable")]
    filled = np.cumsum(hi[order] - lo[order])
    k = int(np.searchsorted(filled, room))
    if k == order.size:
        z[order] = hi[order]
        return z, 0.0
    z[order[:k]] = hi[order[:k]]
    j = order[k]
    z[j] = min(lo[j] + (room - (filled[k - 1] if k else 0.0)), hi[j])
    return z, float(gain[j])


def build_follower(
    ctx: FlexContext, scenario: Scenario, mode: str, *, fix_q: bool = False
) -> FollowerProblem:
    """Assemble the follower LP structure for one scenario.

    ``fix_q`` adds the q_gen = q_set binding rows used when a constant-Q
    DSO setpoint is an upper-level decision (ideal case); the worst-case
    screening leaves constant-Q reactive power to the adversary.
    """
    return FollowerProblem(ctx, scenario, mode, fix_q=fix_q)


def screened_extrema(direction: str) -> tuple[str, ...]:
    """Extrema screened in ``direction`` (a key of ``DIRECTIONS``)."""
    try:
        return DIRECTIONS[direction]
    except KeyError:
        raise ValueError(f"unknown direction {direction!r}") from None


def all_scenarios(
    n: int, *, direction: str = "both"
) -> list[Scenario]:
    """Enumerate follower scenarios for every node, honoring a direction filter.

    ``direction`` is one of "both", "overvoltage" (only max-|v| scenarios) or
    "undervoltage" (only min-|v| scenarios).
    """
    extrema = screened_extrema(direction)
    out = []
    for k in range(n):
        for act in ACTIVATIONS:
            for ext in extrema:
                out.append(Scenario(node=k, activation=act, extremum=ext))
    return out
