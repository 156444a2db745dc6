"""Adversarial follower problems: one LP per (node, activation, extremum),
solved for every node and both extrema of an activation by one follower.

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
q_set) enter as named *slots*.  The constraints are one matrix form:
(row, column, value) triplets of the follower-variable coefficients, per-row
relations and right-hand sides, and two short lists of slot terms, (row,
var, slot, c) adding c·slot to a coefficient and (row, slot, c) to a
right-hand side.  Fixing all slots yields an ordinary LP; leaving them
symbolic is what the single-level reformulation consumes.

With the slots fixed, every follower is solved in closed form.  |v| is an
affine function of the device deviations and the aggregate row is the only
row coupling nodes' active power, so each mode reduces to a fractional
knapsack, which filling devices in order of gain solves exactly (Dantzig
1957).  The followers of one activation share every row, bound and region
row, and so the knapsack's items, boxes and budget: the target node and the
extremum's objective sign σ = ±1 enter their rows of gains only.  So
``MaterializedFollower.values`` solves a batch of target nodes, extrema and
band edges in one numpy pass, and ``solve`` is that pass on a batch of one
plus the dual certificate.  In the knapsack and volt-var forms σ multiplies
a target's gains, so a min-|v| row's gains are the max-|v| row's negated:

* constant-pf, fixed-q constant-q and any follower with no inverter: the
  mode row ties each node's q_gen to its own Δp_gen (``_Knapsack``);
* free-q constant-q: each node's best q_gen is the end of its cone, box and
  capability range that its gain prefers, a concave piecewise-linear function
  of Δp_gen, so each node's Δp_gen splits into segments of falling gain
  (``_FreeQ``, which keeps one table of gains per extremum: σ also picks the
  end of the q_gen range);
* volt-var: at fixed q̄ the droop rows are solved for q_gen, which turns the
  target row of the sensitivities into transformed gains (``_VoltVar``).

The knapsack and volt-var fills also give exact row and bound duals, the
certificates the single-level completion reads.  q_gen is free only in the
screening, which reads values alone, so a free-q certificate is HiGHS's.
HiGHS is also the fallback, one target at a time, for the rows the closed
forms cannot certify: a volt-var point that leaves the q_gen box or a
capability row, a droop system that cannot be solved, and inconsistent
device data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
SIGMA = {MIN_V: -1.0, MAX_V: 1.0}  # each extremum's objective sign σ on |v|

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


def fixes_q(mode: str, slots) -> bool:
    """Whether followers of ``mode`` at the slots named ``slots`` hold q_gen
    at q_set: constant-q ones at a decision, which carries a q_set slot per
    inverter, and not in the screening, which carries none."""
    return mode == MODE_CONSTANT_Q and any(s.startswith("qset[") for s in slots)


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
        return SIGMA[self.extremum]

    @property
    def sign(self) -> float:
        """Activation sign: +1 under positive activation, -1 under negative."""
        return 1.0 if self.activation == POSITIVE else -1.0

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


@dataclass(frozen=True)
class FlexContext:
    """Everything the flexibility problems need about one feeder state.

    Frozen: what is derived from it and kept on it (``sensitivities``,
    ``followers``, ``brute_force``) stays valid as long as the context lives."""

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

    @cached_property
    def sensitivities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(s_p, s_q, s_l, m0) with |v| = m0 + s_p·Δp_gen - s_l·Δp_load + s_q·q_gen
        at every node, over the inverter (s_p, s_q) and load (s_l) nodes.

        The linear flow v = z1 + Z2 (P - jQ) with P = p_gen0 + Δp_gen - p_load0
        - Δp_load and Q = q_gen - β (p_load0 + Δp_load), seen through
        |v| = α_d v_d + α_q v_q.  Computed on first use and kept: every
        follower of the context reads the same rows.
        """
        dev, t = self.devices, self.taylor
        z1, z2 = self.lpf.z1, self.lpf.z2
        inv = np.array(dev.inverter_nodes, dtype=np.int64)
        loads = np.array(dev.load_nodes, dtype=np.int64)
        ad, aq = t.alpha_d[:, None], t.alpha_q[:, None]
        s_p = ad * z2.real + aq * z2.imag
        s_q = ad * z2.imag - aq * z2.real
        m0 = (
            t.alpha_d * z1.real + t.alpha_q * z1.imag
            + s_p @ (dev.p_gen0 - dev.p_load0) - s_q @ (dev.beta_load * dev.p_load0)
        )
        s_l = s_p[:, loads] + s_q[:, loads] * dev.beta_load[loads]
        return (*map(np.ascontiguousarray, (s_p[:, inv], s_q[:, inv], s_l)), m0)

    @cached_property
    def followers(self) -> dict[tuple[str, str, bool], MaterializedFollower]:
        """The followers made on this context, one per (mode, activation,
        ``fixes_q``) serving both extrema, as ``bilevel.family_follower``
        fills and re-slots it; none refers back to the context (no
        reference cycle)."""
        return {}

    @cached_property
    def brute_force(self) -> dict[str, tuple]:
        """``oracle.brute_force_worst_voltage``'s memo: activation -> (arguments, extremes)."""
        return {}


def build_context(
    model: FeederModel,
    *,
    v_min: float = 0.9,
    v_max: float = 1.1,
) -> FlexContext:
    """Assemble the admittance matrix once, solve the feeder's own operating
    point (the anchor) by Newton power flow and linearize around it."""
    if not v_min < v_max:
        raise ValueError("need v_min < v_max")
    index = index_nodes(model)
    ybus = assemble_ybus(model, index)
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


def setpoint_boxes(ctx: FlexContext, mode: str) -> dict[str, tuple[float, float]]:
    """Feasible boxes for the upper-level setpoint slots of ``mode``."""
    dev = ctx.devices
    boxes: dict[str, tuple[float, float]] = {}
    for k in dev.inverter_nodes:
        if mode == MODE_CONSTANT_PF:
            cap = float(dev.gamma_cap[k])
            boxes[slot_gamma(k)] = (-cap, cap)
        elif mode == MODE_VOLT_VAR:
            boxes[slot_qbar(k)] = (0.0, float(dev.s_cap[k]))
        elif mode == MODE_CONSTANT_Q:
            cap = float(dev.gamma_const[k] * min(dev.p_gen_max[k], dev.s_cap[k]))
            boxes[slot_qset(k)] = (-cap, cap)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return boxes


def fix_worst_case_setpoints(ctx: FlexContext, mode: str, extremum: str) -> dict[str, float]:
    """Adversarial setpoint choice for the worst-case screening step.

    Maximum-voltage scenarios get full boost, the end of each setpoint box
    that raises |v| (γ at +cap, volt-var curve disabled with q̄ = 0);
    minimum-voltage scenarios the other end (γ at -cap, q̄ at the
    apparent-power cap).  Constant-Q keeps its reactive output as a
    follower variable, so there is nothing to fix.
    """
    if extremum not in EXTREMA:
        raise ValueError(f"bad extremum {extremum!r}")
    if mode == MODE_CONSTANT_Q:
        raise ValueError("constant-q mode has no worst-case setpoints to fix")
    boost = 0 if mode == MODE_VOLT_VAR else 1  # the box end that raises |v|
    end = boost if extremum == MAX_V else 1 - boost
    return {name: box[end] for name, box in setpoint_boxes(ctx, mode).items()}


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
    one slot product into n of them.  The single-level program keeps only
    the |v| columns and vm rows it reads, the target node's and, in
    volt-var, the inverter nodes'.  Any other |v_j| is free, costs nothing
    and appears in its own slot-free row vm[j] only, so that row's dual is
    0 and dropping the pair is exact (``bilevel.FollowerBlock``).

    Rows, in order: vm[k] per node, cap_hi[k] and cap_lo[k] per inverter
    node, its mode rows (pfq; cq_hi, cq_lo and with ``fix_q`` qfix; or vv)
    and agg.  Row r is ``row_names[r]``: the triplets (``a_row``, ``a_col``,
    ``a_val``) with ``a_row == r``, ``relations[r]``, ``rhs[r]`` and its
    slot terms.  ``to_lp`` and the single level read the rows, and only
    ``objective`` reads the scenario's node and extremum: one problem serves
    every follower of an activation.  The
    closed forms and ``dual_box`` read each inverter node's (Δp_gen, q_gen)
    region from one table instead: ``region`` = (a, e, b), each of shape
    (inverter node, kind), with rows a·Δp_gen + e·q_gen <= b over
    ``region_kinds`` (both bounds of each column, cap_hi, cap_lo and, in
    constant-q, cq_hi, cq_lo).  The cap and cone rows are written from it;
    ``intervals`` folds it for the knapsack followers, whose gains are ``gains``.
    """

    def __init__(self, ctx: FlexContext, scenario: Scenario, mode: str, *, fix_q: bool = False):
        if mode not in (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR):
            raise ValueError(f"unknown mode {mode!r}")
        # What the problem reads after construction; it keeps no reference
        # to ``ctx``, which may hold it (``FlexContext.followers``).
        self.devices, self.v_min, self.v_max = ctx.devices, ctx.v_min, ctx.v_max
        # Magnitude-sensitivity rows, shared by every follower of the context.
        self.s_p, self.s_q, self.s_l, self.m0 = ctx.sensitivities
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
        self.row_names: list[str] = []
        self.relations: list[str] = []
        self.coeff_slots: list[tuple[int, int, str, float]] = []  # (row, var, slot, c)
        self.rhs_slots: list[tuple[int, str, float]] = []  # (row, slot, c)
        self._build()
        self._row_at = {name: r for r, name in enumerate(self.row_names)}

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

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
        dev = self.devices
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

    def row_index(self, name: str, nodes: np.ndarray | None = None) -> np.ndarray:
        """Positions of the rows ``name[k]`` over ``nodes`` (default: the inverter nodes)."""
        nodes = self.inv if nodes is None else nodes
        return np.array([self._row_at[f"{name}[{k}]"] for k in nodes], dtype=np.int64)

    # --- assembly --------------------------------------------------------
    def _build(self) -> None:
        n, inv, loads = self.n, self.inv, self.loads
        dev = self.devices
        sc = self.scenario
        positive = sc.activation == POSITIVE
        m = inv.size

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

        # The region table, kind by kind (kind, a, e, b); the capability
        # outer approximation's box part is the bounds.
        one, zero = np.ones(m), np.zeros(m)
        cap = math.sqrt(2.0) * dev.s_cap[inv] - dev.p_gen0[inv]
        region = [
            ("dpg_hi", one, zero, self.ub[all_dpg]),
            ("dpg_lo", -one, zero, -self.lb[all_dpg]),
            ("q_hi", zero, one, self.ub[all_qg]),
            ("q_lo", zero, -one, -self.lb[all_qg]),
            ("cap_hi", one, one, cap),
            ("cap_lo", one, -one, cap),
        ]
        if self.mode == MODE_CONSTANT_Q:
            gc = dev.gamma_const[inv]
            cone = gc * dev.p_gen0[inv]
            region += [("cq_hi", -gc, one, cone), ("cq_lo", -gc, -one, cone)]
        self.region_kinds, *table = zip(*region)
        self.region = tuple(np.array(c).T for c in table)  # each (node, kind)
        # Each region kind as a ``per_inverter`` kind of LP rows.
        region_rows = {k: (k, LE, b, [(all_dpg, a), (all_qg, e)]) for k, a, e, b in region}

        # Row groups in order: their rhs and (row, column, value) triplets, in
        # row order; ``add`` appends one (``row`` counts from 0 in the group).
        groups: list[tuple[np.ndarray, ...]] = []

        def add(names, relations, rhs, row, col, val) -> int:
            first = self.n_rows
            self.row_names += names
            self.relations += relations
            groups.append((np.asarray(rhs, dtype=float), first + row, col, val))
            return first

        # vm[k]: |v_k| - S_p[k,I]·Δp_gen + s_l[k]·Δp_load - S_q[k,I]·q_gen = m0_k.
        nodes = np.arange(n)
        device_cols = np.concatenate([all_dpg, all_dpl, all_qg])
        add(
            [f"vm[{k}]" for k in range(n)], [EQ] * n, self.m0,
            np.repeat(nodes, 1 + device_cols.size),
            np.concatenate([self.i_vm(nodes)[:, None], np.repeat(device_cols[None], n, 0)], 1).ravel(),
            np.concatenate([np.ones((n, 1)), -self.s_p, self.s_l, -self.s_q], 1).ravel(),
        )

        def per_inverter(kinds) -> np.ndarray:
            """One row per kind (name, relation, rhs, [(columns, values), ...])
            and inverter node, node by node; returns each kind's rows."""
            rows = np.arange(m * len(kinds)).reshape(m, len(kinds)).T  # (kind, node)
            terms = [(rows[j], c, v) for j, kind in enumerate(kinds) for c, v in kind[3]]
            first = add(
                [f"{name}[{i}]" for i in inv.tolist() for name, *_ in kinds],
                [rel for _, rel, *_ in kinds] * m,
                np.ravel([b for _, _, b, _ in kinds], order="F"),
                *(np.ravel(a, order="F") for a in zip(*terms)),
            )
            return first + rows

        per_inverter([region_rows["cap_hi"], region_rows["cap_lo"]])

        # Control-mode rows.
        vband = self.v_max - self.v_min
        slots: list[str] = []
        if self.mode == MODE_CONSTANT_PF:
            rows = per_inverter([("pfq", EQ, zero, [(all_qg, one)])])[0].tolist()
            slots = [slot_gamma(k) for k in inv.tolist()]
            self.coeff_slots += zip(rows, all_dpg.tolist(), slots, [-1.0] * m)
            self.rhs_slots += zip(rows, slots, dev.p_gen0[inv].tolist())
        elif self.mode == MODE_CONSTANT_Q:
            kinds = [region_rows["cq_hi"], region_rows["cq_lo"]]
            if self.fix_q:
                kinds.append(("qfix", EQ, zero, [(all_qg, one)]))
            rows = per_inverter(kinds)
            if self.fix_q:
                slots = [slot_qset(k) for k in inv.tolist()]
                self.rhs_slots += zip(rows[2].tolist(), slots, [1.0] * m)
        else:  # volt-var droop through the linearized magnitude
            rows = per_inverter([("vv", EQ, zero, [(all_qg, one)])])[0].tolist()
            slots = [slot_qbar(k) for k in inv.tolist()]
            self.coeff_slots += zip(rows, self.i_vm(inv).tolist(), slots, [2.0 / vband] * m)
            self.rhs_slots += zip(rows, slots, [(self.v_max + self.v_min) / vband] * m)

        # Aggregate activation row: one-sided per activation case.
        agg = add(
            ["agg"], [LE if positive else GE], [0.0], np.zeros(m + loads.size, dtype=np.int64),
            np.concatenate([all_dpg, all_dpl]), np.concatenate([one, -np.ones(loads.size)]),
        )
        self.rhs_slots.append((agg, sc.dp_slot, 1.0))
        self.setpoint_slots, self.slot_names = slots, slots + [sc.dp_slot]
        self.rhs, self.a_row, self.a_col, self.a_val = (np.concatenate(a) for a in zip(*groups))

    # --- materialization and solving -------------------------------------
    def to_lp(self, slots: dict[str, float]) -> LinearProgram:
        """Instantiate as a plain LP with all slots fixed (builder path)."""
        missing = [s for s in self.slot_names if s not in slots]
        if missing:
            raise KeyError(f"missing slot values: {missing}")
        lp = LinearProgram(sense=MAX)
        lp.add_vars([""] * self.n_vars, self.lb, self.ub, self.objective)
        rhs = self.rhs.copy()
        for r, s, c in self.rhs_slots:
            rhs[r] += c * slots[s]
        terms = self.coeff_slots
        entries = (
            np.concatenate([self.a_row, np.array([t[0] for t in terms], dtype=np.int64)]),
            np.concatenate([self.a_col, np.array([t[1] for t in terms], dtype=np.int64)]),
            np.concatenate([self.a_val, [c * slots[s] for _, _, s, c in terms]]),
        )
        lp.add_rows(entries, self.relations, rhs, self.row_names)
        return lp

    def materialize(self, slots: dict[str, float]) -> "MaterializedFollower":
        """The closed-form follower of this problem's mode at ``slots``; with
        no inverter, the loads' knapsack whatever the mode."""
        if self.mode == MODE_VOLT_VAR and self.inv.size:
            mf = _VoltVar(self)
        elif self.mode == MODE_CONSTANT_Q and not self.fix_q and self.inv.size:
            mf = _FreeQ(self)
        else:
            mf = _Knapsack(self)
        mf.set_slots(slots)
        return mf

    def solve(self, slots: dict[str, float]) -> DualCertificate:
        return self.materialize(slots).solve()

    def gains(self, kappa: np.ndarray, targets) -> np.ndarray:
        """The knapsack items' max-|v| gains per unit z, sign·(s_p[t] + κ·s_q[t])
        per inverter's Δp_gen and sign·s_l[t] per load's shed, at target rows
        ``targets`` and setpoints κ (one per inverter, or a stack of them);
        an extremum's gains are σ times these."""
        s_p, s_q, s_l = self.s_p[targets], self.s_q[targets], self.s_l[targets]
        kappa = kappa[..., None, :] if s_p.ndim == 2 else kappa
        g = s_p + kappa * s_q
        s_l = np.broadcast_to(s_l, g.shape[:-1] + s_l.shape[-1:])
        return self.scenario.sign * np.concatenate([g, s_l], axis=-1)

    def intervals(self, kappa: np.ndarray, q0: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each inverter's Δp_gen interval under the knapsack mode row q_gen =
        q0 + κ·Δp_gen, which makes the region rows ap·Δp_gen <= b - e·q0 with
        ap = a + e·κ: lo, hi, the kinds defining them, ap and whether each is
        nonempty within ``FEAS_TOL`` (an empty one pinches to a point of the
        box).  κ and q0 hold one value per inverter, or are stacks of them."""
        a, e, b = self.region
        ap, bp = a + e * kappa[..., None], b - e * q0[..., None]
        with np.errstate(all="ignore"):  # a row with ap = 0 defines no end
            ratio = bp / ap
        up = np.where(ap > 0.0, ratio, np.inf)
        dn = np.where(ap < 0.0, ratio, -np.inf)
        c_lo, c_hi = dn.argmax(axis=-1), up.argmin(axis=-1)
        # The defining rows' own ends (a max can return either zero of a tie of ±0).
        at = np.indices(c_lo.shape, sparse=True)
        lo, hi = dn[(*at, c_lo)], up[(*at, c_hi)]
        feasible = ~(np.any((ap == 0.0) & (bp < -FEAS_TOL), axis=-1) | (lo > hi + FEAS_TOL))
        pinch, point = lo > hi, np.minimum(lo, b[:, 0])
        return np.where(pinch, point, lo), np.where(pinch, point, hi), c_lo, c_hi, ap, feasible

    def dual_box(
        self, boxes: dict[str, tuple[float, float]], node: int, sigma: float | None = None
    ) -> np.ndarray:
        """Bounds on |dual| per row that every closed-form certificate for
        target t = ``node`` and objective sign σ = ``sigma`` (default the
        scenario's) keeps at any band edge and any setpoints in ``boxes``;
        inf on the rows without one.  Constant-pf bounds agg,
        fixed-q constant-q agg and qfix, any mode agg with no inverter (the
        loads' knapsack); free-q constant-q and volt-var with inverters
        bound nothing.

        Proof, from ``_Knapsack``.  The agg dual is ±μ, μ being the gain
        (σ times ``gains``) of the item the fill runs out in, or 0.  Each
        gain is affine in κ_i, so its largest value over the box sits at an end:
        |μ| <= μ̄ = max(0, every gain at both ends of the γ box).  In
        fixed-q, inverter i's qfix dual is σ·s_q[t,i] - r_i·e_c/a_c, where
        r_i = σ·s_p[t,i] ∓ μ, so |r_i| <= |s_p[t,i]| + μ̄, and c is the kind
        defining the end of i's interval (``intervals`` at κ = 0), so
        a_c != 0.  Hence |λ_i| <= |s_q[t,i]| + (|s_p[t,i]| + μ̄)/d_i, d_i
        the least |a_c/e_c| over i's kinds with a_c != 0 != e_c, read off
        the region table: the capability rows give 1 and the cone rows gc_i,
        so d_i = min(1, gc_i), and 1 where gc_i = 0.  A constant-pf pfq dual
        divides by a_c + e_c·γ_i instead, which can vanish inside the box,
        so it gets no bound.  The closed form certifies every optimum of
        these modes, so the box holds one optimal dual at every decision,
        and boxing the single level by it cuts off no decision.
        """
        t, m = node, self.inv.size
        sigma = self.scenario.sigma if sigma is None else sigma
        box = np.full(self.n_rows, np.inf)
        fixed_q = self.mode == MODE_CONSTANT_Q and self.fix_q
        if self.mode != MODE_CONSTANT_PF and not fixed_q and m:
            return box
        kappa = np.zeros((1, m))
        if self.mode == MODE_CONSTANT_PF:  # the γ boxes' (lower ends, upper ends)
            kappa = np.array([boxes[s] for s in self.setpoint_slots], dtype=float).reshape(m, 2).T
        mu = box[self._row_at["agg"]] = float((sigma * self.gains(kappa, t)).max(initial=0.0))
        if fixed_q:
            a, e, _ = self.region
            ratio = np.divide(a, e, out=np.full_like(a, np.inf), where=(a != 0.0) & (e != 0.0))
            d = np.abs(ratio).min(axis=1)
            box[self.row_index("qfix")] = np.abs(self.s_q[t]) + (np.abs(self.s_p[t]) + mu) / d
        return box


@dataclass
class FollowerValues:
    """The optima of one activation's followers at a batch of targets.

    Row i is the follower with target node ``nodes[i]``, objective sign
    ``sigma[i]`` (+1 max-|v|, -1 min-|v|) and band edge ``edges[i]``: the
    objective σ|v_t| of its optimum, the aggregate
    row's dual and the optimum's device columns (``device_cols`` of the
    follower).  ``optimal`` is False where the LP is infeasible, and the
    row's other entries then mean nothing.  ``certified`` is False where the
    closed form could not certify the row; ``fallback`` holds HiGHS's
    certificate of each such row.
    """

    nodes: np.ndarray
    edges: np.ndarray
    sigma: np.ndarray
    objective: np.ndarray
    agg_dual: np.ndarray
    devices: np.ndarray
    optimal: np.ndarray
    certified: np.ndarray
    fallback: dict[int, DualCertificate] = field(default_factory=dict)


class MaterializedFollower:
    """One activation's followers at fixed slots, solved for any target
    nodes, extrema and band edges.

    ``values`` solves a batch of targets, each a target node and an
    objective sign σ (together the objective) and an aggregate-row bound
    (the band edge), in one numpy pass of the
    closed form of the follower's mode; ``FollowerProblem.materialize``
    picks the subclass (``_Knapsack``, ``_FreeQ`` or ``_VoltVar``).  Each
    closed form reduces the follower at fixed slots to a fractional knapsack
    over items z, sign·(Δp_gen, -Δp_load) or segments of it (``Scenario.sign``),
    so the aggregate row reads sum(z) <= sign·edge for either activation.
    Only the items' gains depend on the target: a subclass keeps every node's
    row of them (``gains``, the max-|v| rows, or one table per extremum in
    ``_FreeQ``) for the current setpoints, ``_gains`` gives a batch's rows
    at their σ, and ``_fill`` fills them at once.  Device arrays run over
    the problem's inverter nodes (Δp_gen, q_gen) and load nodes (Δp_load)
    in its column order.

    ``certificate`` turns a row of the values into the full dual
    certificate (row and bound duals in ``problem.row_names`` and variable
    order), so strong duality and the single-level completion read it as
    they read HiGHS; ``solve`` is the kernel on a batch of one plus that
    certificate.  ``_Knapsack`` and ``_VoltVar`` build it from the fill;
    ``_FreeQ``, which only the screening's values need, takes HiGHS's on
    ``problem.to_lp``, built at the slots with the row's band edge in the
    aggregate slot and its target node's objective at its σ.  Where a
    closed form cannot certify a target's point, ``solve`` falls back to
    that LP too, and ``values`` hands each such target to ``solve``.
    """

    certifiable = True  # False where the closed form certifies nothing at these setpoints
    feasible = True  # False where the setpoints leave an inverter no Δp_gen at all

    def __init__(self, problem: FollowerProblem):
        p = self.problem = problem
        nodes = np.arange(p.n)
        self.inv = p.inv
        self.gen_cols, self.load_cols, self.q_cols = p.i_dpg(p.inv), p.i_dpl(p.loads), p.i_qg(p.inv)
        self.device_cols = np.concatenate([self.gen_cols, self.load_cols, self.q_cols])
        # |v| = m0 + s_dev·x[device_cols] at every node; rows contiguous, so
        # that a row sums alike in any batch.
        self.s_dev = np.ascontiguousarray(np.concatenate([p.s_p, -p.s_l, p.s_q], axis=1))
        self.agg_row = p.row_names.index("agg")
        self.vm_rows = p.row_index("vm", nodes)
        self.sign = p.scenario.sign
        # (Δp_gen, Δp_load) = z_sign·z where the items are the devices themselves.
        self.z_sign = np.repeat([self.sign, -self.sign], [p.inv.size, p.loads.size])
        # Variables whose reduced cost goes to the bound they sit at: all but
        # the free |v| and the columns a subclass balances on its own rows.
        self.box_only = np.ones(p.n_vars, dtype=bool)
        self.box_only[p.i_vm(nodes)] = False
        self.slots: dict[str, float] | None = None

    def set_slots(self, slots: dict[str, float]) -> None:
        """Re-slot in place: the follower ``problem.materialize(slots)`` builds.

        What a subclass derives from the setpoints is derived again when a
        setpoint changed, or when the last derivation left the closed form
        unable to certify anything; new band edges alone keep it."""
        p = self.problem
        new = {s: slots[s] for s in p.slot_names}
        old, self.slots = self.slots, new
        if (
            old is None or not self.certifiable
            or any(new[s] != old[s] for s in new if s != p.scenario.dp_slot)
        ):
            self._fix_setpoints()

    def _fix_setpoints(self) -> None:
        """Derive the items, their boxes and every node's gains from the setpoints in ``slots``."""

    def values(self, nodes, edges=None, sigma=None) -> FollowerValues:
        """The optima at target nodes ``nodes`` with band edges ``edges`` and
        objective signs ``sigma`` (each one per node, or one for all; default
        the slot's edge and the scenario's σ)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        sc = self.problem.scenario
        edges = per_row(self.slots[sc.dp_slot] if edges is None else edges, nodes.shape)
        sigma = per_row(sc.sigma if sigma is None else sigma, nodes.shape)
        vals = self._closed(nodes, edges, sigma)
        if vals.certified.all():
            return vals
        for i in np.flatnonzero(~vals.certified).tolist():
            cert = vals.fallback[i] = self.solve(
                float(sigma[i]), node=int(nodes[i]), dp_bound=float(edges[i])
            )
            vals.optimal[i] = cert.is_optimal
            if cert.is_optimal:
                vals.objective[i], vals.agg_dual[i] = cert.objective, self.agg_dual(cert)
                vals.devices[i] = cert.x[self.device_cols]
        return vals

    def solve(
        self, sigma: float | None = None, *, node: int | None = None,
        dp_bound: float | None = None,
    ) -> DualCertificate:
        """The certificate of one target: objective sign ``sigma``, target
        ``node`` and band edge ``dp_bound``, each by default the scenario's."""
        sc = self.problem.scenario
        vals = self._closed(
            np.array([sc.node if node is None else node], dtype=np.int64),
            np.array([self.slots[sc.dp_slot] if dp_bound is None else dp_bound], dtype=float),
            np.array([sc.sigma if sigma is None else sigma], dtype=float),
        )
        return self.certificate(vals, 0) if vals.certified[0] else self._highs(vals, 0)

    def certificate(self, vals: FollowerValues, i: int) -> DualCertificate:
        """The full certificate of row ``i`` of ``vals``, which must come from
        this follower at its current setpoints."""
        if i in vals.fallback:
            return vals.fallback[i]
        if not vals.optimal[i]:
            return DualCertificate(status=INFEASIBLE, method=CLOSED_FORM)
        return self._certificate(vals, i)

    def _closed(self, nodes: np.ndarray, edges: np.ndarray, sigma: np.ndarray) -> FollowerValues:
        """The closed form at every target: the kernel under ``values`` and ``solve``."""
        t = nodes.size
        if not self.certifiable:
            return FollowerValues(
                nodes=nodes, edges=edges, sigma=sigma, objective=np.full(t, np.nan),
                agg_dual=np.full(t, np.nan), devices=np.full((t, self.device_cols.size), np.nan),
                optimal=np.zeros(t, dtype=bool), certified=np.zeros(t, dtype=bool),
            )
        room = self.sign * edges - self.lo_sum
        z, mu, fits = _fill(self._gains(nodes, sigma), self.item_lo, self.item_hi, room)
        devices = self._devices(nodes, sigma, z)
        return FollowerValues(
            nodes=nodes, edges=edges, sigma=sigma,
            objective=sigma * self._magnitudes(nodes, devices),
            agg_dual=self.sign * mu, devices=devices, optimal=fits & self.feasible,
            certified=self._certifies(devices, fits),
        )

    def _gains(self, nodes: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """The gains of targets ``nodes`` at objective signs ``sigma``: σ
        times the max-|v| rows, so a min-|v| row is one negated."""
        return sigma[:, None] * self.gains[nodes]

    def _devices(self, nodes: np.ndarray, sigma: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Device columns of the fills ``z`` of targets ``nodes`` at signs ``sigma``."""
        raise NotImplementedError

    def _certifies(self, devices: np.ndarray, fits: np.ndarray) -> np.ndarray:
        """Which of these points the closed form certifies: all."""
        return np.ones(fits.size, dtype=bool)

    def _certificate(self, vals: FollowerValues, i: int) -> DualCertificate:
        """The certificate of optimal row ``i``: HiGHS's, where a subclass
        has no closed form of it."""
        return self._highs(vals, i)

    def _highs(self, vals: FollowerValues, i: int) -> DualCertificate:
        """HiGHS on ``problem.to_lp`` at row ``i``'s band edge, with its
        target node's objective at its σ."""
        p = self.problem
        lp = p.to_lp({**self.slots, p.scenario.dp_slot: float(vals.edges[i])})
        lp.set_objective(p.i_vm(p.scenario.node), 0.0)
        lp.set_objective(p.i_vm(int(vals.nodes[i])), float(vals.sigma[i]))
        return solve_materialized(lp.materialize())

    def _magnitudes(self, rows, devices: np.ndarray) -> np.ndarray:
        """|v| at nodes ``rows`` of device columns ``devices`` (one set, or one
        per row).  Each row is summed on its own, so a node's |v| is
        bit-identical whatever batch it comes from."""
        return self.problem.m0[rows] + (self.s_dev[rows] * devices).sum(axis=-1)

    def agg_dual(self, cert: DualCertificate) -> float:
        """Sensitivity of the objective to the aggregate bound."""
        return float(cert.row_duals[self.agg_row])

    def set_items(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """The knapsack items' boxes (every item starts at its lower end)."""
        self.item_lo, self.item_hi, self.lo_sum = lo, hi, lo.sum()

    def z_box(self, g_lo: np.ndarray, g_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of z from the inverters' Δp_gen intervals and Δp_load's box."""
        p = self.problem
        l_lo, l_hi = p.lb[self.load_cols], p.ub[self.load_cols]
        if self.sign > 0:
            return np.concatenate([g_lo, -l_hi]), np.concatenate([g_hi, -l_lo])
        return np.concatenate([-g_hi, l_lo]), np.concatenate([-g_lo, l_hi])

    def dual_parts(self, vals: FollowerValues, i: int, y, gain_g, gain_l, gain_q):
        """The point of row ``i`` of ``vals`` and its certificate.

        The vm rows take σy (σ: the row's sign; y: the target row's weights
        on the sensitivities), agg its dual, and each box-only variable's reduced
        cost goes to the bound it sits at.  Also returns the duals as
        [row duals, lower, upper] and the reduced costs, for the subclass to
        place the rest.
        """
        p = self.problem
        gens, loads, qg = self.gen_cols, self.load_cols, self.q_cols
        agg_dual = vals.agg_dual[i]
        x = np.zeros(p.n_vars)
        x[p.i_vm(np.arange(p.n))] = self._magnitudes(slice(None), vals.devices[i])
        x[self.device_cols] = vals.devices[i]
        n_rows, n_vars = p.n_rows, p.n_vars
        duals = np.zeros(n_rows + 2 * n_vars)
        lower = duals[n_rows:n_rows + n_vars]
        upper = duals[n_rows + n_vars:]
        duals[self.vm_rows] = vals.sigma[i] * y
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
            objective=float(vals.objective[i]),
            x=x,
            row_duals=duals[:n_rows],
            lower_duals=lower,
            upper_duals=upper,
            method=CLOSED_FORM,
        )
        return cert, duals, reduced

    def _target(self, node) -> np.ndarray:
        """e_t: the weights of target row ``node`` alone."""
        y = np.zeros(self.problem.n)
        y[node] = 1.0
        return y


class _Knapsack(MaterializedFollower):
    """Closed-form solve of a follower whose only cross-node row is ``agg``
    (in any mode where it has no inverter).

    Substituting |v| = m0 + s_p·Δp_gen - s_l·Δp_load + s_q·q_gen and the
    node's mode row leaves each node's Δp_gen in one interval
    (``FollowerProblem.intervals``), next to Δp_load's box, and gives every
    device a gain per unit of the aggregate row (``FollowerProblem.gains``);
    filling devices in order of gain until the band edge is used up is
    optimal (Dantzig's fractional knapsack).  The fill
    also yields the duals: the aggregate dual is the gain of the device the
    edge runs out in, each device's reduced cost goes to the constraint
    defining the end of its interval it sits at, and the mode row takes what
    the q_gen column leaves over.  So the certificate satisfies the LP's
    dual-feasibility rows as well as strong duality.
    """

    def __init__(self, problem: FollowerProblem):
        super().__init__(problem)
        p = self.problem
        self.mode_rows = p.row_index("pfq" if p.mode == MODE_CONSTANT_PF else "qfix")

        # Each region kind's dual lands at ``target`` of [row duals, lower,
        # upper] as ``dual_sign`` times its multiplier: a bound's at its
        # column's bound dual, a row's at the row.
        n_rows, n_vars = p.n_rows, p.n_vars
        dpg, qg = self.gen_cols, self.q_cols
        bounds = {
            "dpg_hi": (n_rows + n_vars + dpg, 1.0),
            "dpg_lo": (n_rows + dpg, -1.0),
            "q_hi": (n_rows + n_vars + qg, 1.0),
            "q_lo": (n_rows + qg, -1.0),
        }
        targets = [bounds[k] if k in bounds else (p.row_index(k), 1.0) for k in p.region_kinds]
        self.e = p.region[1]
        self.target = np.stack([t for t, _ in targets], axis=1)
        self.dual_sign = np.array([s for _, s in targets])
        self.box_only[dpg] = self.box_only[qg] = False

    def _fix_setpoints(self) -> None:
        """Each inverter node's Δp_gen interval and every target's row of
        gains at these setpoints: κ and q0 of the mode row, read off the slots."""
        p = self.problem
        values = np.array([self.slots[s] for s in p.setpoint_slots], dtype=float)
        if p.mode == MODE_CONSTANT_PF:
            self.kappa, self.q0 = values, values * p.devices.p_gen0[self.inv]
        else:
            self.kappa, self.q0 = np.zeros(self.inv.size), values
        lo, hi, self.c_lo, self.c_hi, self.ap, feasible = p.intervals(self.kappa, self.q0)
        self.feasible = bool(feasible.all())
        self.set_items(*self.z_box(lo, hi))
        self.gains = p.gains(self.kappa, slice(None))

    def _devices(self, nodes, sigma, z):
        dp = z * self.z_sign
        q = self.q0 + self.kappa * dp[:, :self.inv.size]  # the mode row pins q_gen
        return np.concatenate([dp, q], axis=1)

    def _certificate(self, vals: FollowerValues, i: int) -> DualCertificate:
        p, m = self.problem, self.inv.size
        node, sigma = vals.nodes[i], vals.sigma[i]
        gain = sigma * self.sign * self.gains[node]
        gain_q = sigma * p.s_q[node]
        cert, duals, reduced = self.dual_parts(
            vals, i, self._target(node), gain[:m], gain[m:], gain_q
        )
        # The Δp_gen reduced cost goes to the column defining the interval
        # end it sits at; the mode row balances q_gen.
        r = reduced[self.gen_cols]
        j = np.arange(m)
        col = np.where(r > 0.0, self.c_hi, self.c_lo)
        mult = r / self.ap[j, col]
        duals[self.target[j, col]] += self.dual_sign[col] * mult
        duals[self.mode_rows] = gain_q - mult * self.e[j, col]
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
    Δp_gen and σ·s_lᵀy per unit of load shed (y is σ-free, so the table
    kept is σ = +1's).  The certificate puts σy on
    the vm rows, σ(s_qᵀy)_I on the droop rows (which zeroes q_gen's reduced
    cost at I), the fill's dual on agg and nothing on the q_gen box and the
    capability rows.  It is exact when the fill's point meets those; when it
    does not, or A is singular, the target is left uncertified.  The fill
    solves a relaxation of the LP, so an infeasible fill is an infeasible LP.
    """

    def __init__(self, problem: FollowerProblem):
        super().__init__(problem)
        p, inv = self.problem, self.inv
        band = p.v_max - p.v_min
        self.d, self.c = 2.0 / band, (p.v_max + p.v_min) / band
        self.vv_rows = p.row_index("vv")
        self.s_ii = (p.s_p[inv], p.s_l[inv], p.s_q[inv])  # the inverter nodes' rows
        self.set_items(*self.z_box(p.lb[self.gen_cols], p.ub[self.gen_cols]))
        self.box_only[self.q_cols] = False

    def _fix_setpoints(self) -> None:
        """Solve the droop system at these q̄ once, q_I = q0 - K·u_I with
        K = A⁻¹·d·Q̄, and give every target t its row of gains through
        y = e_t - E_I·w, w = Kᵀ·s_q[t,I]ᵀ (the d·Q̄·w above)."""
        p, inv = self.problem, self.inv
        qbar = np.array([self.slots[s] for s in p.setpoint_slots], dtype=float)
        dq = self.d * qbar
        s_p_ii, s_l_ii, s_q_ii = self.s_ii
        a = np.eye(inv.size) + dq[:, None] * s_q_ii
        rhs = np.column_stack([qbar * (self.c - self.d * p.m0[inv]), np.diag(dq)])
        try:
            sol = np.linalg.solve(a, rhs) if inv.size else rhs
        except np.linalg.LinAlgError:
            sol = None
        self.certifiable = sol is not None and bool(np.all(np.isfinite(sol)))
        if not self.certifiable:
            self.q0 = self.k = None
            return
        self.q0, self.k = sol[:, 0], sol[:, 1:]
        self.w = p.s_q @ self.k  # row t: w of target t
        self.gains = self.sign * np.concatenate(
            [p.s_p - self.w @ s_p_ii, p.s_l - self.w @ s_l_ii], axis=1
        )
        # q_I = q0 - ks·(Δp_gen, Δp_load)
        self.ks = self.k @ np.concatenate([s_p_ii, -s_l_ii], axis=1)

    def _devices(self, nodes, sigma, z):
        dp = z * self.z_sign
        return np.concatenate([dp, self.q0 - np.einsum("td,id->ti", dp, self.ks)], axis=1)

    def _certifies(self, devices, fits):
        """Points inside every row of the region table, and infeasible fills:
        the fill solves a relaxation."""
        m = self.inv.size
        a, e, b = self.problem.region
        dpg, q = devices[:, :m, None], devices[:, devices.shape[1] - m:, None]
        return ~fits | np.all(a * dpg + e * q <= b + FEAS_TOL, axis=(1, 2))

    def _certificate(self, vals: FollowerValues, i: int) -> DualCertificate:
        p, m = self.problem, self.inv.size
        node, sigma = vals.nodes[i], vals.sigma[i]
        gain = sigma * self.sign * self.gains[node]
        gain_q = sigma * (p.s_q[node] - self.w[node] @ self.s_ii[2])
        y = self._target(node)
        y[self.inv] -= self.w[node]
        cert, duals, _ = self.dual_parts(vals, i, y, gain[:m], gain[m:], gain_q)
        duals[self.vv_rows] = gain_q
        return cert


class _FreeQ(MaterializedFollower):
    """Closed-form values of a constant-q follower with free q_gen (screening).

    An inverter node's q_gen range is symmetric, |q_gen| <= h(Δp_gen) with
    h = min(γ(p_gen0 + Δp_gen), s_cap, √2·s_cap - p_gen0 - Δp_gen) from the
    region table's cone, q_gen bound and capability kinds.  So its best q_gen
    is sign(g_q)·h, g_q = σ·s_q[t,k], and the node's gain
    g_x·Δp_gen + |g_q|·h(Δp_gen) is concave and piecewise linear: its
    Δp_gen box splits at the kinks of h into up to three segments of falling
    marginal gain, each defined by one of the three constraints on the side
    g_q prefers, and the greedy fill over the segments stays exact.  A
    segment's gain σ·s_p - |s_q|·a_j is no negation of the other extremum's,
    so the segments' gains and q_gen's side are kept per extremum.  No
    decision leaves q_gen free, so no single-level completion asks for a
    certificate: ``certificate`` is HiGHS's.
    """

    def __init__(self, problem: FollowerProblem):
        super().__init__(problem)
        p, m = self.problem, self.inv.size
        # h = min over pieces j of b_j - a_j·Δp_gen, the region's upper-q
        # kinds (e = 1) cone, q_gen bound and capability row: their slopes
        # -a_j fall with j.
        pieces = [p.region_kinds.index(kind) for kind in ("cq_hi", "q_hi", "cap_hi")]
        self.a, _, self.b = (c[:, pieces] for c in p.region)
        lo, hi = p.lb[self.gen_cols], p.ub[self.gen_cols]
        # h is concave, so it is >= 0 on the box when it is at both ends (it
        # is for any parsed inverter: s_cap > 0 and 0 <= p_gen0 <= s_cap).
        self.certifiable = bool(
            np.all(self._h(lo) >= -FEAS_TOL) and np.all(self._h(hi) >= -FEAS_TOL)
        )

        # Segments per node in z order, padded to three: their pieces and z
        # ranges (the first starts at the node's z, the others at 0).
        piece = np.zeros((m, 3), dtype=np.int64)
        self.valid = np.zeros((m, 3), dtype=bool)
        seg_lo, seg_hi = np.zeros((m, 3)), np.zeros((m, 3))
        for i in range(m):
            segments = _envelope(self.a[i], self.b[i], lo[i], hi[i])
            if self.sign < 0:
                segments = [(-x1, -x0, j) for x0, x1, j in reversed(segments)]
            for s_i, (z0, z1, j) in enumerate(segments):
                piece[i, s_i], self.valid[i, s_i] = j, True
                seg_lo[i, s_i] = z0 if s_i == 0 else 0.0
                seg_hi[i, s_i] = z1 if s_i == 0 else z1 - z0
        # Knapsack items: the segments, then Δp_load.
        z_lo, z_hi = self.z_box(lo, hi)
        self.set_items(
            np.concatenate([seg_lo[self.valid], z_lo[m:]]),
            np.concatenate([seg_hi[self.valid], z_hi[m:]]),
        )
        self.n_seg = int(self.valid.sum())
        # Every target's gains per extremum (min-|v|, max-|v|): per unit z,
        # g_x - |g_q|·a_j on a segment of piece j, and the load shed's; q_gen
        # sits at sign(g_q)·h.
        a_seg = self.a[np.arange(m)[:, None], piece]
        gains, sides = [], []
        for sigma in (-1.0, 1.0):
            seg_gain = sigma * p.s_p[:, :, None] - np.abs(sigma * p.s_q)[:, :, None] * a_seg
            seg_gain = seg_gain[:, self.valid]
            gains.append(self.sign * np.concatenate([seg_gain, sigma * p.s_l], axis=1))
            sides.append(np.where(sigma * p.s_q < 0.0, -1.0, 1.0))
        self.gains, self.q_side = np.stack(gains), np.stack(sides)

    def _gains(self, nodes, sigma):
        return self.gains[(sigma > 0.0).astype(np.int64), nodes]

    def _h(self, x: np.ndarray) -> np.ndarray:
        """h at each inverter node's Δp_gen (one set, or one per row)."""
        return np.min(self.b - self.a * x[..., None], axis=-1)

    def _devices(self, nodes, sigma, z):
        zs = np.zeros(z.shape[:-1] + self.valid.shape)  # the segments' fills per node
        zs[..., self.valid] = z[..., :self.n_seg]
        dpg = self.sign * zs.sum(axis=-1)
        dpl = -self.sign * z[:, self.n_seg:]
        side = self.q_side[(sigma > 0.0).astype(np.int64), nodes]
        return np.concatenate([dpg, dpl, side * self._h(dpg)], axis=1)


def per_row(a, shape: tuple[int, ...]) -> np.ndarray:
    """``a`` as floats of ``shape``: as it is where it has that shape, else
    repeated (one value for all rows)."""
    a = np.asarray(a, dtype=float)
    return a if a.shape == shape else np.full(shape, a)


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


def _fill(gain: np.ndarray, lo: np.ndarray, hi: np.ndarray, room: np.ndarray):
    """Fractional knapsacks: for each row i, maximize gain[i]·z over
    lo <= z <= hi with sum(z - lo) <= room[i], room being what the budget
    leaves over sum(lo).

    Each row fills its items of positive gain in order of falling gain (one
    stable argsort per row, so ties go to the lower index): the items whose
    cumulative width stays below the room are full, the next one takes what
    room is left (Dantzig 1957), the rest stay at lo.  Returns z per row,
    the budget row's dual per row (the gain of the item the room runs out
    in, zero when it never does) and whether each row's room is
    nonnegative; a row where it is not is infeasible, and its z and dual
    mean nothing.
    """
    rows, items = gain.shape
    fits = room >= -FEAS_TOL
    if not items:
        return np.zeros((rows, 0)), np.zeros(rows), fits
    room = np.maximum(room, 0.0)[:, None]
    r = np.arange(rows)[:, None]
    # Sorting -gain puts the items of positive gain first, in falling order.
    order = (-gain).argsort(axis=1, kind="stable")
    g, lo_s, hi_s = gain[r, order], lo[order], hi[order]
    up = g > 0.0
    filled = (hi_s - lo_s).cumsum(axis=1)
    full = up & (filled < room)
    before = np.zeros_like(filled)  # the width of the items ahead
    before[:, 1:] = filled[:, :-1]
    z = np.empty_like(filled)
    z[r, order] = np.where(
        full, hi_s, np.where(up, np.minimum(lo_s + np.maximum(room - before, 0.0), hi_s), lo_s)
    )
    # The first item of positive gain not full has the largest gain of them.
    return z, np.where(up & ~full, g, 0.0).max(axis=1), fits


def build_follower(
    ctx: FlexContext, scenario: Scenario, mode: str, *, fix_q: bool = False
) -> FollowerProblem:
    """Assemble the follower LP structure for one scenario.

    ``fix_q`` adds the constant-q q_gen = q_set binding rows; ``fixes_q``
    says when a follower holds them: at slots carrying q_set setpoints.
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
