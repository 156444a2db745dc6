"""Feeder data model: parsing, validation, node indexing and admittance assembly.

A feeder file is a single JSON document:

    {
      "base_kva": 1000.0,          # single-phase power base (kVA)
      "base_kv": 2.4018,           # line-to-neutral voltage base (kV)
      "slack": "650",
      "buses": [{"id": "650", "phases": "abc"}, ...],
      "segments": [{"from": "650", "to": "632",
                    "z": [[re, im], ... 9 entries, row-major 3x3 ohms]}, ...],
      "regulators": [{"segment": 0, "taps": [1.05, 1.05, 1.05]}, ...],
      "loads": [{"bus": "634", "phase": "a", "p_kw": 160.0,
                 "p_min": 120.0, "p_max": 200.0, "pf": 0.95}, ...],
      "inverters": [{"bus": "675", "phase": "b", "p_kw": 90.0,
                     "p_min": 0.0, "p_max": 90.0, "s_kva": 300.0,
                     "mode": "constant-pf", "mode_params": {"pf": 0.9}}, ...]
    }

Regulators reference segments by list index and model an ideal per-phase tap
changer on the "from" side in series with the segment impedance, so the no-load
voltage on the "to" side is tap * V_from.  Missing phases are represented by
omission: a bus lists only the phases it carries, and segment impedance blocks
are cut down to the phases present at both endpoints.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PHASES = ("a", "b", "c")
_PHASE_POS = {"a": 0, "b": 1, "c": 2}

MODE_CONSTANT_PF = "constant-pf"
MODE_CONSTANT_Q = "constant-q"
MODE_VOLT_VAR = "volt-var"
INVERTER_MODES = (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)


class FeederError(ValueError):
    """Raised for malformed or physically inconsistent feeder files."""


@dataclass(frozen=True)
class Bus:
    id: str
    phases: tuple[str, ...]  # subset of ("a","b","c"), stored in canonical order


@dataclass(frozen=True)
class Segment:
    from_bus: str
    to_bus: str
    z_ohm: np.ndarray  # full 3x3 complex template; rows/cols for absent phases unused

    def __eq__(self, other):  # ndarray member breaks the generated __eq__
        return (
            isinstance(other, Segment)
            and self.from_bus == other.from_bus
            and self.to_bus == other.to_bus
            and np.array_equal(self.z_ohm, other.z_ohm)
        )


@dataclass(frozen=True)
class Regulator:
    segment: int  # index into FeederModel.segments
    taps: tuple[float, float, float]  # per-phase ratios (a, b, c)


@dataclass(frozen=True)
class LoadSpec:
    bus: str
    phase: str
    p_kw: float  # current draw, consumption-positive
    p_min_kw: float  # lower draw bound (clamped to >= 0)
    p_max_kw: float  # upper draw bound
    pf: float  # constant power factor tying q to p


@dataclass(frozen=True)
class InverterSpec:
    bus: str
    phase: str
    p_kw: float  # current active injection
    p_min_kw: float
    p_max_kw: float
    s_kva: float  # apparent power rating
    pf: float = 0.9  # constant-pf mode: power-factor bound on the q/p ratio
    gamma: float = 0.48  # constant-q mode: fixed q/p cone half-width


@dataclass
class FeederModel:
    base_kva: float  # single-phase power base
    base_kv: float  # line-to-neutral voltage base
    slack: str
    buses: list[Bus]
    segments: list[Segment]
    regulators: list[Regulator]
    loads: list[LoadSpec]
    inverters: list[InverterSpec]
    source: str | None = field(default=None, compare=False)  # file path, if loaded

    @property
    def z_base_ohm(self) -> float:
        # Z_base = V_LN^2 / S_1ph
        return 1e3 * self.base_kv**2 / self.base_kva

    def bus(self, bus_id: str) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(bus_id)


@dataclass(frozen=True)
class BusPhaseIndex:
    """Deterministic mapping between (bus, phase) pairs and solver indices.

    Non-slack single-phase nodes are numbered 0..n-1 in file bus order with
    phases in a<b<c order; slack phases get their own block.  ``full`` orders
    slack phases first, then the n non-slack nodes, which is the layout used
    by the assembled admittance matrix.
    """

    nodes: tuple[tuple[str, str], ...]  # non-slack (bus, phase), length n
    slack_nodes: tuple[tuple[str, str], ...]
    position: dict[tuple[str, str], int] = field(hash=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def full(self) -> tuple[tuple[str, str], ...]:
        return self.slack_nodes + self.nodes

    def of(self, bus: str, phase: str) -> int:
        try:
            return self.position[(bus, phase)]
        except KeyError:
            raise KeyError(f"({bus}, {phase}) is not an indexed non-slack node") from None


def _canon_phases(raw, where: str) -> tuple[str, ...]:
    if isinstance(raw, str):
        items = list(raw)
    elif isinstance(raw, (list, tuple)):
        items = [str(p) for p in raw]
    else:
        raise FeederError(f"{where}: phases must be a string or list, got {raw!r}")
    seen = []
    for p in items:
        q = p.lower()
        if q not in PHASES:
            raise FeederError(f"{where}: bad phase label {p!r}")
        if q in seen:
            raise FeederError(f"{where}: duplicate phase {p!r}")
        seen.append(q)
    if not seen:
        raise FeederError(f"{where}: empty phase set")
    return tuple(sorted(seen, key=_PHASE_POS.__getitem__))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise FeederError(msg)


def _finite(x, where: str, key: str | None = None) -> float:
    """``x`` as a finite float; ``where`` and ``key`` name it in errors."""
    number = type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool))
    try:
        value = float(x) if number else math.nan
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not (number and math.isfinite(value)):
        what = "non-finite number" if number else "not a number:"
        raise FeederError(f"{where if key is None else f'{where} {key}'}: {what} {x!r}")
    return value


def _records(doc: dict, section: str, kind: str):
    """(index, record) of each object in the list ``doc[section]`` (absent:
    none); a ``part.key`` section is the list at ``key`` of the object
    ``doc[part]`` (absent or null: none)."""
    part, _, key = section.rpartition(".")
    if part:
        doc = {} if doc.get(part) is None else doc[part]
        _require(isinstance(doc, dict), f"{part!r} must be an object, got {type(doc).__name__}")
    recs = doc.get(key, [])
    if not isinstance(recs, list):
        raise FeederError(f"{section!r} must be a list of objects")
    for i, rec in enumerate(recs):
        if not isinstance(rec, dict):
            raise FeederError(f"{kind} {i}: must be an object, got {rec!r}")
        yield i, rec


def _field(rec: dict, key: str, where: str):
    if key not in rec:
        raise FeederError(f"{where}: missing required key {key!r}")
    return rec[key]


def _number(rec: dict, key: str, where: str) -> float:
    return _finite(_field(rec, key, where), where, key)


def read_json(path, kind: str):
    """The JSON document in the file ``path``; ``kind`` names it in errors."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise FeederError(f"cannot read {kind} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, too deep, too many digits
        raise FeederError(f"{path}: not valid JSON ({exc})") from exc


def load_feeder(source) -> FeederModel:
    """Parse and validate a feeder document.

    ``source`` may be a path to a JSON file or an already-decoded dict.
    Validation covers referential integrity (bus names, phase presence),
    slack completeness, a bus beyond the slack, per-phase connectivity to
    the slack, consistency of co-located devices, finite numbers and
    invertible segment impedance blocks.  Load lower bounds are clamped at
    zero draw: a load cannot turn into an injector.
    """
    if isinstance(source, (str, Path)):
        doc, origin = read_json(source, "feeder file"), str(Path(source))
    elif isinstance(source, dict):
        doc, origin = source, None
    else:
        raise FeederError(f"unsupported feeder source {type(source).__name__}")
    _require(isinstance(doc, dict), "feeder document must be a JSON object")

    for key in ("base_kva", "base_kv", "slack", "buses", "segments"):
        _require(key in doc, f"feeder document missing required key {key!r}")

    base_kva = _finite(doc["base_kva"], "base_kva")
    base_kv = _finite(doc["base_kv"], "base_kv")
    _require(base_kva > 0 and base_kv > 0, "power/voltage bases must be positive")

    buses: list[Bus] = []
    by_id: dict[str, Bus] = {}
    for i, rec in _records(doc, "buses", "bus"):
        bid = str(_field(rec, "id", f"bus {i}"))
        _require(bid not in by_id, f"duplicate bus id {bid!r}")
        bus = Bus(id=bid, phases=_canon_phases(_field(rec, "phases", f"bus {i}"), f"bus {bid}"))
        buses.append(bus)
        by_id[bid] = bus

    slack = str(doc["slack"])
    _require(slack in by_id, f"slack bus {slack!r} not in bus list")
    _require(
        by_id[slack].phases == PHASES,
        f"slack bus {slack!r} must carry all three phases",
    )
    _require(len(buses) > 1, "feeder has no non-slack nodes: no device can offer flexibility")

    segments: list[Segment] = []
    for i, rec in _records(doc, "segments", "segment"):
        where = f"segment {i}"
        fb, tb = str(_field(rec, "from", where)), str(_field(rec, "to", where))
        _require(fb in by_id, f"segment {i}: unknown bus {fb!r}")
        _require(tb in by_id, f"segment {i}: unknown bus {tb!r}")
        _require(fb != tb, f"segment {i}: self-loop at {fb!r}")
        zflat = _field(rec, "z", where)
        _require(
            isinstance(zflat, list) and len(zflat) == 9,
            f"segment {i}: z must hold 9 [re, im] pairs (row-major 3x3)",
        )
        z = np.empty((3, 3), dtype=complex)
        for k, pair in enumerate(zflat):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise FeederError(f"segment {i}: z entry {k} must be an [re, im] pair")
            entry = f"segment {i} z[{k}]"
            z[k // 3, k % 3] = complex(_finite(pair[0], entry), _finite(pair[1], entry))
        segments.append(Segment(from_bus=fb, to_bus=tb, z_ohm=z))

    regulators: list[Regulator] = []
    seen_seg: set[int] = set()
    for i, rec in _records(doc, "regulators", "regulator"):
        si = _field(rec, "segment", f"regulator {i}")
        _require(type(si) is int, f"regulator {i} segment: not an integer: {si!r}")
        _require(0 <= si < len(segments), f"regulator {i}: segment index {si} out of range")
        _require(si not in seen_seg, f"regulator {i}: segment {si} already has a regulator")
        seen_seg.add(si)
        taps = _field(rec, "taps", f"regulator {i}")
        _require(
            isinstance(taps, (list, tuple)) and len(taps) == 3,
            f"regulator {i}: taps must list three per-phase ratios",
        )
        tvals = tuple(_finite(t, f"regulator {i} tap") for t in taps)
        _require(all(t > 0 for t in tvals), f"regulator {i}: taps must be positive")
        regulators.append(Regulator(segment=si, taps=tvals))

    def _device_site(rec, where: str) -> tuple[str, str]:
        bid = str(_field(rec, "bus", where))
        _require(bid in by_id, f"{where}: unknown bus {bid!r}")
        (phase,) = _canon_phases(_field(rec, "phase", where), where)
        _require(
            phase in by_id[bid].phases,
            f"{where}: phase {phase!r} not present at bus {bid!r}",
        )
        _require(bid != slack, f"{where}: devices may not sit on the slack bus")
        return bid, phase

    # Several devices may share a (bus, phase) node -- they aggregate into one
    # per-node cone -- but then their reactive couplings must agree.
    loads: list[LoadSpec] = []
    load_pf: dict[tuple[str, str], float] = {}
    for i, rec in _records(doc, "loads", "load"):
        where = f"load {i}"
        bid, phase = _device_site(rec, where)
        p = _number(rec, "p_kw", where)
        pmin = max(0.0, _number(rec, "p_min", where))  # draw stays >= 0
        pmax = _number(rec, "p_max", where)
        pf = _number(rec, "pf", where)
        _require(0 < pf <= 1.0, f"load {i}: power factor must be in (0, 1]")
        _require(pmin <= p <= pmax, f"load {i}: need p_min <= p_kw <= p_max after clamping")
        prev = load_pf.setdefault((bid, phase), pf)
        _require(
            prev == pf,
            f"load {i}: power factor {pf} differs from another load at ({bid}, {phase})",
        )
        loads.append(LoadSpec(bus=bid, phase=phase, p_kw=p, p_min_kw=pmin, p_max_kw=pmax, pf=pf))

    inverters: list[InverterSpec] = []
    inv_params: dict[tuple[str, str], tuple[float, float]] = {}
    for i, rec in _records(doc, "inverters", "inverter"):
        where = f"inverter {i}"
        bid, phase = _device_site(rec, where)
        p = _number(rec, "p_kw", where)
        pmin = _number(rec, "p_min", where)
        pmax = _number(rec, "p_max", where)
        s = _number(rec, "s_kva", where)
        mode = str(rec.get("mode", MODE_CONSTANT_PF))
        _require(mode in INVERTER_MODES, f"inverter {i}: unknown mode {mode!r}")
        params = {} if rec.get("mode_params") is None else rec["mode_params"]
        _require(isinstance(params, dict), f"{where} mode_params: not an object: {params!r}")
        pf = _finite(params.get("pf", 0.9), where, "mode pf")
        gamma = _finite(params.get("gamma", 0.48), where, "mode gamma")
        _require(0 < pf <= 1.0, f"inverter {i}: mode pf must be in (0, 1]")
        _require(gamma >= 0, f"inverter {i}: mode gamma must be >= 0")
        _require(s > 0, f"inverter {i}: s_kva must be positive")
        _require(pmin <= p <= pmax, f"inverter {i}: need p_min <= p_kw <= p_max")
        _require(0 <= p <= s, f"inverter {i}: current output must satisfy 0 <= p_kw <= s_kva")
        prev = inv_params.setdefault((bid, phase), (pf, gamma))
        _require(
            prev == (pf, gamma),
            f"inverter {i}: mode parameters differ from another inverter at ({bid}, {phase})",
        )
        inverters.append(
            InverterSpec(
                bus=bid, phase=phase, p_kw=p, p_min_kw=pmin, p_max_kw=pmax,
                s_kva=s, pf=pf, gamma=gamma,
            )
        )

    model = FeederModel(
        base_kva=base_kva, base_kv=base_kv, slack=slack, buses=buses,
        segments=segments, regulators=regulators, loads=loads,
        inverters=inverters, source=origin,
    )
    _check_connectivity(model)
    # Fail early on singular blocks rather than during admittance assembly.
    for i in range(len(segments)):
        _segment_admittance(model, i)
    return model


def dump_feeder(model: FeederModel) -> dict:
    """Serialize a FeederModel back into its document form (round-trip safe)."""
    doc = {
        "base_kva": model.base_kva,
        "base_kv": model.base_kv,
        "slack": model.slack,
        "buses": [{"id": b.id, "phases": "".join(b.phases)} for b in model.buses],
        "segments": [
            {
                "from": s.from_bus,
                "to": s.to_bus,
                "z": [[s.z_ohm[r, c].real, s.z_ohm[r, c].imag] for r in range(3) for c in range(3)],
            }
            for s in model.segments
        ],
        "regulators": [{"segment": r.segment, "taps": list(r.taps)} for r in model.regulators],
        "loads": [
            {
                "bus": l.bus, "phase": l.phase, "p_kw": l.p_kw,
                "p_min": l.p_min_kw, "p_max": l.p_max_kw, "pf": l.pf,
            }
            for l in model.loads
        ],
        "inverters": [
            {
                "bus": g.bus, "phase": g.phase, "p_kw": g.p_kw,
                "p_min": g.p_min_kw, "p_max": g.p_max_kw, "s_kva": g.s_kva,
                "mode_params": {"pf": g.pf, "gamma": g.gamma},
            }
            for g in model.inverters
        ],
    }
    return doc


def save_feeder(model: FeederModel, path) -> None:
    Path(path).write_text(json.dumps(dump_feeder(model), indent=2) + "\n")


def segment_phases(model: FeederModel, seg_index: int) -> tuple[str, ...]:
    """Phases a segment actually carries: those present at both endpoints."""
    seg = model.segments[seg_index]
    fp = model.bus(seg.from_bus).phases
    tp = model.bus(seg.to_bus).phases
    phases = tuple(p for p in PHASES if p in fp and p in tp)
    if not phases:
        raise FeederError(
            f"segment {seg_index} ({seg.from_bus}-{seg.to_bus}) shares no phase between endpoints"
        )
    return phases


def _segment_admittance(model: FeederModel, seg_index: int) -> tuple[tuple[str, ...], np.ndarray]:
    seg = model.segments[seg_index]
    phases = segment_phases(model, seg_index)
    rows = [_PHASE_POS[p] for p in phases]
    zsub = seg.z_ohm[np.ix_(rows, rows)] / model.z_base_ohm
    try:
        ysub = np.linalg.inv(zsub)
    except np.linalg.LinAlgError as exc:
        raise FeederError(
            f"segment {seg_index} ({seg.from_bus}-{seg.to_bus}): singular impedance block"
        ) from exc
    if not np.all(np.isfinite(ysub)):
        raise FeederError(
            f"segment {seg_index} ({seg.from_bus}-{seg.to_bus}): singular impedance block"
        )
    return phases, ysub


def _check_connectivity(model: FeederModel) -> None:
    # Per-phase reachability: every (bus, phase) node must reach the slack
    # through segments that carry that phase at both endpoints.
    adj: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for b in model.buses:
        for p in b.phases:
            adj[(b.id, p)] = []
    for i, seg in enumerate(model.segments):
        for p in segment_phases(model, i):
            adj[(seg.from_bus, p)].append((seg.to_bus, p))
            adj[(seg.to_bus, p)].append((seg.from_bus, p))
    seen: set[tuple[str, str]] = set()
    stack = [(model.slack, p) for p in PHASES]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adj[node])
    missing = [node for node in adj if node not in seen]
    if missing:
        bus, phase = sorted(missing)[0]
        raise FeederError(
            f"node ({bus}, phase {phase}) is not connected to the slack "
            f"({len(missing)} disconnected node(s) total)"
        )


def index_nodes(model: FeederModel) -> BusPhaseIndex:
    """Build the deterministic (bus, phase) -> index mapping.

    Ordering follows the bus order of the feeder document with phases in
    a<b<c order, slack phases excluded from the 0..n-1 block.  Re-loading
    the same document therefore reproduces the same mapping.
    """
    nodes: list[tuple[str, str]] = []
    slack_nodes: list[tuple[str, str]] = []
    for b in model.buses:
        for p in b.phases:
            if b.id == model.slack:
                slack_nodes.append((b.id, p))
            else:
                nodes.append((b.id, p))
    position = {pair: i for i, pair in enumerate(nodes)}
    return BusPhaseIndex(
        nodes=tuple(nodes), slack_nodes=tuple(slack_nodes), position=position
    )


def assemble_ybus(model: FeederModel, index: BusPhaseIndex | None = None) -> np.ndarray:
    """Assemble the complex bus admittance matrix in per-unit.

    The matrix is ordered per ``index.full``: slack phases first, then the
    n non-slack nodes.  Plain segments contribute the familiar
    [[Y, -Y], [-Y, Y]] block pattern (zero row sums, shunt-free); a
    regulated segment contributes [[T Y T, -T Y], [-Y T, Y]] with T the
    diagonal per-phase tap matrix, which keeps the matrix symmetric.
    Parallel segments accumulate additively.
    """
    if index is None:
        index = index_nodes(model)
    full_pos = {pair: i for i, pair in enumerate(index.full)}
    m = len(index.full)
    Y = np.zeros((m, m), dtype=complex)
    reg_by_segment = {r.segment: r for r in model.regulators}
    for si, seg in enumerate(model.segments):
        phases, ysub = _segment_admittance(model, si)
        fidx = [full_pos[(seg.from_bus, p)] for p in phases]
        tidx = [full_pos[(seg.to_bus, p)] for p in phases]
        reg = reg_by_segment.get(si)
        if reg is None:
            yff, yft, ytf, ytt = ysub, -ysub, -ysub, ysub
        else:
            t = np.diag([reg.taps[_PHASE_POS[p]] for p in phases])
            yff = t @ ysub @ t
            yft = -(t @ ysub)
            ytf = -(ysub @ t)
            ytt = ysub
        Y[np.ix_(fidx, fidx)] += yff
        Y[np.ix_(fidx, tidx)] += yft
        Y[np.ix_(tidx, fidx)] += ytf
        Y[np.ix_(tidx, tidx)] += ytt
    return Y
