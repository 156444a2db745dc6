"""Command-line entry points: worst-case tables, full solves, verification
and plot-data emission.

Exit codes: 0 success, 2 validation error (bad arguments, feeder file or
result file), 3 infeasible anchor (the current operating point violates the
voltage band or the power flow fails), 4 iteration cap reached without a
feasible decision, 5 feasible band whose optimality the branch-and-bound did
not prove (it stopped at its node limit, or the dual box binds at its
incumbent: status ``dual_box``), 6 solver failure (any other bilevel error,
such as a single-level solve with no incumbent or an infeasible follower
LP).  All files are deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
from pathlib import Path

from . import __version__
from .bilevel import (
    DUAL_BOX,
    BilevelError,
    FlexibilityResult,
    InfeasibleAnchorError,
    UpperDecision,
    run_iterative,
    worst_case_limits,
)
from .feeder import INVERTER_MODES, FeederError, load_feeder
from .follower import DIRECTIONS, build_context, setpoint_boxes
from .lp import OPTIMAL
from .oracle import OracleError, verify_decision
from .powerflow import PowerFlowError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE_ANCHOR = 3
EXIT_ITERATION_CAP = 4
EXIT_UNPROVEN = 5
EXIT_SOLVER = 6

RESULT_FORMAT = "flexgrid-result"
WORST_CASE_FORMAT = "flexgrid-worst-case"
REPORT_FORMAT = "flexgrid-oracle-report"
FORMAT_VERSION = 1

_WORST_CASE_FIELDS = (
    "node", "bus", "phase", "dp_plus_kw", "dp_minus_kw", "upper_family", "lower_family"
)
# A result file's record tables: (where they sit, fields, the fields that
# hold numbers, plot-data CSV).  The fields are also the CSV header.
_RESULT_TABLES = (
    ("worst_case.nodes", _WORST_CASE_FIELDS, ("dp_plus_kw", "dp_minus_kw"), "limits_per_node.csv"),
    ("setpoints", ("slot", "kind", "node", "bus", "phase", "value", "lo", "hi"),
     ("value", "lo", "hi"), "setpoints.csv"),
    ("verification.nodes", ("node", "bus", "phase", "vm_linear", "vm_nonlinear"),
     ("vm_linear", "vm_nonlinear"), "magnitudes.csv"),
)

_SLOT_RE = re.compile(r"^(gamma|qbar|qset)\[(\d+)\]$")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def parse_slot(name: str) -> tuple[str, int]:
    m = _SLOT_RE.match(name)
    if not m:
        raise ValueError(f"not a setpoint slot name: {name!r}")
    return m.group(1), int(m.group(2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexgrid",
        description="Secure aggregate flexibility ranges for unbalanced feeders.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--feeder", required=True, help="feeder JSON file")
    common.add_argument(
        "--mode", choices=INVERTER_MODES, default="constant-pf",
        help="inverter control mode for the study (default: constant-pf)",
    )
    common.add_argument("--vmin", type=float, default=0.9, help="lower voltage limit, p.u.")
    common.add_argument("--vmax", type=float, default=1.1, help="upper voltage limit, p.u.")
    common.add_argument(
        "--direction", choices=tuple(DIRECTIONS),
        default="both", help="which voltage-band side the study guards",
    )
    common.add_argument("--out", default=".", help="output directory")

    p_wc = sub.add_parser(
        "worst-case", parents=[common],
        help="per-node band limits under adversarial setpoints",
    )
    p_wc.set_defaults(func=cmd_worst_case)

    p_solve = sub.add_parser(
        "solve", parents=[common],
        help="full iterative solve: worst case, ideal case, feasibility loop",
    )
    p_solve.add_argument(
        "--epsilon", type=float, default=1e-4,
        help="relative optimality gap of the spatial branch-and-bound",
    )
    p_solve.add_argument(
        "--max-iterations", type=int, default=None,
        help="iteration cap (default: number of follower scenarios)",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="re-check a result file against the nonlinear power flow"
    )
    p_verify.add_argument("--result", required=True, help="result JSON from 'solve'")
    p_verify.add_argument("--feeder", default=None, help="override the feeder path in the result")
    p_verify.add_argument("--out", default=".", help="output directory")
    p_verify.add_argument(
        "--verify-tol", type=float, default=0.01,
        help="allowed nonlinear band excess / linearization error, p.u.",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser(
        "plotdata", help="emit CSV tables (limits, setpoints, magnitudes) from a result"
    )
    p_plot.add_argument("--result", required=True, help="result JSON from 'solve'")
    p_plot.add_argument("--out", default=".", help="output directory")
    p_plot.set_defaults(func=cmd_plotdata)

    return parser


def _load_study(args) -> tuple:
    """Feeder + context from common arguments (validation errors -> exit 2)."""
    if not 0.0 < args.vmin < args.vmax < math.inf:
        raise FeederError("need 0 < vmin < vmax, all finite")
    model = load_feeder(args.feeder)
    ctx = build_context(model, v_min=args.vmin, v_max=args.vmax)
    return model, ctx


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) if isinstance(c, float) else c for c in row])


def _worst_case_doc(ctx, wc, base_kva: float) -> dict:
    nodes = []
    for k, (bus, phase) in enumerate(ctx.index.nodes):
        nodes.append({
            "node": k, "bus": bus, "phase": phase,
            "dp_plus_kw": float(wc.upper[k] * base_kva),
            "dp_minus_kw": float(wc.lower[k] * base_kva),
            "upper_family": wc.upper_family[k],
            "lower_family": wc.lower_family[k],
        })
    bu, bu_fam = wc.binding_upper
    bl, bl_fam = wc.binding_lower
    return {
        "nodes": nodes,
        "range_plus_kw": float(wc.range_upper * base_kva),
        "range_minus_kw": float(wc.range_lower * base_kva),
        "available_plus_kw": float(wc.dp_box[1] * base_kva),
        "available_minus_kw": float(wc.dp_box[0] * base_kva),
        "binding_upper": {
            "node": bu, "bus": ctx.index.nodes[bu][0],
            "phase": ctx.index.nodes[bu][1], "family": bu_fam,
        },
        "binding_lower": {
            "node": bl, "bus": ctx.index.nodes[bl][0],
            "phase": ctx.index.nodes[bl][1], "family": bl_fam,
        },
    }


def cmd_worst_case(args) -> int:
    model, ctx = _load_study(args)
    wc = worst_case_limits(ctx, args.mode, direction=args.direction)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = model.base_kva
    doc = {
        "format": WORST_CASE_FORMAT,
        "version": FORMAT_VERSION,
        "feeder": args.feeder,
        "mode": args.mode,
        "direction": args.direction,
        "v_min": args.vmin,
        "v_max": args.vmax,
        "base_kva": base,
        "worst_case": _worst_case_doc(ctx, wc, base),
    }
    (out / "worst_case.json").write_text(json.dumps(doc, indent=2) + "\n")
    _write_csv(
        out / "worst_case_limits.csv",
        list(_WORST_CASE_FIELDS),
        [[r[k] for k in _WORST_CASE_FIELDS] for r in doc["worst_case"]["nodes"]],
    )
    print(
        f"worst-case range: [{wc.range_lower * base:.1f}, {wc.range_upper * base:.1f}] kW "
        f"(available [{wc.dp_box[0] * base:.1f}, {wc.dp_box[1] * base:.1f}] kW)"
    )
    print(f"files written to {out}")
    return EXIT_OK


def _setpoint_records(ctx, mode: str, decision: UpperDecision) -> list[dict]:
    boxes = setpoint_boxes(ctx, mode)
    records = []
    for name, value in decision.setpoints.items():
        kind, node = parse_slot(name)
        bus, phase = ctx.index.nodes[node]
        lo, hi = boxes[name]
        records.append({
            "slot": name, "kind": kind, "node": node, "bus": bus, "phase": phase,
            "value": float(value), "lo": float(lo), "hi": float(hi),
        })
    return records


def _result_doc(args, model, ctx, res: FlexibilityResult) -> dict:
    base = model.base_kva
    bnb = res.single_level.bnb
    return {
        "format": RESULT_FORMAT,
        "version": FORMAT_VERSION,
        "feeder": args.feeder,
        "mode": res.mode,
        "direction": res.direction,
        "v_min": args.vmin,
        "v_max": args.vmax,
        "base_kva": base,
        "converged": res.converged,
        "stalled": res.stalled,
        "iterations": res.iterations,
        "bnb_status": bnb.status,
        # A dual_box gap is measured inside the boxed program, so it bounds
        # nothing about the band the box may have cut off.
        "bnb_gap_kw": None if bnb.status == DUAL_BOX else float(bnb.gap * base),
        "bnb_nodes": bnb.nodes,
        "bnb_nodes_by_search": dict(res.single_level.nodes_by_search),
        "bnb_cold_resolves": bnb.cold_resolves,
        "dp_plus_kw": float(res.dp_plus * base),
        "dp_minus_kw": float(res.dp_minus * base),
        "objective_history_kw": [float(v * base) for v in res.objective_history],
        "setpoints": _setpoint_records(ctx, res.mode, res.decision),
        "followers": [
            {"node": s.node, "activation": s.activation, "extremum": s.extremum}
            for s in res.followers
        ],
        "worst_case": _worst_case_doc(ctx, res.worst_case, base),
        "verification": None,
    }


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    model, ctx = _load_study(args)
    res = run_iterative(
        ctx, args.mode, direction=args.direction,
        epsilon=args.epsilon, max_iterations=args.max_iterations,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = _result_doc(args, model, ctx, res)
    (out / "result.json").write_text(json.dumps(doc, indent=2) + "\n")
    base = model.base_kva
    wc = res.worst_case
    print(f"mode={res.mode} direction={res.direction}")
    print(f"worst-case range: [{wc.range_lower * base:.1f}, {wc.range_upper * base:.1f}] kW")
    single = res.single_level
    bnb = single.bnb
    if res.converged:
        state, code = "converged", EXIT_OK
    elif res.feasibility.ok and bnb.status != OPTIMAL:
        gap = f"gap {bnb.gap * base:.1f} kW to the {single.bound_by} bound {bnb.bound * base:.1f} kW"
        if bnb.status == DUAL_BOX:
            gap += " within the dual box only"
        state = (
            f"feasible, NOT PROVEN OPTIMAL: branch-and-bound {bnb.status} "
            f"after {bnb.nodes} node(s), {gap}"
        )
        code = EXIT_UNPROVEN
    elif res.stalled:
        state = "STALLED: re-screening found only followers already active"
        code = EXIT_ITERATION_CAP
    else:
        state, code = "ITERATION CAP REACHED", EXIT_ITERATION_CAP
    print(
        f"ideal range: [{res.dp_minus * base:.1f}, {res.dp_plus * base:.1f}] kW "
        f"({res.iterations} iteration(s), {state})"
    )
    print(f"result written to {out / 'result.json'}")
    print(f"wall time: {time.perf_counter() - t0:.2f} s")
    return code


def _read_result(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FeederError(f"cannot read result file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != RESULT_FORMAT:
        raise FeederError(f"{path}: not a {RESULT_FORMAT} document")
    if doc.get("version") != FORMAT_VERSION:
        raise FeederError(f"{path}: unsupported result version {doc.get('version')!r}")
    for key in ("feeder", "mode", "v_min", "v_max", "base_kva",
                "dp_plus_kw", "dp_minus_kw", "setpoints"):
        if key not in doc:
            raise FeederError(f"{path}: result file lacks {key!r}")
    for key in ("v_min", "v_max", "base_kva", "dp_plus_kw", "dp_minus_kw"):
        _check_number(path, key, doc[key])
    if doc["base_kva"] <= 0.0:
        raise FeederError(f"{path}: 'base_kva' must be positive, got {doc['base_kva']!r}")
    if not 0.0 < doc["v_min"] < doc["v_max"]:
        raise FeederError(
            f"{path}: need 0 < v_min < v_max, got v_min={doc['v_min']!r}, v_max={doc['v_max']!r}"
        )
    direction = doc.get("direction", "both")
    if not isinstance(direction, str) or direction not in DIRECTIONS:
        raise FeederError(
            f"{path}: 'direction' must be one of {', '.join(DIRECTIONS)}, got {direction!r}"
        )
    for where, fields, numbers, _ in _RESULT_TABLES:
        for i, rec in enumerate(_records(path, doc, where)):
            for key in fields:
                if key not in rec:
                    raise FeederError(f"{path}: {where}[{i}] lacks {key!r}")
            for key in numbers:
                _check_number(path, f"{where}[{i}].{key}", rec[key])
    slots = set()
    for rec in doc["setpoints"]:
        if not isinstance(rec["slot"], str):
            raise FeederError(f"{path}: setpoint 'slot' must be a string, got {rec['slot']!r}")
        if rec["slot"] in slots:
            raise FeederError(f"{path}: setpoint {rec['slot']!r} is listed twice")
        slots.add(rec["slot"])
    return doc


def _check_number(path: str, field: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise FeederError(f"{path}: {field!r} must be a finite number, got {value!r}")


def _records(path: str, doc: dict, where: str) -> list[dict]:
    """The records of the result table at ``where``: a top-level list, or
    ``section.key``, a list in an optional section (absent or null: none)."""
    section, _, key = where.partition(".")
    if key:
        part = doc.get(section)
        part = {} if part is None else part
        if not isinstance(part, dict):
            raise FeederError(f"{path}: {section!r} must be an object, got {type(part).__name__}")
        records = part.get(key, [])
    else:
        records = doc[section]
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise FeederError(f"{path}: {where!r} must be a list of objects")
    return records


def _decision_from_doc(ctx, doc: dict) -> UpperDecision:
    base = doc["base_kva"]
    mode = doc["mode"]
    boxes = setpoint_boxes(ctx, mode)
    setpoints: dict[str, float] = {}
    for rec in doc["setpoints"]:
        name = rec["slot"]
        if name not in boxes:
            raise FeederError(f"result setpoint {name!r} does not exist for mode {mode!r}")
        lo, hi = boxes[name]
        value = float(rec["value"])
        if not (lo - 1e-9 <= value <= hi + 1e-9):
            raise FeederError(
                f"result setpoint {name} = {value:.6g} outside its box [{lo:.6g}, {hi:.6g}]"
            )
        setpoints[name] = value
    missing = [name for name in boxes if name not in setpoints]
    if missing:
        raise FeederError(f"result lacks setpoints {missing}")
    dp_plus = doc["dp_plus_kw"] / base
    dp_minus = doc["dp_minus_kw"] / base
    if not (dp_minus <= 0.0 <= dp_plus):
        raise FeederError("result band must satisfy dp_minus <= 0 <= dp_plus")
    return UpperDecision(dp_plus=dp_plus, dp_minus=dp_minus, setpoints=setpoints)


def cmd_verify(args) -> int:
    if not 0.0 <= args.verify_tol < math.inf:
        raise ValueError(f"verify_tol must be a finite non-negative number, got {args.verify_tol}")
    doc = _read_result(args.result)
    feeder_path = args.feeder or doc["feeder"]
    model = load_feeder(feeder_path)
    if doc["base_kva"] != model.base_kva:
        raise FeederError(
            f"result base_kva {doc['base_kva']!r} differs from the feeder's {model.base_kva!r}"
        )
    ctx = build_context(model, v_min=doc["v_min"], v_max=doc["v_max"])
    decision = _decision_from_doc(ctx, doc)
    direction = doc.get("direction", "both")
    report = verify_decision(ctx, doc["mode"], decision, direction=direction)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    violations = [
        {
            "node": c.scenario.node,
            "bus": ctx.index.nodes[c.scenario.node][0],
            "phase": ctx.index.nodes[c.scenario.node][1],
            "activation": c.scenario.activation,
            "extremum": c.scenario.extremum,
            "vm_nonlinear": c.nl_vm,
            "band_excess_pu": c.band_excess,
        }
        for c in report.checks if c.band_excess > args.verify_tol
    ]
    verification = {
        "max_linearization_error_pu": report.max_error,
        "max_band_excess_pu": report.max_band_excess,
        "tolerance_pu": args.verify_tol,
        "passed": report.within(args.verify_tol) and not violations,
        "violations": violations,
        "profile_scenario": (
            {
                "node": report.profile_scenario.node,
                "activation": report.profile_scenario.activation,
                "extremum": report.profile_scenario.extremum,
            }
            if report.profile_scenario is not None else None
        ),
        "nodes": [
            {
                "node": k, "bus": bus, "phase": phase,
                "vm_linear": float(report.profile_linear[k]),
                "vm_nonlinear": float(report.profile_nonlinear[k]),
            }
            for k, (bus, phase) in enumerate(ctx.index.nodes)
        ] if report.profile_linear is not None else [],
    }
    report_doc = {
        "format": REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "result": args.result,
        **verification,
    }
    (out / "oracle_report.json").write_text(json.dumps(report_doc, indent=2) + "\n")
    doc["verification"] = verification
    Path(args.result).write_text(json.dumps(doc, indent=2) + "\n")

    print(f"max |linear - nonlinear| voltage error: {report.max_error:.6f} p.u.")
    print(f"max band excess (nonlinear): {report.max_band_excess:.6f} p.u.")
    if verification["passed"]:
        print("verification PASSED")
        return EXIT_OK
    for v in violations:
        print(
            f"violation at node {v['node']} ({v['bus']}, {v['phase']}): "
            f"|v| = {v['vm_nonlinear']:.5f} p.u. "
            f"({v['activation']}/{v['extremum']}, excess {v['band_excess_pu']:.5f})",
            file=sys.stderr,
        )
    if report.max_error > args.verify_tol:
        print(
            f"linearization error {report.max_error:.5f} p.u. exceeds "
            f"tolerance {args.verify_tol}",
            file=sys.stderr,
        )
    print("verification FAILED", file=sys.stderr)
    return EXIT_VALIDATION


def cmd_plotdata(args) -> int:
    doc = _read_result(args.result)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for where, fields, numbers, name in _RESULT_TABLES:
        _write_csv(out / name, list(fields), [
            [float(r[k]) if k in numbers else r[k] for k in fields]
            for r in _records(args.result, doc, where)
        ])
    print(f"plot data written to {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FeederError, OracleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleAnchorError, PowerFlowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_ANCHOR
    except BilevelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
