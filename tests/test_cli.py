"""Command-line workflows, file formats and exit codes (all in-process)."""

import dataclasses
import json
import re
import shutil

import numpy as np
import pytest

from conftest import pv_doc
from randfeeders import random_context, random_feeder_doc

from flexgrid import bilevel, bnb, build_context, cli, load_feeder
from flexgrid.bilevel import BilevelError
from flexgrid.follower import POSITIVE, Scenario
from flexgrid.lp import LPEngineError


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_header(path):
    return path.read_text().splitlines()[0]


@pytest.fixture()
def solved(pv_file, tmp_path, capsys):
    """A completed solve run: returns (result path, out dir, feeder path)."""
    out = tmp_path / "run"
    code, stdout, _ = run(
        ["solve", "--feeder", str(pv_file), "--out", str(out)], capsys
    )
    assert code == cli.EXIT_OK, stdout
    return out / "result.json", out, pv_file


def test_worst_case_writes_table_and_json(pv_file, tmp_path, capsys):
    out = tmp_path / "wc"
    code, stdout, _ = run(
        ["worst-case", "--feeder", str(pv_file), "--out", str(out),
         "--mode", "volt-var"],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert "worst-case range: [" in stdout and "kW" in stdout

    doc = json.loads((out / "worst_case.json").read_text())
    assert doc["format"] == cli.WORST_CASE_FORMAT
    assert doc["version"] == cli.FORMAT_VERSION
    assert doc["mode"] == "volt-var"
    wc = doc["worst_case"]
    assert len(wc["nodes"]) == 5
    assert wc["available_plus_kw"] == pytest.approx(55.0)
    assert wc["available_minus_kw"] == pytest.approx(-43.0)
    assert wc["range_plus_kw"] <= wc["available_plus_kw"] + 1e-9
    assert {"node", "bus", "phase", "family"} <= set(wc["binding_upper"])

    assert read_csv_header(out / "worst_case_limits.csv") == (
        "node,bus,phase,dp_plus_kw,dp_minus_kw,upper_family,lower_family"
    )
    assert len((out / "worst_case_limits.csv").read_text().splitlines()) == 6


def test_solve_result_document(solved):
    result_path, _, pv_file = solved
    doc = json.loads(result_path.read_text())
    assert doc["format"] == cli.RESULT_FORMAT
    assert doc["version"] == cli.FORMAT_VERSION
    assert doc["feeder"] == str(pv_file)
    assert doc["converged"] is True
    assert doc["iterations"] >= 1
    assert doc["bnb_status"] == "optimal" and doc["bnb_nodes"] >= 1
    assert 0.0 <= doc["bnb_gap_kw"]
    assert doc["dp_minus_kw"] <= 0.0 <= doc["dp_plus_kw"]
    assert len(doc["objective_history_kw"]) == doc["iterations"]
    assert len(doc["active_history"]) == doc["iterations"]
    assert doc["active_history"][-1] == len(doc["followers"])
    assert set(doc["bnb_reused"]) <= {"positive", "negative", "joint"}
    assert doc["verification"] is None
    for rec in doc["setpoints"]:
        assert rec["kind"] == "gamma"
        assert rec["lo"] - 1e-9 <= rec["value"] <= rec["hi"] + 1e-9
    assert doc["followers"], "active follower set must be recorded"


def test_solve_console_summary(pv_file, tmp_path, capsys):
    code, stdout, _ = run(
        ["solve", "--feeder", str(pv_file), "--out", str(tmp_path / "s")], capsys
    )
    assert code == cli.EXIT_OK
    assert "mode=constant-pf direction=both" in stdout
    assert "worst-case range: [" in stdout
    assert "ideal range: [" in stdout and "converged" in stdout
    assert "result written to" in stdout
    assert re.search(r"^wall time: \d+\.\d\d s$", stdout, re.MULTILINE)


def test_solve_is_deterministic(pv_file, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run(
            ["solve", "--feeder", str(pv_file), "--out", str(out)],
            capsys,
        )
        assert code == cli.EXIT_OK
        outs.append((out / "result.json").read_bytes())
    assert outs[0] == outs[1]


def test_verify_defaults_to_cwd(solved, tmp_path, capsys, monkeypatch):
    result_path, _, _ = solved
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code, stdout, _ = run(["verify", "--result", str(result_path)], capsys)
    assert code == cli.EXIT_OK
    assert "max |linear - nonlinear| voltage error:" in stdout
    assert "max band excess (nonlinear):" in stdout
    assert "verification PASSED" in stdout
    assert (workdir / "oracle_report.json").exists()


def test_verify_writes_report_and_updates_result(solved, capsys):
    result_path, out, _ = solved
    code, _, _ = run(
        ["verify", "--result", str(result_path), "--out", str(out)], capsys
    )
    assert code == cli.EXIT_OK
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["format"] == cli.REPORT_FORMAT
    assert report["version"] == cli.FORMAT_VERSION
    assert report["result"] == str(result_path)
    assert report["passed"] is True
    assert report["violations"] == []
    assert len(report["nodes"]) == 5
    for rec in report["nodes"]:
        assert abs(rec["vm_linear"] - rec["vm_nonlinear"]) <= report["max_linearization_error_pu"] + 1e-12

    updated = json.loads(result_path.read_text())
    ver = updated["verification"]
    assert ver is not None and ver["passed"] is True
    assert ver["max_linearization_error_pu"] == report["max_linearization_error_pu"]


def test_verify_counts_the_profiles_left_to_newton(ieee13_path, tmp_path, capsys):
    """On ieee13 the fixed-point sweeps settle every worst-case profile: the
    report and the result file count 0 rows left to Newton."""
    argv = ["--mode", "volt-var", "--direction", "overvoltage", "--out", str(tmp_path)]
    assert run(["solve", "--feeder", str(ieee13_path), *argv], capsys)[0] == cli.EXIT_OK
    result = tmp_path / "result.json"
    code, _, _ = run(["verify", "--result", str(result), "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["newton_fallback_rows"] == 0
    assert json.loads(result.read_text())["verification"]["newton_fallback_rows"] == 0


def test_verify_fails_on_impossible_tolerance(solved, capsys):
    result_path, out, _ = solved
    code, stdout, stderr = run(
        ["verify", "--result", str(result_path), "--out", str(out),
         "--verify-tol", "1e-12"],
        capsys,
    )
    assert code == cli.EXIT_VALIDATION
    assert "verification FAILED" in stderr
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["passed"] is False


def test_verify_feeder_override(solved, tmp_path, capsys):
    result_path, out, pv_file = solved
    moved = tmp_path / "moved_feeder.json"
    shutil.copy(pv_file, moved)
    pv_file.unlink()  # the recorded path is now stale
    code, _, stderr = run(
        ["verify", "--result", str(result_path), "--out", str(out)], capsys
    )
    assert code == cli.EXIT_VALIDATION  # stale path is a validation error
    code, stdout, _ = run(
        ["verify", "--result", str(result_path), "--feeder", str(moved),
         "--out", str(out)],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert "verification PASSED" in stdout
    # a feeder on another power base would rescale the band: rejected
    rebased = json.loads(moved.read_text())
    rebased["base_kva"] *= 2.0
    moved.write_text(json.dumps(rebased))
    code, _, stderr = run(
        ["verify", "--result", str(result_path), "--feeder", str(moved),
         "--out", str(out)],
        capsys,
    )
    assert code == cli.EXIT_VALIDATION
    assert "base_kva" in stderr
    assert str(result_path) in stderr


def test_plotdata_tables(solved, capsys):
    result_path, out, _ = solved
    # before verification: magnitudes table exists but only carries the header
    code, stdout, _ = run(
        ["plotdata", "--result", str(result_path), "--out", str(out)], capsys
    )
    assert code == cli.EXIT_OK
    assert "plot data written to" in stdout
    assert read_csv_header(out / "limits_per_node.csv") == (
        "node,bus,phase,dp_plus_kw,dp_minus_kw,upper_family,lower_family"
    )
    assert read_csv_header(out / "setpoints.csv") == (
        "slot,kind,node,bus,phase,value,lo,hi"
    )
    assert read_csv_header(out / "magnitudes.csv") == (
        "node,bus,phase,vm_linear,vm_nonlinear"
    )
    assert len((out / "magnitudes.csv").read_text().splitlines()) == 1

    run(["verify", "--result", str(result_path), "--out", str(out)], capsys)
    code, _, _ = run(
        ["plotdata", "--result", str(result_path), "--out", str(out)], capsys
    )
    assert code == cli.EXIT_OK
    lines = (out / "magnitudes.csv").read_text().splitlines()
    assert len(lines) == 6  # header + one row per node


def test_validation_exit_codes(pv_file, tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, stderr = run(["worst-case", "--feeder", str(bad)], capsys)
    assert code == cli.EXIT_VALIDATION and "error:" in stderr

    code, _, _ = run(["worst-case", "--feeder", str(tmp_path / "missing.json")], capsys)
    assert code == cli.EXIT_VALIDATION

    code, _, stderr = run(
        ["solve", "--feeder", str(pv_file), "--vmin", "1.1", "--vmax", "0.9"],
        capsys,
    )
    assert code == cli.EXIT_VALIDATION and "vmin" in stderr

    doc = pv_doc()
    del doc["loads"][0]["pf"]
    bad.write_text(json.dumps(doc))
    code, _, stderr = run(["worst-case", "--feeder", str(bad)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert "error: load 0: missing required key 'pf'" in stderr

    doc = pv_doc()
    doc["loads"][0]["p_kw"] = 10**400  # written out in full: no float holds it
    bad.write_text(json.dumps(doc))
    out = tmp_path / "huge"
    code, _, stderr = run(["solve", "--feeder", str(bad), "--out", str(out)], capsys)
    assert code == cli.EXIT_VALIDATION and not out.exists()
    assert stderr.startswith("error: load 0 p_kw: non-finite number 1000")
    assert "Traceback" not in stderr


def test_infeasible_anchor_exit_code(pv_file, tmp_path, capsys):
    code, _, stderr = run(
        ["solve", "--feeder", str(pv_file), "--out", str(tmp_path),
         "--vmin", "0.95", "--vmax", "0.97"],
        capsys,
    )
    assert code == cli.EXIT_INFEASIBLE_ANCHOR
    assert "anchor voltage" in stderr


def test_iteration_cap_exit_code(pv_file, tmp_path, capsys, monkeypatch):
    real = cli.run_iterative

    def capped(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(cli, "run_iterative", capped)
    code, stdout, _ = run(
        ["solve", "--feeder", str(pv_file), "--out", str(tmp_path / "cap")], capsys
    )
    assert code == cli.EXIT_ITERATION_CAP
    assert "ITERATION CAP REACHED" in stdout
    # the result file still lands, flagged as unconverged
    doc = json.loads((tmp_path / "cap" / "result.json").read_text())
    assert doc["converged"] is False


def test_stalled_loop_exit_code(pv_file, tmp_path, capsys, monkeypatch):
    """A re-screening that keeps reporting an active follower stops the loop
    below its cap; the console says it stalled, with the cap's exit code."""

    def stuck(ctx, mode, decision, *, direction="both"):
        k, family = bilevel.worst_case_limits(ctx, mode, direction=direction).binding_upper
        seeded = Scenario(node=k, activation=POSITIVE, extremum=family)
        return bilevel.FeasibilityReport(
            violations=[bilevel.Violation(scenario=seeded, worst_vm=2.0, amount=1.0)],
            worst_vm={},
        )

    monkeypatch.setattr(bilevel, "feasibility_check", stuck)
    code, stdout, _ = run(
        ["solve", "--feeder", str(pv_file), "--out", str(tmp_path / "stalled")], capsys
    )
    assert code == cli.EXIT_ITERATION_CAP
    line = next(ln for ln in stdout.splitlines() if ln.startswith("ideal range"))
    assert "(1 iteration(s), STALLED" in line and "ITERATION CAP" not in line
    doc = json.loads((tmp_path / "stalled" / "result.json").read_text())
    assert doc["converged"] is False
    assert doc["stalled"] is True


def test_unproven_band_exit_code(pv_file, tmp_path, capsys, monkeypatch):
    real = cli.run_iterative

    def stopped(*args, **kwargs):
        res = real(*args, **kwargs)
        bnb = dataclasses.replace(res.single_level.bnb, status="node_limit", gap=0.05, nodes=7)
        single = dataclasses.replace(res.single_level, bnb=bnb)
        return dataclasses.replace(res, converged=False, single_level=single)

    monkeypatch.setattr(cli, "run_iterative", stopped)
    code, stdout, _ = run(
        ["solve", "--feeder", str(pv_file), "--out", str(tmp_path / "unproven")], capsys
    )
    assert code == cli.EXIT_UNPROVEN
    assert "NOT PROVEN OPTIMAL" in stdout and "node_limit" in stdout
    assert "gap 5.0 kW" in stdout and "ITERATION CAP" not in stdout
    doc = json.loads((tmp_path / "unproven" / "result.json").read_text())
    assert doc["converged"] is False
    assert doc["bnb_status"] == "node_limit"
    assert doc["bnb_gap_kw"] == pytest.approx(5.0)
    assert doc["bnb_nodes"] == 7


def test_result_counts_the_nodes_of_each_search(tmp_path, capsys, monkeypatch):
    """On a feeder whose single level splits by activation, result.json gives
    each search's relaxations, and they sum to ``bnb_nodes``: none for the
    positive half, which a presolve walk at Δp+'s box end proves, and 3 for
    the negative half.  Stopped at a node limit before the joint search can
    run, the negative half gets the one node the positive half did not
    draw, and the console names the bound that holds: the split's."""
    feeder = tmp_path / "gen7200.json"
    feeder.write_text(json.dumps(random_feeder_doc(np.random.default_rng(7200))))
    ctx = random_context(np.random.default_rng(7200))
    argv = ["solve", "--feeder", str(feeder), "--vmin", repr(ctx.v_min), "--vmax", repr(ctx.v_max)]
    code, _, _ = run([*argv, "--out", str(tmp_path / "split")], capsys)
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "split" / "result.json").read_text())
    assert doc["bnb_nodes_by_search"] == {"positive": 0, "negative": 3, "joint": 0}
    assert doc["bnb_nodes"] == 3
    assert isinstance(doc["bnb_cold_resolves"], int) and doc["bnb_cold_resolves"] >= 0
    # Constant-pf searches are never tightened.
    assert doc["bnb_tightening_lps"] == doc["bnb_boxes_shrunk"] == 0

    real = cli.run_iterative
    monkeypatch.setattr(cli, "run_iterative", lambda *a, **kw: real(*a, **kw, node_limit=1))
    code, stdout, _ = run([*argv, "--out", str(tmp_path / "capped")], capsys)
    assert code == cli.EXIT_UNPROVEN
    doc = json.loads((tmp_path / "capped" / "result.json").read_text())
    assert doc["bnb_nodes_by_search"] == {"positive": 0, "negative": 1, "joint": 0}
    assert doc["bnb_nodes"] == 1 and doc["bnb_status"] == "node_limit"
    line = next(ln for ln in stdout.splitlines() if ln.startswith("ideal range"))
    found = re.search(r"gap (\S+) kW to the split bound (\S+) kW", line)
    assert found, line
    width_kw = doc["dp_plus_kw"] - doc["dp_minus_kw"]
    assert float(found[1]) == pytest.approx(doc["bnb_gap_kw"], abs=0.051)
    assert float(found[2]) == pytest.approx(width_kw + doc["bnb_gap_kw"], abs=0.051)


def test_result_counts_the_root_tightening_of_each_search(tmp_path, capsys):
    """Volt-var on gen7202 at z 2: result.json gives each search's root
    tightening LPs and shrunk boxes, which sum to the totals the console
    line prints; the negative half, the one search, solves 1 node."""
    rng = lambda: np.random.default_rng(7202)
    feeder = tmp_path / "gen7202.json"
    feeder.write_text(json.dumps(random_feeder_doc(rng(), mode="volt-var", z_scale=2.0)))
    ctx = random_context(rng(), mode="volt-var", z_scale=2.0)
    code, stdout, _ = run(
        ["solve", "--feeder", str(feeder), "--mode", "volt-var", "--vmin", repr(ctx.v_min),
         "--vmax", repr(ctx.v_max), "--out", str(tmp_path / "vv")], capsys,
    )
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "vv" / "result.json").read_text())
    assert doc["bnb_nodes_by_search"] == {"positive": 0, "negative": 1, "joint": 0}
    by_search = doc["bnb_tightening_by_search"]
    assert list(by_search) == ["positive", "negative", "joint"]
    assert by_search["positive"] == by_search["joint"] == {"lps": 0, "boxes_shrunk": 0}
    assert by_search["negative"]["lps"] == doc["bnb_tightening_lps"] > 0
    assert by_search["negative"]["boxes_shrunk"] == doc["bnb_boxes_shrunk"] > 0
    line = next(ln for ln in stdout.splitlines() if ln.startswith("ideal range"))
    found = re.search(r"root tightening: (\d+) LP\(s\), (\d+) box\(es\) shrunk\)$", line)
    assert found, line
    assert (int(found[1]), int(found[2])) == (doc["bnb_tightening_lps"], doc["bnb_boxes_shrunk"])


def test_a_capability_that_cannot_hold_the_constant_pf_anchor_is_a_feeder_error(tmp_path, capsys):
    """With each inverter's s_kva at its p_max, the capability octagon
    cannot hold the anchor's q_gen = gamma * p_kw at the ends of the pf's
    gamma box: constant-pf stops with exit 2, naming the inverter's bus and
    phase, when the band-edge walk finds the follower infeasible; constant-q
    and volt-var still solve."""
    doc = pv_doc()
    for inv in doc["inverters"]:
        inv["s_kva"] = inv["p_max"]
    feeder = tmp_path / "tight_s.json"
    feeder.write_text(json.dumps(doc))
    argv = ["solve", "--feeder", str(feeder), "--out", str(tmp_path / "out")]
    code, _, stderr = run([*argv, "--mode", "constant-pf"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert "inverter at bus 'mid' phase 'c'" in stderr and "s_kva" in stderr
    code, _, stderr = run(["worst-case", *argv[1:], "--mode", "constant-pf"], capsys)
    assert code == cli.EXIT_VALIDATION and "bus 'mid' phase 'c'" in stderr
    for mode in ("constant-q", "volt-var"):
        code, stdout, _ = run([*argv, "--mode", mode], capsys)
        assert code == cli.EXIT_OK and "converged" in stdout, mode


def _droop_tight_feeder():
    """One inverter at p_kw = p_max with s_kva just above it, and a load that
    can shed, so the positive activation has room to walk."""
    return {
        "base_kva": 100.0, "base_kv": 2.4, "slack": "s",
        "buses": [{"id": "s", "phases": "abc"}, {"id": "m", "phases": "a"}],
        "segments": [{"from": "s", "to": "m", "z": [
            [0.9, 1.7], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.9, 1.7], [0.0, 0.0],
            [0.0, 0.0], [0.0, 0.0], [0.9, 1.7]]}],
        "loads": [{"bus": "m", "phase": "a", "p_kw": 10.0, "p_min": 5.0, "p_max": 15.0,
                   "pf": 0.95}],
        "inverters": [{"bus": "m", "phase": "a", "p_kw": 16.0, "p_min": 0.0, "p_max": 16.0,
                       "s_kva": 16.5, "mode": "volt-var",
                       "mode_params": {"pf": 0.92, "gamma": 0.4}}],
    }


@pytest.mark.parametrize("edge", ["v_max", "v_min"])
def test_a_capability_that_cannot_hold_the_volt_var_droop_is_a_feeder_error(
    edge, tmp_path, capsys
):
    """With the anchor |v| 1 mV inside one band edge, the droop asks the
    inverter for q_gen near -/+s_kva at qbar = s_kva, which its capability
    cannot give at p_kw = p_max: the band-edge walk finds the follower
    infeasible, and volt-var stops with exit 2, naming the inverter's bus
    and phase rather than blaming an assembly bug (exit 6); the other modes
    solve."""
    doc = _droop_tight_feeder()
    vm = float(build_context(load_feeder(doc)).anchor.vm[0])
    v_min, v_max = (vm - 0.05, vm + 0.001) if edge == "v_max" else (vm - 0.001, vm + 0.05)
    feeder = tmp_path / "droop_tight.json"
    feeder.write_text(json.dumps(doc))
    argv = ["--feeder", str(feeder), "--vmin", repr(v_min), "--vmax", repr(v_max),
            "--out", str(tmp_path / "out")]
    for command in ("solve", "worst-case"):
        code, _, stderr = run([command, *argv, "--mode", "volt-var"], capsys)
        assert code == cli.EXIT_VALIDATION, command
        assert "inverter at bus 'm' phase 'a'" in stderr and "volt-var droop" in stderr
        assert "assembly bug" not in stderr
    for mode in ("constant-pf", "constant-q"):
        code, stdout, _ = run(["solve", *argv, "--mode", mode], capsys)
        assert code == cli.EXIT_OK and "converged" in stdout, mode


def test_a_droop_the_capability_cannot_hold_at_zero_deviation_alone_still_solves(
    tmp_path, capsys
):
    """The same inverter with no load and the anchor |v| 1 mV below v_max:
    its droop at qbar = s_kva does not fit at zero deviation, but no walk
    asks for that point (the positive band edge is 0, and a negative one
    can curtail p_gen), so volt-var solves with the band [-16, 0] kW."""
    doc = {**_droop_tight_feeder(), "loads": []}
    vm = float(build_context(load_feeder(doc)).anchor.vm[0])
    feeder = tmp_path / "droop_no_load.json"
    feeder.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, stdout, _ = run(
        ["solve", "--feeder", str(feeder), "--mode", "volt-var", "--vmin", repr(vm - 0.05),
         "--vmax", repr(vm + 0.001), "--out", str(out)], capsys,
    )
    assert code == cli.EXIT_OK and "converged" in stdout
    assert "worst-case range: [-16.0, 0.0] kW" in stdout
    result = json.loads((out / "result.json").read_text())
    assert (result["dp_minus_kw"], result["dp_plus_kw"]) == (pytest.approx(-16.0), 0.0)


def test_solver_failure_exit_code(pv_file, tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise BilevelError("single-level solve failed (no incumbent found)")

    monkeypatch.setattr(cli, "run_iterative", failing)
    code, _, stderr = run(
        ["solve", "--feeder", str(pv_file), "--out", str(tmp_path / "failed")], capsys
    )
    assert code == cli.EXIT_SOLVER
    assert "single-level solve failed" in stderr


def test_binding_dual_box_exit_codes(pv_file, tmp_path, capsys, monkeypatch):
    """A real volt-var solve whose λ box binds exits 5 and reports no gap
    outside the box; one whose box admits no incumbent exits 6.  The band
    keeps every walk below the availability ceiling."""
    vm = build_context(load_feeder(pv_doc())).anchor.vm
    band = ["--vmin", repr(float(np.min(vm) - 0.005)), "--vmax", repr(float(np.max(vm) + 0.002))]
    argv = ["solve", "--feeder", str(pv_file), "--mode", "volt-var", *band]

    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.025)
    code, stdout, _ = run([*argv, "--out", str(tmp_path / "boxed")], capsys)
    assert code == cli.EXIT_UNPROVEN
    line = next(ln for ln in stdout.splitlines() if ln.startswith("ideal range"))
    assert "NOT PROVEN OPTIMAL" in line and "dual_box" in line
    # The B&B gap is measured inside the box, not against the band it may cut off.
    assert "within the dual box only" in line
    doc = json.loads((tmp_path / "boxed" / "result.json").read_text())
    assert doc["bnb_status"] == "dual_box"
    assert doc["converged"] is False
    assert doc["bnb_gap_kw"] is None

    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.01)
    code, _, stderr = run([*argv, "--out", str(tmp_path / "cut")], capsys)
    assert code == cli.EXIT_SOLVER
    assert "no incumbent" in stderr


def test_corrupted_result_files_are_rejected(solved, tmp_path, capsys):
    result_path, out, _ = solved
    good = json.loads(result_path.read_text())

    def expect_validation(mutate, needle, command="verify"):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        p = tmp_path / "tampered.json"
        p.write_text(json.dumps(doc))
        code, _, stderr = run(
            [command, "--result", str(p), "--out", str(out)], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert needle in stderr
        assert str(p) in stderr

    expect_validation(
        lambda d: d.update(format="something-else"),
        "not a flexgrid-result",
        command="plotdata",  # both consumers validate the document
    )
    expect_validation(lambda d: d.update(version=99), "unsupported result version")
    expect_validation(lambda d: d.update(version=True), "unsupported result version True")
    expect_validation(lambda d: d.update(version=1.0), "unsupported result version 1.0")
    expect_validation(lambda d: d.pop("dp_plus_kw"), "missing required key 'dp_plus_kw'")
    expect_validation(
        lambda d: d["setpoints"][0].update(value=99.0), "outside its box"
    )
    expect_validation(lambda d: d.update(dp_minus_kw=5.0), "dp_minus <= 0")
    expect_validation(lambda d: d.update(setpoints=[]), "lacks setpoints")
    expect_validation(
        lambda d: d["setpoints"][0].update(slot="gamma[99]"), "does not exist"
    )


@pytest.fixture(scope="module")
def solved_doc(tmp_path_factory):
    """The result document of one solve run, shared by the mutation cases."""
    root = tmp_path_factory.mktemp("solved")
    feeder = root / "pv_feeder.json"
    feeder.write_text(json.dumps(pv_doc(), indent=2))
    assert cli.main(["solve", "--feeder", str(feeder), "--out", str(root)]) == cli.EXIT_OK
    return json.loads((root / "result.json").read_text())


def _drop_slot(doc):
    del doc["setpoints"][0]["slot"]


def _drop_bus(doc):
    del doc["worst_case"]["nodes"][0]["bus"]


def _repeat_slot(doc):
    """A second record of the first slot, at its box end."""
    doc["setpoints"].append({**doc["setpoints"][0], "value": doc["setpoints"][0]["hi"]})


@pytest.mark.parametrize("command", ["verify", "plotdata"])
@pytest.mark.parametrize("mutate, needle", [
    (lambda d: d.update(base_kva=0), "'base_kva' must be positive"),
    (lambda d: d.update(base_kva="x"), "base_kva: not a number: 'x'"),
    (lambda d: d.update(dp_plus_kw=None), "dp_plus_kw: not a number: None"),
    (_drop_slot, "setpoints 0: missing required key 'slot'"),
    (lambda d: d.update(setpoints={r["slot"]: r for r in d["setpoints"]}),
     "'setpoints' must be a list of objects"),
    (_drop_bus, "worst_case.nodes 0: missing required key 'bus'"),
    (lambda d: d.update(worst_case=d["worst_case"]["nodes"]), "'worst_case' must be an object"),
    (lambda d: d.update(worst_case=[]), "'worst_case' must be an object"),
    (lambda d: d.update(direction=["x"]), "'direction' must be one of"),
    (lambda d: d.update(v_min=-1.0), "need 0 < v_min < v_max"),
    (_repeat_slot, "listed twice"),
    (lambda d: d.update(feeder=pv_doc()), "'feeder' must be a path, got dict"),
], ids=["zero-base", "text-base", "null-band", "no-slot", "setpoint-dict", "no-bus",
        "worst-case-list", "worst-case-empty-list", "direction-list", "negative-vmin",
        "repeated-slot", "inline-feeder"])
def test_malformed_result_fields_are_validation_errors(
    solved_doc, tmp_path, capsys, command, mutate, needle
):
    doc = json.loads(json.dumps(solved_doc))
    mutate(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    code, _, stderr = run([command, "--result", str(path), "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert needle in stderr
    assert str(path) in stderr


@pytest.fixture(scope="module")
def verified_doc(solved_doc, tmp_path_factory):
    """``solved_doc`` after a ``verify``, so it holds ``verification.nodes``."""
    path = tmp_path_factory.mktemp("verified") / "result.json"
    path.write_text(json.dumps(solved_doc))
    cli.main(["verify", "--result", str(path), "--out", str(path.parent)])
    doc = json.loads(path.read_text())
    assert doc["verification"]["nodes"]
    return doc


HUGE = 10**399  # a 400-digit integer literal: valid JSON, beyond the float range


@pytest.mark.parametrize("command", ["verify", "plotdata"])
@pytest.mark.parametrize("field", [
    ("v_min",), ("v_max",), ("base_kva",), ("dp_plus_kw",), ("dp_minus_kw",),
    ("setpoints", 0, "value"), ("setpoints", 0, "lo"), ("setpoints", 0, "hi"),
    ("worst_case", "nodes", 0, "dp_plus_kw"), ("worst_case", "nodes", 0, "dp_minus_kw"),
    ("verification", "nodes", 0, "vm_linear"),
], ids=lambda field: ".".join(map(str, field)))
def test_a_number_beyond_the_float_range_is_a_validation_error(
    verified_doc, tmp_path, capsys, command, field
):
    """Every number ``verify`` and ``plotdata`` read goes through the feeder's
    number check, which maps an integer too large for a float to exit 2 with
    the file and the field named, not to a traceback."""
    doc = json.loads(json.dumps(verified_doc))
    *parents, key = field
    record = doc
    for part in parents:
        record = record[part]
    record[key] = HUGE
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, _, stderr = run([command, "--result", str(path), "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_VALIDATION
    where = key if len(field) == 1 else f"{'.'.join(parents[:-1])} 0 {key}"
    assert stderr.startswith(f"error: {path}: {where}: non-finite number 1000")
    assert "Traceback" not in stderr


@pytest.fixture(scope="module")
def load_only_result(ieee13_path, tmp_path_factory):
    """The result file of a solve on ieee13 with its inverters removed."""
    root = tmp_path_factory.mktemp("load_only")
    feeder = root / "feeder.json"
    feeder.write_text(json.dumps({**json.loads(ieee13_path.read_text()), "inverters": []}))
    assert cli.main(["solve", "--feeder", str(feeder), "--out", str(root)]) == cli.EXIT_OK
    return json.loads((root / "result.json").read_text())


@pytest.mark.parametrize("command", ["verify", "plotdata"])
@pytest.mark.parametrize("mode", [[], {"a": 1}, "manual"], ids=["list", "object", "text"])
def test_a_mode_outside_the_inverter_modes_is_a_validation_error(
    load_only_result, tmp_path, capsys, command, mode
):
    """A result's mode is checked against the inverter modes as its direction
    is against the directions, also where no setpoint box would look at it:
    a feeder without inverters has no setpoints."""
    assert load_only_result["setpoints"] == []
    path = tmp_path / "mode.json"
    path.write_text(json.dumps({**load_only_result, "mode": mode}))
    code, _, stderr = run([command, "--result", str(path), "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert stderr.startswith(f"error: {path}: 'mode' must be one of constant-pf,")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("command", ["solve", "verify", "plotdata"])
@pytest.mark.parametrize("content", [
    b"[" * 100_000 + b"]" * 100_000, b'{"format": "\xff"}', b"[" + b"9" * 5000 + b"]",
], ids=["too-deep", "not-utf8", "too-many-digits"])
def test_a_file_the_json_reader_refuses_is_a_validation_error(
    tmp_path, capsys, command, content
):
    """Feeder and result files share one reader: JSON nested past the
    recursion limit, text that is not UTF-8 and an integer past Python's
    digit limit each exit 2 with the file named."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    option = "--feeder" if command == "solve" else "--result"
    code, _, stderr = run([command, option, str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == cli.EXIT_VALIDATION
    assert stderr.startswith(f"error: {path}: not valid JSON (")


def test_an_lp_engine_failure_is_a_solver_error(ieee13_path, tmp_path, capsys, monkeypatch):
    """An LP backend failure inside the branch-and-bound exits 6, the code
    of a failed solver, with the engine's message."""
    def fail(*args, **kwargs):
        raise LPEngineError("LP backend failure: stub status")

    monkeypatch.setattr(bnb, "solve_lp", fail)
    out = tmp_path / "out"
    code, _, stderr = run(["solve", "--feeder", str(ieee13_path), "--out", str(out)], capsys)
    assert code == cli.EXIT_SOLVER
    assert stderr == "error: LP backend failure: stub status\n"


@pytest.mark.parametrize("command", ["solve", "worst-case", "verify"])
def test_a_slack_only_feeder_is_a_validation_error(solved_doc, tmp_path, capsys, command):
    """A feeder of the slack bus alone has no device that could offer
    flexibility: each command that studies it exits 2 and writes nothing,
    ``verify`` also for a band of zero width that needs no setpoint."""
    feeder = tmp_path / "slack_only.json"
    feeder.write_text(json.dumps({
        "base_kva": solved_doc["base_kva"], "base_kv": 2.4, "slack": "s",
        "buses": [{"id": "s", "phases": "abc"}],
        "segments": [], "loads": [], "inverters": [],
    }))
    out = tmp_path / "out"
    argv = [command, "--feeder", str(feeder), "--out", str(out)]
    if command == "verify":
        result = tmp_path / "result.json"
        result.write_text(json.dumps(
            {**solved_doc, "dp_plus_kw": 0.0, "dp_minus_kw": 0.0, "setpoints": []}, indent=2,
        ))
        before = result.read_bytes()
        argv += ["--result", str(result)]
    code, _, stderr = run(argv, capsys)
    assert code == cli.EXIT_VALIDATION
    assert "feeder has no non-slack nodes" in stderr
    assert not out.exists()
    if command == "verify":
        assert result.read_bytes() == before


def test_parse_slot():
    assert cli.parse_slot("gamma[3]") == ("gamma", 3)
    assert cli.parse_slot("qbar[0]") == ("qbar", 0)
    assert cli.parse_slot("qset[12]") == ("qset", 12)
    for bad in ("gamma", "gamma[]", "gamma[-1]", "delta[2]", "gamma[2]x"):
        with pytest.raises(ValueError, match="not a setpoint slot"):
            cli.parse_slot(bad)


def test_version_and_bad_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "flexgrid 0.1.0" in capsys.readouterr().out

    with pytest.raises(SystemExit):
        cli.main(["solve"])  # --feeder is required
    with pytest.raises(SystemExit):
        cli.main(["solve", "--feeder", "x.json", "--mode", "manual"])


@pytest.mark.parametrize("flag, value", [
    ("--max-iterations", "0"), ("--max-iterations", "-3"), ("--epsilon", "-1e-4"),
    ("--epsilon", "inf"), ("--epsilon", "nan"), ("--vmax", "inf"), ("--vmax", "nan"),
    ("--verify-tol", "nan"), ("--verify-tol", "inf"), ("--verify-tol", "-0.01"),
])
def test_bad_solve_limits_exit_code(pv_file, solved_doc, tmp_path, capsys, flag, value):
    """A bad limit of ``solve`` or ``verify`` exits 2 before any file is
    read or written: ``verify`` leaves the result file as it was."""
    result = tmp_path / "result.json"
    if flag == "--verify-tol":
        result.write_text(json.dumps(solved_doc, indent=2) + "\n")
        argv = ["verify", "--result", str(result)]
    else:
        argv = ["solve", "--feeder", str(pv_file)]
    before = result.read_bytes() if result.exists() else None
    out = tmp_path / "out"
    code, _, stderr = run(argv + ["--out", str(out), f"{flag}={value}"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert flag.lstrip("-").replace("-", "_") in stderr
    assert not out.exists()
    assert (result.read_bytes() if result.exists() else None) == before
