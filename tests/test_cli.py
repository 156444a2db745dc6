"""Command-line workflows, file formats and exit codes (all in-process)."""

import dataclasses
import json
import re
import shutil

import numpy as np
import pytest

from conftest import pv_doc

from flexgrid import bilevel, build_context, cli, load_feeder
from flexgrid.bilevel import BilevelError


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
    """A real solve whose λ box binds exits 5; one whose box admits no
    incumbent exits 6."""
    vm = build_context(load_feeder(pv_doc())).anchor.vm
    band = ["--vmin", repr(float(np.min(vm) - 0.010)), "--vmax", repr(float(np.max(vm) + 0.004))]
    argv = ["solve", "--feeder", str(pv_file), "--mode", "constant-q", *band]

    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.01)
    code, stdout, _ = run([*argv, "--out", str(tmp_path / "boxed")], capsys)
    assert code == cli.EXIT_UNPROVEN
    line = next(ln for ln in stdout.splitlines() if ln.startswith("ideal range"))
    assert "NOT PROVEN OPTIMAL" in line and "dual_box" in line
    doc = json.loads((tmp_path / "boxed" / "result.json").read_text())
    assert doc["bnb_status"] == "dual_box"
    assert doc["converged"] is False

    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.005)
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

    expect_validation(
        lambda d: d.update(format="something-else"),
        "not a flexgrid-result",
        command="plotdata",  # both consumers validate the document
    )
    expect_validation(lambda d: d.update(version=99), "unsupported result version")
    expect_validation(lambda d: d.pop("dp_plus_kw"), "lacks 'dp_plus_kw'")
    expect_validation(
        lambda d: d["setpoints"][0].update(value=99.0), "outside its box"
    )
    expect_validation(lambda d: d.update(dp_minus_kw=5.0), "dp_minus <= 0")
    expect_validation(lambda d: d.update(setpoints=[]), "lacks setpoints")
    expect_validation(
        lambda d: d["setpoints"][0].update(slot="gamma[99]"), "does not exist"
    )


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


@pytest.mark.parametrize(
    "flag, value", [("--max-iterations", "0"), ("--max-iterations", "-3"), ("--epsilon", "-1e-4")]
)
def test_bad_solve_limits_exit_code(pv_file, tmp_path, capsys, flag, value):
    code, _, stderr = run(
        ["solve", "--feeder", str(pv_file), "--out", str(tmp_path), f"{flag}={value}"],
        capsys,
    )
    assert code == cli.EXIT_VALIDATION
    assert flag.lstrip("-").replace("-", "_") in stderr
    assert not (tmp_path / "result.json").exists()
