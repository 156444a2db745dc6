"""Feeder parsing, validation, indexing and admittance assembly."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from flexgrid.feeder import (
    FeederError,
    assemble_ybus,
    dump_feeder,
    index_nodes,
    load_feeder,
    save_feeder,
    segment_phases,
)
from flexgrid.follower import build_devices
from flexgrid.powerflow import SLACK_PHASOR, solve_nonlinear_pf

from conftest import balanced_doc, pv_doc


def two_bus_partial_doc():
    # slack abc -> bus with phases a and c only; full 3x3 template, the b
    # row/column must be ignored in assembly.
    return {
        "base_kva": 100.0,
        "base_kv": 2.4,
        "slack": "s",
        "buses": [{"id": "s", "phases": "abc"}, {"id": "m", "phases": "ac"}],
        "segments": [{
            "from": "s", "to": "m",
            "z": [[0.8, 1.5], [0.2, 0.5], [0.25, 0.45],
                  [0.2, 0.5], [0.7, 1.4], [0.15, 0.40],
                  [0.25, 0.45], [0.15, 0.40], [0.9, 1.6]],
        }],
        "loads": [],
        "inverters": [],
    }


def test_ybus_matches_hand_assembly():
    model = load_feeder(two_bus_partial_doc())
    index = index_nodes(model)
    Y = assemble_ybus(model, index)
    assert Y.shape == (5, 5)

    # shared phases are a and c; build the 2x2 admittance by explicit adjugate
    zbase = 1e3 * 2.4**2 / 100.0
    z00 = (0.8 + 1.5j) / zbase
    z02 = (0.25 + 0.45j) / zbase
    z22 = (0.9 + 1.6j) / zbase
    det = z00 * z22 - z02 * z02
    ysub = np.array([[z22, -z02], [-z02, z00]]) / det

    # full order: (s,a),(s,b),(s,c),(m,a),(m,c)
    expected = np.zeros((5, 5), dtype=complex)
    for bi, i in enumerate((0, 2)):
        for bj, j in enumerate((0, 2)):
            expected[i, j] += ysub[bi, bj]
            expected[3 + bi, 3 + bj] += ysub[bi, bj]
            expected[i, 3 + bj] -= ysub[bi, bj]
            expected[3 + bi, j] -= ysub[bi, bj]
    assert np.allclose(Y, expected, atol=1e-12)
    # phase b of the slack is isolated: zero row and column
    assert np.all(Y[1] == 0) and np.all(Y[:, 1] == 0)


def test_ybus_symmetric_with_zero_row_sums():
    model = load_feeder(pv_doc())
    Y = assemble_ybus(model)
    assert np.allclose(Y, Y.T, atol=1e-12)
    # shunt-free feeder: every row sums to zero (per-phase units cancel)
    assert np.max(np.abs(Y.sum(axis=1))) < 1e-9


def test_parallel_segments_accumulate():
    doc = two_bus_partial_doc()
    doc_double = copy.deepcopy(doc)
    doc_double["segments"].append(copy.deepcopy(doc["segments"][0]))
    Y1 = assemble_ybus(load_feeder(doc))
    Y2 = assemble_ybus(load_feeder(doc_double))
    assert np.allclose(Y2, 2.0 * Y1, atol=1e-12)


def test_regulator_no_load_voltage_equals_tap():
    """An ideal tap changer must deliver tap * V_slack at no load."""
    doc = balanced_doc()
    doc["loads"] = []
    taps = (1.05, 1.04, 1.06)
    doc["regulators"] = [{"segment": 0, "taps": list(taps)}]
    model = load_feeder(doc)
    op = solve_nonlinear_pf(model)
    expected = np.array(taps) * SLACK_PHASOR
    assert np.max(np.abs(op.v - expected)) < 1e-8
    assert np.allclose(op.vm, taps, atol=1e-8)
    # the regulated matrix stays symmetric
    Y = assemble_ybus(model)
    assert np.allclose(Y, Y.T, atol=1e-12)


def test_round_trip_dump_load(tmp_path):
    model = load_feeder(pv_doc())
    again = load_feeder(dump_feeder(model))
    assert again == model

    path = tmp_path / "feeder.json"
    save_feeder(model, path)
    from_file = load_feeder(path)
    assert from_file == model
    assert from_file.source == str(path)
    assert model.source is None


def test_feeder_equality_ignores_only_the_source(ieee13_model):
    """``==`` compares every field but the file path: the ieee13 model equals
    its dumped and reloaded copy, and a changed load or segment impedance
    makes it differ."""
    assert ieee13_model.source is not None
    assert load_feeder(dump_feeder(ieee13_model)) == ieee13_model
    load = ieee13_model.loads[0]
    loads = [dataclasses.replace(load, p_kw=load.p_kw + 1.0), *ieee13_model.loads[1:]]
    assert dataclasses.replace(ieee13_model, loads=loads) != ieee13_model
    seg = ieee13_model.segments[0]
    segments = [dataclasses.replace(seg, z_ohm=seg.z_ohm * 1.01), *ieee13_model.segments[1:]]
    assert dataclasses.replace(ieee13_model, segments=segments) != ieee13_model


def test_index_is_document_ordered():
    model = load_feeder(pv_doc())
    index = index_nodes(model)
    assert index.nodes == (
        ("mid", "a"), ("mid", "b"), ("mid", "c"), ("end", "a"), ("end", "b")
    )
    assert index.slack_nodes == (("sub", "a"), ("sub", "b"), ("sub", "c"))
    assert index.n == 5
    assert index.full[:3] == index.slack_nodes
    assert index.of("end", "b") == 4
    with pytest.raises(KeyError):
        index.of("sub", "a")  # slack phases are not solver nodes
    with pytest.raises(KeyError):
        index.of("end", "c")


def test_segment_phase_intersection():
    model = load_feeder(two_bus_partial_doc())
    assert segment_phases(model, 0) == ("a", "c")


def test_colocated_devices_aggregate():
    doc = pv_doc()
    doc["loads"].append(
        {"bus": "mid", "phase": "a", "p_kw": 5.0, "p_min": 1.0, "p_max": 9.0, "pf": 0.95}
    )
    doc["inverters"].append(
        {"bus": "mid", "phase": "c", "p_kw": 4.0, "p_min": 0.0, "p_max": 4.0,
         "s_kva": 6.0, "mode": "constant-pf", "mode_params": {"pf": 0.9, "gamma": 0.48}}
    )
    model = load_feeder(doc)
    dev = build_devices(model)
    index = index_nodes(model)
    k = index.of("mid", "a")
    assert dev.p_load0[k] * 100.0 == pytest.approx(25.0)
    assert dev.p_load_min[k] * 100.0 == pytest.approx(9.0)
    assert dev.p_load_max[k] * 100.0 == pytest.approx(51.0)
    k = index.of("mid", "c")
    assert dev.p_gen0[k] * 100.0 == pytest.approx(12.0)
    assert dev.s_cap[k] * 100.0 == pytest.approx(21.0)


def test_colocated_pf_mismatch_rejected():
    doc = pv_doc()
    doc["loads"].append(
        {"bus": "mid", "phase": "a", "p_kw": 5.0, "p_min": 1.0, "p_max": 9.0, "pf": 0.90}
    )
    with pytest.raises(FeederError, match="power factor"):
        load_feeder(doc)
    doc = pv_doc()
    doc["inverters"].append(
        {"bus": "mid", "phase": "c", "p_kw": 4.0, "p_min": 0.0, "p_max": 4.0,
         "s_kva": 6.0, "mode": "constant-pf", "mode_params": {"pf": 0.9, "gamma": 0.3}}
    )
    with pytest.raises(FeederError, match="mode parameters"):
        load_feeder(doc)


def test_load_lower_bound_clamped_at_zero_draw():
    doc = pv_doc()
    doc["loads"][0]["p_min"] = -50.0
    model = load_feeder(doc)
    assert model.loads[0].p_min_kw == 0.0


def _expect_error(doc, match):
    with pytest.raises(FeederError, match=match):
        load_feeder(doc)


def test_validation_errors():
    _expect_error({"base_kva": 1.0}, "missing required key")

    doc = pv_doc()
    doc["base_kva"] = -5.0
    _expect_error(doc, "positive")

    doc = pv_doc()
    doc["base_kv"] = float("nan")
    _expect_error(doc, "non-finite")

    doc = pv_doc()
    doc["loads"][0]["p_kw"] = 10**400  # an integer no float can hold
    _expect_error(doc, "load 0 p_kw: non-finite number")

    doc = pv_doc()
    doc["buses"].append({"id": "mid", "phases": "a"})
    _expect_error(doc, "duplicate bus id")

    doc = pv_doc()
    doc["buses"][1]["phases"] = "ax"
    _expect_error(doc, "bad phase label")

    doc = pv_doc()
    doc["buses"][2]["phases"] = ""
    _expect_error(doc, "empty phase set")

    doc = pv_doc()
    doc["slack"] = "nowhere"
    _expect_error(doc, "not in bus list")

    doc = pv_doc()
    doc["buses"][0]["phases"] = "ab"
    _expect_error(doc, "all three phases")

    doc = pv_doc()
    doc["segments"][0]["from"] = "ghost"
    _expect_error(doc, "unknown bus")

    doc = pv_doc()
    doc["segments"][0]["to"] = "sub"
    _expect_error(doc, "self-loop")

    doc = pv_doc()
    doc["segments"][0]["z"] = [[1.0, 1.0]] * 4
    _expect_error(doc, "9")

    doc = pv_doc()
    doc["segments"][0]["z"] = [[0.0, 0.0]] * 9
    _expect_error(doc, "singular impedance")

    doc = pv_doc()
    del doc["segments"][1]
    _expect_error(doc, "not connected")

    doc = pv_doc()
    doc["loads"][0]["pf"] = 0.0
    _expect_error(doc, r"power factor must be in \(0, 1\]")

    doc = pv_doc()
    doc["loads"][0]["p_max"] = 1.0
    _expect_error(doc, "p_min <= p_kw <= p_max")

    doc = pv_doc()
    doc["loads"][0]["bus"] = "sub"
    _expect_error(doc, "slack")

    doc = pv_doc()
    doc["inverters"][0]["phase"] = "c"  # bus end has no phase c
    _expect_error(doc, "not present")

    doc = pv_doc()
    doc["inverters"][0]["mode"] = "droopy"
    _expect_error(doc, "unknown mode")

    doc = pv_doc()
    doc["inverters"][0]["s_kva"] = 0.0
    _expect_error(doc, "s_kva must be positive")

    doc = pv_doc()
    doc["inverters"][0]["p_kw"] = 50.0
    doc["inverters"][0]["p_max"] = 50.0
    _expect_error(doc, "0 <= p_kw <= s_kva")

    doc = pv_doc()
    doc["regulators"] = [{"segment": 7, "taps": [1.0, 1.0, 1.0]}]
    _expect_error(doc, "out of range")

    doc = pv_doc()
    doc["regulators"] = [
        {"segment": 0, "taps": [1.0, 1.0, 1.0]},
        {"segment": 0, "taps": [1.1, 1.1, 1.1]},
    ]
    _expect_error(doc, "already has a regulator")

    doc = pv_doc()
    doc["regulators"] = [{"segment": 0, "taps": [1.0, -1.0, 1.0]}]
    _expect_error(doc, "taps must be positive")

    # Malformed records name their section, index and key.
    doc = pv_doc()
    del doc["loads"][0]["pf"]
    _expect_error(doc, "load 0: missing required key 'pf'")

    doc = pv_doc()
    doc["buses"][1] = "mid"
    _expect_error(doc, "bus 1: must be an object")

    doc = pv_doc()
    doc["inverters"][0]["mode_params"] = 3
    _expect_error(doc, "inverter 0 mode_params: not an object")

    doc = pv_doc()
    doc["loads"] = None
    _expect_error(doc, "'loads' must be a list of objects")

    doc = pv_doc()
    doc["inverters"][0]["s_kva"] = None
    _expect_error(doc, "inverter 0 s_kva: not a number")

    doc = pv_doc()
    doc["regulators"] = [{"segment": "0", "taps": [1.0, 1.0, 1.0]}]
    _expect_error(doc, "regulator 0 segment: not an integer")


def test_not_json_and_bad_source(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(FeederError, match="not valid JSON"):
        load_feeder(path)
    path.write_text("[]")
    with pytest.raises(FeederError, match="must be a JSON object"):
        load_feeder(path)
    with pytest.raises(FeederError, match="unsupported feeder source"):
        load_feeder(42)


def test_z_base():
    model = load_feeder(pv_doc())
    assert model.z_base_ohm == pytest.approx(1e3 * 2.4**2 / 100.0)
    assert model.bus("mid").phases == ("a", "b", "c")
    with pytest.raises(KeyError):
        model.bus("ghost")
