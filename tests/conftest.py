"""Shared fixtures: canned small feeders and the bundled 13-node network."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from flexgrid import bilevel, build_context, load_feeder
from flexgrid.follower import setpoint_boxes

DATA_13 = Path(__file__).resolve().parents[1] / "src" / "flexgrid" / "data" / "ieee13.json"

# Balanced two-bus feeder with decoupled phases (no mutual impedance): each
# phase obeys the scalar two-bus voltage equation, which has a closed form.
BALANCED_TWO_BUS = {
    "base_kva": 100.0,
    "base_kv": 2.4,
    "slack": "s",
    "buses": [{"id": "s", "phases": "abc"}, {"id": "m", "phases": "abc"}],
    "segments": [{
        "from": "s", "to": "m",
        "z": [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0],
              [0.0, 0.0], [1.0, 2.0], [0.0, 0.0],
              [0.0, 0.0], [0.0, 0.0], [1.0, 2.0]],
    }],
    "loads": [
        {"bus": "m", "phase": p, "p_kw": 18.0, "p_min": 6.0, "p_max": 40.0, "pf": 0.9}
        for p in "abc"
    ],
    "inverters": [],
}

# Five-node feeder with mutual coupling, two inverters and three loads;
# the workhorse for follower/bilevel/CLI tests.
PV_FEEDER = {
    "base_kva": 100.0,
    "base_kv": 2.4,
    "slack": "sub",
    "buses": [
        {"id": "sub", "phases": "abc"},
        {"id": "mid", "phases": "abc"},
        {"id": "end", "phases": "ab"},
    ],
    "segments": [
        {
            "from": "sub", "to": "mid",
            "z": [[0.60, 1.10], [0.18, 0.40], [0.17, 0.38],
                  [0.18, 0.40], [0.65, 1.15], [0.19, 0.42],
                  [0.17, 0.38], [0.19, 0.42], [0.62, 1.12]],
        },
        {
            "from": "mid", "to": "end",
            "z": [[0.45, 0.80], [0.13, 0.28], [0.00, 0.00],
                  [0.13, 0.28], [0.48, 0.85], [0.00, 0.00],
                  [0.00, 0.00], [0.00, 0.00], [1.00, 1.00]],
        },
    ],
    "loads": [
        {"bus": "mid", "phase": "a", "p_kw": 20.0, "p_min": 8.0, "p_max": 42.0, "pf": 0.95},
        {"bus": "end", "phase": "a", "p_kw": 12.0, "p_min": 5.0, "p_max": 25.0, "pf": 0.97},
        {"bus": "end", "phase": "b", "p_kw": 10.0, "p_min": 4.0, "p_max": 30.0, "pf": 0.93},
    ],
    "inverters": [
        {"bus": "end", "phase": "b", "p_kw": 10.0, "p_min": 0.0, "p_max": 10.0,
         "s_kva": 18.0, "mode": "constant-pf", "mode_params": {"pf": 0.9, "gamma": 0.48}},
        {"bus": "mid", "phase": "c", "p_kw": 8.0, "p_min": 0.0, "p_max": 8.0,
         "s_kva": 15.0, "mode": "constant-pf", "mode_params": {"pf": 0.9, "gamma": 0.48}},
    ],
}


@pytest.fixture()
def pin_setpoints(monkeypatch):
    """``pin_setpoints(pins)`` pins setpoint slots for the single level:
    ``bilevel`` then reads the point box [v, v] for each pinned slot.
    Raises when a pin leaves its box."""

    def pin(pins: dict[str, float]) -> None:
        def pinned_boxes(ctx, mode):
            boxes = setpoint_boxes(ctx, mode)
            for name, v in pins.items():
                lo, hi = boxes[name]
                if not lo - 1e-12 <= v <= hi + 1e-12:
                    raise ValueError(f"pinned setpoint {name}={v} outside its box [{lo}, {hi}]")
                boxes[name] = (float(v), float(v))
            return boxes

        monkeypatch.setattr(bilevel, "setpoint_boxes", pinned_boxes)

    return pin


def pv_doc():
    return copy.deepcopy(PV_FEEDER)


def balanced_doc():
    return copy.deepcopy(BALANCED_TWO_BUS)


@pytest.fixture(scope="session")
def ieee13_path():
    assert DATA_13.exists()
    return DATA_13


@pytest.fixture(scope="session")
def ieee13_model(ieee13_path):
    return load_feeder(ieee13_path)


@pytest.fixture(scope="module")
def pv_model():
    return load_feeder(pv_doc())


@pytest.fixture(scope="module")
def pv_ctx(pv_model):
    return build_context(pv_model)  # default band [0.9, 1.1], never binding


@pytest.fixture(scope="module")
def pv_tight_ctx(pv_model):
    """Same feeder with a band snug around the anchor so limits truncate."""
    probe = build_context(pv_model)
    vm = probe.anchor.vm
    return build_context(
        pv_model,
        v_min=float(np.min(vm) - 0.010),
        v_max=float(np.max(vm) + 0.004),
    )


@pytest.fixture(scope="module")
def ieee13_binding_ctx(ieee13_model):
    """The 13-bus feeder with v_max 0.5 mV above the anchor's highest |v|."""
    probe = build_context(ieee13_model)
    return build_context(ieee13_model, v_max=float(probe.anchor.vm.max()) + 0.0005)


@pytest.fixture()
def pv_file(tmp_path):
    path = tmp_path / "pv_feeder.json"
    path.write_text(json.dumps(pv_doc(), indent=2))
    return path
