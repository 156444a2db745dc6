"""The frozen generator in this directory reproduces ``tests/feedergen.py``.

Run from the repository root:  python3 -m pytest bench/test_feedergen.py

For every (seed, mode, z_scale) a benchmark workload uses, the feeder
document and the voltage band must equal what the test suite's
``random_context`` builds.  A failure means the test generator moved: the
benchmark keeps its frozen copy, but the two no longer describe the same
feeders.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import feedergen  # noqa: E402  (the frozen copy next to this file)
from flexgrid import build_context, load_feeder  # noqa: E402

MODES = ("constant-pf", "constant-q", "volt-var")
BENCH_SEEDS = (
    [(7200, "constant-pf", 1.0), (7200, "constant-pf", 2.0),
     (7201, "constant-q", 2.0), (7202, "volt-var", 2.0)]
    + [(s, MODES[(s - 7200) % 3], 1.0) for s in range(7203, 7209)]
)


@pytest.fixture(scope="module")
def test_generator():
    spec = importlib.util.spec_from_file_location(
        "suite_feedergen", ROOT / "tests" / "feedergen.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed,mode,z_scale", BENCH_SEEDS)
def test_frozen_generator_matches_the_test_suite(test_generator, seed, mode, z_scale):
    doc, margin_lo, margin_up = feedergen.random_study(seed, mode=mode, z_scale=z_scale)
    expected_doc = test_generator.random_feeder_doc(
        np.random.default_rng(seed), mode=mode, z_scale=z_scale
    )
    assert doc == expected_doc

    expected = test_generator.random_context(
        np.random.default_rng(seed), mode=mode, z_scale=z_scale
    )
    vm = build_context(load_feeder(doc)).anchor.vm
    assert feedergen.band_around(vm, margin_lo, margin_up) == (expected.v_min, expected.v_max)
