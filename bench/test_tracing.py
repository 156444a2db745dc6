"""Span bookkeeping of the traced benchmark run.

Run from the repository root:  python3 -m pytest bench/test_tracing.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import feedergen  # noqa: E402
import tracing  # noqa: E402
from flexgrid import bilevel, build_context, load_feeder  # noqa: E402


def _traced_solve(tracer):
    doc, margin_lo, margin_up = feedergen.random_study(7203, mode="constant-pf")
    model = load_feeder(doc)
    v_min, v_max = feedergen.band_around(build_context(model).anchor.vm, margin_lo, margin_up)
    ctx = build_context(model, v_min=v_min, v_max=v_max)
    tracer.install()
    try:
        return tracer.run_case("c", lambda: bilevel.run_iterative(ctx, "constant-pf"))
    finally:
        tracer.uninstall()


def test_self_times_add_up_to_the_case_wall_time():
    tracer = tracing.Tracer()
    res = _traced_solve(tracer)
    assert res.decision.dp_plus >= 0.0
    root = tracer.spans[0]
    assert root[1] == tracing.CASE_SPAN and root[3] is None
    assert all(s[2] == "c" for s in tracer.spans)
    own = tracing.self_times(tracer.spans)
    assert abs(sum(own) - (root[5] - root[4])) < 1e-9
    assert min(own) > -1e-9
    metrics, missing = tracing.layer_metrics(tracer)
    assert not missing
    assert metrics["bnb.nodes"][0] == res.single_level.bnb.nodes
    assert metrics["lp.solves"][0] > 0


def test_a_vanished_name_leaves_its_metrics_missing(monkeypatch):
    targets = [t for t in tracing.TARGETS if t[2] != "mccormick_relax"]
    targets.append(("bnb.relax_build", "flexgrid.bnb", "no_such_function"))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    tracer = tracing.Tracer()
    _traced_solve(tracer)
    assert tracer.missing == ["flexgrid.bnb.no_such_function"]
    metrics, missing = tracing.layer_metrics(tracer)
    assert missing == ["bnb.relax_build_s"]
    assert "bnb.nodes" in metrics
    import flexgrid.bnb
    assert not hasattr(flexgrid.bnb.mccormick_relax, "__wrapped__")
