"""The benchmark's tracer must find every call site it wraps.

``bench/tracing.py`` wraps flexgrid functions at the names the calling
modules bound at import.  A refactor that moves one of those call sites
would make a traced benchmark run report that layer's metrics as missing,
and a span count that comes back as a numpy scalar would break the traced
run's JSON output; these checks turn both into test failures instead.  The module is loaded by
file path under a private name, so these checks also run when pytest
collects ``tests`` alone and ``bench`` is not on the import path.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from flexgrid import oracle
from flexgrid.bilevel import run_iterative
from flexgrid.feeder import MODE_CONSTANT_PF, MODE_VOLT_VAR
from flexgrid.follower import MAX_V, MIN_V, POSITIVE, Scenario

from randfeeders import random_context

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    assert tracing.TARGETS
    unresolved = []
    for _, module_name, attr in tracing.TARGETS:
        try:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            unresolved.append(f"{module_name}.{attr}")
    assert not unresolved


def test_traced_oracle_run_serializes():
    """Span counts must be plain Python numbers: the traced benchmark sums
    them and writes them with ``json.dumps``, which rejects numpy scalars.
    Two scenarios of one activation share one grid: the traced points count
    both calls, and the Newton calls are the verify's one stacked call plus
    those of one grid."""
    tracing = _load_tracing()
    ctx = random_context(np.random.default_rng(7208), mode=MODE_VOLT_VAR)
    decision = run_iterative(ctx, MODE_VOLT_VAR, direction="both").decision
    scenarios = (Scenario(0, POSITIVE, MAX_V), Scenario(ctx.n - 1, POSITIVE, MIN_V))

    def traced(case):
        oracle._BRUTE_FORCE_MEMO.clear()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            out = tracer.run_case("gen7208/volt-var", case)
        finally:
            tracer.uninstall()
        json.dumps(tracer.spans)
        return out, tracing.layer_metrics(tracer)

    def two_scenarios():
        oracle.verify_decision(ctx, MODE_VOLT_VAR, decision)
        return [oracle.brute_force_worst_voltage(ctx, MODE_VOLT_VAR, decision, sc)
                for sc in scenarios]

    def one_grid():
        oracle.verify_decision(ctx, MODE_VOLT_VAR, decision)
        return oracle.brute_force_extremes(ctx, MODE_VOLT_VAR, decision, POSITIVE)

    brute, (metrics, missing) = traced(two_scenarios)
    extremes, (grid_metrics, _) = traced(one_grid)
    _, (grid_only, _) = traced(
        lambda: oracle.brute_force_extremes(ctx, MODE_VOLT_VAR, decision, POSITIVE)
    )
    assert not [m for m in missing if m.startswith(("powerflow.", "oracle."))]
    assert metrics["oracle.verify_scenarios"][0] == 4 * ctx.n
    assert [b.points for b in brute] == [extremes.points] * 2
    assert metrics["oracle.bruteforce_points"][0] == 2 * extremes.points > 0
    grid_calls = grid_only["powerflow.newton_calls"][0]
    assert grid_calls > 0
    assert (metrics["powerflow.newton_calls"][0] == grid_metrics["powerflow.newton_calls"][0]
            == 1 + grid_calls)


def test_traced_search_builds_and_solves_through_the_wrapped_names():
    """Every branch-and-bound node builds its relaxation through
    ``flexgrid.bnb.mccormick_relax`` and solves it through
    ``flexgrid.bnb.solve_lp``, the names the tracer wraps, so the traced
    benchmark's relaxation counts and times cover every node; its hook
    calls are counted too."""
    tracing = _load_tracing()
    ctx = random_context(np.random.default_rng(7200), mode=MODE_CONSTANT_PF)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_case(
            "gen7200/constant-pf",
            lambda: run_iterative(ctx, MODE_CONSTANT_PF, node_limit=4),
        )
    finally:
        tracer.uninstall()
    metrics, missing = tracing.layer_metrics(tracer)
    assert not [m for m in missing if m.startswith(("lp.", "bnb."))]
    # The tracer sees the node hook only through the search's
    # ``incumbent_hook`` keyword, so its metrics read 0 if the hook bypasses it.
    hook_metrics = [m for m in tracing.LAYER_METRICS if m.startswith("bnb.hook_")]
    assert hook_metrics and not set(hook_metrics) & set(missing)
    assert metrics["bnb.hook_calls"][0] > 0
    spans = tracer.spans

    def in_search(name):
        return sum(1 for s in spans
                   if s[1] == name and s[3] is not None and spans[s[3]][1] == "bnb.search")

    nodes = metrics["bnb.nodes"][0]
    assert nodes > 0
    assert in_search("bnb.relax_build") == nodes
    assert in_search("lp.solve") == nodes
    assert metrics["lp.solves"][0] > 0
