"""The run's store of searches and walks.

``run_iterative`` hands one ``RunStore`` to each of its single-level
solves, so an iteration takes from it every search an earlier iteration
made with the same followers, seeds and budget, and every walk of one
activation's followers, both extrema's, at setpoints it walked before.
The results must be those of solving each iteration afresh, and the store
must live for one run only.
"""

import numpy as np
import pytest

from corpus import corpus_context

from flexgrid import bilevel, build_context
from flexgrid.bilevel import (
    JOINT,
    feasibility_check,
    run_iterative,
    solve_single_level,
    worst_case_limits,
)
from flexgrid.feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR
from flexgrid.follower import NEGATIVE, POSITIVE, Scenario, all_scenarios


def reference_run(ctx, mode, *, direction="both", node_limit=5000):
    """``run_iterative``'s steps, each iteration solved by a fresh
    ``solve_single_level`` that is given no store: the active sizes and
    the single-level result of each iteration."""
    wc = worst_case_limits(ctx, mode, direction=direction)
    (k_up, fam_up), (k_lo, fam_lo) = wc.binding_upper, wc.binding_lower
    active = [Scenario(k_up, POSITIVE, fam_up)]
    if Scenario(k_lo, NEGATIVE, fam_lo) not in active:
        active.append(Scenario(k_lo, NEGATIVE, fam_lo))
    sizes, results = [], []
    for _ in all_scenarios(ctx.n, direction=direction):
        sizes.append(len(active))
        results.append(solve_single_level(ctx, mode, list(active), node_limit=node_limit))
        report = feasibility_check(ctx, mode, results[-1].decision, direction=direction)
        new = [v.scenario for v in report.violations if v.scenario not in active]
        if not new:
            break
        active += new
    return sizes, results


def fingerprint(single_level):
    """What a single-level result must repeat bit for bit."""
    d, bnb = single_level.decision, single_level.bnb
    return (
        d.dp_plus.hex(), d.dp_minus.hex(), {k: v.hex() for k, v in d.setpoints.items()},
        single_level.nodes_by_search, bnb.status, bnb.gap.hex(), bnb.cold_resolves,
    )


def ieee13_binding(model):
    """The 13-bus feeder with v_max 0.5 mV above the anchor's highest |v|."""
    return build_context(model, v_max=float(build_context(model).anchor.vm.max()) + 0.0005)


CASES = [
    pytest.param("ieee13", MODE_CONSTANT_PF, "overvoltage", 2, 2, id="binding-13bus"),
    pytest.param((7200, 3.0), MODE_CONSTANT_PF, "both", 400, 2, id="7200-z3-constant-pf"),
    pytest.param((7210, 3.0), MODE_CONSTANT_Q, "both", 400, 2, id="7210-z3-constant-q"),
    pytest.param((7200, 2.0), MODE_CONSTANT_PF, "both", 400, 1, id="7200-z2-constant-pf"),
]


@pytest.mark.parametrize("feeder, mode, direction, node_limit, iterations", CASES)
def test_the_store_changes_no_result(ieee13_model, feeder, mode, direction, node_limit, iterations):
    def context():
        return ieee13_binding(ieee13_model) if feeder == "ieee13" else corpus_context(*feeder, mode)

    res = run_iterative(context(), mode, direction=direction, node_limit=node_limit)
    sizes, ref = reference_run(context(), mode, direction=direction, node_limit=node_limit)
    assert res.iterations == len(ref) == iterations
    assert res.active_history == sizes
    assert [h.hex() for h in res.objective_history] == [r.objective.hex() for r in ref]
    assert fingerprint(res.single_level) == fingerprint(ref[-1])


def test_the_second_iteration_searches_only_the_half_that_changed(ieee13_model, monkeypatch):
    """binding-13bus's second iteration adds 7 negative followers to the
    seeds.  In both iterations a presolve walk of the positive half reaches
    Δp+'s box end, so that walk proves the half: no search, and its node of
    the budget ``node_limit=2`` goes to the negative half.  The second
    iteration takes the positive half's walks from the store, so 11 walks
    run, not 14, and 2 searches, one per negative half; none is taken from
    the store."""
    calls = dict.fromkeys(
        ("assemble_single_level", "spatial_branch_and_bound", "_edge_limited_decision"), 0,
    )

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(bilevel, name, counted(name, getattr(bilevel, name)))
    solves = []
    solve = bilevel.solve_single_level
    monkeypatch.setattr(bilevel, "solve_single_level",
                        lambda *a, **kw: solves.append(solve(*a, **kw)) or solves[-1])

    res = run_iterative(ieee13_binding(ieee13_model), MODE_CONSTANT_PF,
                        direction="overvoltage", node_limit=2)
    assert res.active_history == [2, 9]
    assert calls == {
        "assemble_single_level": 2, "spatial_branch_and_bound": 2, "_edge_limited_decision": 11,
    }
    assert [s.reused for s in solves] == [(), ()]
    assert [s.nodes_by_search for s in solves] == [
        {POSITIVE: 0, NEGATIVE: 2, JOINT: 0}, {POSITIVE: 0, NEGATIVE: 2, JOINT: 0},
    ]


def test_the_store_never_outlives_its_run(pv_model, monkeypatch):
    """Two runs on one context, the λ box narrowed between them: each run
    gives what a run on a fresh context gives, although no search or walk
    key sees the box."""
    vm = build_context(pv_model).anchor.vm

    def context():
        return build_context(pv_model, v_min=float(np.min(vm) - 0.005),
                             v_max=float(np.max(vm) + 0.002))

    def fresh():
        return fingerprint(run_iterative(context(), MODE_VOLT_VAR).single_level)

    ctx = context()
    wide = run_iterative(ctx, MODE_VOLT_VAR)
    assert fingerprint(wide.single_level) == fresh()
    monkeypatch.setattr(bilevel, "LAMBDA_CAP", 0.025)
    boxed = run_iterative(ctx, MODE_VOLT_VAR)
    assert fingerprint(boxed.single_level) == fresh()
    assert (wide.single_level.bnb.status, boxed.single_level.bnb.status) == ("optimal", "dual_box")
    assert boxed.single_level.reused == ()
