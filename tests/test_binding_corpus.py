"""The binding corpus, solved end to end.

``run_iterative`` at ``node_limit=400``, on the constant-pf cases, must
prove every band, give the width the single level proved when every
product dual sat in the ±``LAMBDA_CAP`` box, and take fewer
branch-and-bound nodes than that solve did.  On all 42 cases it must give
no band narrower than the search gave before its nodes' boxes were cut by
the objective cutoff, prove more of them and take fewer nodes.  On six
constant-q and volt-var cases the root bound tightening must keep the band
of the search it leaves untightened, in no more nodes.
"""

import pytest

from corpus import BINDING_CORPUS, BINDING_FEEDERS, case_id, corpus_context

from flexgrid import bilevel, bnb
from flexgrid.bilevel import run_iterative
from flexgrid.feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR

EPSILON = 1e-4

# The widths (p.u.) and node total of the corpus with the agg duals boxed
# at ±LAMBDA_CAP rather than by their proven bound.
CAPPED_WIDTHS = {
    (7200, 2.0): 0.42537714567510787,
    (7200, 3.0): 0.3868876096984598,
    (7201, 2.0): 0.6568003018498736,
    (7201, 3.0): 0.5967355898454306,
    (7202, 2.0): 0.4565320023488753,
    (7202, 3.0): 0.396618777939572,
    (7208, 2.0): 0.46449720295548447,
    (7208, 3.0): 0.4022821184161127,
    (7210, 2.0): 0.3390170891963864,
    (7210, 3.0): 0.2758572980810071,
    (7219, 2.0): 0.2577505126697767,
    (7219, 3.0): 0.2187118788259253,
    (7233, 3.0): 0.30125502944355687,
    (7235, 3.0): 0.40583231716157864,
}
CAPPED_NODES = 1214


# The widths (p.u.), proven cases and node total of the corpus before the
# objective cutoff, when the search kept each node's box as branching left it.
UNCUT_WIDTHS = {
    (7200, 2.0, MODE_CONSTANT_PF): 0.42537714567510787,
    (7200, 3.0, MODE_CONSTANT_PF): 0.3868876096984598,
    (7201, 2.0, MODE_CONSTANT_PF): 0.6568003018498736,
    (7201, 3.0, MODE_CONSTANT_PF): 0.5967355898454306,
    (7202, 2.0, MODE_CONSTANT_PF): 0.4565320023488753,
    (7202, 3.0, MODE_CONSTANT_PF): 0.396618777939572,
    (7208, 2.0, MODE_CONSTANT_PF): 0.46449720295548447,
    (7208, 3.0, MODE_CONSTANT_PF): 0.4022821184161127,
    (7210, 2.0, MODE_CONSTANT_PF): 0.3390170891963864,
    (7210, 3.0, MODE_CONSTANT_PF): 0.2758572980810071,
    (7219, 2.0, MODE_CONSTANT_PF): 0.2577505126697767,
    (7219, 3.0, MODE_CONSTANT_PF): 0.2187118788259253,
    (7233, 3.0, MODE_CONSTANT_PF): 0.30125502944355687,
    (7235, 3.0, MODE_CONSTANT_PF): 0.40583231716157664,
    (7200, 2.0, MODE_CONSTANT_Q): 0.4253511904826879,
    (7200, 3.0, MODE_CONSTANT_Q): 0.3869536589164445,
    (7201, 2.0, MODE_CONSTANT_Q): 0.6724835237440048,
    (7201, 3.0, MODE_CONSTANT_Q): 0.6123698773303907,
    (7202, 2.0, MODE_CONSTANT_Q): 0.45191091311921666,
    (7202, 3.0, MODE_CONSTANT_Q): 0.3920604650690003,
    (7208, 2.0, MODE_CONSTANT_Q): 0.46449720295548447,
    (7208, 3.0, MODE_CONSTANT_Q): 0.4022821184161127,
    (7210, 2.0, MODE_CONSTANT_Q): 0.42583,
    (7210, 3.0, MODE_CONSTANT_Q): 0.2713276314498782,
    (7219, 2.0, MODE_CONSTANT_Q): 0.25778196430207345,
    (7219, 3.0, MODE_CONSTANT_Q): 0.2187118788259253,
    (7233, 3.0, MODE_CONSTANT_Q): 0.30113841390426316,
    (7235, 3.0, MODE_CONSTANT_Q): 0.40824471751137503,
    (7200, 2.0, MODE_VOLT_VAR): 0.42511647591032264,
    (7200, 3.0, MODE_VOLT_VAR): 0.3868876096984598,
    (7201, 2.0, MODE_VOLT_VAR): 0.6511248918023207,
    (7201, 3.0, MODE_VOLT_VAR): 0.5819222621843552,
    (7202, 2.0, MODE_VOLT_VAR): 0.4503861073396489,
    (7202, 3.0, MODE_VOLT_VAR): 0.392122540148068,
    (7208, 2.0, MODE_VOLT_VAR): 0.46449720295548447,
    (7208, 3.0, MODE_VOLT_VAR): 0.4022821184161127,
    (7210, 2.0, MODE_VOLT_VAR): 0.37192324553430023,
    (7210, 3.0, MODE_VOLT_VAR): 0.27382060376989004,
    (7219, 2.0, MODE_VOLT_VAR): 0.2577505126697767,
    (7219, 3.0, MODE_VOLT_VAR): 0.2187118788259253,
    (7233, 3.0, MODE_VOLT_VAR): 0.29928671081991964,
    (7235, 3.0, MODE_VOLT_VAR): 0.45815,
}
UNCUT_PROVEN = 39
UNCUT_NODES = 3907


def _count_nodes(monkeypatch) -> list[int]:
    """Patch the single level to add each solve's nodes to the one-entry
    list returned."""
    nodes = [0]
    solve = bilevel.solve_single_level

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        nodes[0] += res.bnb.nodes
        return res

    monkeypatch.setattr(bilevel, "solve_single_level", counted)
    return nodes


def test_the_constant_pf_corpus_proves_every_band_in_fewer_nodes(monkeypatch):
    """All 14 bands proven, each as wide as the capped solve proved it
    (within ``epsilon``), in fewer nodes summed over every single-level
    solve of every run (118 where the capped solve took 1,214)."""
    assert sorted(CAPPED_WIDTHS) == sorted(BINDING_FEEDERS)
    nodes = _count_nodes(monkeypatch)
    for seed, z_scale in BINDING_FEEDERS:
        ctx = corpus_context(seed, z_scale, MODE_CONSTANT_PF)
        res = run_iterative(ctx, MODE_CONSTANT_PF, epsilon=EPSILON, node_limit=400)
        case = (seed, z_scale)
        assert res.converged and res.single_level.bnb.status == "optimal", case
        want = CAPPED_WIDTHS[case]
        assert res.dp_plus - res.dp_minus == pytest.approx(want, abs=EPSILON * (1.0 + want)), case
    assert nodes[0] < CAPPED_NODES


def test_the_cutoff_loses_no_band_and_proves_more_of_the_corpus_in_fewer_nodes(monkeypatch):
    """All 42 cases at ``node_limit=400``: no band narrower than the uncut
    search's by more than ``epsilon``, at least 40 proven (39 before) and
    fewer nodes over every single-level solve (2,985 where the uncut
    search took 3,907).  7208-z2 and 7210-z2 volt-var are proven now;
    7210-z3 constant-q, proven before in 329 nodes, now reaches the cap."""
    assert sorted(UNCUT_WIDTHS) == sorted(BINDING_CORPUS)
    nodes = _count_nodes(monkeypatch)
    proven = []
    for case in BINDING_CORPUS:
        res = run_iterative(corpus_context(*case), case[2], epsilon=EPSILON, node_limit=400)
        want = UNCUT_WIDTHS[case]
        assert res.dp_plus - res.dp_minus >= want - EPSILON * (1.0 + want), case_id(*case)
        if res.single_level.bnb.status == "optimal":
            proven.append(case_id(*case))
    assert len(proven) >= UNCUT_PROVEN + 1
    assert nodes[0] < UNCUT_NODES


# Constant-q and volt-var cases whose searches shrink their root box, with
# 7210-z3 constant-q and 7208-z3 volt-var, which reach the node cap without it.
TIGHTENED_CASES = [
    (7210, 3.0, MODE_CONSTANT_Q), (7208, 2.0, MODE_CONSTANT_Q), (7235, 3.0, MODE_CONSTANT_Q),
    (7208, 3.0, MODE_VOLT_VAR), (7200, 2.0, MODE_VOLT_VAR), (7210, 2.0, MODE_VOLT_VAR),
]


@pytest.mark.parametrize("case", TIGHTENED_CASES, ids=lambda case: case_id(*case))
def test_root_tightening_keeps_the_band_of_the_untightened_search(case, monkeypatch):
    """The search whose root box the tightening leaves as it is stays the
    reference: at ``node_limit=400`` the tightened run gives its band within
    ``epsilon`` and takes no more nodes over every single-level solve."""
    nodes = _count_nodes(monkeypatch)
    tightened = run_iterative(corpus_context(*case), case[2], epsilon=EPSILON, node_limit=400)
    tightened_nodes, nodes[0] = nodes[0], 0
    assert tightened.single_level.bnb.tightening_lps > 0
    monkeypatch.setattr(bnb, "tighten_box", lambda tpl, kept, obj, lb, ub, floor: (lb, ub, 0))
    plain = run_iterative(corpus_context(*case), case[2], epsilon=EPSILON, node_limit=400)
    assert plain.single_level.bnb.boxes_shrunk == 0
    want = plain.dp_plus - plain.dp_minus
    width = tightened.dp_plus - tightened.dp_minus
    assert width == pytest.approx(want, abs=EPSILON * (1.0 + want))
    assert tightened_nodes <= nodes[0]
