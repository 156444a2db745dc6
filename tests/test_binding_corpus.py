"""The constant-pf cases of the binding corpus, solved end to end.

``run_iterative`` at ``node_limit=400`` must prove every band, give the
width the single level proved when every product dual sat in the
±``LAMBDA_CAP`` box, and take fewer branch-and-bound nodes than that
solve did.
"""

import pytest

from corpus import BINDING_FEEDERS, corpus_context

from flexgrid import bilevel
from flexgrid.bilevel import run_iterative
from flexgrid.feeder import MODE_CONSTANT_PF

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


def test_the_constant_pf_corpus_proves_every_band_in_fewer_nodes(monkeypatch):
    """All 14 bands proven, each as wide as the capped solve proved it
    (within ``epsilon``), in fewer nodes summed over every single-level
    solve of every run (226 where the capped solve took 1,214)."""
    assert sorted(CAPPED_WIDTHS) == sorted(BINDING_FEEDERS)
    nodes = 0
    solve = bilevel.solve_single_level

    def counted(*args, **kwargs):
        nonlocal nodes
        res = solve(*args, **kwargs)
        nodes += res.bnb.nodes
        return res

    monkeypatch.setattr(bilevel, "solve_single_level", counted)
    for seed, z_scale in BINDING_FEEDERS:
        ctx = corpus_context(seed, z_scale, MODE_CONSTANT_PF)
        res = run_iterative(ctx, MODE_CONSTANT_PF, epsilon=EPSILON, node_limit=400)
        case = (seed, z_scale)
        assert res.converged and res.single_level.bnb.status == "optimal", case
        want = CAPPED_WIDTHS[case]
        assert res.dp_plus - res.dp_minus == pytest.approx(want, abs=EPSILON * (1.0 + want)), case
    assert nodes < CAPPED_NODES
