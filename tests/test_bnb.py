"""McCormick envelopes and the spatial branch-and-bound loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexgrid.bilevel import assemble_single_level, solve_single_level
from flexgrid.bnb import (
    BilinearProgram,
    RelaxationTemplate,
    mccormick_relax,
    mccormick_rows,
    spatial_branch_and_bound,
)
from flexgrid.feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR
from flexgrid.follower import MAX_V, MIN_V, NEGATIVE, POSITIVE, Scenario
from flexgrid import lp as lp_module
from flexgrid.lp import (
    GE,
    INFEASIBLE,
    LE,
    MAX,
    MIN,
    OPTIMAL,
    KeptModel,
    LinearProgram,
    RangedLP,
    solve_lp,
)

from randfeeders import random_context
from lpgen import (
    grid_oracle,
    random_bilinear,
    reference_max_row_violation,
    reference_relaxation,
)

unit = st.floats(0.0, 1.0, allow_nan=False)
bound = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(l1=bound, w1=st.floats(0.0, 4.0), l2=bound, w2=st.floats(0.0, 4.0), t1=unit, t2=unit)
def test_mccormick_rows_contain_the_true_product(l1, w1, l2, w2, t1, t2):
    u1, u2 = l1 + w1, l2 + w2
    x = l1 + t1 * w1
    y = l2 + t2 * w2
    w = x * y
    slop = 1e-9 * (1 + abs(w))
    for a_x, a_y, rel, rhs in mccormick_rows(l1, u1, l2, u2):
        lhs = w + a_x * x + a_y * y
        if rel == LE:
            assert lhs <= rhs + slop
        else:
            assert lhs >= rhs - slop


def _product_bp():
    # max t  s.t.  t - x*y <= 0,  x + y <= 3,  x in [0,2], y in [0,3], t in [0,6]
    base = LinearProgram(sense=MAX)
    x = base.add_var("x", lb=0.0, ub=2.0)
    y = base.add_var("y", lb=0.0, ub=3.0)
    t = base.add_var("t", lb=0.0, ub=6.0, obj=1.0)
    r = base.add_row({t: 1.0}, LE, 0.0)
    base.add_row({x: 1.0, y: 1.0}, LE, 3.0)
    bp = BilinearProgram(base)
    bp.add_term(r, -1.0, x, y)
    return bp


OPTIMUM = np.array([1.5, 1.5, 2.25])


def test_product_maximum_on_a_budget_line():
    # the product is maximized at the balanced split x = y = 1.5
    res = spatial_branch_and_bound(_product_bp(), epsilon=1e-6)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.25, abs=1e-4)
    assert res.x[0] == pytest.approx(1.5, abs=2e-2)
    assert res.x[1] == pytest.approx(1.5, abs=2e-2)
    assert res.gap <= 1e-6 * (1 + 2.25)
    assert res.nodes > 1  # the root relaxation is not exact


def test_nonconvex_feasible_set_row_product():
    # min x + y  s.t.  x*y >= 1, boxes [0.1, 4]; AM-GM puts the optimum at (1, 1)
    base = LinearProgram(sense=MIN)
    x = base.add_var("x", lb=0.1, ub=4.0, obj=1.0)
    y = base.add_var("y", lb=0.1, ub=4.0, obj=1.0)
    r = base.add_row({}, GE, 1.0)
    bp = BilinearProgram(base)
    bp.add_term(r, 1.0, x, y)
    res = spatial_branch_and_bound(bp, epsilon=1e-6)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0, abs=1e-3)
    assert res.x[0] * res.x[1] >= 1.0 - 1e-6


def test_degenerate_box_is_exact_in_one_node():
    # pinning x to 2 collapses the envelope to w = 2*y: no branching needed
    bp = _product_bp()
    tpl = RelaxationTemplate(bp)
    cert = solve_lp(mccormick_relax(tpl, np.array([2.0, 0.0, 0.0]), np.array([2.0, 3.0, 6.0])))
    # relaxation optimum: max t <= 2*y with x + y <= 3, x = 2  ->  y = 1, w = t = 2
    assert cert.objective == pytest.approx(2.0, abs=1e-9)
    w = cert.x[bp.base.n_vars]  # the only product's auxiliary column
    assert w == pytest.approx(cert.x[0] * cert.x[1], abs=1e-9)


def test_relaxation_bounds_the_true_optimum():
    rng = np.random.default_rng(7)
    for _ in range(6):
        bp = random_bilinear(rng)
        root = solve_lp(mccormick_relax(RelaxationTemplate(bp)))
        res = spatial_branch_and_bound(bp, epsilon=1e-6)
        assert root.is_optimal and res.status == "optimal"
        sigma = 1.0 if bp.base.sense == MAX else -1.0
        assert sigma * root.objective >= sigma * res.objective - 1e-9
        assert RelaxationTemplate(bp).max_row_violation(res.x) <= 1e-6


def test_matches_dense_grid_search():
    rng = np.random.default_rng(2024)
    branched = 0
    for _ in range(6):
        bp = random_bilinear(rng)
        res = spatial_branch_and_bound(bp, epsilon=5e-5)
        ref = grid_oracle(bp)
        assert res.status == "optimal" and ref is not None
        assert abs(res.objective - ref) <= 1e-4 * (1 + abs(ref))
        branched += res.nodes > 1
    assert branched >= 2  # the root relaxation is not always exact


def test_infinite_product_box_is_rejected():
    base = LinearProgram(sense=MAX)
    x = base.add_var("x", lb=0.0)  # no upper bound
    y = base.add_var("y", lb=0.0, ub=1.0, obj=1.0)
    r = base.add_row({y: 1.0}, LE, 1.0)
    bp = BilinearProgram(base)
    bp.add_term(r, -1.0, x, y)
    with pytest.raises(ValueError, match="finite boxes"):
        mccormick_relax(RelaxationTemplate(bp))


def test_initial_points_are_screened_and_used():
    bp = _product_bp()
    good = OPTIMUM
    bad = np.array([2.0, 3.0, 6.0])  # violates x + y <= 3
    res = spatial_branch_and_bound(
        bp, epsilon=1e-6, initial_points=[bad, good]
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.25, abs=1e-6)
    # the infeasible seed must not become the incumbent
    assert RelaxationTemplate(bp).max_row_violation(res.x) <= 1e-6

    # with the optimum handed over and a zero node budget, the answer survives
    res0 = spatial_branch_and_bound(
        bp, epsilon=1e-6, node_limit=0, initial_points=[good]
    )
    assert res0.status == "node_limit"
    assert res0.objective == pytest.approx(2.25, abs=1e-9)
    assert res0.nodes == 0


def test_a_caller_bound_replaces_the_root_bound():
    """``bound`` stands for the root's bound: an initial point within
    epsilon of it closes the search before any node, and a search that
    branches never reports a bound above it, in either sense."""
    res = spatial_branch_and_bound(
        _product_bp(), epsilon=1e-6, initial_points=[OPTIMUM], bound=2.25 + 1e-7
    )
    assert res.status == "optimal" and res.nodes == 0
    assert res.bound == 2.25 + 1e-7 and res.objective == pytest.approx(2.25, abs=1e-12)

    # Stopped after its root, the search keeps the tighter of the caller's
    # bound and the root relaxation's.
    seed = [np.array([1.0, 1.0, 1.0])]
    free = spatial_branch_and_bound(_product_bp(), node_limit=1, initial_points=seed)
    assert free.nodes == 1 and free.bound > 2.5
    capped = spatial_branch_and_bound(_product_bp(), node_limit=1, initial_points=seed, bound=2.5)
    assert capped.nodes == 1 and capped.status == "node_limit"
    assert capped.bound == 2.5 and capped.gap == pytest.approx(2.5 - capped.objective)

    rng = np.random.default_rng(7)
    for _ in range(6):
        bp = random_bilinear(rng)
        ref = spatial_branch_and_bound(bp, epsilon=1e-6)
        sigma = 1.0 if bp.base.sense == MAX else -1.0
        slack = sigma * 1e-3 * (1.0 + abs(ref.objective))
        res = spatial_branch_and_bound(bp, epsilon=1e-6, bound=ref.objective + slack)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.objective, abs=1e-6 * (1 + abs(ref.objective)))
        assert sigma * res.bound <= sigma * (ref.objective + slack)
        assert res.nodes <= ref.nodes


def test_node_limit_without_incumbent():
    res = spatial_branch_and_bound(_product_bp(), node_limit=0)
    assert res.status == "node_limit"
    assert res.x is None and res.objective is None
    assert res.nodes == 0


def test_incumbent_hook_candidates_are_adopted():
    calls = []

    def hook(x_rel):
        calls.append(np.array(x_rel))
        return OPTIMUM

    res = spatial_branch_and_bound(_product_bp(), epsilon=1e-6, incumbent_hook=hook)
    assert res.status == "optimal"
    assert calls, "hook was never consulted"
    assert res.objective == pytest.approx(2.25, abs=1e-6)


def test_structure_helpers():
    base = LinearProgram(sense=MAX)
    x = base.add_var("x", lb=0.0, ub=1.0, obj=2.0)
    y = base.add_var("y", lb=0.0, ub=1.0)
    z = base.add_var("z", lb=-1.0, ub=1.0)
    r = base.add_row({x: 1.0, z: -1.0}, LE, 0.5)
    s = base.add_row({y: 1.0}, GE, -1.0)
    bp = BilinearProgram(base)
    bp.add_term(r, 2.0, y, x)
    bp.add_term(s, 0.5, x, y)
    bp.add_term(s, -1.0, z, y)
    with pytest.raises(ValueError, match="with itself"):
        bp.add_term(r, 1.0, z, z)

    assert bp.products() == [(0, 1), (1, 2)]

    tpl = RelaxationTemplate(bp)
    pt = np.array([0.5, 0.8, -0.5])
    # row r: x - z + 2*y*x = 0.5 + 0.5 + 0.8 = 1.8 vs rhs 0.5 -> violation 1.3;
    # row s: y + 0.5*x*y - z*y = 0.8 + 0.2 + 0.4 = 1.4 >= -1 holds
    assert tpl.max_row_violation(pt) == pytest.approx(1.3)
    # bound violations are included
    assert tpl.max_row_violation(np.array([-0.2, 0.0, 0.0])) == pytest.approx(0.2)


def _sub_boxes(rng, tpl, anchor, count):
    """Random boxes over the product variables: the root, sub-boxes holding
    ``anchor`` (a feasible point) with some degenerate [c, c] coordinates,
    and boxes drawn anywhere in the root box, which may be infeasible."""
    pv = np.union1d(tpl.prod_i, tpl.prod_j)
    yield tpl.lb, tpl.ub
    for n in range(count):
        lb, ub = tpl.lb.copy(), tpl.ub.copy()
        lo, hi = lb[pv], ub[pv]
        if n % 3 == 2:
            a, b = np.sort(rng.uniform(lo, hi, (2, pv.size)), axis=0)
        else:
            x = anchor[pv]
            a = x - rng.uniform(0.0, 1.0, pv.size) * (x - lo)
            b = x + rng.uniform(0.0, 1.0, pv.size) * (hi - x)
        pin = rng.random(pv.size) < 0.25
        a[pin] = b[pin] = (anchor[pv] if n % 3 != 2 else a)[pin]
        lb[pv], ub[pv] = a, b
        yield lb, ub


def _single_level_programs(pv_tight_ctx):
    gen = random_context(np.random.default_rng(7200), mode=MODE_CONSTANT_PF)
    cases = [(gen, MODE_CONSTANT_PF)] + [
        (pv_tight_ctx, mode) for mode in (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)
    ]
    for ctx, mode in cases:
        followers = [Scenario(ctx.n - 1, POSITIVE, MAX_V), Scenario(0, NEGATIVE, MIN_V)]
        bp, _ = assemble_single_level(ctx, mode, followers)
        x = solve_single_level(ctx, mode, followers, node_limit=3, split=False).bnb.x
        yield bp, x


# (program, box) pairs of the test below where ``linprog``'s point is not
# HiGHS's within 1e-12: pv_tight volt-var, box 2, one of 80 coordinates
# 1.1e-12 apart at the same active bounds and objective.
LINPROG_OFF_POINT = {(11, 2)}


def test_template_matches_the_row_by_row_reference(pv_tight_ctx):
    """Each node relaxation from the template is the LP the row-by-row
    builder materializes: the same entries in the same order, the same row
    and column bounds, and a bit-identical primal point from the solve.
    The builder's LP solved through ``linprog`` agrees in status, objective
    and point with HiGHS given the same rows in ``linprog``'s order (the
    other rows, then the = rows): on a degenerate relaxation the row order
    can move the optimal vertex, the folding of >= rows must not.  On the
    boxes in ``LINPROG_OFF_POINT`` the two points differ by rounding, so
    there ``linprog``'s point only has to meet the rows and bounds."""
    rng = np.random.default_rng(11)
    programs = []
    for _ in range(8):
        bp = random_bilinear(rng)
        programs.append((bp, spatial_branch_and_bound(bp, epsilon=1e-6).x))
    programs += list(_single_level_programs(pv_tight_ctx))
    solved = 0
    for k, (bp, anchor) in enumerate(programs):
        tpl = RelaxationTemplate(bp)
        for b, (lb, ub) in enumerate(_sub_boxes(rng, tpl, anchor, 6)):
            got = mccormick_relax(tpl, lb, ub)
            ref_lp = reference_relaxation(bp, lb, ub)
            ref = ref_lp.materialize()
            assert got.sense == ref.sense
            for name in ("c", "row_lb", "row_ub", "lb", "ub"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.A, name), getattr(ref.A, name)), name
            mine, want, dual = solve_lp(got), solve_lp(ref), solve_lp(ref_lp)
            assert mine.status == want.status == dual.status
            if want.status == OPTIMAL:
                solved += 1
                assert np.array_equal(mine.x, want.x)
                assert mine.objective == want.objective
                assert dual.objective == pytest.approx(want.objective, rel=1e-12, abs=1e-12)
                eq = ref.row_lb == ref.row_ub
                order = np.r_[np.flatnonzero(~eq), np.flatnonzero(eq)]
                ordered = solve_lp(RangedLP(
                    sense=ref.sense, c=ref.c, A=ref.A.tocsr()[order].tocsc(),
                    row_lb=ref.row_lb[order], row_ub=ref.row_ub[order], lb=ref.lb, ub=ref.ub,
                ))
                assert ordered.status == OPTIMAL
                if (k, b) in LINPROG_OFF_POINT:
                    lhs = ref.A @ dual.x
                    assert np.all(lhs >= ref.row_lb - 1e-12) and np.all(lhs <= ref.row_ub + 1e-12)
                    assert np.all(dual.x >= ref.lb - 1e-12) and np.all(dual.x <= ref.ub + 1e-12)
                else:
                    np.testing.assert_allclose(dual.x, ordered.x, rtol=0.0, atol=1e-12)
        for x in (anchor, anchor + rng.normal(0.0, 0.1, anchor.size)):
            assert tpl.max_row_violation(x) == pytest.approx(
                reference_max_row_violation(bp, x), rel=1e-12, abs=1e-12)
    assert solved >= len(programs) * 3


def test_warm_re_solves_agree_with_cold_ones(pv_tight_ctx):
    """One kept model walked through a sequence of boxes, each re-solved in
    place from the basis of the last box solved to optimality (the root's
    at first), matches a cold solve of each box: the same status and,
    when optimal, the objective within 1e-9 relative.  The walk crosses
    infeasible boxes; a warm solve HiGHS leaves unsettled (one here) is
    solved again cold."""
    rng = np.random.default_rng(5)
    programs = []
    for _ in range(8):
        bp = random_bilinear(rng)
        programs.append((bp, spatial_branch_and_bound(bp, epsilon=1e-6).x))
    programs += list(_single_level_programs(pv_tight_ctx))
    statuses = []
    for bp, anchor in programs:
        tpl = RelaxationTemplate(bp)
        kept, basis = KeptModel(), None
        for lb, ub in _sub_boxes(rng, tpl, anchor, 9):
            relaxation = mccormick_relax(tpl, lb, ub)
            warm, cold = solve_lp(relaxation, kept, basis), solve_lp(relaxation)
            assert warm.status == cold.status
            statuses.append(cold.status)
            if cold.status == OPTIMAL:
                assert abs(warm.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
                basis = kept.basis()
    assert INFEASIBLE in statuses and statuses.count(OPTIMAL) >= len(programs) * 5


def test_a_search_passes_its_model_to_highs_once(monkeypatch):
    """The root's relaxation is passed to HiGHS whole; every later node
    changes the kept model in place."""
    passed = []
    pass_model = lp_module._pass_model
    monkeypatch.setattr(lp_module, "_pass_model", lambda h, lp: passed.append(lp) or pass_model(h, lp))
    res = spatial_branch_and_bound(_product_bp(), epsilon=1e-6)
    assert res.nodes > 1 and res.cold_resolves == 0
    assert len(passed) == 1


class _UnsettledWhenWarm:
    """A HiGHS instance whose solves of a model changed in place, rather
    than passed whole, end in ``kUnknown``, a status ``solve_lp`` does not map."""

    def __init__(self, highs):
        self._highs = highs
        self._passed = self._warm = False

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passModel(self, model):
        self._passed = True
        return self._highs.passModel(model)

    def run(self):
        self._warm, self._passed = not self._passed, False
        return self._highs.run()

    def getModelStatus(self):
        if self._warm:
            return lp_module.highs.HighsModelStatus.kUnknown
        return self._highs.getModelStatus()


def test_a_warm_solve_highs_leaves_unsettled_is_solved_again_cold(monkeypatch):
    """A warm solve ending in a status ``solve_lp`` does not map falls back
    to a cold one with HiGHS defaults: the node gets the certificate a bare
    cold solve gives, bit for bit, and the fallback is counted.  In a
    search every node after the root falls back, and the search ends as
    one whose nodes all solve warm."""
    tpl = RelaxationTemplate(_product_bp())
    kept = KeptModel()
    assert solve_lp(mccormick_relax(tpl), kept).status == OPTIMAL
    basis = kept.basis()
    kept._highs = _UnsettledWhenWarm(kept._highs)
    ub = tpl.ub.copy()
    ub[0] = 1.0
    child = mccormick_relax(tpl, tpl.lb, ub)
    got, cold = solve_lp(child, kept, basis), solve_lp(child)
    assert got.status == cold.status == OPTIMAL
    assert got.x.tobytes() == cold.x.tobytes() and got.objective == cold.objective
    assert kept.cold_resolves == 1

    warm = spatial_branch_and_bound(_product_bp(), epsilon=1e-6)
    init = KeptModel.__init__
    monkeypatch.setattr(lp_module, "_spare_highs", [])  # the wrapped instances go with the test

    def unsettled_init(self):
        init(self)
        self._highs = _UnsettledWhenWarm(self._highs)

    monkeypatch.setattr(KeptModel, "__init__", unsettled_init)
    fallen = spatial_branch_and_bound(_product_bp(), epsilon=1e-6)
    assert fallen.status == warm.status == OPTIMAL
    assert fallen.nodes > 1 and fallen.cold_resolves == fallen.nodes - 1
    assert fallen.objective == pytest.approx(warm.objective, abs=1e-6 * (1 + abs(warm.objective)))
