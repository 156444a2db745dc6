"""McCormick envelopes and the spatial branch-and-bound loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexgrid.bilevel import assemble_single_level, solve_single_level
from flexgrid.bnb import (
    IMPROVE_TOL,
    BilinearProgram,
    RelaxationTemplate,
    cutoff_box,
    mccormick_relax,
    mccormick_rows,
    spatial_branch_and_bound,
    tighten_box,
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
    solve_materialized,
)

from randfeeders import random_context
from lpgen import (
    _best_linear_values,
    _bilinear_eval,
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
    """The hook is given the objective a candidate must beat to be adopted:
    None at the root of a search started without an incumbent, the
    incumbent's by ``IMPROVE_TOL`` after it, in either sense."""
    calls = []

    def hook(x_rel, floor):
        calls.append((np.array(x_rel), floor))
        return OPTIMUM

    res = spatial_branch_and_bound(_product_bp(), epsilon=1e-6, incumbent_hook=hook)
    assert res.status == "optimal"
    assert calls, "hook was never consulted"
    assert res.objective == pytest.approx(2.25, abs=1e-6)
    assert calls[0][1] is None
    assert all(floor == res.objective + IMPROVE_TOL for _, floor in calls[1:])

    seeded = []
    spatial_branch_and_bound(_product_bp(), epsilon=1e-6, initial_points=[np.array([1.0, 1.0, 1.0])],
                             incumbent_hook=lambda x_rel, floor: seeded.append(floor))
    assert seeded and seeded[0] == 1.0 + IMPROVE_TOL

    # min x + y  s.t.  x*y >= 1: a candidate must come in below the incumbent.
    base = LinearProgram(sense=MIN)
    x = base.add_var("x", lb=0.1, ub=4.0, obj=1.0)
    y = base.add_var("y", lb=0.1, ub=4.0, obj=1.0)
    bp = BilinearProgram(base)
    bp.add_term(base.add_row({}, GE, 1.0), 1.0, x, y)
    floors = []
    spatial_branch_and_bound(bp, epsilon=1e-6, initial_points=[np.array([2.0, 2.0])],
                             incumbent_hook=lambda x_rel, floor: floors.append(floor))
    assert floors and floors[0] == 4.0 - IMPROVE_TOL


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(st.tuples(st.floats(-2.0, 2.0), bound, st.floats(0.0, 4.0)), min_size=1,
                  max_size=5),
    floor=st.floats(-10.0, 10.0),
    t=st.lists(unit, min_size=5, max_size=5),
)
def test_the_cutoff_box_keeps_every_point_that_reaches_the_floor(data, floor, t):
    """``cutoff_box`` keeps each point of the box whose objective reaches
    the floor, and comes back empty only when the box's best corner misses
    it (random weights, zeros among them, and boxes)."""
    w = np.array([d[0] for d in data])
    w[np.abs(w) < 0.1] = 0.0
    lb = np.array([d[1] for d in data])
    ub = lb + np.array([d[2] for d in data])
    box = cutoff_box(w, lb, ub, floor)
    best = np.where(w > 0, ub, lb)
    x = lb + np.array(t[:w.size]) * (ub - lb)
    slack = 1e-9 * (1.0 + np.abs(w) @ np.maximum(np.abs(lb), np.abs(ub)) + abs(floor))
    if box is None:
        assert w @ best < floor + slack
        return
    cut_lb, cut_ub = box
    assert np.all(cut_lb >= lb) and np.all(cut_ub <= ub)
    assert np.all(cut_lb[w == 0] == lb[w == 0]) and np.all(cut_ub[w == 0] == ub[w == 0])
    for point in (x, best):
        if w @ point >= floor + slack:
            assert np.all(point >= cut_lb - 1e-9) and np.all(point <= cut_ub + 1e-9)


def test_the_cutoff_box_skips_an_unbounded_objective_term():
    """A term with no bound on its side of the box leaves the box as it is,
    with no NaN from inf - inf, and a search over such a program proves the
    same optimum: here t in [0, inf) is capped only by its row t <= x*y."""
    lb, ub = np.array([0.0, 0.0]), np.array([1.0, np.inf])
    for w in (np.array([1.0, 1.0]), np.array([-1.0, 1.0]), np.array([0.0, 2.0])):
        got_lb, got_ub = cutoff_box(w, lb, ub, 5.0)
        assert np.array_equal(got_lb, lb) and np.array_equal(got_ub, ub)
    cut_lb, cut_ub = cutoff_box(np.array([1.0, -1.0]), lb, ub, 0.5)  # t's term ends at 0
    assert np.array_equal(cut_lb, [0.5, 0.0]) and np.array_equal(cut_ub, [1.0, 0.5])

    base = LinearProgram(sense=MAX)
    x = base.add_var("x", lb=0.0, ub=2.0)
    y = base.add_var("y", lb=0.0, ub=3.0)
    t = base.add_var("t", lb=0.0, obj=1.0)
    r = base.add_row({t: 1.0}, LE, 0.0)
    base.add_row({x: 1.0, y: 1.0}, LE, 3.0)
    bp = BilinearProgram(base)
    bp.add_term(r, -1.0, x, y)
    res = spatial_branch_and_bound(bp, epsilon=1e-6, initial_points=[np.array([1.0, 1.0, 1.0])])
    assert res.status == "optimal" and res.objective == pytest.approx(2.25, abs=1e-5)


def test_each_cut_node_box_keeps_the_points_that_beat_the_incumbent(monkeypatch):
    """On random bilinear programs, every node box the search cuts keeps
    each sampled feasible point of the uncut box whose objective reaches
    the incumbent, and a box cut empty holds none; the searches still
    match the grid oracle."""
    from flexgrid import bnb

    cuts = []

    def recorded(obj, lb, ub, floor):
        box = cutoff_box(obj, lb, ub, floor)
        cuts.append((obj, lb, ub, floor, box))
        return box

    monkeypatch.setattr(bnb, "cutoff_box", recorded)
    rng = np.random.default_rng(2024)
    checked = moved = branched = 0
    while branched < 5:
        bp = random_bilinear(rng, max_vars=4)
        cuts.clear()
        res = spatial_branch_and_bound(bp, epsilon=5e-5)
        if res.nodes == 1:
            continue
        branched += 1
        ref = grid_oracle(bp)
        assert res.status == "optimal" and abs(res.objective - ref) <= 1e-4 * (1 + abs(ref))
        base = bp.base
        lb, ub = np.array(base.lb), np.array(base.ub)
        X = lb + rng.random((4000, lb.size)) * (ub - lb)
        free = np.setdiff1d(np.arange(lb.size), np.array(bp.products()).ravel())
        X = _best_linear_values(bp, X, free)
        obj, feasible = _bilinear_eval(bp, X)
        X = X[feasible]
        for w, node_lb, node_ub, floor, box in cuts:
            assert np.isfinite(floor)
            inside = np.all((X >= node_lb) & (X <= node_ub), axis=1)
            reach = X[inside & (X @ w >= floor + 1e-9 * (1.0 + abs(floor)))]
            if box is None:
                assert reach.shape[0] == 0
                continue
            assert not (np.isnan(box[0]).any() or np.isnan(box[1]).any())
            assert np.all(reach >= box[0] - 1e-12) and np.all(reach <= box[1] + 1e-12)
            checked += reach.shape[0]
            moved += not (np.array_equal(box[0], node_lb) and np.array_equal(box[1], node_ub))
    # Not vacuous: boxes were cut, with sampled points that beat the incumbent inside.
    assert checked > 0 and moved > 0


def _feasible_samples(rng, bp, count=4000):
    """Feasible points of ``bp`` sampled in its box, the columns in no
    product moved to their best values, and their objectives."""
    lb, ub = np.array(bp.base.lb), np.array(bp.base.ub)
    X = lb + rng.random((count, lb.size)) * (ub - lb)
    free = np.setdiff1d(np.arange(lb.size), np.array(bp.products()).ravel())
    X = _best_linear_values(bp, X, free)
    obj, feasible = _bilinear_eval(bp, X)
    return X[feasible], obj[feasible]


def test_root_tightening_keeps_every_point_that_reaches_the_floor():
    """On random bilinear programs, with the floor at the objective that a
    third of the sampled feasible points reach: every such point stays in
    the shrunk box, which shrinks somewhere, and a floor above the root
    relaxation's bound leaves nothing.  Searched with the tightening from
    the best sample, each program still matches the grid oracle."""
    rng = np.random.default_rng(38)
    shrunk = 0
    for _ in range(8):
        bp = random_bilinear(rng, max_vars=4)
        X, obj = _feasible_samples(rng, bp)
        tpl = RelaxationTemplate(bp)
        sigma = 1.0 if tpl.sense == MAX else -1.0
        w = sigma * tpl.c[:tpl.n_vars]
        floor = float(np.quantile(sigma * obj, 2.0 / 3.0))
        kept = KeptModel()
        lb, ub, lps = tighten_box(tpl, kept, w, tpl.lb, tpl.ub, floor)
        assert lps > 0 and lb is not None
        reach = X[X @ w >= floor]
        assert reach.shape[0] > 0
        assert np.all(reach >= lb - 1e-12) and np.all(reach <= ub + 1e-12)
        shrunk += np.count_nonzero((lb > tpl.lb) | (ub < tpl.ub))
        root = solve_lp(mccormick_relax(tpl))
        above = float(w @ root.x[:tpl.n_vars]) + 1e-3
        assert tighten_box(tpl, kept, w, tpl.lb, tpl.ub, above)[0] is None
        kept.close()

        res = spatial_branch_and_bound(
            bp, epsilon=5e-5, initial_points=[X[np.argmax(sigma * obj)]], tighten=True,
        )
        ref = grid_oracle(bp)
        assert res.status == "optimal" and abs(res.objective - ref) <= 1e-4 * (1 + abs(ref))
        assert res.tightening_lps > 0
    assert shrunk > 0


def test_a_tightened_search_with_nothing_above_the_incumbent_needs_no_node():
    """max t with t <= x*y, x fixed at 1 and y <= 1.5: the envelope is exact
    and the optimum is 1.5.  An initial point 5e-7 above it, within the
    search's feasibility tolerance, leaves the tightening's cutoff LP
    infeasible, so the search is proven with no node; without the
    tightening it solves its root."""
    base = LinearProgram(sense=MAX)
    x = base.add_var("x", lb=1.0, ub=1.0)
    y = base.add_var("y", lb=0.0, ub=2.0)
    t = base.add_var("t", lb=0.0, ub=6.0, obj=1.0)
    r = base.add_row({t: 1.0}, LE, 0.0)
    base.add_row({y: 1.0}, LE, 1.5)
    bp = BilinearProgram(base)
    bp.add_term(r, -1.0, x, y)
    above = np.array([1.0, 1.5, 1.5 + 5e-7])
    res = spatial_branch_and_bound(bp, epsilon=1e-6, initial_points=[above], tighten=True)
    assert res.status == "optimal" and res.objective == above[2]
    assert res.nodes == 0 and res.tightening_lps > 0
    plain = spatial_branch_and_bound(bp, epsilon=1e-6, initial_points=[above])
    assert plain.status == "optimal" and plain.nodes == 1 and plain.tightening_lps == 0


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
            mine, want, dual = solve_lp(got), solve_lp(ref), solve_materialized(ref)
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
    """The root's relaxation is passed to the kept HiGHS instance whole;
    every later node changes the kept model in place.  The only other
    passes are the cold solves, each on an instance of its own, that
    confirm a warm INFEASIBLE verdict: this search has some, and none
    overturns its verdict."""
    from flexgrid import bnb as bnb_module

    passed, confirmations = [], []
    pass_model, solve = lp_module._pass_model, bnb_module.solve_lp
    monkeypatch.setattr(lp_module, "_pass_model", lambda h, lp: passed.append(h) or pass_model(h, lp))
    monkeypatch.setattr(bnb_module, "solve_lp", lambda lp, kept=None, basis=None: (
        kept is None and confirmations.append(1)) or solve(lp, kept, basis))
    res = spatial_branch_and_bound(_product_bp(), epsilon=1e-6)
    assert res.nodes > 1 and res.cold_resolves == 0
    assert [h for h in passed if h is passed[0]] == passed[:1]
    assert len(passed) == 1 + len(confirmations) and confirmations


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


def _warm_verdicts_infeasible(monkeypatch):
    """Patch the search's ``solve_lp`` so that every warm solve (one on a
    kept model from a basis) runs and then says INFEASIBLE; returns the
    list that gets one entry per forced verdict."""
    from flexgrid import bnb as bnb_module
    from flexgrid.lp import DualCertificate

    solve, forced = bnb_module.solve_lp, []

    def warm_infeasible(lp, kept=None, basis=None):
        cert = solve(lp, kept, basis)
        if kept is None or basis is None:
            return cert
        forced.append(cert.status)
        return DualCertificate(status=INFEASIBLE)

    monkeypatch.setattr(bnb_module, "solve_lp", warm_infeasible)
    return forced


def test_a_warm_infeasible_verdict_is_confirmed_cold(monkeypatch):
    """HiGHS can end a warm solve infeasible where a cold solve finds an
    optimum, so a node closes as infeasible only on a cold verdict.  With
    every warm node solve forced to say INFEASIBLE, each such node is solved
    again cold, counted in ``cold_resolves`` where the cold solve finds an
    optimum, and such a node is still searched: its children are solved
    too, and the search proves the optimum the unforced one proves."""
    ref = spatial_branch_and_bound(_product_bp(), epsilon=1e-6)
    forced = _warm_verdicts_infeasible(monkeypatch)
    res = spatial_branch_and_bound(_product_bp(), epsilon=1e-6)
    # Every node but the root solves warm; the cold solve overturns each
    # verdict the warm solve itself did not reach.
    assert len(forced) == res.nodes - 1
    assert res.cold_resolves == forced.count(OPTIMAL) > 0
    assert res.nodes > 3  # beyond the root and its children: forced nodes branched
    assert res.status == ref.status == OPTIMAL
    assert res.objective == pytest.approx(ref.objective, abs=1e-6 * (1 + abs(ref.objective)))
    assert np.allclose(res.x[:3], OPTIMUM, atol=1e-3)


@pytest.mark.parametrize("seed, z_scale, mode", [
    (7235, 3.0, MODE_CONSTANT_Q), (7210, 3.0, MODE_VOLT_VAR),
])
def test_a_band_survives_forced_warm_infeasible_verdicts(seed, z_scale, mode, monkeypatch):
    """On corpus cases whose searches branch, a run whose warm node solves
    all say INFEASIBLE gives the band of the unforced run, within
    ``epsilon``, and counts each overturned verdict."""
    from corpus import corpus_context
    from flexgrid.bilevel import run_iterative

    ref = run_iterative(corpus_context(seed, z_scale, mode), mode)
    forced = _warm_verdicts_infeasible(monkeypatch)
    res = run_iterative(corpus_context(seed, z_scale, mode), mode)
    width, want = res.dp_plus - res.dp_minus, ref.dp_plus - ref.dp_minus
    assert forced and res.single_level.bnb.cold_resolves > 0
    assert res.converged and ref.converged
    assert abs(width - want) <= 1e-4 * (1.0 + abs(want))
