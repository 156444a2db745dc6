"""The band-edge walk (``bilevel._edge_walk``) against its references.

Three references share no code with the walk: a stub follower family whose
targets have known concave piecewise-linear value functions F(|edge|),
which gives the exact roots and counts evaluations without HiGHS; the plain
bisection the walk replaced, kept here as ``_reference_bisection`` and run
on the same materialized follower LPs; and the scalar walk the lockstep walk
replaced (``edgewalk.scalar_edge_walk``), which walks one target at a time
through ``solve``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from edgewalk import scalar_edge_walk
from randfeeders import random_context

from flexgrid import build_context
from flexgrid.bilevel import (
    EDGE_TOL_REL,
    _edge_walk,
    family_follower,
    worst_case_limits,
)
from flexgrid.feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR
from flexgrid.follower import (
    ACTIVATIONS,
    EXTREMA,
    MAX_V,
    MIN_V,
    NEGATIVE,
    POSITIVE,
    SLOT_DP_MINUS,
    SLOT_DP_PLUS,
    MaterializedFollower,
    Scenario,
    available_flexibility_bounds,
    fix_worst_case_setpoints,
)
from flexgrid.lp import OPTIMAL

MODES = (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)
V_MIN, V_MAX = 0.9, 1.1
TOL = 1e-6


def _reference_bisection(mf, node, tol_abs):
    """Largest |band edge| keeping the follower's extreme |v| at ``node`` in band,
    by plain bisection on the monotone value function."""
    ctx = mf.problem.ctx
    scenario = mf.problem.scenario
    full = mf.slots[scenario.dp_slot]

    def ok(t):
        vals = mf.values([node], t)
        assert vals.optimal.all()
        vm = scenario.sigma * float(vals.objective[0])
        if scenario.extremum == MAX_V:
            return vm <= ctx.v_max + 1e-9
        return vm >= ctx.v_min - 1e-9

    if full == 0.0:
        return 0.0
    if ok(full):
        return full
    if not ok(0.0):
        return 0.0
    sign = 1.0 if full > 0 else -1.0
    lo, hi = 0.0, abs(full)  # lo feasible, hi infeasible
    while hi - lo > tol_abs:
        mid = 0.5 * (lo + hi)
        if ok(sign * mid):
            lo = mid
        else:
            hi = mid
    return sign * lo


# ---------------------------------------------------------------------------
# A stub follower family with known value functions
# ---------------------------------------------------------------------------


def _limit(extremum):
    """The walk's threshold c on the follower objective sigma * |v|."""
    return (V_MAX if extremum == MAX_V else -V_MIN) + 1e-9


def _piecewise(pieces):
    """F(s) = min_i (a_i + b_i s), slopes b_i >= 0, with the slope of the
    first minimizing piece (at a breakpoint, the first one listed)."""
    def value(s):
        values = [a + b * s for a, b in pieces]
        i = int(np.argmin(values))
        return values[i], pieces[i][1]
    return value


def _root(pieces, full, extremum):
    """Largest s in [0, |full|] with F(s) <= c."""
    c = _limit(extremum)
    if min(a for a, _ in pieces) > c:
        return 0.0
    roots = [np.inf if b == 0.0 else (c - a) / b for a, b in pieces if a <= c]
    return min(max(roots), abs(full))


class StubFamily:
    """A follower family whose target node k has the value function
    ``functions[k]`` (s -> (F(s), F'(s)) at |edge| = s), behind the interface
    the walks read: ``problem``, ``slots`` and ``values`` for the lockstep
    walk, ``solve`` and ``agg_dual`` for the scalar one.  The aggregate dual
    is F', signed as the LP would sign it; ``evaluations[k]`` counts target
    k's evaluations and ``calls`` the ``values`` calls."""

    def __init__(self, functions, full, extremum=MAX_V):
        activation = POSITIVE if full >= 0 else NEGATIVE
        scenario = Scenario(node=0, activation=activation, extremum=extremum)
        self.problem = SimpleNamespace(
            ctx=SimpleNamespace(v_min=V_MIN, v_max=V_MAX), scenario=scenario
        )
        self.slots = {scenario.dp_slot: full}
        self.functions = functions
        self.sign = 1.0 if full >= 0 else -1.0
        self.evaluations = np.zeros(len(functions), dtype=int)
        self.calls = 0

    def values(self, nodes, edges):
        self.calls += 1
        nodes = np.atleast_1d(nodes)
        edges = np.broadcast_to(edges, nodes.shape)
        np.add.at(self.evaluations, nodes, 1)
        f, g = np.array([self.functions[k](abs(e)) for k, e in zip(nodes, edges)]).T
        return SimpleNamespace(objective=f, agg_dual=self.sign * g,
                               optimal=np.ones(nodes.size, dtype=bool))

    def solve(self, *, node=0, dp_bound=None):
        vals = self.values([node], [dp_bound])
        return SimpleNamespace(status=OPTIMAL, objective=float(vals.objective[0]),
                               dual=float(vals.agg_dual[0]))

    def agg_dual(self, cert):
        return cert.dual


def _concave(f0, breaks, slopes):
    """Pieces of the concave function with F(0) = f0, slopes[i] on segment i
    and segment i + 1 starting at breaks[i]."""
    pieces, value, start = [], f0, 0.0
    for i, b in enumerate(slopes):
        pieces.append((value - b * start, b))
        if i < len(breaks):
            value += b * (breaks[i] - start)
            start = breaks[i]
    return pieces


def _walk(family):
    """The lockstep walk over all the family's targets in one call."""
    return _edge_walk(family, np.arange(len(family.functions)), TOL)


def _assert_in_band(family, limits):
    """Each nonzero limit, evaluated again at exactly that edge, is in band.
    Run after the evaluation counts are checked: it adds to them."""
    nodes = np.flatnonzero(limits)
    if nodes.size:
        ctx, extremum = family.problem.ctx, family.problem.scenario.extremum
        vals = family.values(nodes, limits[nodes])
        assert np.all(vals.objective <= (ctx.v_max if extremum == MAX_V else -ctx.v_min) + 1e-9)


def _assert_safe_and_tight(root, result):
    assert abs(result) <= root + 1e-12, "walk returned an edge past the root"
    assert root - abs(result) <= TOL


def _stubs(piece_sets, full, extremum=MAX_V):
    return StubFamily([_piecewise(p) for p in piece_sets], full=full, extremum=extremum)


def test_walk_returns_the_full_edge_when_it_is_safe():
    c = _limit(MAX_V)
    family = _stubs([_concave(c - 0.5, [0.3], [1.0, 0.2]), _concave(c - 0.9, [], [0.5])], 1.0)
    result = _walk(family)
    assert result.tolist() == [1.0, 1.0]
    assert family.evaluations.tolist() == [1, 1] and family.calls == 1
    _assert_in_band(family, result)


def test_walk_is_exact_from_a_point_on_the_crossing_segment():
    c = _limit(MAX_V)
    # each root on the last segment, the one the full edge sits on
    piece_sets = [_concave(c - 0.3, [0.5], [0.5, 0.3]), _concave(c - 0.2, [0.1], [0.9, 0.2]),
                  _concave(c - 0.1, [0.02], [2.0, 0.15])]
    family = _stubs(piece_sets, 1.0)
    result = _walk(family)
    # the full edge, then one tangent step, for every target at once
    assert family.evaluations.tolist() == [2, 2, 2] and family.calls == 2
    for pieces, edge in zip(piece_sets, result):
        _assert_safe_and_tight(_root(pieces, 1.0, MAX_V), edge)
    assert _root(piece_sets[0], 1.0, MAX_V) == pytest.approx(2.0 / 3.0)
    _assert_in_band(family, result)


def test_walk_crosses_three_breakpoints_in_few_solves():
    c = _limit(MAX_V)
    # root on segment 1, the full edge on segment 4: breakpoints 0.4, 0.6, 0.8 between
    pieces = _concave(c - 0.25, [0.2, 0.4, 0.6, 0.8], [1.0, 0.5, 0.3, 0.2, 0.1])
    family = _stubs([pieces], 1.0)
    result = _walk(family)
    _assert_safe_and_tight(_root(pieces, 1.0, MAX_V), result[0])
    assert _root(pieces, 1.0, MAX_V) == pytest.approx(0.3)
    reference = _stubs([pieces], 1.0)
    _reference_bisection(reference, 0, TOL)
    assert family.evaluations[0] <= 6 < reference.evaluations[0]
    _assert_in_band(family, result)


def test_walk_returns_zero_when_the_zero_edge_is_unsafe():
    """An unsafe target walks next to a safe one and a crossing one: it
    returns 0 after the full edge and zero, and the others walk as alone."""
    c = _limit(MAX_V)
    piece_sets = [_concave(c + 0.1, [], [0.5]), _concave(c - 0.5, [], [0.1]),
                  _concave(c - 0.3, [0.5], [0.5, 0.3])]
    family = _stubs(piece_sets, 1.0)
    result = _walk(family)
    assert result[0] == 0.0 and result[1] == 1.0
    _assert_safe_and_tight(_root(piece_sets[2], 1.0, MAX_V), result[2])
    assert family.evaluations.tolist() == [2, 1, 2]  # the full edge, then zero
    _assert_in_band(family, result)


def test_walk_recovers_from_a_zero_slope_at_the_far_end():
    c = _limit(MAX_V)
    piece_sets = [_concave(c - 0.4, [0.6], [1.0, 0.0]), _concave(c - 0.2, [0.5], [0.8, 0.0]),
                  _concave(c - 0.6, [0.2, 0.9], [2.0, 0.5, 0.0])]
    family = _stubs(piece_sets, 1.0)
    result = _walk(family)
    assert _root(piece_sets[0], 1.0, MAX_V) == pytest.approx(0.4)
    for k, pieces in enumerate(piece_sets):
        _assert_safe_and_tight(_root(pieces, 1.0, MAX_V), result[k])
        reference = _stubs([pieces], 1.0)
        _reference_bisection(reference, 0, TOL)
        assert family.evaluations[k] < reference.evaluations[0]
    _assert_in_band(family, result)


def test_walk_handles_negative_activation_and_minimum_voltage():
    c = _limit(MIN_V)
    piece_sets = [_concave(c - 0.3, [0.5], [0.5, 0.3]), _concave(c - 0.2, [0.3], [0.4, 0.35])]
    family = _stubs(piece_sets, -1.0, extremum=MIN_V)
    result = _walk(family)
    assert np.all(result < 0.0)
    assert family.evaluations.tolist() == [2, 2]
    for pieces, edge in zip(piece_sets, result):
        _assert_safe_and_tight(_root(pieces, -1.0, MIN_V), edge)
    _assert_in_band(family, result)


def test_walk_makes_no_solve_at_a_zero_edge():
    family = _stubs([_concave(_limit(MAX_V) + 1.0, [], [1.0])] * 2, 0.0)
    assert _walk(family).tolist() == [0.0, 0.0]
    assert family.calls == 0


def test_walk_is_safe_and_tight_on_random_concave_functions():
    """30 families of 10 random targets, each family walked in one call:
    every limit is safe, tight, and the scalar walk's own, from as many
    evaluations as it makes and no more than the bisection's."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        extremum = MAX_V if rng.random() < 0.5 else MIN_V
        full = float(rng.uniform(0.1, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        piece_sets = []
        for _ in range(10):
            k = int(rng.integers(0, 8))
            breaks = np.sort(rng.uniform(0.0, abs(full), k)).tolist()
            slopes = np.sort(rng.uniform(0.0, 1.0, k + 1))[::-1]
            slopes[rng.random(k + 1) < 0.1] = 0.0
            slopes = np.sort(slopes)[::-1].tolist()
            f0 = _limit(extremum) - float(rng.uniform(-0.05, 0.5))
            piece_sets.append(_concave(f0, breaks, slopes))
        family = _stubs(piece_sets, full, extremum)
        result = _walk(family)
        assert family.calls == family.evaluations.max()
        for k, pieces in enumerate(piece_sets):
            assert np.sign(result[k]) in (0.0, np.sign(full))
            _assert_safe_and_tight(_root(pieces, full, extremum), result[k])
            oracle = _stubs([pieces], full, extremum)
            assert scalar_edge_walk(oracle, 0, TOL) == result[k]
            assert oracle.evaluations[0] == family.evaluations[k]
            reference = _stubs([pieces], full, extremum)
            _reference_bisection(reference, 0, TOL)
            assert family.evaluations[k] <= reference.evaluations[0]
        _assert_in_band(family, result)


def _convex(s, counter):
    """F(s) = c - 0.005 + 0.01 s + 1000 max(s - 0.9, 0), reported with a zero
    slope.  Neither the duals nor concavity hold, so every secant from the
    steep far end lands barely inside the root's safe side (root 0.5)."""
    counter.append(1)
    assert len(counter) <= 1000, "the walk creeps"
    return _limit(MAX_V) - 0.005 + 0.01 * s + 1000.0 * max(s - 0.9, 0.0), 0.0


def test_walk_cannot_creep_when_the_model_is_wrong():
    """Without its halving fallback the walk would need over a million secant
    steps on the convex target; with it, it stays within a small multiple of
    the bisection, and the concave target walking beside it is unaffected."""
    c = _limit(MAX_V)
    concave = _concave(c - 0.3, [0.5], [0.5, 0.3])
    counter = []
    family = StubFamily([lambda s: _convex(s, counter), _piecewise(concave)], full=1.0)
    result = _walk(family)
    _assert_safe_and_tight(0.5, result[0])
    _assert_safe_and_tight(_root(concave, 1.0, MAX_V), result[1])
    assert family.evaluations[1] == 2
    reference = StubFamily([lambda s: _convex(s, [])], full=1.0)
    _reference_bisection(reference, 0, TOL)
    assert family.evaluations[0] <= 3 * reference.evaluations[0]
    _assert_in_band(family, result)


# ---------------------------------------------------------------------------
# The walk against the bisection and the scalar walk on real follower LPs
# ---------------------------------------------------------------------------


def _pv_tight_contexts(pv_model):
    probe = build_context(pv_model)
    vm = probe.anchor.vm
    return [build_context(pv_model, v_min=float(np.min(vm) - 0.010),
                          v_max=float(np.max(vm) + 0.004))]


def _random_batch_contexts():
    """The acceptance suite's random feeders (snug bands, seeds 7200-7220)."""
    return [random_context(np.random.default_rng(7200 + i), mode=MODES[i % 3])
            for i in range(21)]


def _weak_grid_contexts():
    """Weak-grid feeders (doubled impedance) whose screening limits bind."""
    return [random_context(np.random.default_rng(seed), mode=mode, z_scale=2.0)
            for seed, mode in ((7200, MODE_CONSTANT_PF), (7201, MODE_CONSTANT_Q),
                               (7202, MODE_VOLT_VAR))]


def _corpus(corpus, pv_model, ieee13_model):
    return {
        "pv_tight": lambda: _pv_tight_contexts(pv_model),
        "ieee13": lambda: [build_context(ieee13_model)],
        "random_batch": _random_batch_contexts,
        "weak_grid": _weak_grid_contexts,
    }[corpus]()


def _screening_families(ctx):
    """Every screening family of ``ctx``: (where, materialized follower, tol_abs)."""
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    tol_abs = EDGE_TOL_REL * max(dp_up, -dp_lo, 1e-12)
    for mode in MODES:
        for activation in ACTIVATIONS:
            for extremum in EXTREMA:
                slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
                if mode != MODE_CONSTANT_Q:
                    slots.update(fix_worst_case_setpoints(ctx, mode, extremum))
                mf = family_follower(ctx, mode, activation, extremum, slots)
                yield (mode, activation, extremum), mf, tol_abs


def _count_rows(mf):
    """Count the targets passed to the follower's ``values`` (per node) and its calls."""
    values = mf.values
    mf.rows = np.zeros(mf.problem.n, dtype=int)
    mf.calls = 0

    def counting(nodes, edges=None):
        mf.calls += 1
        np.add.at(mf.rows, np.asarray(nodes), 1)
        return values(nodes, edges)

    mf.values = counting
    return mf


@pytest.mark.parametrize("corpus", ["pv_tight", "ieee13", "random_batch", "weak_grid"])
def test_walk_matches_the_bisection_on_screening_followers(corpus, pv_model, ieee13_model):
    for ctx in _corpus(corpus, pv_model, ieee13_model):
        for where, mf, tol_abs in _screening_families(ctx):
            mf = _count_rows(mf)
            walk = _edge_walk(mf, np.arange(ctx.n), tol_abs)
            walk_evaluations = int(mf.rows.sum())
            mf.rows[:] = 0
            for k in range(ctx.n):
                bisection = _reference_bisection(mf, k, tol_abs)
                assert abs(walk[k] - bisection) <= tol_abs, (where, k)
                assert abs(walk[k]) >= abs(bisection) - tol_abs, (where, k)
            assert walk_evaluations <= mf.rows.sum(), where


@pytest.mark.parametrize("corpus", ["pv_tight", "ieee13", "random_batch", "weak_grid"])
def test_lockstep_walk_matches_the_scalar_walk(corpus, pv_model, ieee13_model):
    """On every screening family of the corpus (3 modes x 4 families), the
    lockstep walk over all n targets gives the scalar walk's limits, bit for
    bit, from the same number of evaluations per target, in one ``values``
    call per step."""
    for ctx in _corpus(corpus, pv_model, ieee13_model):
        for where, mf, tol_abs in _screening_families(ctx):
            mf = _count_rows(mf)
            limits = _edge_walk(mf, np.arange(ctx.n), tol_abs)
            rows, calls = mf.rows.copy(), mf.calls
            solves = np.zeros(ctx.n, dtype=int)
            solve = mf.solve

            def counting(*, node, dp_bound):
                solves[node] += 1
                return solve(node=node, dp_bound=dp_bound)

            mf.solve = counting
            for k in range(ctx.n):
                assert scalar_edge_walk(mf, k, tol_abs) == limits[k], (where, k)
            assert np.array_equal(rows, solves), where
            assert calls == rows.max(), where
            _assert_in_band(mf, limits)


def test_ieee13_screening_solve_count(ieee13_model, monkeypatch):
    """The walk's evaluation count is deterministic; the bisection made 471
    here.  An evaluation is a target row passed to the kernel (``values``)
    or a fallback solve; constant-pf screening needs no fallback."""
    rows, solves = [], []
    values, solve = MaterializedFollower.values, MaterializedFollower.solve

    def counting_values(self, nodes, edges=None):
        rows.append(np.size(nodes))
        return values(self, nodes, edges)

    def counting_solve(self, **kwargs):
        solves.append(1)
        return solve(self, **kwargs)

    monkeypatch.setattr(MaterializedFollower, "values", counting_values)
    monkeypatch.setattr(MaterializedFollower, "solve", counting_solve)
    worst_case_limits(build_context(ieee13_model), MODE_CONSTANT_PF, direction="overvoltage")
    assert not solves
    assert 0 < sum(rows) + len(solves) <= 250
