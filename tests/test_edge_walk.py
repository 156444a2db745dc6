"""The band-edge walk (``bilevel._edge_walk``) against its references.

Two references share no code with the walk: a stub follower whose value
function is a known concave piecewise-linear F(|edge|), which gives the exact
root and counts solves without HiGHS, and the plain bisection the walk
replaced, kept here as ``_reference_bisection`` and run on the same
materialized follower LPs.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from feedergen import random_context

from flexgrid import build_context
from flexgrid.bilevel import (
    EDGE_TOL_REL,
    BilevelError,
    _edge_walk,
    _family_follower,
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
from flexgrid.lp import INFEASIBLE, OPTIMAL

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
        cert = mf.solve(node=node, dp_bound=t)
        if cert.status == INFEASIBLE:
            raise BilevelError("follower LP infeasible during screening")
        vm = scenario.sigma * cert.objective
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
# A stub follower with a known value function
# ---------------------------------------------------------------------------


def _limit(extremum):
    """The walk's threshold c on the follower objective sigma * |v|."""
    return (V_MAX if extremum == MAX_V else -V_MIN) + 1e-9


class StubFollower:
    """F(s) = min_i (a_i + b_i s) at |edge| = s, with slopes b_i >= 0.

    The reported aggregate dual is the slope of the first minimizing piece
    (at a breakpoint, the first one listed), signed as the LP would sign it.
    """

    def __init__(self, pieces, full, extremum=MAX_V):
        activation = POSITIVE if full >= 0 else NEGATIVE
        scenario = Scenario(node=0, activation=activation, extremum=extremum)
        self.problem = SimpleNamespace(
            ctx=SimpleNamespace(v_min=V_MIN, v_max=V_MAX), scenario=scenario
        )
        self.slots = {scenario.dp_slot: full}
        self.pieces = pieces
        self.sign = 1.0 if full >= 0 else -1.0
        self.solves = 0

    def solve(self, *, node=None, dp_bound=None):
        self.solves += 1
        s = abs(dp_bound)
        values = [a + b * s for a, b in self.pieces]
        i = int(np.argmin(values))
        return SimpleNamespace(status=OPTIMAL, objective=values[i],
                               dual=self.sign * self.pieces[i][1])

    def agg_dual(self, cert):
        return cert.dual

    def root(self):
        """Largest s in [0, |full|] with F(s) <= c."""
        c = _limit(self.problem.scenario.extremum)
        full = abs(self.slots[self.problem.scenario.dp_slot])
        if min(a for a, _ in self.pieces) > c:
            return 0.0
        roots = [np.inf if b == 0.0 else (c - a) / b for a, b in self.pieces if a <= c]
        return min(max(roots), full)


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


def _walk(stub):
    return _edge_walk(stub, 0, TOL)[0]


def _assert_safe_and_tight(stub, result):
    root = stub.root()
    assert abs(result) <= root + 1e-12, "walk returned an edge past the root"
    assert root - abs(result) <= TOL


def test_walk_returns_the_full_edge_when_it_is_safe():
    c = _limit(MAX_V)
    stub = StubFollower(_concave(c - 0.5, [0.3], [1.0, 0.2]), full=1.0)
    assert _walk(stub) == 1.0
    assert stub.solves == 1


def test_walk_is_exact_from_a_point_on_the_crossing_segment():
    c = _limit(MAX_V)
    stub = StubFollower(_concave(c - 0.3, [0.5], [0.5, 0.3]), full=1.0)
    result = _walk(stub)
    assert stub.solves == 2  # the full edge, then one tangent step
    _assert_safe_and_tight(stub, result)
    assert stub.root() == pytest.approx(2.0 / 3.0)


def test_walk_crosses_three_breakpoints_in_few_solves():
    c = _limit(MAX_V)
    # root on segment 1, the full edge on segment 4: breakpoints 0.4, 0.6, 0.8 between
    stub = StubFollower(
        _concave(c - 0.25, [0.2, 0.4, 0.6, 0.8], [1.0, 0.5, 0.3, 0.2, 0.1]), full=1.0
    )
    result = _walk(stub)
    _assert_safe_and_tight(stub, result)
    assert stub.root() == pytest.approx(0.3)
    reference = StubFollower(stub.pieces, full=1.0)
    _reference_bisection(reference, 0, TOL)
    assert stub.solves <= 6 < reference.solves


def test_walk_returns_zero_when_the_zero_edge_is_unsafe():
    c = _limit(MAX_V)
    stub = StubFollower(_concave(c + 0.1, [], [0.5]), full=1.0)
    assert _walk(stub) == 0.0
    assert stub.solves == 2  # the full edge, then zero


def test_walk_recovers_from_a_zero_slope_at_the_far_end():
    c = _limit(MAX_V)
    stub = StubFollower(_concave(c - 0.4, [0.6], [1.0, 0.0]), full=1.0)
    result = _walk(stub)
    _assert_safe_and_tight(stub, result)
    assert stub.root() == pytest.approx(0.4)
    reference = StubFollower(stub.pieces, full=1.0)
    _reference_bisection(reference, 0, TOL)
    assert stub.solves < reference.solves


def test_walk_handles_negative_activation_and_minimum_voltage():
    c = _limit(MIN_V)
    stub = StubFollower(_concave(c - 0.3, [0.5], [0.5, 0.3]), full=-1.0, extremum=MIN_V)
    result = _walk(stub)
    assert result < 0.0
    assert stub.solves == 2
    _assert_safe_and_tight(stub, result)


def test_walk_makes_no_solve_at_a_zero_edge():
    stub = StubFollower(_concave(_limit(MAX_V) + 1.0, [], [1.0]), full=0.0)
    assert _walk(stub) == 0.0
    assert stub.solves == 0


def test_walk_is_safe_and_tight_on_random_concave_functions():
    rng = np.random.default_rng(11)
    for _ in range(300):
        extremum = MAX_V if rng.random() < 0.5 else MIN_V
        full = float(rng.uniform(0.1, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        k = int(rng.integers(0, 8))
        breaks = np.sort(rng.uniform(0.0, abs(full), k)).tolist()
        slopes = np.sort(rng.uniform(0.0, 1.0, k + 1))[::-1]
        slopes[rng.random(k + 1) < 0.1] = 0.0
        slopes = np.sort(slopes)[::-1].tolist()
        f0 = _limit(extremum) - float(rng.uniform(-0.05, 0.5))
        stub = StubFollower(_concave(f0, breaks, slopes), full=full, extremum=extremum)
        result = _walk(stub)
        assert np.sign(result) in (0.0, np.sign(full))
        _assert_safe_and_tight(stub, result)
        reference = StubFollower(stub.pieces, full=full, extremum=extremum)
        _reference_bisection(reference, 0, TOL)
        assert stub.solves <= reference.solves


class ConvexStub(StubFollower):
    """F(s) = c - 0.005 + 0.01 s + 1000 max(s - 0.9, 0), reported with a zero
    slope.  Neither the duals nor concavity hold, so every secant from the
    steep far end lands barely inside the root's safe side."""

    def __init__(self):
        super().__init__([(0.0, 0.0)], full=1.0)

    def solve(self, *, node=None, dp_bound=None):
        self.solves += 1
        assert self.solves <= 1000, "the walk creeps"
        s = abs(dp_bound)
        f = _limit(MAX_V) - 0.005 + 0.01 * s + 1000.0 * max(s - 0.9, 0.0)
        return SimpleNamespace(status=OPTIMAL, objective=f, dual=0.0)

    def root(self):
        return 0.5


def test_walk_cannot_creep_when_the_model_is_wrong():
    """Without its halving fallback the walk would need over a million secant
    steps here; with it, it stays within a small multiple of the bisection."""
    stub = ConvexStub()
    result = _walk(stub)
    _assert_safe_and_tight(stub, result)
    reference = ConvexStub()
    _reference_bisection(reference, 0, TOL)
    assert stub.solves <= 3 * reference.solves


# ---------------------------------------------------------------------------
# The walk against the bisection on real follower LPs
# ---------------------------------------------------------------------------


def _pv_tight_contexts(pv_model):
    probe = build_context(pv_model)
    vm = probe.anchor.vm
    return [build_context(pv_model, v_min=float(np.min(vm) - 0.010),
                          v_max=float(np.max(vm) + 0.004), anchor=probe.anchor)]


def _random_batch_contexts():
    """The acceptance suite's random feeders (snug bands, seeds 7200-7220)."""
    return [random_context(np.random.default_rng(7200 + i), mode=MODES[i % 3])
            for i in range(21)]


def _weak_grid_contexts():
    """Weak-grid feeders (doubled impedance) whose screening limits bind."""
    return [random_context(np.random.default_rng(seed), mode=mode, z_scale=2.0)
            for seed, mode in ((7200, MODE_CONSTANT_PF), (7201, MODE_CONSTANT_Q),
                               (7202, MODE_VOLT_VAR))]


def _counted(mf):
    """Count the follower's solves through an instance attribute."""
    solve = mf.solve
    mf.solves = 0

    def counting(**kwargs):
        mf.solves += 1
        return solve(**kwargs)

    mf.solve = counting
    return mf


@pytest.mark.parametrize("corpus", ["pv_tight", "ieee13", "random_batch", "weak_grid"])
def test_walk_matches_the_bisection_on_screening_followers(corpus, pv_model, ieee13_model):
    contexts = {
        "pv_tight": lambda: _pv_tight_contexts(pv_model),
        "ieee13": lambda: [build_context(ieee13_model)],
        "random_batch": _random_batch_contexts,
        "weak_grid": _weak_grid_contexts,
    }[corpus]()
    for ctx in contexts:
        dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
        tol_abs = EDGE_TOL_REL * max(dp_up, -dp_lo, 1e-12)
        for mode in MODES:
            for activation in ACTIVATIONS:
                for extremum in EXTREMA:
                    slots = {SLOT_DP_PLUS: dp_up, SLOT_DP_MINUS: dp_lo}
                    if mode != MODE_CONSTANT_Q:
                        slots.update(fix_worst_case_setpoints(ctx, mode, extremum))
                    mf = _counted(_family_follower(ctx, mode, activation, extremum,
                                                   slots, fix_q=False))
                    walk_solves = bisection_solves = 0
                    for k in range(ctx.n):
                        mf.solves = 0
                        walk = _edge_walk(mf, k, tol_abs)[0]
                        walk_solves += mf.solves
                        mf.solves = 0
                        bisection = _reference_bisection(mf, k, tol_abs)
                        bisection_solves += mf.solves
                        where = (mode, activation, extremum, k)
                        assert abs(walk - bisection) <= tol_abs, where
                        assert abs(walk) >= abs(bisection) - tol_abs, where
                    assert walk_solves <= bisection_solves, (mode, activation, extremum)


def test_ieee13_screening_solve_count(ieee13_model, monkeypatch):
    """The walk's solve count is deterministic; the bisection made 471 here."""
    calls = []
    solve = MaterializedFollower.solve

    def counting(self, **kwargs):
        calls.append(1)
        return solve(self, **kwargs)

    monkeypatch.setattr(MaterializedFollower, "solve", counting)
    worst_case_limits(build_context(ieee13_model), MODE_CONSTANT_PF, direction="overvoltage")
    assert len(calls) <= 250
