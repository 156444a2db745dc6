"""LP layer: backend agreement with vertex enumeration, dual conventions."""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csc_array

from flexgrid.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    MAX,
    MIN,
    OPTIMAL,
    UNBOUNDED,
    KeptModel,
    LinearProgram,
    RangedLP,
    solve_lp,
    solve_materialized,
    verify_strong_duality,
)

from lpgen import random_lp, vertex_enumeration_optimum


def test_objective_matches_vertex_enumeration():
    rng = np.random.default_rng(20240917)
    checked = 0
    for _ in range(40):
        lp = random_lp(rng, max_vars=8)
        ref = vertex_enumeration_optimum(lp)
        assert ref is not None
        # the dual-certificate solve and the primal-only solve of the ranged form
        for cert in (solve_materialized(lp.materialize()), solve_lp(lp.materialize())):
            assert cert.status == OPTIMAL  # generator guarantees feasible + bounded
            assert cert.objective == pytest.approx(ref, abs=1e-8)
        checked += 1
    assert checked == 40


def test_row_duals_are_rhs_sensitivities():
    """d(objective)/d(rhs) in the problem's own sense, finite-differenced."""
    rng = np.random.default_rng(5)
    for _ in range(8):
        lp = random_lp(rng, max_vars=5)
        cert = solve_materialized(lp.materialize())
        h = 1e-6
        for r in range(lp.n_rows):
            saved = lp.rhs[r]
            lp.rhs[r] = saved + h
            up_cert = solve_materialized(lp.materialize())
            lp.rhs[r] = saved - h
            dn_cert = solve_materialized(lp.materialize())
            lp.rhs[r] = saved
            if not (up_cert.is_optimal and dn_cert.is_optimal):
                continue  # perturbation fell off the feasible set
            up, dn = up_cert.objective, dn_cert.objective
            fd = (up - dn) / (2 * h)
            # degenerate rows have one-sided slopes; the dual must lie between
            lo = min((up - cert.objective) / h, (cert.objective - dn) / h)
            hi = max((up - cert.objective) / h, (cert.objective - dn) / h)
            assert lo - 1e-4 <= cert.row_duals[r] <= hi + 1e-4
            if abs(cert.row_duals[r] - fd) > 1e-4:
                # only acceptable at a degeneracy kink
                assert hi - lo > 1e-6


def test_dual_sign_conventions_on_tiny_problems():
    # max x s.t. x <= 2: relaxing the row helps, dual = +1
    lp = LinearProgram(sense=MAX)
    x = lp.add_var(lb=0.0, obj=1.0)
    lp.add_row({x: 1.0}, LE, 2.0)
    cert = solve_materialized(lp.materialize())
    assert cert.objective == pytest.approx(2.0)
    assert cert.row_duals[0] == pytest.approx(1.0)

    # min x s.t. x >= 3: raising the rhs raises the optimum, dual = +1
    lp = LinearProgram(sense=MIN)
    x = lp.add_var(obj=1.0)
    lp.add_row({x: 1.0}, GE, 3.0)
    cert = solve_materialized(lp.materialize())
    assert cert.objective == pytest.approx(3.0)
    assert cert.row_duals[0] == pytest.approx(1.0)

    # max with a >= row that binds from below: dual must be <= 0
    lp = LinearProgram(sense=MAX)
    x = lp.add_var(lb=0.0, ub=5.0, obj=-1.0)
    lp.add_row({x: 1.0}, GE, 1.0)
    cert = solve_materialized(lp.materialize())
    assert cert.objective == pytest.approx(-1.0)
    assert cert.row_duals[0] == pytest.approx(-1.0)

    # equality row: max x + y s.t. x + y = 1
    lp = LinearProgram(sense=MAX)
    x = lp.add_var(lb=0.0, obj=1.0)
    y = lp.add_var(lb=0.0, obj=1.0)
    lp.add_row({x: 1.0, y: 1.0}, EQ, 1.0)
    cert = solve_materialized(lp.materialize())
    assert cert.objective == pytest.approx(1.0)
    assert cert.row_duals[0] == pytest.approx(1.0)


def test_bound_duals_and_reduced_costs():
    # max 2x + y, x <= 1, y <= 3 (boxes only)
    lp = LinearProgram(sense=MAX)
    lp.add_var(lb=0.0, ub=1.0, obj=2.0)
    lp.add_var(lb=0.0, ub=3.0, obj=1.0)
    cert = solve_materialized(lp.materialize())
    assert cert.objective == pytest.approx(5.0)
    assert np.allclose(cert.upper_duals, [2.0, 1.0])
    assert np.allclose(cert.lower_duals, [0.0, 0.0])
    # duality identity: obj = sum(upper_duals * ub) here
    rep = verify_strong_duality(lp, cert)
    assert rep.ok and rep.gap < 1e-9


def test_strong_duality_identity_random_batch():
    rng = np.random.default_rng(99)
    for _ in range(25):
        lp = random_lp(rng)
        cert = solve_materialized(lp.materialize())
        rep = verify_strong_duality(lp, cert)
        assert rep.ok, (rep.gap, rep.max_slackness)
        assert rep.primal_objective == pytest.approx(cert.objective, abs=1e-9)


def test_degenerate_optimum_verifies():
    # the whole face x + y = 1 is optimal; whichever point of it comes back,
    # the duality identity must close
    lp = LinearProgram(sense=MAX)
    x = lp.add_var(lb=0.0, ub=1.0, obj=1.0)
    y = lp.add_var(lb=0.0, ub=1.0, obj=1.0)
    lp.add_row({x: 1.0, y: 1.0}, LE, 1.0)
    cert = solve_materialized(lp.materialize())
    assert cert.objective == pytest.approx(1.0, abs=1e-8)
    rep = verify_strong_duality(lp, cert)
    scale = 1.0 + abs(rep.primal_objective)
    assert rep.gap <= 1e-7 * scale and rep.max_slackness <= 1e-7 * scale, rep
    assert rep.ok, rep


def test_infeasible_and_unbounded_detection():
    lp = LinearProgram(sense=MAX)
    x = lp.add_var(lb=0.0, obj=1.0)
    lp.add_row({x: 1.0}, LE, 1.0)
    lp.add_row({x: 1.0}, GE, 2.0)
    assert solve_materialized(lp.materialize()).status == INFEASIBLE
    assert solve_lp(lp.materialize()).status == INFEASIBLE

    lp = LinearProgram(sense=MAX)
    lp.add_var(lb=0.0, obj=1.0)
    assert solve_materialized(lp.materialize()).status == UNBOUNDED
    assert solve_lp(lp.materialize()).status == UNBOUNDED

    with pytest.raises(ValueError, match="optimal certificate"):
        verify_strong_duality(lp, solve_materialized(lp.materialize()))


def test_le_ge_row_equivalence():
    # a <= row and its negated >= twin describe the same halfspace; duals negate
    def build(rel, rhs):
        lp = LinearProgram(sense=MAX)
        x = lp.add_var(lb=0.0, obj=1.0)
        y = lp.add_var(lb=0.0, obj=1.0)
        sgn = 1.0 if rel == LE else -1.0
        lp.add_row({x: sgn * 1.0, y: sgn * 2.0}, rel, sgn * rhs)
        return lp, solve_materialized(lp.materialize())

    lp_le, le = build(LE, 4.0)
    lp_ge, ge = build(GE, 4.0)
    assert le.objective == pytest.approx(ge.objective)
    assert le.row_duals[0] == pytest.approx(-ge.row_duals[0])
    assert verify_strong_duality(lp_le, le).ok
    assert verify_strong_duality(lp_ge, ge).ok


def test_empty_and_degenerate_shapes():
    # no rows at all: optimum sits on the box
    lp = LinearProgram(sense=MIN)
    lp.add_var(lb=-2.0, ub=4.0, obj=3.0)
    cert = solve_materialized(lp.materialize())
    assert cert.objective == pytest.approx(-6.0)
    assert cert.x[0] == pytest.approx(-2.0)

    # zero-coefficient row is legal and gets a dual of zero
    lp = LinearProgram(sense=MAX)
    lp.add_var(lb=0.0, ub=1.0, obj=1.0)
    lp.add_row({}, LE, 1.0)
    cert = solve_materialized(lp.materialize())
    assert cert.objective == pytest.approx(1.0)
    assert cert.row_duals[0] == 0.0


def test_builder_validation():
    lp = LinearProgram()
    with pytest.raises(ValueError, match="lb"):
        lp.add_var(lb=2.0, ub=1.0)
    with pytest.raises(ValueError, match="b: lb"):
        lp.add_vars(["a", "b"], [0.0, 2.0], [1.0, 1.0])
    x = lp.add_var(lb=0.0, ub=1.0)
    with pytest.raises(ValueError, match="unknown relation"):
        lp.add_row({x: 1.0}, "<", 1.0)
    with pytest.raises(ValueError, match="unknown relation"):
        lp.add_rows(([0, 1], [x, x], [1.0, 1.0]), [LE, "<"], [1.0, 1.0], ["", ""])
    with pytest.raises(ValueError, match="unknown variable"):
        lp.add_row({x + 5: 1.0}, LE, 1.0)
    with pytest.raises(ValueError, match="unknown variable"):
        lp.add_rows(([0, 1], [x, x + 5], [1.0, 1.0]), [LE, LE], [1.0, 1.0], ["", ""])
    with pytest.raises(ValueError, match="unknown variable"):
        lp.add_rows(([0], [-1], [1.0]), [LE], [1.0], [""])
    # A rejected block leaves nothing behind.
    assert (lp.n_vars, lp.n_rows) == (1, 0)
    with pytest.raises(ValueError, match="sense"):
        LinearProgram(sense="maximize")


def test_bulk_rows_materialize_like_single_rows():
    """A block from ``add_rows``, its entries out of row order, one row
    naming a column twice and one row empty, gives the same LP as its rows
    added one at a time."""
    rng = np.random.default_rng(5)
    rows = [
        ([0, 2, 0], rng.normal(size=3), LE, 1.5),
        ([1], [2.0], GE, -0.5),
        ([], [], EQ, 0.0),
        ([2, 1, 3], rng.normal(size=3), EQ, 0.25),
    ]
    single, bulk = LinearProgram(sense=MAX), LinearProgram(sense=MAX)
    lb, ub, obj = [-1.0, 0.0, -2.0, 0.5], [1.0, 3.0, np.inf, 0.5], rng.normal(size=4)
    for v in range(4):
        single.add_var(lb=lb[v], ub=ub[v], obj=obj[v])
    assert np.array_equal(bulk.add_vars([""] * 4, lb, ub, obj), np.arange(4))
    for idx, val, rel, rhs in rows:
        single.add_row((idx, val), rel, rhs)
    # The block's rows last to first, each row's own entries in order.
    entries = [(r, j, a) for r in reversed(range(len(rows))) for j, a in zip(*rows[r][:2])]
    got = bulk.add_rows(
        tuple(np.array(a) for a in zip(*entries)),
        [rel for _, _, rel, _ in rows], [rhs for *_, rhs in rows], [""] * len(rows),
    )
    assert np.array_equal(got, np.arange(len(rows)))
    a, b = single.materialize(), bulk.materialize()
    for name in ("c", "row_lb", "row_ub", "lb", "ub"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.A, name), getattr(b.A, name)), name
    assert b.A[[0]].toarray()[0, 0] == rows[0][1][0] + rows[0][1][2]
    for lp in (single, bulk):
        assert lp.var_names == [f"x{v}" for v in range(4)]
        assert lp.row_names == [f"r{r}" for r in range(len(rows))]
    for r in range(len(rows)):
        for x, y in zip(single.row_coeffs(r), bulk.row_coeffs(r)):
            assert np.array_equal(x, y)


def test_row_dense_accumulates_duplicate_indices():
    lp = LinearProgram()
    x = lp.add_var(lb=0.0, ub=1.0)
    lp.add_row((np.array([x, x]), np.array([1.0, 2.0])), LE, 1.0)
    assert lp.row_dense(0)[x] == pytest.approx(3.0)


def test_materialize_gives_each_row_its_ranged_bounds():
    """``materialize`` keeps the rows in program order, sums repeated
    columns, and bounds each row on the side its relation says; the
    primal-only solve of that form agrees with the dual-certificate solve."""
    rng = np.random.default_rng(31)
    for _ in range(30):
        lp = random_lp(rng)
        x = solve_materialized(lp.materialize()).x
        a = rng.normal(size=lp.n_vars)
        # A >= row, an = row and a <= row that names column 0 twice, all
        # satisfied at the optimum, so the LP stays feasible and bounded.
        lp.add_row((np.arange(lp.n_vars), a), GE, float(a @ x) - 0.1)
        lp.add_row((np.arange(lp.n_vars), a), EQ, float(a @ x))
        v = rng.normal(size=3)
        lp.add_row(([0, 1, 0], v), LE, float((v[0] + v[2]) * x[0] + v[1] * x[1]) + 0.1)
        mat = lp.materialize()
        assert mat.sense == lp.sense
        assert mat.A.shape == (lp.n_rows, lp.n_vars)
        for got, want in ((mat.c, lp.obj), (mat.lb, lp.lb), (mat.ub, lp.ub)):
            assert np.array_equal(got, want)
        for r, (rel, rhs) in enumerate(zip(lp.relations, lp.rhs)):
            assert np.array_equal(mat.A[[r]].toarray()[0], lp.row_dense(r))
            want = {LE: (-np.inf, rhs), GE: (rhs, np.inf), EQ: (rhs, rhs)}[rel]
            assert (mat.row_lb[r], mat.row_ub[r]) == want
        dual, primal = solve_materialized(lp.materialize()), solve_lp(mat)
        assert dual.status == primal.status == OPTIMAL
        assert primal.objective == pytest.approx(dual.objective, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Ranged solves against scipy's ``milp``, the front end they replaced
# ---------------------------------------------------------------------------

MILP_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def milp_solve(lp: RangedLP):
    """The ranged LP through ``milp``: (status, x, objective in lp's sense)."""
    sign = -1.0 if lp.sense == MAX else 1.0
    res = milp(
        sign * lp.c,
        bounds=Bounds(lp.lb, lp.ub),
        constraints=LinearConstraint(lp.A, lp.row_lb, lp.row_ub),
    )
    status = MILP_STATUS[res.status]
    if status != OPTIMAL:
        return status, None, None
    return status, res.x, float(lp.c @ res.x)


def one_column(*, c=1.0, lb=0.0, ub=np.inf, rows=()):
    """max c·x over one column, with rows given as (row_lb, row_ub) on x."""
    return RangedLP(
        sense=MAX,
        c=np.array([c]),
        A=csc_array(np.ones((len(rows), 1))),
        row_lb=np.array([lo for lo, _ in rows], dtype=float),
        row_ub=np.array([hi for _, hi in rows], dtype=float),
        lb=np.array([lb], dtype=float),
        ub=np.array([ub], dtype=float),
    )


def test_linprog_route_folds_ranged_rows():
    """``solve_materialized`` takes a >= row as (rhs, +inf), a <= row as
    (-inf, rhs) and an = row as (rhs, rhs), and gives each its dual."""
    cert = solve_materialized(one_column(ub=5.0, rows=[(1.0, np.inf), (-np.inf, 3.0), (2.0, 2.0)]))
    assert cert.status == OPTIMAL and cert.objective == pytest.approx(2.0)
    assert cert.row_duals.tolist() == pytest.approx([0.0, 0.0, 1.0])
    cert = solve_materialized(one_column(c=-1.0, rows=[(1.0, np.inf), (-np.inf, 3.0)]))
    assert cert.objective == pytest.approx(-1.0)
    assert cert.row_duals.tolist() == pytest.approx([-1.0, 0.0])


def test_ranged_solve_matches_milp_on_random_lps():
    for seed in range(60):
        lp = random_lp(np.random.default_rng(seed)).materialize()
        status, x, objective = milp_solve(lp)
        cert = solve_lp(lp)
        assert cert.status == status == OPTIMAL
        np.testing.assert_allclose(cert.x, x, rtol=0.0, atol=1e-9)
        assert cert.objective == pytest.approx(objective, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("lp, status", [
    (one_column(rows=[(-np.inf, 1.0), (2.0, np.inf)]), INFEASIBLE),
    (one_column(), UNBOUNDED),
    (one_column(lb=1.0, ub=0.0), INFEASIBLE),  # lb > ub
    (one_column(lb=np.inf, ub=np.inf), INFEASIBLE),  # HiGHS rejects the model
], ids=["infeasible", "unbounded", "lb-above-ub", "model-error"])
def test_ranged_solve_maps_each_status_as_milp_does(lp, status):
    assert milp_solve(lp)[0] == status
    cert = solve_lp(lp)
    assert cert.status == status
    assert cert.x is None and cert.objective is None


def test_ranged_solves_leave_nothing_behind():
    """Each ranged solve starts cold.  A = max x0 + x1 + x2 on the simplex
    has every vertex optimal, so a basis kept from B = max x2 on the same
    rows would bring A back at B's vertex instead of its own."""
    def simplex_lp(c):
        return RangedLP(
            sense=MAX, c=np.array(c, dtype=float), A=csc_array(np.ones((1, 3))),
            row_lb=np.array([-np.inf]), row_ub=np.array([1.0]),
            lb=np.zeros(3), ub=np.ones(3),
        )

    first = solve_lp(simplex_lp([1, 1, 1]))
    other = solve_lp(simplex_lp([0, 0, 1]))
    again = solve_lp(simplex_lp([1, 1, 1]))
    assert first.x.tobytes() == again.x.tobytes()
    assert other.x.tobytes() != first.x.tobytes()


def test_a_closed_kept_model_hands_on_an_instance_that_starts_cold():
    """A = max x0 + x1 + x2 on the simplex has every vertex optimal.  Re-solved
    warm from the basis of B, the same LP with x0 and x1 fixed at 0, A comes
    back at another vertex than a bare solve's; the model's HiGHS instance,
    handed on by ``close``, solves A without a basis cold, at the bare
    solve's vertex."""
    def simplex_lp(ub):
        return RangedLP(
            sense=MAX, c=np.ones(3), A=csc_array(np.ones((1, 3))),
            row_lb=np.array([-np.inf]), row_ub=np.array([1.0]),
            lb=np.zeros(3), ub=np.array(ub, dtype=float),
        )

    a, b = simplex_lp([1, 1, 1]), simplex_lp([0, 0, 1])
    first = KeptModel()
    solve_lp(b, first)
    warm = solve_lp(a, first, first.basis())
    bare = solve_lp(a)
    assert warm.objective == bare.objective and warm.x.tobytes() != bare.x.tobytes()
    instance = first._highs
    first.close()
    second = KeptModel()
    assert second._highs is instance
    assert solve_lp(a, second).x.tobytes() == bare.x.tobytes()


@pytest.mark.parametrize("lp", [
    one_column(c=np.nan),
    one_column(c=np.inf),
], ids=["c-nan", "c-inf"])
def test_ranged_solve_rejects_a_non_finite_objective_as_milp_does(lp):
    with pytest.raises(ValueError):
        milp_solve(lp)
    with pytest.raises(ValueError, match="finite"):
        solve_lp(lp)


def _with_matrix_entry(value):
    lp = one_column(rows=[(-np.inf, 1.0)])
    lp.A.data[0] = value
    return lp


@pytest.mark.parametrize("lp", [
    _with_matrix_entry(np.nan),
    _with_matrix_entry(np.inf),
    one_column(lb=np.nan),
    one_column(ub=np.nan),
    one_column(rows=[(np.nan, 1.0)]),
    one_column(rows=[(0.0, np.nan)]),
], ids=["A-nan", "A-inf", "lb-nan", "ub-nan", "row-lb-nan", "row-ub-nan"])
def test_ranged_solve_rejects_a_malformed_matrix_or_bound(lp):
    """``milp`` let these through to HiGHS, which answered optimal (a NaN
    matrix entry) or model error; the direct solve refuses them up front."""
    with pytest.raises(ValueError, match="finite|NaN"):
        solve_lp(lp)


def test_a_kept_model_re_solves_a_new_objective_in_place(monkeypatch):
    """LPs that differ from the held one only in their objective, in either
    sense, change it in place and re-solve warm to every optimum a cold
    solve finds; only the first is passed whole."""
    from flexgrid import lp as lp_module

    passed = []
    pass_model = lp_module._pass_model
    monkeypatch.setattr(lp_module, "_pass_model", lambda h, lp: passed.append(lp) or pass_model(h, lp))
    rng = np.random.default_rng(38)
    for sense in (MAX, MIN):
        lp = random_lp(rng, max_vars=8).materialize()
        kept, basis = KeptModel(), None
        for _ in range(12):
            c = rng.uniform(-1.0, 1.0, lp.c.size)
            one = RangedLP(sense, c, lp.A, lp.row_lb, lp.row_ub, lp.lb, lp.ub)
            warm = solve_lp(one, kept, basis)
            basis = kept.basis()
            kept_passed = len(passed)
            cold = solve_lp(one)
            del passed[kept_passed:]
            assert warm.status == cold.status == OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9 * (1 + abs(cold.objective)))
        kept.close()
    assert len(passed) == 2
