"""Random LP / bilinear instances plus exhaustive reference solvers.

The vertex enumerator solves an LP by trying every candidate active set, so
it shares no code path with the HiGHS backend; the grid oracle solves small
bilinear programs by meshing the box, completing points onto constraint
boundaries and zooming, then polishing the best point with SLSQP (no HiGHS
and no McCormick envelope on either route).  Instance generators keep
constraint pools small enough that both stay exact and fast.
``reference_relaxation`` builds the McCormick relaxation row by row as a
``LinearProgram``, the reference for ``bnb.RelaxationTemplate``, and
``reference_max_row_violation`` screens a point term by term and row by row.
"""

import itertools
import math

import numpy as np
from scipy.optimize import minimize

from flexgrid.bnb import BilinearProgram, mccormick_rows
from flexgrid.lp import EQ, GE, LE, MAX, MIN, LinearProgram


def random_lp(rng, *, max_vars=12):
    """Feasible, bounded LP with a constraint pool small enough to enumerate.

    Small instances get full boxes plus a few rows; larger ones get x >= 0,
    a simplex row (which makes the feasible set compact) and a few extra rows
    anchored to an interior point.
    """
    n = int(rng.integers(2, max_vars + 1))
    sense = MAX if rng.random() < 0.5 else MIN
    lp = LinearProgram(sense=sense)
    if n <= 6:
        lb = rng.uniform(-1.5, 0.0, n)
        ub = lb + rng.uniform(0.8, 2.5, n)
        for i in range(n):
            lp.add_var(lb=lb[i], ub=ub[i], obj=float(rng.normal()))
        x0 = 0.5 * (lb + ub)
        n_rows = int(rng.integers(1, min(4, 16 - 2 * n) + 1))
    else:
        for i in range(n):
            lp.add_var(lb=0.0, obj=float(rng.normal()))
        x0 = rng.uniform(0.0, 1.0, n)
        x0 *= rng.uniform(0.3, 0.8) / max(x0.sum(), 1e-9)
        lp.add_row({i: 1.0 for i in range(n)}, LE, float(rng.uniform(1.0, 2.5)))
        n_rows = int(rng.integers(0, min(3, 16 - n - 1) + 1))
    for _ in range(n_rows):
        a = rng.normal(size=n)
        rel = LE if rng.random() < 0.7 else GE
        slack = float(rng.uniform(0.05, 0.6))
        rhs = float(a @ x0) + (slack if rel == LE else -slack)
        if rng.random() < 0.12:
            rel, rhs = EQ, float(a @ x0)
        lp.add_row({i: float(a[i]) for i in range(n)}, rel, rhs)
    return lp


def vertex_enumeration_optimum(lp, *, feas_tol=1e-8):
    """Optimal objective by brute force over candidate active sets.

    All constraints (rows and finite bounds) are folded to a <= form;
    equality rows are forced into every active set.  Returns the best
    objective over feasible basic points, or None if no candidate system
    is feasible.
    """
    n = lp.n_vars
    rows_a, rows_b, eq_idx = [], [], []
    for r in range(lp.n_rows):
        a = lp.row_dense(r)
        if lp.relations[r] == LE:
            rows_a.append(a)
            rows_b.append(lp.rhs[r])
        elif lp.relations[r] == GE:
            rows_a.append(-a)
            rows_b.append(-lp.rhs[r])
        else:
            eq_idx.append(len(rows_a))
            rows_a.append(a)
            rows_b.append(lp.rhs[r])
    for i in range(n):
        if math.isfinite(lp.ub[i]):
            e = np.zeros(n)
            e[i] = 1.0
            rows_a.append(e)
            rows_b.append(lp.ub[i])
        if math.isfinite(lp.lb[i]):
            e = np.zeros(n)
            e[i] = -1.0
            rows_a.append(e)
            rows_b.append(-lp.lb[i])
    A = np.array(rows_a)
    b = np.array(rows_b)
    m = A.shape[0]
    free = [i for i in range(m) if i not in eq_idx]
    c = np.array(lp.obj)
    sign = 1.0 if lp.sense == MAX else -1.0

    best = None
    need = n - len(eq_idx)
    if need < 0:
        return None
    for combo in itertools.combinations(free, need):
        active = list(eq_idx) + list(combo)
        M = A[active]
        try:
            x = np.linalg.solve(M, b[active])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.max(A @ x - b) > feas_tol:
            continue
        val = sign * float(c @ x)
        if best is None or val > best:
            best = val
    return None if best is None else sign * best


# ---------------------------------------------------------------------------
# Row-by-row McCormick relaxation and point screening
# ---------------------------------------------------------------------------

def reference_relaxation(bp, lb=None, ub=None):
    """The McCormick relaxation over the boxes ``[lb, ub]``, built row by row.

    One auxiliary variable per distinct product, in ``bp.products()`` order,
    after the base variables; the envelope rows follow the base rows.
    """
    base = bp.base
    lb = base.lb if lb is None else lb
    ub = base.ub if ub is None else ub
    lp = LinearProgram(sense=base.sense)
    for v in range(base.n_vars):
        lp.add_var(name=base.var_names[v], lb=lb[v], ub=ub[v], obj=base.obj[v])

    product_var = {}
    for i, j in bp.products():
        li, ui = lp.lb[i], lp.ub[i]
        lj, uj = lp.lb[j], lp.ub[j]
        if not all(map(math.isfinite, (li, ui, lj, uj))):
            raise ValueError(
                f"product ({base.var_names[i]}, {base.var_names[j]}) needs finite boxes"
            )
        corners = [li * lj, li * uj, ui * lj, ui * uj]
        product_var[(i, j)] = lp.add_var(lb=min(corners), ub=max(corners))

    row_extra = {}
    for t in bp.terms:
        w = product_var[(min(t.var_i, t.var_j), max(t.var_i, t.var_j))]
        row_extra.setdefault(t.row, {})[w] = row_extra.get(t.row, {}).get(w, 0.0) + t.coeff
    for r in range(base.n_rows):
        idx, val = base.row_coeffs(r)
        extra = row_extra.get(r)
        if extra:
            idx = np.concatenate([idx, np.fromiter(extra.keys(), dtype=np.int64)])
            val = np.concatenate([val, np.fromiter(extra.values(), dtype=float)])
        lp.add_row((idx, val), base.relations[r], base.rhs[r], name=base.row_names[r])

    for (i, j), w in product_var.items():
        for a_x, a_y, rel, rhs in mccormick_rows(lp.lb[i], lp.ub[i], lp.lb[j], lp.ub[j]):
            lp.add_row({w: 1.0, i: a_x, j: a_y}, rel, rhs)
    return lp


def reference_max_row_violation(bp, x):
    base = bp.base
    lhs = np.zeros(base.n_rows)
    for r in range(base.n_rows):
        idx, val = base.row_coeffs(r)
        lhs[r] = float(val @ x[idx])
    for t in bp.terms:
        lhs[t.row] += t.coeff * x[t.var_i] * x[t.var_j]
    worst = 0.0
    for r, rel in enumerate(base.relations):
        resid = lhs[r] - base.rhs[r]
        if rel == LE:
            worst = max(worst, resid)
        elif rel == GE:
            worst = max(worst, -resid)
        else:
            worst = max(worst, abs(resid))
    for v in range(base.n_vars):
        worst = max(worst, base.lb[v] - x[v], x[v] - base.ub[v])
    return worst


# ---------------------------------------------------------------------------
# Bilinear instances and the zooming grid oracle
# ---------------------------------------------------------------------------

def random_bilinear(rng, *, max_vars=3):
    """Small bilinear program: box, a couple of rows and a nonconvex objective.

    Every product x_i*x_j (i != j) sits in a constraint row, the form the
    single-level reformulation builds, so the feasible set is nonconvex.
    Objective products go through an epigraph column t (objective weight 1)
    and the row t - sum(coeff*x_i*x_j) <= 0 (>= 0 for MIN), whose envelope is
    loose inside the box, so the branch-and-bound has to split.  Without
    squares the grid oracle's boundary completion (solving a row for one
    variable) stays linear.  The box midpoint of the x columns satisfies the
    other rows strictly; the epigraph row holds with t at lb (ub for MIN).
    """
    n = int(rng.integers(2, max_vars + 1))
    lp = LinearProgram(sense=MAX if rng.random() < 0.5 else MIN)
    lb = rng.uniform(-1.5, 0.0, n)
    ub = lb + rng.uniform(1.0, 2.5, n)
    for i in range(n):
        lp.add_var(lb=lb[i], ub=ub[i], obj=float(rng.uniform(-1.0, 1.0)))
    bp = BilinearProgram(base=lp)
    x_mid = 0.5 * (lb + ub)

    n_terms = int(rng.integers(1, 4))
    obj_terms, row_terms = [], []
    for _ in range(n_terms):
        i = int(rng.integers(0, n))
        j = (i + int(rng.integers(1, n))) % n
        coeff = float(rng.uniform(0.4, 2.0) * rng.choice([-1.0, 1.0]))
        (obj_terms if rng.random() < 0.6 else row_terms).append((coeff, i, j))

    n_rows = int(rng.integers(1, 3))
    for r in range(n_rows):
        a = rng.normal(size=n)
        lhs_mid = float(a @ x_mid)
        terms_here = [t for t_i, t in enumerate(row_terms) if t_i % n_rows == r]
        for coeff, i, j in terms_here:
            lhs_mid += coeff * x_mid[i] * x_mid[j]
        lp.add_row({i: float(a[i]) for i in range(n)}, LE,
                   lhs_mid + float(rng.uniform(0.3, 1.0)))
        for coeff, i, j in terms_here:
            bp.add_term(lp.n_rows - 1, coeff, i, j)

    if obj_terms:
        corners = [[c * a * b for a in (lb[i], ub[i]) for b in (lb[j], ub[j])]
                   for c, i, j in obj_terms]
        t = lp.add_var(lb=sum(map(min, corners)), ub=sum(map(max, corners)), obj=1.0)
        row = lp.add_row({t: 1.0}, LE if lp.sense == MAX else GE, 0.0)
        for coeff, i, j in obj_terms:
            bp.add_term(row, -coeff, i, j)
    return bp


def _bilinear_eval(bp, X):
    """Vectorized objective and feasibility over points X (m, n)."""
    base = bp.base
    obj = X @ np.array(base.obj)
    lhs = np.zeros((X.shape[0], base.n_rows))
    for r in range(base.n_rows):
        lhs[:, r] = X @ base.row_dense(r)
    for t in bp.terms:
        lhs[:, t.row] += t.coeff * X[:, t.var_i] * X[:, t.var_j]
    feas = np.ones(X.shape[0], dtype=bool)
    for r, rel in enumerate(base.relations):
        resid = lhs[:, r] - base.rhs[r]
        if rel == LE:
            feas &= resid <= 1e-9
        elif rel == GE:
            feas &= resid >= -1e-9
        else:
            feas &= np.abs(resid) <= 1e-9
    lb = np.array(base.lb)
    ub = np.array(base.ub)
    feas &= np.all(X >= lb - 1e-12, axis=1) & np.all(X <= ub + 1e-12, axis=1)
    return obj, feas


def _axis_completions(bp, mesh_small, v, boxes):
    """Points where some row is tight in variable v, others on the mesh."""
    base = bp.base
    out = []
    for r in range(base.n_rows):
        a = base.row_dense(r)
        lin = a[v]
        # products touching v contribute linearly once the others are fixed
        cross = [(t.coeff, t.var_i if t.var_j == v else t.var_j)
                 for t in bp.terms if t.row == r and v in (t.var_i, t.var_j)]
        if abs(lin) < 1e-12 and not cross:
            continue
        rest = base.rhs[r] - mesh_small @ a + a[v] * mesh_small[:, v]
        denom = np.full(mesh_small.shape[0], lin)
        for coeff, other in cross:
            denom = denom + coeff * mesh_small[:, other]
        for t in bp.terms:
            if t.row == r and v not in (t.var_i, t.var_j):
                rest = rest - t.coeff * mesh_small[:, t.var_i] * mesh_small[:, t.var_j]
        good = np.abs(denom) > 1e-10
        if not np.any(good):
            continue
        pts = mesh_small[good].copy()
        pts[:, v] = np.clip(rest[good] / denom[good], boxes[v][0], boxes[v][1])
        out.append(pts)
    return out


def _best_linear_values(bp, X, cols):
    """Move each column of ``cols`` (in no product) at every point of X to the
    end of its feasible interval that the objective prefers, the others held;
    a point whose interval is empty keeps its value."""
    base = bp.base
    sigma = 1.0 if base.sense == MAX else -1.0
    for u in cols:
        lo = np.full(X.shape[0], base.lb[u])
        hi = np.full(X.shape[0], base.ub[u])
        for r, rel in enumerate(base.relations):
            a = base.row_dense(r)
            if a[u] == 0.0:
                continue
            rest = X @ a - a[u] * X[:, u]
            for t in bp.terms:
                if t.row == r:
                    rest += t.coeff * X[:, t.var_i] * X[:, t.var_j]
            bound = (base.rhs[r] - rest) / a[u]
            upper = (rel == LE) == (a[u] > 0)
            if rel == EQ or upper:
                hi = np.minimum(hi, bound)
            if rel == EQ or not upper:
                lo = np.maximum(lo, bound)
        ok = lo <= hi
        X[ok, u] = (hi if sigma * base.obj[u] > 0 else lo)[ok]
    return X


def grid_oracle(bp, *, stages=3, pts=25, shrink=8.0):
    """Best true-feasible objective from a zooming mesh with boundary completion.

    A column in no product enters every row linearly: its axis keeps only
    its bounds and midpoint, and every candidate then moves it to the end of
    its feasible interval that the objective prefers."""
    base = bp.base
    n = base.n_vars
    in_product = {v for t in bp.terms for v in (t.var_i, t.var_j)}
    linear = [v for v in range(n) if v not in in_product]
    sigma = 1.0 if base.sense == MAX else -1.0
    boxes = [(base.lb[v], base.ub[v]) for v in range(n)]
    widths0 = [hi - lo for lo, hi in boxes]
    best_val = -math.inf
    best_x = None
    for stage in range(stages):
        axes = [np.linspace(lo, hi, pts if v in in_product else 3)
                for v, (lo, hi) in enumerate(boxes)]
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        cand = [mesh]
        for v in range(n):
            cand.extend(_axis_completions(bp, mesh, v, boxes))
        X = _best_linear_values(bp, np.vstack(cand), linear)
        obj, feas = _bilinear_eval(bp, X)
        if np.any(feas):
            vals = sigma * obj[feas]
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val = float(vals[k])
                best_x = X[feas][k]
        if best_x is None:
            break
        # zoom around the incumbent
        new_boxes = []
        for v in range(n):
            half = widths0[v] / (shrink ** (stage + 1)) * 0.5
            lo = max(base.lb[v], best_x[v] - half)
            hi = min(base.ub[v], best_x[v] + half)
            new_boxes.append((lo, hi))
        boxes = new_boxes
    if best_x is None:
        return None
    polished = _polish(bp, best_x)
    if polished is not None:
        best_val = max(best_val, sigma * polished)
    return sigma * best_val


def _polish(bp, x0):
    """Objective at the SLSQP local optimum from ``x0`` on the exact bilinear
    rows, or None if that point is not feasible.  The mesh misses optima
    where two curved rows meet; the polish walks there from the best mesh point."""
    base = bp.base
    sigma = 1.0 if base.sense == MAX else -1.0
    A = np.array([base.row_dense(r) for r in range(base.n_rows)])
    sign = np.array([{LE: -1.0, GE: 1.0}[rel] for rel in base.relations])

    def slack(x):
        lhs = A @ x
        for t in bp.terms:
            lhs[t.row] += t.coeff * x[t.var_i] * x[t.var_j]
        return sign * (lhs - np.array(base.rhs))

    res = minimize(lambda x: -sigma * float(np.dot(base.obj, x)), x0, method="SLSQP",
                   bounds=list(zip(base.lb, base.ub)),
                   constraints=[{"type": "ineq", "fun": slack}],
                   options={"ftol": 1e-12, "maxiter": 200})
    obj, feas = _bilinear_eval(bp, np.clip(res.x, base.lb, base.ub)[None, :])
    return float(obj[0]) if feas[0] else None
