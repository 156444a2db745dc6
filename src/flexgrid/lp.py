"""Linear programming layer: problem container, exact solves, dual certificates.

Problems are built in blocks of variables with bounds and of rows with
free-form relations (<=, >=, =), their coefficients given as (row, column,
value) triplets, then handed to HiGHS (via scipy) for the actual solve.
Duals come back in a single sensitivity convention that makes the strong
duality identity read the same for both senses:

    objective = sum(row_duals * rhs) + sum(lower_duals * lb) + sum(upper_duals * ub)

where bound terms run over finite bounds only, and the reduced cost of a
variable is lower_duals + upper_duals.  ``verify_strong_duality`` checks that
identity plus complementary slackness on a returned certificate.

There is one materialized form, ``RangedLP``: one CSC matrix whose rows
are ranged, ``row_lb <= A x <= row_ub``, as HiGHS holds them.
``LinearProgram.materialize`` gives it with the rows in program order, and
a caller that assembles its own arrays (the branch-and-bound relaxations)
builds it directly.  Rows are folded only on the way into scipy's
``linprog``, which takes <= and = rows: ``solve_materialized`` negates the
>= rows there and undoes the negation on the duals.  ``solve_lp`` solves a
``RangedLP`` primal-only, with no duals on the certificate, after checking
it for NaN and infinite entries.  A bare solve runs on one HiGHS instance
the module keeps and passes the whole model, which drops the previous
model and basis, so it starts cold.  A solve on a ``KeptModel`` (the
branch-and-bound keeps one per search) writes only what differs from the
LP that model holds and re-solves warm from a basis an earlier solve left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csc_array

LE = "<="
GE = ">="
EQ = "="
_RELATIONS = (LE, GE, EQ)

MAX = "max"
MIN = "min"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

DEFAULT_METHOD = "highs"


class LPEngineError(RuntimeError):
    """Raised when the backend fails for reasons other than infeasible/unbounded."""


class LinearProgram:
    """Growable LP: variables with bounds and an objective, rows with relations.

    ``add_var`` and ``add_row`` add a block of one to ``add_vars``/``add_rows``;
    the coefficients are kept as (row, column, value) triplets in row order.
    """

    def __init__(self, sense: str = MAX):
        if sense not in (MAX, MIN):
            raise ValueError(f"sense must be {MAX!r} or {MIN!r}")
        self.sense = sense
        self.obj: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.var_names: list[str] = []
        self._coo = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
        self.relations: list[str] = []
        self.rhs: list[float] = []
        self.row_names: list[str] = []

    @property
    def n_vars(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    def add_vars(self, names: list[str], lb=-math.inf, ub=math.inf, obj=0.0) -> np.ndarray:
        """Add one variable per name (an empty name becomes ``x<column>``) and
        return their columns; ``lb``, ``ub`` and ``obj`` are scalars or one per name."""
        first, k = self.n_vars, len(names)
        lb, ub, obj = (np.full(k, a, dtype=float) for a in (lb, ub, obj))
        bad = np.flatnonzero(lb > ub)
        if bad.size:
            i = bad[0]
            raise ValueError(f"variable {names[i] or first + i}: lb {lb[i]} > ub {ub[i]}")
        self.var_names += [name or f"x{first + i}" for i, name in enumerate(names)]
        self.lb += lb.tolist()
        self.ub += ub.tolist()
        self.obj += obj.tolist()
        return np.arange(first, first + k)

    def add_var(
        self,
        name: str = "",
        lb: float = -math.inf,
        ub: float = math.inf,
        obj: float = 0.0,
    ) -> int:
        return int(self.add_vars([name], lb, ub, obj)[0])

    def set_objective(self, var: int, coeff: float) -> None:
        self.obj[var] = float(coeff)

    def add_rows(self, entries, relations: list[str], rhs, names: list[str]) -> np.ndarray:
        """Add one row per name (an empty name becomes ``r<row>``); returns them.

        ``entries`` holds (row, column, value) arrays, rows counted from 0 in
        the block, in any order; a row's entries keep their order.  Zeros and
        repeated columns may be included (``materialize`` sums repeats)."""
        first, k = self.n_rows, len(names)
        rows, cols = (np.asarray(a, dtype=np.int64) for a in entries[:2])
        vals = np.asarray(entries[2], dtype=float)
        for relation in relations:
            if relation not in _RELATIONS:
                raise ValueError(f"unknown relation {relation!r}")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_vars):
            raise ValueError("row references an unknown variable index")
        order = np.argsort(rows, kind="stable")
        self._coo.append((first + rows[order], cols[order], vals[order]))
        self.relations += relations
        self.rhs += np.full(k, rhs, dtype=float).tolist()
        self.row_names += [name or f"r{first + i}" for i, name in enumerate(names)]
        return np.arange(first, first + k)

    def add_row(self, coeffs, relation: str, rhs: float, name: str = "") -> int:
        """Add a constraint row.  ``coeffs`` is a {var: coeff} dict or an
        (indices, values) pair; zero coefficients may be included."""
        idx, val = (list(coeffs), list(coeffs.values())) if isinstance(coeffs, dict) else coeffs
        return int(self.add_rows((np.zeros(len(idx)), idx, val), [relation], rhs, [name])[0])

    def _triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entry as (row, column, value) arrays, rows ascending."""
        if len(self._coo) > 1:
            self._coo = [tuple(np.concatenate(a) for a in zip(*self._coo))]
        return self._coo[0]

    def row_coeffs(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        rows, cols, vals = self._triplets()
        lo, hi = np.searchsorted(rows, (row, row + 1))
        return cols[lo:hi], vals[lo:hi]

    def row_dense(self, row: int) -> np.ndarray:
        a = np.zeros(self.n_vars)
        idx, val = self.row_coeffs(row)
        np.add.at(a, idx, val)
        return a

    def materialize(self) -> RangedLP:
        """The rows in program order as ranged rows: a <= row gets the bounds
        (-inf, rhs), a >= row (rhs, +inf) and an = row (rhs, rhs).  Repeated
        column indices in a row are summed."""
        rows, cols, vals = self._triplets()
        A = csc_array((vals, (rows, cols)), shape=(self.n_rows, self.n_vars))
        relations = np.array(self.relations, dtype="U2")
        rhs = np.array(self.rhs, dtype=float)
        return RangedLP(
            sense=self.sense,
            c=np.array(self.obj, dtype=float),
            A=A,
            row_lb=np.where(relations == LE, -np.inf, rhs),
            row_ub=np.where(relations == GE, np.inf, rhs),
            lb=np.array(self.lb, dtype=float),
            ub=np.array(self.ub, dtype=float),
        )


@dataclass
class RangedLP:
    """An LP as HiGHS holds it: ``row_lb <= A x <= row_ub``, ``lb <= x <= ub``.

    ``A`` is a CSC matrix; an equality row has ``row_lb == row_ub`` and a
    one-sided row an infinite side.  ``solve_lp`` hands these arrays to
    HiGHS as they are; ``solve_materialized`` folds them for ``linprog``.
    """

    sense: str
    c: np.ndarray
    A: csc_array
    row_lb: np.ndarray
    row_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray


@dataclass
class DualCertificate:
    """Solve outcome with primal point and dual sensitivities.

    ``row_duals[i]`` is d(objective)/d(rhs_i) in the problem's own sense;
    ``lower_duals``/``upper_duals`` are the matching bound sensitivities
    (zero for infinite bounds).  For non-optimal statuses only ``status``
    is meaningful.
    """

    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    row_duals: np.ndarray | None = None
    lower_duals: np.ndarray | None = None
    upper_duals: np.ndarray | None = None
    method: str = DEFAULT_METHOD

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def solve_materialized(mat: RangedLP) -> DualCertificate:
    """Solve an LP in the form ``LinearProgram.materialize`` gives with HiGHS
    through ``linprog``, with duals.

    ``linprog`` takes only <= and = rows, so this is the one place rows are
    folded: a row with ``row_lb == row_ub`` is an = row, a row whose only
    finite side is ``row_lb`` is negated into a <= row, and every other row
    must have ``row_lb = -inf``, as ``materialize`` gives them.  The <= rows
    keep their order, then come the = rows; the duals come back in row
    order.
    """
    eq = mat.row_lb == mat.row_ub
    ge = ~eq & np.isinf(mat.row_ub)
    ub_rows, eq_rows = np.flatnonzero(~eq), np.flatnonzero(eq)
    ub_sign = np.where(ge[ub_rows], -1.0, 1.0)
    A = mat.A.tocsr()
    A_ub, A_eq = A[ub_rows], A[eq_rows]
    A_ub.data *= np.repeat(ub_sign, np.diff(A_ub.indptr))
    b_ub = ub_sign * np.where(ge, mat.row_lb, mat.row_ub)[ub_rows]
    b_eq = mat.row_ub[eq_rows]
    sign = -1.0 if mat.sense == MAX else 1.0
    res = linprog(
        sign * mat.c,
        A_ub=A_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=A_eq if b_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=np.column_stack([mat.lb, mat.ub]),
        method=DEFAULT_METHOD,
    )
    if res.status == 2:
        return DualCertificate(status=INFEASIBLE)
    if res.status == 3:
        return DualCertificate(status=UNBOUNDED)
    if res.status != 0:
        raise LPEngineError(f"LP backend failure (status {res.status}): {res.message}")

    x = np.asarray(res.x, dtype=float)
    objective = float(mat.c @ x)
    row_duals = np.zeros(mat.row_lb.size)
    lower_duals = np.zeros(mat.c.shape[0])
    upper_duals = np.zeros(mat.c.shape[0])
    # scipy marginals are sensitivities of the minimized objective; undo the
    # sense flip and the >=-row negation to get sensitivities of ours.  For a
    # maximize problem the minimized objective is the negative of ours, and
    # folding a >= row negates its rhs, so both corrections multiply in.
    if b_ub.size and res.ineqlin is not None:
        row_duals[ub_rows] = sign * ub_sign * np.asarray(res.ineqlin.marginals)
    if b_eq.size and res.eqlin is not None:
        row_duals[eq_rows] = sign * np.asarray(res.eqlin.marginals)
    if res.lower is not None:
        lower_duals = sign * np.asarray(res.lower.marginals)
    if res.upper is not None:
        upper_duals = sign * np.asarray(res.upper.marginals)
    lower_duals = np.where(np.isfinite(mat.lb), lower_duals, 0.0)
    upper_duals = np.where(np.isfinite(mat.ub), upper_duals, 0.0)
    return DualCertificate(
        status=OPTIMAL,
        objective=objective,
        x=x,
        row_duals=row_duals,
        lower_duals=lower_duals,
        upper_duals=upper_duals,
    )


_highs: highs._Highs | None = None

# HiGHS model status -> certificate status, as ``milp`` maps them.  A model
# HiGHS rejects (such as a column whose bounds are both +inf) counts as
# infeasible; any status not listed is an engine failure.
_RANGED_STATUS = {
    highs.HighsModelStatus.kOptimal: OPTIMAL,
    highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    highs.HighsModelStatus.kModelError: INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}


def _new_highs() -> highs._Highs:
    h = highs._Highs()
    h.setOptionValue("log_to_console", False)
    return h


def _pass_model(h: highs._Highs, lp: RangedLP) -> bool:
    """Hand ``lp`` whole to ``h``, which drops its model and basis; False
    when HiGHS rejects the model."""
    sign = -1.0 if lp.sense == MAX else 1.0
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.c.size
    model.num_row_ = model.a_matrix_.num_row_ = lp.row_lb.size
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = lp.A.indptr
    model.a_matrix_.index_ = lp.A.indices
    model.a_matrix_.value_ = lp.A.data
    model.col_cost_ = sign * lp.c
    model.col_lower_ = lp.lb
    model.col_upper_ = lp.ub
    model.row_lower_ = lp.row_lb
    model.row_upper_ = lp.row_ub
    return h.passModel(model) != highs.HighsStatus.kError


def _run(h: highs._Highs, lp: RangedLP) -> DualCertificate | None:
    """Solve the model ``lp`` that ``h`` holds; None for a HiGHS status
    ``_RANGED_STATUS`` does not map."""
    h.run()
    status = _RANGED_STATUS.get(h.getModelStatus())
    if status is None:
        return None
    if status != OPTIMAL:
        return DualCertificate(status=status)
    x = np.array(h.getSolution().col_value)
    return DualCertificate(status=OPTIMAL, objective=float(lp.c @ x), x=x)


def _run_cold(h: highs._Highs, lp: RangedLP) -> DualCertificate:
    """``_run`` on a model just passed; an unmapped status is an engine failure."""
    cert = _run(h, lp)
    if cert is None:
        raise LPEngineError(f"LP backend failure: {h.modelStatusToString(h.getModelStatus())}")
    return cert


# HiGHS instances of ended searches.  A new ``KeptModel`` takes one of these
# before it makes its own, which spares a single-node search the set-up of a
# fresh instance.
_spare_highs: list[highs._Highs] = []


class KeptModel:
    """One HiGHS instance that re-solves a sequence of LPs in place.

    An LP that comes without a basis, or whose sense, shape, objective or
    sparsity pattern differs from the held one, is passed whole and solved
    cold with HiGHS defaults, exactly as a bare ``solve_lp`` solves it.
    Any other LP changes the held model where it differs (column bounds,
    matrix entries, row bounds) and is re-solved from ``basis``, which
    ``basis()`` gave after an earlier solve, with presolve off (on the
    branch-and-bound's small relaxations it costs more than it saves).
    A warm solve ending in a HiGHS status ``solve_lp`` does not map is
    solved again cold; ``cold_resolves`` counts these.  ``close`` hands
    the instance on to the next ``KeptModel`` made.
    """

    def __init__(self):
        self._highs = _spare_highs.pop() if _spare_highs else _new_highs()
        self._held: RangedLP | None = None  # the LP the instance holds
        self.cold_resolves = 0

    def close(self) -> None:
        """Hand the instance on to a later ``KeptModel``; this one is done."""
        _spare_highs.append(self._highs)
        self._highs = self._held = None

    def basis(self) -> highs.HighsBasis:
        """A copy of the basis the last solve ended at."""
        return self._highs.getBasis()

    def _holds_shape_of(self, lp: RangedLP) -> bool:
        held = self._held
        return (
            held is not None and held.sense == lp.sense and held.A.shape == lp.A.shape
            and np.array_equal(held.c, lp.c) and np.array_equal(held.A.indptr, lp.A.indptr)
            and np.array_equal(held.A.indices, lp.A.indices)
        )

    def _write_changes(self, lp: RangedLP) -> None:
        held, h = self._held, self._highs
        cols = np.flatnonzero((lp.lb != held.lb) | (lp.ub != held.ub))
        if cols.size:
            h.changeColsBounds(cols.size, cols.astype(np.int32), lp.lb[cols], lp.ub[cols])
        pos = np.flatnonzero(lp.A.data != held.A.data)
        pos_col = np.searchsorted(lp.A.indptr, pos, side="right") - 1
        for r, c, v in zip(lp.A.indices[pos].tolist(), pos_col.tolist(), lp.A.data[pos].tolist()):
            h.changeCoeff(r, c, v)
        for r in np.flatnonzero((lp.row_lb != held.row_lb) | (lp.row_ub != held.row_ub)).tolist():
            h.changeRowBounds(r, lp.row_lb[r], lp.row_ub[r])

    def solve(self, lp: RangedLP, basis: highs.HighsBasis | None) -> DualCertificate:
        h = self._highs
        if basis is not None and self._holds_shape_of(lp):
            self._write_changes(lp)
            self._held = lp
            h.setBasis(basis)
            h.setOptionValue("presolve", "off")
            cert = _run(h, lp)
            if cert is not None:
                return cert
            self.cold_resolves += 1
        h.setOptionValue("presolve", "choose")
        if not _pass_model(h, lp):
            self._held = None
            return DualCertificate(status=INFEASIBLE)
        self._held = lp
        return _run_cold(h, lp)


def solve_lp(
    lp: LinearProgram | RangedLP,
    kept: KeptModel | None = None,
    basis: highs.HighsBasis | None = None,
) -> DualCertificate:
    """Solve an LP exactly.

    A ``LinearProgram`` is materialized and solved through ``linprog`` by
    ``solve_materialized``, and comes back with the primal point and its
    dual sensitivities.  A ``RangedLP`` is solved primal-only by HiGHS's
    default LP solver, called directly rather than through scipy, with its
    ranged rows as they are: its certificate carries the status, ``x`` and
    the objective, and no duals.  A NaN or infinite objective or matrix
    entry, or a NaN bound, raises ``ValueError`` before HiGHS sees it.
    Without ``kept`` the solve is cold and leaves nothing behind; with it,
    ``kept`` solves the LP, warm from ``basis`` when it can (see
    ``KeptModel``).
    """
    if not isinstance(lp, RangedLP):
        return solve_materialized(lp.materialize())
    if not (np.isfinite(lp.c).all() and np.isfinite(lp.A.data).all()):
        raise ValueError("RangedLP: c and A must hold finite numbers")
    if any(np.isnan(b).any() for b in (lp.lb, lp.ub, lp.row_lb, lp.row_ub)):
        raise ValueError("RangedLP: bounds must not hold NaN")
    if kept is not None:
        return kept.solve(lp, basis)
    global _highs
    if _highs is None:
        _highs = _new_highs()
    if not _pass_model(_highs, lp):
        return DualCertificate(status=INFEASIBLE)
    return _run_cold(_highs, lp)


@dataclass
class DualityReport:
    ok: bool
    gap: float  # |primal - dual| objective gap
    max_slackness: float  # worst complementary-slackness residual
    primal_objective: float


def verify_strong_duality(
    lp: LinearProgram,
    cert: DualCertificate,
    *,
    gap_tol: float = 1e-6,
    slack_tol: float = 1e-6,
) -> DualityReport:
    """Check the duality identity and complementary slackness for a certificate.

    The gap test is relative (tol * (1 + |primal|)); slackness multiplies each
    row dual by its row slack and each bound dual by its bound slack.  The
    identity is basis-independent, so degenerate problems with multiple optima
    still verify regardless of which optimal vertex the backend returned.
    """
    if not cert.is_optimal:
        raise ValueError("strong duality can only be verified on an optimal certificate")
    mat = lp.materialize()
    x, y = cert.x, cert.row_duals
    rhs = np.array(lp.rhs, dtype=float)
    fin_l, fin_u = np.isfinite(mat.lb), np.isfinite(mat.ub)
    primal = float(mat.c @ x)
    dual = float(
        y @ rhs + cert.lower_duals[fin_l] @ mat.lb[fin_l] + cert.upper_duals[fin_u] @ mat.ub[fin_u]
    )
    max_slack = float(max(
        np.max(np.abs(y * (rhs - mat.A @ x)), initial=0.0),
        np.max(np.abs(cert.lower_duals[fin_l] * (x - mat.lb)[fin_l]), initial=0.0),
        np.max(np.abs(cert.upper_duals[fin_u] * (mat.ub - x)[fin_u]), initial=0.0),
    ))
    gap = abs(primal - dual)
    scale = 1.0 + abs(primal)
    ok = gap <= gap_tol * scale and max_slack <= slack_tol * scale
    return DualityReport(
        ok=ok,
        gap=gap,
        max_slackness=max_slack,
        primal_objective=primal,
    )
