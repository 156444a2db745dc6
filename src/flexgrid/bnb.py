"""Bilinear programs: McCormick envelopes and spatial branch-and-bound.

A ``BilinearProgram`` is a base LP plus a list of product terms
``coeff * x_i * x_j`` attached either to a constraint row or to the
objective (``row = OBJ_ROW``).  ``mccormick_relax`` replaces every distinct
product with an auxiliary variable bounded by the four McCormick envelope
rows over the current variable boxes; ``spatial_branch_and_bound`` drives
the usual best-first refine loop: solve the relaxation, try to promote a
feasible incumbent, branch on the variable behind the largest envelope
violation, split at the relaxation point clamped away from the box edges.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lp import (
    GE,
    INFEASIBLE,
    LE,
    MAX,
    OPTIMAL,
    LinearProgram,
    solve_lp,
)

OBJ_ROW = -1  # sentinel: the bilinear term lives in the objective


@dataclass(frozen=True)
class BilinearTerm:
    row: int  # constraint row index, or OBJ_ROW
    coeff: float
    var_i: int
    var_j: int


@dataclass
class BilinearProgram:
    base: LinearProgram  # holds only the linear parts
    terms: list[BilinearTerm] = field(default_factory=list)

    def add_term(self, row: int, coeff: float, var_i: int, var_j: int) -> None:
        self.terms.append(BilinearTerm(row, float(coeff), var_i, var_j))

    def product_vars(self) -> list[int]:
        """Variables participating in at least one product, ascending."""
        seen: set[int] = set()
        for t in self.terms:
            seen.add(t.var_i)
            seen.add(t.var_j)
        return sorted(seen)

    def products(self) -> list[tuple[int, int]]:
        """Distinct products as ordered (min, max) index pairs."""
        seen: dict[tuple[int, int], None] = {}
        for t in self.terms:
            seen.setdefault((min(t.var_i, t.var_j), max(t.var_i, t.var_j)))
        return list(seen)

    def true_objective(self, x: np.ndarray) -> float:
        val = float(np.dot(self.base.obj, x))
        for t in self.terms:
            if t.row == OBJ_ROW:
                val += t.coeff * x[t.var_i] * x[t.var_j]
        return val

    def max_row_violation(self, x: np.ndarray) -> float:
        """Worst constraint violation of a point with products evaluated exactly."""
        lhs = np.zeros(self.base.n_rows)
        for r in range(self.base.n_rows):
            idx, val = self.base.row_coeffs(r)
            lhs[r] = float(val @ x[idx])
        for t in self.terms:
            if t.row != OBJ_ROW:
                lhs[t.row] += t.coeff * x[t.var_i] * x[t.var_j]
        worst = 0.0
        for r, rel in enumerate(self.base.relations):
            resid = lhs[r] - self.base.rhs[r]
            if rel == LE:
                worst = max(worst, resid)
            elif rel == GE:
                worst = max(worst, -resid)
            else:
                worst = max(worst, abs(resid))
        # Bounds violations count too; branching must never exclude an incumbent.
        lb = np.array(self.base.lb)
        ub = np.array(self.base.ub)
        worst = max(worst, float(np.max(np.where(np.isfinite(lb), lb - x, 0.0), initial=0.0)))
        worst = max(worst, float(np.max(np.where(np.isfinite(ub), x - ub, 0.0), initial=0.0)))
        return worst


def mccormick_rows(
    l1: float, u1: float, l2: float, u2: float
) -> list[tuple[float, float, float, str, float]]:
    """Envelope rows for w = x*y over [l1,u1] x [l2,u2].

    Each entry is (a_w, a_x, a_y, relation, rhs) for a_w*w + a_x*x + a_y*y REL rhs.
    Underestimators:  w >= l2*x + l1*y - l1*l2   and   w >= u2*x + u1*y - u1*u2
    Overestimators:   w <= u2*x + l1*y - l1*u2   and   w <= l2*x + u1*y - u1*l2
    """
    return [
        (1.0, -l2, -l1, GE, -l1 * l2),
        (1.0, -u2, -u1, GE, -u1 * u2),
        (1.0, -u2, -l1, LE, -l1 * u2),
        (1.0, -l2, -u1, LE, -u1 * l2),
    ]


@dataclass
class Relaxation:
    lp: LinearProgram
    product_var: dict[tuple[int, int], int]  # (i, j) -> aux w index in lp


def mccormick_relax(
    bp: BilinearProgram, boxes: dict[int, tuple[float, float]] | None = None
) -> Relaxation:
    """Build the LP relaxation with one auxiliary variable per distinct product.

    ``boxes`` overrides variable bounds (the branch-and-bound nodes pass their
    current boxes); every variable appearing in a product must end up with
    finite bounds.  A degenerate box [c, c] collapses the envelope to the
    exact linear relation w = c*y.
    """
    base = bp.base
    boxes = boxes or {}
    lp = LinearProgram(sense=base.sense, name=base.name)
    for v in range(base.n_vars):
        lo, hi = boxes.get(v, (base.lb[v], base.ub[v]))
        lp.add_var(name=base.var_names[v], lb=lo, ub=hi, obj=base.obj[v])

    product_var: dict[tuple[int, int], int] = {}
    for i, j in bp.products():
        li, ui = lp.lb[i], lp.ub[i]
        lj, uj = lp.lb[j], lp.ub[j]
        if not all(map(math.isfinite, (li, ui, lj, uj))):
            raise ValueError(
                f"product ({base.var_names[i]}, {base.var_names[j]}) needs finite boxes"
            )
        corners = [li * lj, li * uj, ui * lj, ui * uj]
        w = lp.add_var(name=f"w[{base.var_names[i]}*{base.var_names[j]}]",
                       lb=min(corners), ub=max(corners))
        product_var[(i, j)] = w

    # Per-row bilinear contributions become linear terms on the aux variables.
    row_extra: dict[int, dict[int, float]] = {}
    obj_extra: dict[int, float] = {}
    for t in bp.terms:
        key = (min(t.var_i, t.var_j), max(t.var_i, t.var_j))
        w = product_var[key]
        if t.row == OBJ_ROW:
            obj_extra[w] = obj_extra.get(w, 0.0) + t.coeff
        else:
            row_extra.setdefault(t.row, {})[w] = row_extra.get(t.row, {}).get(w, 0.0) + t.coeff
    for w, coeff in obj_extra.items():
        lp.set_objective(w, coeff)
    for r in range(base.n_rows):
        idx, val = base.row_coeffs(r)
        extra = row_extra.get(r)
        if extra:
            idx = np.concatenate([idx, np.fromiter(extra.keys(), dtype=np.int64)])
            val = np.concatenate([val, np.fromiter(extra.values(), dtype=float)])
        lp.add_row((idx, val), base.relations[r], base.rhs[r], name=base.row_names[r])

    for (i, j), w in product_var.items():
        if i == j:
            lo, hi = lp.lb[i], lp.ub[i]
            # Secants/tangents for the square term w = x^2.
            lp.add_row({w: 1.0, i: -2.0 * lo}, GE, -lo * lo)
            lp.add_row({w: 1.0, i: -2.0 * hi}, GE, -hi * hi)
            lp.add_row({w: 1.0, i: -(lo + hi)}, LE, -lo * hi)
        else:
            for a_w, a_x, a_y, rel, rhs in mccormick_rows(lp.lb[i], lp.ub[i], lp.lb[j], lp.ub[j]):
                lp.add_row({w: a_w, i: a_x, j: a_y}, rel, rhs)
    return Relaxation(lp=lp, product_var=product_var)


@dataclass
class BnBResult:
    status: str  # "optimal" | "infeasible" | "node_limit"
    x: np.ndarray | None
    objective: float | None  # true objective of the incumbent
    bound: float  # best relaxation bound in the problem's sense
    gap: float
    nodes: int


def spatial_branch_and_bound(
    bp: BilinearProgram,
    *,
    epsilon: float = 1e-4,
    feas_tol: float = 1e-6,
    node_limit: int = 5000,
    incumbent_hook=None,
    initial_points=None,
) -> BnBResult:
    """Globally solve a bilinear program by box refinement.

    Best-first search on the relaxation bound.  At each node the McCormick
    relaxation is solved; the relaxation point (and optionally
    ``incumbent_hook(x_rel)``, which may return a candidate point in base
    variable space) is screened for true feasibility within ``feas_tol``.
    ``initial_points`` are warm-start candidates screened the same way before
    the search, which lets a caller with a cheap primal heuristic start from
    a real incumbent instead of waiting for one to fall out of the tree.
    Branching picks the product variable with the largest envelope violation
    and splits its box at the relaxation value clamped to the middle half of
    the box.  Terminates when the remaining bound is within ``epsilon``
    (relative) of the incumbent.
    """
    base = bp.base
    sigma = 1.0 if base.sense == MAX else -1.0  # work in "maximize sigma*obj"
    products = bp.products()
    root_boxes = {
        v: (base.lb[v], base.ub[v]) for v in bp.product_vars()
    }

    best_x: np.ndarray | None = None
    best_val = -math.inf  # in sigma-space

    def try_candidate(x) -> None:
        nonlocal best_x, best_val
        if x is None:
            return
        x = np.asarray(x, dtype=float)
        if x.shape[0] != base.n_vars or bp.max_row_violation(x) > feas_tol:
            return
        val = sigma * bp.true_objective(x)
        if val > best_val + 1e-12:
            best_val = val
            best_x = x.copy()

    def close_enough(bound_sigma: float) -> bool:
        return bound_sigma <= best_val + epsilon * (1.0 + abs(best_val))

    for point in initial_points or ():
        try_candidate(point)

    counter = itertools.count()
    # Heap entries: (-sigma_bound, tiebreak, boxes).  Root bound is +inf until solved.
    heap: list[tuple[float, int, dict]] = [(-math.inf, next(counter), root_boxes)]
    nodes = 0
    exhausted = True
    leftover_bound = -math.inf  # tightest open bound at an early exit

    while heap:
        neg_bound, _, boxes = heapq.heappop(heap)
        parent_bound = -neg_bound
        if best_x is not None and close_enough(parent_bound):
            # Best-first order: every remaining node is at least as loose.
            leftover_bound = parent_bound
            break
        if nodes >= node_limit:
            exhausted = False
            leftover_bound = parent_bound
            break
        nodes += 1

        relax = mccormick_relax(bp, boxes)
        cert = solve_lp(relax.lp)
        if cert.status == INFEASIBLE:
            continue
        if cert.status != OPTIMAL:
            # Unbounded relaxation: only possible with unbounded non-product
            # variables; treat as a modeling error.
            raise ValueError(f"relaxation solve failed: {cert.status}")
        x_rel = cert.x[: base.n_vars]
        node_bound = min(parent_bound, sigma * cert.objective)  # monotone down the tree

        try_candidate(x_rel)
        if incumbent_hook is not None:
            try_candidate(incumbent_hook(x_rel))
        if best_x is not None and close_enough(node_bound):
            continue

        # Largest envelope violation picks the branching product.
        worst_gap = 0.0
        worst_pair = None
        for (i, j) in products:
            w = cert.x[relax.product_var[(i, j)]]
            gap = abs(w - x_rel[i] * x_rel[j])
            if gap > worst_gap + 1e-15:
                worst_gap = gap
                worst_pair = (i, j)
        if worst_pair is None or worst_gap <= 1e-12:
            # Envelope already exact: the relaxation point was a true candidate,
            # so this node is closed.
            continue

        i, j = worst_pair
        wi = boxes[i][1] - boxes[i][0]
        wj = boxes[j][1] - boxes[j][0]
        v = i if (i == j or wi >= wj) else j
        lo, hi = boxes[v]
        split = min(max(x_rel[v], lo + 0.25 * (hi - lo)), lo + 0.75 * (hi - lo))
        for child_lo, child_hi in ((lo, split), (split, hi)):
            child = dict(boxes)
            child[v] = (child_lo, child_hi)
            heapq.heappush(heap, (-node_bound, next(counter), child))

    if best_x is None:
        status = INFEASIBLE if exhausted else "node_limit"
        return BnBResult(status=status, x=None, objective=None,
                         bound=math.inf * sigma, gap=math.inf, nodes=nodes)

    open_bound = max((-b for b, _, _ in heap), default=-math.inf)
    open_bound = max(open_bound, leftover_bound, best_val)
    gap = open_bound - best_val
    status = OPTIMAL if (exhausted or gap <= epsilon * (1.0 + abs(best_val))) else "node_limit"
    return BnBResult(
        status=status,
        x=best_x,
        objective=sigma * best_val,
        bound=sigma * open_bound,
        gap=gap,
        nodes=nodes,
    )
