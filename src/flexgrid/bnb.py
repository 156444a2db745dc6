"""Bilinear programs: McCormick envelopes and spatial branch-and-bound.

A ``BilinearProgram`` is a base LP plus a list of product terms
``coeff * x_i * x_j`` of two distinct variables, each attached to a
constraint row; the objective stays linear.  This is the form the LP-duality
single level takes: every product is an upper-level slot times a follower
variable or dual.  Its McCormick relaxation replaces every distinct product
with an auxiliary variable bounded by the four envelope rows over the current
variable boxes.  A ``RelaxationTemplate`` assembles that relaxation once per
search as one CSC matrix with ranged rows; ``mccormick_relax`` then writes, in
numpy only, what a node changes: the column bounds, the envelope coefficients
and the envelope row bounds.  ``spatial_branch_and_bound`` drives the usual
best-first refine loop: solve the relaxation (primal-only), try to promote a
feasible incumbent, branch on the variable behind the largest envelope
violation, split at the relaxation point clamped away from the box edges.
Once the search holds an incumbent, each node's box is first tightened by
the objective cutoff (``cutoff_box``: bounds tightening from the objective
row, as in Belotti, Lee, Liberti, Margot & Wächter 2009), and the node hook
is given the objective a candidate must beat, so a caller can skip work on
one that cannot.  A search may also shrink its root box once, before the
root solve, by optimization-based bound tightening under the incumbent
(``tighten_box``: Gleixner, Berthold, Müller & Weltge 2017, "Three
enhancements for optimization-based bound tightening").  One HiGHS model
is kept per search: the tightening LPs and the root are solved on it, and
every later node changes that model in place and re-solves warm from its
parent's basis.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_array, csr_array, vstack

from .lp import (
    GE,
    INFEASIBLE,
    LE,
    MAX,
    OPTIMAL,
    KeptModel,
    LinearProgram,
    RangedLP,
    solve_lp,
)

FEAS_TOL = 1e-6  # worst row violation of a point the search accepts as feasible
IMPROVE_TOL = 1e-12  # a candidate replaces the incumbent only when better by more than this
NODE_LIMIT = "node_limit"  # status of a search stopped at its node limit with a gap
LP_TOL = 1e-7  # HiGHS's primal feasibility tolerance: a bound moves inward by more or not at all
TIGHTEN_ROUNDS = 3  # most rounds of root bound tightening


@dataclass(frozen=True)
class BilinearTerm:
    row: int  # constraint row index
    coeff: float
    var_i: int
    var_j: int


@dataclass
class BilinearProgram:
    base: LinearProgram  # holds only the linear parts
    terms: list[BilinearTerm] = field(default_factory=list)

    def add_term(self, row: int, coeff: float, var_i: int, var_j: int) -> None:
        if var_i == var_j:
            raise ValueError(f"product of {self.base.var_names[var_i]} with itself")
        self.terms.append(BilinearTerm(row, float(coeff), var_i, var_j))

    def products(self) -> list[tuple[int, int]]:
        """Distinct products as ordered (min, max) index pairs."""
        seen: dict[tuple[int, int], None] = {}
        for t in self.terms:
            seen.setdefault((min(t.var_i, t.var_j), max(t.var_i, t.var_j)))
        return list(seen)


def mccormick_rows(l1, u1, l2, u2) -> list[tuple]:
    """Envelope rows for w = x*y over [l1,u1] x [l2,u2].

    Each entry is (a_x, a_y, relation, rhs) for w + a_x*x + a_y*y REL rhs.
    Underestimators:  w >= l2*x + l1*y - l1*l2   and   w >= u2*x + u1*y - u1*u2
    Overestimators:   w <= u2*x + l1*y - l1*u2   and   w <= l2*x + u1*y - u1*l2
    The bounds may be floats or equal-shape arrays (one product per entry).
    """
    return [
        (-l2, -l1, GE, -l1 * l2),
        (-u2, -u1, GE, -u1 * u2),
        (-u2, -l1, LE, -l1 * u2),
        (-l2, -u1, LE, -u1 * l2),
    ]


class RelaxationTemplate:
    """The McCormick relaxation of a bilinear program, assembled once.

    Columns: the base variables, then one auxiliary w per distinct product,
    in ``bp.products()`` order (column ``n_vars + k`` for product k).  Rows:
    the base rows as ``LinearProgram.materialize`` gives them (in program
    order, ranged), then the four envelope rows of each product in turn,
    each with its rhs on the side its relation bounds.  A row's product
    terms sit on the w columns; the objective is zero on them.  The
    template is a snapshot: terms or rows added to ``bp`` later are not in
    it.

    It also screens candidate points: the base rows evaluated at the lifted
    point (x, x_i*x_j) are exactly the bilinear rows.
    """

    def __init__(self, bp: BilinearProgram):
        base = bp.base
        mat = base.materialize()
        n = base.n_vars
        products = bp.products()
        n_w = len(products)
        self.sense = base.sense
        self.n_vars = n
        self.var_names = list(base.var_names)
        pi = np.array([i for i, _ in products], dtype=np.int64)
        pj = np.array([j for _, j in products], dtype=np.int64)
        self.prod_i, self.prod_j = pi, pj
        self.lb, self.ub = mat.lb, mat.ub
        self.c = np.concatenate([mat.c, np.zeros(n_w)])

        # Product terms on the w columns, accumulated in term order.
        col = {p: n + k for k, p in enumerate(products)}
        row_extra: dict[tuple[int, int], float] = {}
        for t in bp.terms:
            key = (t.row, col[(min(t.var_i, t.var_j), max(t.var_i, t.var_j))])
            row_extra[key] = row_extra.get(key, 0.0) + t.coeff

        # Base rows with their product terms: the screening matrix.
        coo = mat.A.tocoo()
        ex_r = np.fromiter((r for r, _ in row_extra), dtype=np.int64, count=len(row_extra))
        ex_c = np.fromiter((w for _, w in row_extra), dtype=np.int64, count=len(row_extra))
        ex_v = np.fromiter(row_extra.values(), dtype=float, count=len(row_extra))
        rows = np.concatenate([coo.row, ex_r])
        cols = np.concatenate([coo.col, ex_c])
        vals = np.concatenate([coo.data, ex_v])
        n_base = base.n_rows
        self._screen = csr_array((vals, (rows, cols)), shape=(n_base, n + n_w))
        self._screen_lb, self._screen_ub = mat.row_lb, mat.row_ub

        # Envelope rows: product k's four start at n_base + 4k, each with a
        # w, an x and a y entry.  The x/y coefficients are placeholders until
        # a node writes them.
        env_rows = n_base + 4 * np.arange(n_w, dtype=np.int64)[:, None] + np.arange(4)
        env_r = np.tile(env_rows.ravel(), 3)
        env_c = np.repeat(np.concatenate([n + np.arange(n_w), pi, pj]), 4)
        m = n_base + 4 * n_w
        self.A = csc_array(
            (np.concatenate([vals, np.ones(env_r.size)]),
             (np.concatenate([rows, env_r]), np.concatenate([cols, env_c]))),
            shape=(m, n + n_w),
        )
        self.A.sort_indices()
        # Position in A.data of each envelope entry: CSC keys col*m + row ascend.
        keys = np.repeat(np.arange(n + n_w, dtype=np.int64) * m, np.diff(self.A.indptr))
        keys += self.A.indices

        def positions(r, c):
            return np.searchsorted(keys, c * m + r)

        # The entries and row sides a node writes, row kind by row kind, in
        # the order ``mccormick_relax`` lists their values.
        self._coef_pos = np.concatenate([
            positions(env_rows, pi[:, None]).T.ravel(),
            positions(env_rows, pj[:, None]).T.ravel(),
        ])
        ge = np.array([rel == GE for *_, rel, _ in mccormick_rows(0.0, 0.0, 0.0, 0.0)])
        self._ge_rows = env_rows[:, ge].T.ravel()
        self._le_rows = env_rows[:, ~ge].T.ravel()
        self.row_lb = np.concatenate([mat.row_lb, np.full(4 * n_w, -np.inf)])
        self.row_ub = np.concatenate([mat.row_ub, np.full(4 * n_w, np.inf)])

    def max_row_violation(self, x: np.ndarray) -> float:
        """Worst constraint violation of a point with products evaluated exactly."""
        x = np.asarray(x, dtype=float)
        ax = self._screen @ np.concatenate([x, x[self.prod_i] * x[self.prod_j]])
        # Bounds violations count too; branching must never exclude an incumbent.
        return float(max(
            np.max(self._screen_lb - ax, initial=0.0),
            np.max(ax - self._screen_ub, initial=0.0),
            np.max(self.lb - x, initial=0.0),
            np.max(x - self.ub, initial=0.0),
        ))


def mccormick_relax(
    tpl: RelaxationTemplate, lb: np.ndarray | None = None, ub: np.ndarray | None = None
) -> RangedLP:
    """The template's relaxation over the variable boxes ``[lb, ub]``.

    ``lb``/``ub`` override the base bounds of every variable (the
    branch-and-bound nodes pass their current boxes); every variable
    appearing in a product must have finite bounds.  A degenerate box
    [c, c] collapses the envelope to the exact linear relation w = c*y.
    """
    lb = tpl.lb if lb is None else lb
    ub = tpl.ub if ub is None else ub
    li, ui = lb[tpl.prod_i], ub[tpl.prod_i]
    lj, uj = lb[tpl.prod_j], ub[tpl.prod_j]
    finite = np.isfinite(np.stack([li, ui, lj, uj])).all(axis=0)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(
            f"product ({tpl.var_names[tpl.prod_i[k]]}, {tpl.var_names[tpl.prod_j[k]]}) "
            "needs finite boxes"
        )
    corners = np.stack([li * lj, li * uj, ui * lj, ui * uj])

    rows = mccormick_rows(li, ui, lj, uj)
    # The template's matrix with new entries: its index arrays are shared,
    # not checked again, so the kept model sees the same pattern at once.
    A = copy.copy(tpl.A)
    A.data = tpl.A.data.copy()
    A.data[tpl._coef_pos] = np.concatenate(
        [a_x for a_x, _, _, _ in rows] + [a_y for _, a_y, _, _ in rows]
    )
    row_lb, row_ub = tpl.row_lb.copy(), tpl.row_ub.copy()
    row_lb[tpl._ge_rows] = np.concatenate([rhs for *_, rel, rhs in rows if rel == GE])
    row_ub[tpl._le_rows] = np.concatenate([rhs for *_, rel, rhs in rows if rel == LE])
    return RangedLP(
        sense=tpl.sense,
        c=tpl.c,
        A=A,
        row_lb=row_lb,
        row_ub=row_ub,
        lb=np.concatenate([lb, corners.min(axis=0)]),
        ub=np.concatenate([ub, corners.max(axis=0)]),
    )


def cutoff_box(
    obj: np.ndarray, lb: np.ndarray, ub: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """The box ``[lb, ub]`` cut to where ``obj @ x >= floor`` can still hold.

    Each variable with a nonzero objective weight must let its term reach
    ``floor`` less the most the other terms reach over the box, so its
    bound moves inward to that; the cut keeps every point of the box whose
    objective reaches ``floor``.  None when the box comes out empty.  While
    some term is unbounded over the box, the box comes back unchanged.
    """
    # In Python floats: an objective has few terms, and a node calls this once.
    cols = np.flatnonzero(obj)
    w, lo, hi = obj[cols].tolist(), lb[cols].tolist(), ub[cols].tolist()
    top = [wk * (b if wk > 0 else a) for wk, a, b in zip(w, lo, hi)]  # each term's largest
    if not all(map(math.isfinite, top)):
        return lb, ub
    reach = sum(top)
    for k, wk in enumerate(w):
        edge = (floor - (reach - top[k])) / wk
        if wk > 0:
            lo[k] = max(lo[k], edge)
        else:
            hi[k] = min(hi[k], edge)
    if any(a > b for a, b in zip(lo, hi)):
        return None
    lb, ub = lb.copy(), ub.copy()
    lb[cols], ub[cols] = lo, hi
    return lb, ub


def tighten_box(
    tpl: RelaxationTemplate, kept: KeptModel, obj: np.ndarray,
    lb: np.ndarray, ub: np.ndarray, floor: float,
) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """The box ``[lb, ub]`` shrunk to where ``obj @ x >= floor`` can still
    hold, by minimizing and maximizing each product variable over the
    McCormick relaxation plus that cutoff row; also gives the LPs solved.

    The LPs run on ``kept``: the first is passed whole (the cutoff row gives
    it a shape of its own), every later one writes only its objective, or a
    round's new box, and re-solves warm.  A side that a solution of the
    round sits at, within the margin below, cannot move and is not solved.
    A bound moves to the LP's optimum less an outward margin of
    ``FEAS_TOL`` * (1 + |optimum|), and only when that is more than
    ``LP_TOL`` inward, so no point the search would accept is cut off.  A
    round solves one fixed LP; the next, over the shrunk box, runs while the
    last one shrank some box, up to ``TIGHTEN_ROUNDS``.

    HiGHS can call a bound's LP infeasible where the region is flat along
    that variable, so such a side moves nothing; the LP with ``obj`` itself
    is solved cold instead, and only its infeasibility shows that the
    relaxation holds no point that reaches ``floor``: the box then comes
    back (None, None).
    """
    n, (m, n_cols) = tpl.n_vars, tpl.A.shape
    cols = np.unique(np.concatenate([tpl.prod_i, tpl.prod_j])).tolist()
    nz = np.flatnonzero(obj)
    cutoff = csc_array((obj[nz], (np.zeros(nz.size, dtype=np.int64), nz)), shape=(1, n_cols))
    # The relaxation's matrix over the cutoff row, its pattern made once: each
    # round writes the relaxation's entries, which come first in their columns.
    stacked = vstack([tpl.A, cutoff], format="csc")
    entries = np.flatnonzero(stacked.indices < m)
    goal = np.concatenate([obj, np.zeros(n_cols - n)])
    lps, basis = 0, None
    for _ in range(TIGHTEN_ROUNDS):
        relax = mccormick_relax(tpl, lb, ub)
        A = copy.copy(stacked)
        A.data = stacked.data.copy()
        A.data[entries] = relax.A.data
        row_lb, row_ub = np.append(relax.row_lb, floor), np.append(relax.row_ub, np.inf)

        def solve(c, basis):
            nonlocal lps
            lps += 1
            cert = solve_lp(RangedLP(MAX, c, A, row_lb, row_ub, relax.lb, relax.ub), kept, basis)
            if cert.status not in (OPTIMAL, INFEASIBLE):  # a product variable's box is finite
                raise ValueError(f"bound tightening solve failed: {cert.status}")
            return cert

        new_lb, new_ub = lb.copy(), ub.copy()
        lo_open, hi_open = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
        for v, sign in itertools.product(cols, (-1.0, 1.0)):
            if not (lo_open if sign < 0 else hi_open)[v]:
                continue
            c = np.zeros(n_cols)
            c[v] = sign
            cert = solve(c, basis)
            moves = cert.status == OPTIMAL
            if not moves:
                cert = solve(goal, None)
                if cert.status == INFEASIBLE:
                    return None, None, lps
            basis = kept.basis()
            x = cert.x[:n]
            margin = FEAS_TOL * (1.0 + np.abs(x))
            lo_open &= x > lb + margin + LP_TOL
            hi_open &= x < ub - margin - LP_TOL
            if not moves:
                continue
            edge = x[v] + sign * margin[v]  # moved outward by the margin
            if sign < 0 and edge > lb[v] + LP_TOL:
                new_lb[v] = min(edge, ub[v])
            elif sign > 0 and edge < ub[v] - LP_TOL:
                new_ub[v] = max(edge, lb[v])
        moved = (new_lb != lb).any() or (new_ub != ub).any()
        lb, ub = new_lb, new_ub
        if not moved:
            break
    return lb, ub, lps


def objective_reach(obj: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> float:
    """The most ``obj @ x`` reaches over the box ``[lb, ub]`` (inf if unbounded)."""
    cols = np.flatnonzero(obj)
    w = obj[cols]
    return float(np.sum(w * np.where(w > 0, ub[cols], lb[cols])))


@dataclass
class BnBResult:
    status: str  # OPTIMAL | INFEASIBLE | NODE_LIMIT
    x: np.ndarray | None
    objective: float | None  # objective of the incumbent
    bound: float  # best relaxation bound in the problem's sense
    gap: float
    nodes: int
    # Warm node solves HiGHS left unsettled or ended infeasible, solved
    # again cold, and found optimal cold in the second case.
    cold_resolves: int
    tightening_lps: int = 0  # LPs of the root bound tightening (``tighten_box``)
    boxes_shrunk: int = 0  # variables whose root box the tightening shrank


def spatial_branch_and_bound(
    bp: BilinearProgram,
    *,
    epsilon: float = 1e-4,
    node_limit: int = 5000,
    incumbent_hook=None,
    initial_points=None,
    bound: float | None = None,
    tighten: bool = False,
) -> BnBResult:
    """Globally solve a bilinear program by box refinement.

    Best-first search on the relaxation bound.  The McCormick relaxation is
    assembled once; at each node ``mccormick_relax`` rewrites it for the
    node's boxes and it is solved primal-only on the search's one
    ``KeptModel``: the root cold, every other node warm from the basis its
    parent's solve ended at, so a node's start does not depend on the
    order the heap hands out nodes.  HiGHS can end a warm solve infeasible
    where a cold one finds an optimum, so a node closes as infeasible only
    when a cold solve of its relaxation, on an instance of its own, agrees;
    where that solve finds an optimum the node goes on from it, its
    children start from the basis it started from, and ``cold_resolves``
    counts it.  Once there is an incumbent, each node's
    box is first cut by ``cutoff_box`` to where the objective can still
    reach it (a node whose box comes out empty is closed unsolved), and its
    children inherit the cut box: no point better than the incumbent is
    cut, so every bound stays valid.  The relaxation point (and optionally
    ``incumbent_hook(x_rel, floor)``, which may return a candidate point in
    base variable space) is screened for true feasibility within
    ``FEAS_TOL``.  A candidate replaces the incumbent only when its
    objective beats the incumbent's by more than ``IMPROVE_TOL``; ``floor``
    is the objective it must beat, None while there is no incumbent, so
    the hook can skip a candidate that cannot be adopted.  ``initial_points``
    are warm-start candidates screened the same way before the search,
    which lets a caller with a cheap primal heuristic start from a real
    incumbent instead of waiting for one to fall out of the tree.  Branching picks the product with the largest envelope
    violation (the first one on ties) and splits the wider box of its two
    variables at the relaxation value clamped to the middle half of the
    box.  Terminates when the remaining bound is within ``epsilon``
    (relative) of the incumbent.  ``bound``, in the problem's sense, is a
    bound the caller already holds: it stands for the root's, which is
    otherwise infinite, so an initial point within ``epsilon`` of it closes
    the search before any node, and no node's bound exceeds it.  With
    ``tighten``, a search that holds an incumbent after the initial points,
    and whose root box lets the objective reach further than ``epsilon``
    past it, first shrinks that box by ``tighten_box``; the root and every
    node start from the shrunk box, and a box in which nothing reaches the
    incumbent proves it with no node.  ``nodes`` counts relaxations only;
    ``tightening_lps`` and ``boxes_shrunk`` count the tightening's LPs and
    the variables whose box it shrank.
    """
    tpl = RelaxationTemplate(bp)
    n = tpl.n_vars
    sigma = 1.0 if tpl.sense == MAX else -1.0  # work in "maximize sigma*obj"
    obj = sigma * tpl.c[:n]

    best_x: np.ndarray | None = None
    best_val = -math.inf  # in sigma-space

    def try_candidate(x) -> None:
        nonlocal best_x, best_val
        if x is None:
            return
        x = np.asarray(x, dtype=float)
        if x.shape[0] != n or tpl.max_row_violation(x) > FEAS_TOL:
            return
        val = float(obj @ x)
        if val > best_val + IMPROVE_TOL:
            best_val = val
            best_x = x.copy()

    def close_enough(bound_sigma: float) -> bool:
        return bound_sigma <= best_val + epsilon * (1.0 + abs(best_val))

    for point in initial_points or ():
        try_candidate(point)

    counter = itertools.count()
    # Heap entries: (-sigma_bound, tiebreak, lb, ub, parent's basis).  Root
    # bound is +inf (or the caller's) until solved; the root has no basis.
    root_bound = math.inf if bound is None else sigma * bound
    kept = KeptModel()
    lb, ub, lps, shrunk = tpl.lb, tpl.ub, 0, 0
    if tighten and best_x is not None:
        box = cutoff_box(obj, lb, ub, best_val)
        if box is not None and not close_enough(min(root_bound, objective_reach(obj, lb, ub))):
            lb, ub, lps = tighten_box(tpl, kept, obj, *box, best_val)
            if lb is not None:
                shrunk = int(np.count_nonzero((lb > box[0]) | (ub < box[1])))
    heap: list[tuple] = [] if lb is None else [(-root_bound, next(counter), lb, ub, None)]
    nodes = overturned = 0
    exhausted = True
    leftover_bound = -math.inf  # tightest open bound at an early exit

    while heap:
        neg_bound, _, lb, ub, basis = heapq.heappop(heap)
        parent_bound = -neg_bound
        if best_x is not None:
            if close_enough(parent_bound):
                # Best-first order: every remaining node is at least as loose.
                leftover_bound = parent_bound
                break
            box = cutoff_box(obj, lb, ub, best_val)
            if box is None:
                continue  # nothing in the box reaches the incumbent
            lb, ub = box
        if nodes >= node_limit:
            exhausted = False
            leftover_bound = parent_bound
            break
        nodes += 1

        relax = mccormick_relax(tpl, lb, ub)
        cert = solve_lp(relax, kept, basis)
        cold = False  # whether the node goes on from a cold solve's certificate
        if cert.status == INFEASIBLE and basis is not None:
            # A warm verdict: only a cold solve, on an instance of its own, closes the node.
            cert = solve_lp(relax)
            cold = cert.status != INFEASIBLE
            overturned += cold
        if cert.status == INFEASIBLE:
            continue
        if cert.status != OPTIMAL:
            # Unbounded relaxation: only possible with unbounded non-product
            # variables; treat as a modeling error.
            raise ValueError(f"relaxation solve failed: {cert.status}")
        x_rel = cert.x[:n]
        node_bound = min(parent_bound, sigma * cert.objective)  # monotone down the tree

        try_candidate(x_rel)
        if incumbent_hook is not None:
            floor = None if best_x is None else sigma * (best_val + IMPROVE_TOL)
            try_candidate(incumbent_hook(x_rel, floor))
        if best_x is not None and close_enough(node_bound):
            continue

        # Largest envelope violation picks the branching product.
        gaps = np.abs(cert.x[n:] - x_rel[tpl.prod_i] * x_rel[tpl.prod_j])
        if not gaps.size or gaps.max() <= 1e-12:
            # Envelope already exact: the relaxation point was a true candidate,
            # so this node is closed.
            continue
        # Gaps within 1e-15 of the largest tie; the first of them wins.
        k = int(np.argmax(gaps >= gaps.max() - 1e-15))
        i, j = tpl.prod_i[k], tpl.prod_j[k]
        v = i if ub[i] - lb[i] >= ub[j] - lb[j] else j
        lo, hi = lb[v], ub[v]
        split = min(max(x_rel[v], lo + 0.25 * (hi - lo)), lo + 0.75 * (hi - lo))
        basis = basis if cold else kept.basis()
        for child_lo, child_hi in ((lo, split), (split, hi)):
            clb, cub = lb.copy(), ub.copy()
            clb[v], cub[v] = child_lo, child_hi
            heapq.heappush(heap, (-node_bound, next(counter), clb, cub, basis))
    kept.close()

    if best_x is None:
        status = INFEASIBLE if exhausted else NODE_LIMIT
        return BnBResult(status=status, x=None, objective=None, bound=math.inf * sigma,
                         gap=math.inf, nodes=nodes, cold_resolves=kept.cold_resolves + overturned,
                         tightening_lps=lps, boxes_shrunk=shrunk)

    open_bound = max((-b for b, *_ in heap), default=-math.inf)
    open_bound = max(open_bound, leftover_bound, best_val)
    gap = open_bound - best_val
    status = OPTIMAL if (exhausted or gap <= epsilon * (1.0 + abs(best_val))) else NODE_LIMIT
    return BnBResult(
        status=status,
        x=best_x,
        objective=sigma * best_val,
        bound=sigma * open_bound,
        gap=gap,
        nodes=nodes,
        cold_resolves=kept.cold_resolves + overturned,
        tightening_lps=lps,
        boxes_shrunk=shrunk,
    )
