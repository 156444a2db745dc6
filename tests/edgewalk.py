"""The scalar band-edge walk, kept as the oracle of ``bilevel._edge_walk``.

``scalar_edge_walk`` walks one target node at a time with a one-target
``values`` call per step, which gives the objective and the slope (the
aggregate dual) in closed form in every mode: the per-target walk the
lockstep ``_edge_walk`` replaced, with the same tangent, secant and midpoint
steps and the same halving rule.  The lockstep walk must give its limits
with the same number of evaluations per target.
"""

import math

from flexgrid.bilevel import EDGE_ROOT_TOL, BilevelError


def scalar_edge_walk(mf, node, tol_abs, sigma=None):
    """Largest |band edge| keeping the follower's extreme |v| at ``node`` in
    band, for objective sign ``sigma`` (default the follower's scenario's),
    signed like the follower's far end (0 where the follower is out of
    band at zero)."""
    problem = mf.problem
    scenario = problem.scenario
    sigma = scenario.sigma if sigma is None else sigma
    full = mf.slots[scenario.dp_slot]
    if full == 0.0:
        return 0.0
    sign = 1.0 if full > 0 else -1.0
    # The objective is sigma * |v|, so both extrema compare it from below.
    c = (problem.v_max if sigma > 0 else -problem.v_min) + 1e-9
    aim = c - 0.5 * EDGE_ROOT_TOL

    def value(s):
        vals = mf.values([node], [sign * s], [sigma])
        if not vals.optimal[0]:
            raise BilevelError("follower LP infeasible during screening")
        return float(vals.objective[0]), sign * float(vals.agg_dual[0])

    hi = abs(full)
    f_hi, g_hi = value(hi)
    if f_hi <= c:
        return full
    lo = f_lo = None  # lo: largest edge confirmed feasible
    tangent = True
    widths = [hi]  # hi - lo after each solve, lo = 0 until confirmed
    while lo is None or (hi - lo > tol_abs and f_lo < c - EDGE_ROOT_TOL):
        if len(widths) > 2 and widths[-1] > 0.5 * widths[-3]:
            s = -math.inf  # two steps that did not halve the bracket
        elif tangent:
            s = hi - (f_hi - aim) / g_hi if g_hi > 0.0 else -math.inf
        else:
            s = lo + (hi - lo) * (aim - f_lo) / (f_hi - f_lo)
        if lo is None:
            if not 0.0 <= s < hi:
                s = 0.0
        elif not lo < s < hi:
            s = 0.5 * (lo + hi)
        f, g = value(s)
        if f <= c:
            lo, f_lo, tangent = s, f, False
        elif s == 0.0:
            return 0.0
        else:
            hi, f_hi, g_hi, tangent = s, f, g, True
        widths.append(hi - (lo or 0.0))
    return sign * lo
