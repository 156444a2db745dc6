"""Seeded random small feeders and an independent nonlinear adversary.

The feeders are 2-4 buses with at most three flexible devices, sized so a
brute-force grid adversary with Newton solves stays affordable.  Everything
here derives from the device/feeder data directly (sign rules, cones, droop),
not from the package's LP assembly, so it can serve as the other side of an
oracle comparison.
"""

import itertools
import math

import numpy as np

from flexgrid.feeder import load_feeder
from flexgrid.follower import POSITIVE, MAX_V, build_context
from flexgrid.oracle import nonlinear_magnitudes

PHASE_CHOICES = ("a", "b", "c", "ab", "bc", "ac", "abc")


def _z_template(rng):
    # Symmetric, diagonally dominant 3x3 ohm block: invertible for any subblock.
    diag_r = rng.uniform(0.4, 1.0, 3)
    diag_x = rng.uniform(0.8, 1.8, 3)
    m = rng.uniform(0.2, 0.35)
    z = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        z[i, i] = diag_r[i] + 1j * diag_x[i]
    for i in range(3):
        for j in range(i + 1, 3):
            off = m * 0.5 * (z[i, i] + z[j, j]) * rng.uniform(0.8, 1.2)
            z[i, j] = z[j, i] = off
    return [[z[r, c].real, z[r, c].imag] for r in range(3) for c in range(3)]


def random_feeder_doc(rng, *, mode="constant-pf", max_buses=4, z_scale=1.0):
    """A random radial 2-4 bus feeder with >=1 load and >=1 inverter.

    Child bus phases are subsets of the parent's so every phase stays
    connected to the slack.  Device count is capped at three so the grid
    adversary in ``bf_worst_vm`` stays cheap.  ``z_scale`` stretches every
    segment impedance; values above one make a weak grid whose voltage
    actually moves under device-scale deviations.
    """
    n_buses = int(rng.integers(2, max_buses + 1))
    buses = [{"id": "b0", "phases": "abc"}]
    parent_phases = {"b0": "abc"}
    segments = []
    for i in range(1, n_buses):
        parent = f"b{int(rng.integers(0, i))}"
        avail = parent_phases[parent]
        options = [p for p in PHASE_CHOICES if set(p) <= set(avail)]
        # favor 1-2 phase laterals to keep the node count small
        weights = np.array([1.0 if len(p) < 3 else 0.4 for p in options])
        phases = options[int(rng.choice(len(options), p=weights / weights.sum()))]
        bid = f"b{i}"
        buses.append({"id": bid, "phases": phases})
        parent_phases[bid] = phases
        z = [[re * z_scale, im * z_scale] for re, im in _z_template(rng)]
        segments.append({"from": parent, "to": bid, "z": z})

    sites = [
        (b["id"], p) for b in buses[1:] for p in b["phases"]
    ]
    rng.shuffle(sites)
    if len(sites) == 1:
        picks = [sites[0], sites[0]]  # co-locate a load and an inverter
    else:
        n_dev = int(rng.integers(2, min(3, len(sites)) + 1))
        picks = sites[:n_dev]
    loads, inverters = [], []
    for j, (bus, phase) in enumerate(picks):
        if j == 0 or (j > 1 and rng.random() < 0.5):
            p0 = float(rng.uniform(5.0, 25.0))
            loads.append({
                "bus": bus, "phase": phase, "p_kw": round(p0, 3),
                "p_min": round(p0 * rng.uniform(0.2, 0.7), 3),
                "p_max": round(p0 * rng.uniform(1.5, 3.0), 3),
                "pf": round(rng.uniform(0.92, 0.98), 3),
            })
        else:
            p0 = float(rng.uniform(4.0, 15.0))
            p_max = p0 if rng.random() < 0.6 else p0 * rng.uniform(1.1, 1.4)
            pf = round(rng.uniform(0.85, 0.95), 3)
            s = max(p_max / pf * rng.uniform(1.05, 1.3), p_max + 2.0)
            inverters.append({
                "bus": bus, "phase": phase, "p_kw": round(p0, 3),
                "p_min": 0.0, "p_max": round(p_max, 3), "s_kva": round(s, 3),
                "mode": mode,
                "mode_params": {"pf": pf, "gamma": round(rng.uniform(0.3, 0.6), 3)},
            })
    if not inverters:  # n_dev == 2 drew two loads; replace the second
        ld = loads.pop()
        pf = 0.9
        inverters.append({
            "bus": ld["bus"], "phase": ld["phase"], "p_kw": 8.0,
            "p_min": 0.0, "p_max": 8.0, "s_kva": 12.0, "mode": mode,
            "mode_params": {"pf": pf, "gamma": 0.45},
        })
    return {
        "base_kva": 100.0,
        "base_kv": 2.4,
        "slack": "b0",
        "buses": buses,
        "segments": segments,
        "loads": loads,
        "inverters": inverters,
    }


def random_context(rng, *, mode="constant-pf", margin_lo=(0.005, 0.03), margin_up=(0.003, 0.02), z_scale=1.0):
    """Load a random feeder and pick a voltage band around its anchor.

    The band always contains the anchor profile; the margins are small enough
    that the adversary often hits a band edge, which is where the interesting
    comparisons live.
    """
    model = load_feeder(random_feeder_doc(rng, mode=mode, z_scale=z_scale))
    probe = build_context(model)  # wide band, just to get the anchor
    vm = probe.anchor.vm
    v_min = float(np.min(vm) - rng.uniform(*margin_lo))
    v_max = float(np.max(vm) + rng.uniform(*margin_up))
    return build_context(model, v_min=v_min, v_max=v_max)


def random_slots(rng, ctx, mode, *, problem=None):
    """Uniform draw of setpoints inside their boxes plus a random band."""
    from flexgrid.bilevel import setpoint_boxes
    from flexgrid.follower import SLOT_DP_MINUS, SLOT_DP_PLUS, available_flexibility_bounds

    slots = {}
    for name, (lo, hi) in setpoint_boxes(ctx, mode).items():
        slots[name] = float(rng.uniform(lo, hi))
    dp_lo, dp_up = available_flexibility_bounds(ctx.devices)
    slots[SLOT_DP_PLUS] = float(rng.uniform(0.0, dp_up)) if dp_up > 0 else 0.0
    slots[SLOT_DP_MINUS] = float(rng.uniform(dp_lo, 0.0)) if dp_lo < 0 else 0.0
    if problem is not None:
        slots = {k: v for k, v in slots.items() if k in problem.slot_names}
    return slots


# ---------------------------------------------------------------------------
# Brute-force nonlinear adversary (grid + aggregate-cap projection)
# ---------------------------------------------------------------------------

def _sign_boxes(dev, activation):
    """Per-node deviation boxes with the activation sign rules applied."""
    dpg_lo = np.maximum(dev.p_gen_min, 0.0) - dev.p_gen0
    dpg_hi = np.minimum(dev.p_gen_max, dev.s_cap) - dev.p_gen0
    dpl_lo = dev.p_load_min - dev.p_load0
    dpl_hi = dev.p_load_max - dev.p_load0
    if activation == POSITIVE:
        dpg_lo = np.maximum(dpg_lo, 0.0)
        dpl_hi = np.minimum(dpl_hi, 0.0)
    else:
        dpg_hi = np.minimum(dpg_hi, 0.0)
        dpl_lo = np.maximum(dpl_lo, 0.0)
    no_inv = dev.s_cap <= 0.0
    no_load = (dev.p_load0 == 0) & (dev.p_load_min == 0) & (dev.p_load_max == 0)
    dpg_lo[no_inv] = dpg_hi[no_inv] = 0.0
    dpl_lo[no_load] = dpl_hi[no_load] = 0.0
    return dpg_lo, np.maximum(dpg_lo, dpg_hi), dpl_lo, np.maximum(dpl_lo, dpl_hi)


def _droop_fixed_point(ctx, p, qbar, q_other, max_iter=200, tol=1e-10):
    band = ctx.v_max - ctx.v_min
    # Damped Picard; plain iteration oscillates on weak grids where the
    # droop gain times the voltage sensitivity approaches one.
    for alpha in (1.0, 0.5, 0.2):
        vm = ctx.anchor.vm.copy()
        for _ in range(max_iter):
            q = q_other + qbar * ((ctx.v_max + ctx.v_min) - 2.0 * vm) / band
            new_vm = nonlinear_magnitudes(ctx, p, q)
            if np.max(np.abs(new_vm - vm)) < tol:
                return new_vm
            vm = vm + alpha * (new_vm - vm)
    return None


def bf_worst_vm(ctx, mode, setpoints, activation, extremum, node, t, *,
                steps=3, q_steps=3):
    """Worst |v| at ``node`` from a grid adversary in the full nonlinear model.

    Grid points violating the aggregate cap ``t`` are scaled back onto the cap
    (under the sign rules all deviations share a direction, so scaling toward
    zero is feasible and lands exactly on the boundary).  Reactive output
    follows the mode: gamma * p for constant-pf, a sub-grid over the cone for
    constant-q, the droop fixed point for volt-var.
    """
    dev = ctx.devices
    n = ctx.n
    dpg_lo, dpg_hi, dpl_lo, dpl_hi = _sign_boxes(dev, activation)

    dims = []
    for k in range(n):
        if dpg_hi[k] - dpg_lo[k] > 1e-12:
            dims.append(("g", k, np.linspace(dpg_lo[k], dpg_hi[k], steps)))
        if dpl_hi[k] - dpl_lo[k] > 1e-12:
            dims.append(("l", k, np.linspace(dpl_lo[k], dpl_hi[k], steps)))
    assert len(dims) <= 4, "feeder too rich for the brute-force adversary"

    sigma = 1.0 if extremum == MAX_V else -1.0
    best = -math.inf
    for combo in itertools.product(*[d[2] for d in dims]) if dims else [()]:
        dpg = np.zeros(n)
        dpl = np.zeros(n)
        for (kind, k, _), v in zip(dims, combo):
            if kind == "g":
                dpg[k] = v
            else:
                dpl[k] = v
        agg = float(np.sum(dpg) - np.sum(dpl))
        if activation == POSITIVE and agg > t:
            scale = t / agg if agg > 0 else 0.0
            dpg, dpl = dpg * scale, dpl * scale
        elif activation != POSITIVE and agg < t:
            scale = t / agg if agg < 0 else 0.0
            dpg, dpl = dpg * scale, dpl * scale
        pg = dev.p_gen0 + dpg
        p = pg - (dev.p_load0 + dpl)
        q_load = dev.beta_load * (dev.p_load0 + dpl)
        head = np.sqrt(np.maximum(dev.s_cap**2 - pg**2, 0.0))

        q_options = []
        if mode == "constant-pf":
            qg = np.zeros(n)
            for k in dev.inverter_nodes:
                qg[k] = setpoints[f"gamma[{k}]"] * pg[k]
            q_options.append(qg)
        elif mode == "constant-q":
            grids = [
                np.linspace(-dev.gamma_const[k] * pg[k], dev.gamma_const[k] * pg[k], q_steps)
                for k in dev.inverter_nodes
            ]
            for qc in itertools.product(*grids) if grids else [()]:
                qg = np.zeros(n)
                for k, v in zip(dev.inverter_nodes, qc):
                    qg[k] = v
                q_options.append(qg)
        else:  # volt-var
            qbar = np.zeros(n)
            for k in dev.inverter_nodes:
                qbar[k] = setpoints[f"qbar[{k}]"]
            vm = _droop_fixed_point(ctx, p, qbar, -q_load)
            if vm is not None:
                best = max(best, sigma * float(vm[node]))
            continue

        for qg in q_options:
            if np.any(np.abs(qg) > head + 1e-9):
                continue
            vm = nonlinear_magnitudes(ctx, p, qg - q_load)
            best = max(best, sigma * float(vm[node]))
    assert best > -math.inf, "no admissible brute-force point"
    return sigma * best


def bf_limit(ctx, mode, setpoints, activation, extremum, node, full, *,
             tol, steps=3, q_steps=3):
    """Bisection band limit with ``bf_worst_vm`` playing the follower."""
    sigma = 1.0 if extremum == MAX_V else -1.0

    def ok(t):
        vm = bf_worst_vm(ctx, mode, setpoints, activation, extremum, node, t,
                         steps=steps, q_steps=q_steps)
        if sigma > 0:
            return vm <= ctx.v_max + 1e-9
        return vm >= ctx.v_min - 1e-9

    if full == 0.0 or ok(full):
        return full
    if not ok(0.0):
        return 0.0
    sign = 1.0 if full > 0 else -1.0
    lo, hi = 0.0, abs(full)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(sign * mid):
            lo = mid
        else:
            hi = mid
    return sign * lo
