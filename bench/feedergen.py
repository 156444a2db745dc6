"""Frozen copy of the random-feeder generator used by the acceptance tests.

The benchmark's random workloads must not move when ``tests/feedergen.py``
changes, so the generator is copied here.  ``test_feedergen.py`` checks that
this copy still produces the same feeders and bands as the test generator for
the seeds the benchmark uses.  Nothing here imports ``flexgrid``: the output
is a feeder document plus the two band margins, and the band itself is placed
around the anchor profile by the caller (as ``random_context`` does).
"""

import numpy as np

PHASE_CHOICES = ("a", "b", "c", "ab", "bc", "ac", "abc")
MARGIN_LO = (0.005, 0.03)
MARGIN_UP = (0.003, 0.02)


def _z_template(rng):
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
    """A random radial 2-4 bus feeder with at least one load and one inverter."""
    n_buses = int(rng.integers(2, max_buses + 1))
    buses = [{"id": "b0", "phases": "abc"}]
    parent_phases = {"b0": "abc"}
    segments = []
    for i in range(1, n_buses):
        parent = f"b{int(rng.integers(0, i))}"
        avail = parent_phases[parent]
        options = [p for p in PHASE_CHOICES if set(p) <= set(avail)]
        weights = np.array([1.0 if len(p) < 3 else 0.4 for p in options])
        phases = options[int(rng.choice(len(options), p=weights / weights.sum()))]
        bid = f"b{i}"
        buses.append({"id": bid, "phases": phases})
        parent_phases[bid] = phases
        z = [[re * z_scale, im * z_scale] for re, im in _z_template(rng)]
        segments.append({"from": parent, "to": bid, "z": z})

    sites = [(b["id"], p) for b in buses[1:] for p in b["phases"]]
    rng.shuffle(sites)
    if len(sites) == 1:
        picks = [sites[0], sites[0]]
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
    if not inverters:
        ld = loads.pop()
        inverters.append({
            "bus": ld["bus"], "phase": ld["phase"], "p_kw": 8.0,
            "p_min": 0.0, "p_max": 8.0, "s_kva": 12.0, "mode": mode,
            "mode_params": {"pf": 0.9, "gamma": 0.45},
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


def random_study(seed, *, mode, z_scale=1.0):
    """Feeder document and (lower, upper) band margins for one generator seed.

    Draws from the generator in the same order as ``random_context`` in the
    test suite, so ``band_around`` applied to the feeder's anchor profile
    gives the same band.
    """
    rng = np.random.default_rng(seed)
    doc = random_feeder_doc(rng, mode=mode, z_scale=z_scale)
    margin_lo = float(rng.uniform(*MARGIN_LO))
    margin_up = float(rng.uniform(*MARGIN_UP))
    return doc, margin_lo, margin_up


def band_around(vm, margin_lo, margin_up):
    """Voltage band (v_min, v_max) around an anchor |v| profile."""
    return float(np.min(vm) - margin_lo), float(np.max(vm) + margin_up)
