"""flexgrid benchmark: fixed workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload binding-small --seed 1 --seconds 10 --trace 0

Each workload is a frozen list of cases (feeder, band, mode, direction).  A
case makes the library calls the CLI commands make -- ``build_context``,
``run_iterative`` (whose first step is ``worst_case_limits``),
``verify_decision`` and, where the feeder is small enough,
``brute_force_worst_voltage`` -- in one process, with no ``workers``
argument, and every output is checked.  ``--seed`` draws the order the cases
run in; the inputs themselves are the workload's definition and their
fingerprints are checked, so runs with different seeds do the same work.

With ``--trace 0`` the run repeats whole passes over the cases until
``--seconds`` have passed (at least one pass) and prints the end-to-end
metrics as medians over passes, in seconds scaled to a reference machine
speed that ``speed.py`` measures during the run.  With ``--trace 1`` it runs one untraced
pass, then one pass with every layer wrapped (see ``tracing.py``), prints the
per-layer metrics and writes the spans under ``.bench_out/``.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IEEE13 = SRC / "flexgrid" / "data" / "ieee13.json"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("ceiling-13bus", "binding-13bus", "binding-small", "nonlinear-recheck")
MODES = ("constant-pf", "constant-q", "volt-var")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is the median of set-up samples taken in batches before the passes,
# before every case and after every pass, so that they span the run instead
# of its first fraction of a second.  A batch is at least this many set-ups
# and lasts at least SETUP_BATCH_S of wall time.
SETUP_BATCH = 6
SETUP_BATCH_S = 0.3
# An untraced pass spends at least this long in solves and in verifies: each
# case repeats its solve (on a fresh context each time) and its verify until
# it has had its even share, and takes the median call.  On the small
# feeders one call lasts milliseconds, and a lone call is at the mercy of a
# shared machine.
SOLVE_PASS_S = 4.0
VERIFY_PASS_S = 2.0
B13_NODE_CAP = 2  # B&B node cap of the binding 13-bus case (the CLI cannot set one)
B13_VMAX_MARGIN = 0.0005  # v_max = max anchor |v| + this, so the band binds
CEILING_KW = 1640.0  # availability ceiling of ieee13.json, each band edge
BNB_EPSILON = 1e-4  # run_iterative's default, the value the CLI passes
ORACLE_TOL_PU = 0.01  # allowed linearization error / band excess, p.u.

# sha256 prefixes of each study's inputs; a changed feeder file or generator
# output fails every case of the study instead of silently moving it.
FINGERPRINTS = {
    "ieee13": "db0d293fbabdc1cc",
    "ieee13-binding": "db0d293fbabdc1cc",
    "gen7200-z1": "2035b1ed83502ab9",
    "gen7200-z2": "dd86e983ea1f6024",
    "gen7201-z2": "7b758407930a2bbd",
    "gen7202-z2": "84a39a07db2249a4",
    "gen7203-z1": "96a44696d8d8e111",
    "gen7204-z1": "cd7269142ebc8e90",
    "gen7205-z1": "8c11ee771af6cc23",
    "gen7206-z1": "8d0d77f64195029d",
    "gen7207-z1": "26078f89d5983b67",
    "gen7208-z1": "8c6aec929d820dc4",
}

# Band widths Σ(Δp+ − Δp−) in kW of binding-small, recorded when the
# benchmark was defined; a solve must match them to the B&B epsilon.
BINDING_SMALL_WIDTH_KW = {
    "gen7200-z1": 54.02364116676978,
    "gen7200-z2": 42.537670135498054,
    "gen7201-z2": 67.2483509655955,
    "gen7202-z2": 45.03860775118594,
}


@dataclass
class Study:
    """One feeder and voltage band: what ``build_context`` receives."""

    name: str
    source: object  # feeder file path or generated feeder document
    v_min: float
    v_max: float
    fingerprint: str


@dataclass
class Case:
    name: str
    study: Study
    mode: str
    direction: str
    recheck: bool = False  # brute-force nonlinear adversary on every scenario
    node_limit: int | None = None
    check_ceiling: bool = False
    width_kw: float | None = None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _ieee13_study(name: str, vmax_margin: float | None):
    from flexgrid import build_context, load_feeder

    v_max = 1.10
    if vmax_margin is not None:
        anchor = build_context(load_feeder(IEEE13)).anchor
        v_max = float(anchor.vm.max()) + vmax_margin
    return Study(name, IEEE13, 0.90, v_max, _sha(IEEE13.read_bytes()))


def _generated_study(seed: int, mode: str, z_scale: float) -> Study:
    import feedergen
    from flexgrid import build_context, load_feeder

    doc, margin_lo, margin_up = feedergen.random_study(seed, mode=mode, z_scale=z_scale)
    vm = build_context(load_feeder(doc)).anchor.vm
    v_min, v_max = feedergen.band_around(vm, margin_lo, margin_up)
    blob = json.dumps({"feeder": doc, "margins": [margin_lo, margin_up]}, sort_keys=True)
    return Study(f"gen{seed}-z{z_scale:g}", doc, v_min, v_max, _sha(blob.encode()))


def make_cases(workload: str) -> list[Case]:
    """The frozen case list of a workload; see README.md for why each exists."""
    if workload == "ceiling-13bus":
        study = _ieee13_study("ieee13", None)
        return [
            Case(f"ieee13/{m}", study, m, "overvoltage", check_ceiling=True)
            for m in MODES
        ]
    if workload == "binding-13bus":
        study = _ieee13_study("ieee13-binding", B13_VMAX_MARGIN)
        return [Case("ieee13-binding/constant-pf", study, "constant-pf", "overvoltage",
                     node_limit=B13_NODE_CAP)]
    if workload == "binding-small":
        cases = []
        for seed, z_scale, mode in ((7200, 1.0, "constant-pf"), (7200, 2.0, "constant-pf"),
                                    (7201, 2.0, "constant-q"), (7202, 2.0, "volt-var")):
            study = _generated_study(seed, mode, z_scale)
            cases.append(Case(f"{study.name}/{mode}", study, mode, "both",
                              width_kw=BINDING_SMALL_WIDTH_KW[study.name]))
        return cases
    if workload == "nonlinear-recheck":
        cases = []
        for seed in range(7203, 7209):
            mode = MODES[(seed - 7200) % 3]
            study = _generated_study(seed, mode, 1.0)
            cases.append(Case(f"{study.name}/{mode}", study, mode, "both", recheck=True))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def build(study: Study):
    """Feeder load, anchor Newton solve and linearization: the CLI's set-up."""
    from flexgrid import feeder, follower

    model = feeder.load_feeder(study.source)
    return follower.build_context(model, v_min=study.v_min, v_max=study.v_max)


def setup_time(studies: list[Study]) -> tuple[float, float]:
    """Wall interval of one set-up of every study."""
    t0 = time.perf_counter()
    for st in studies:
        build(st)
    return t0, time.perf_counter()


def _repeat(call, min_s: float):
    """Run ``call()`` until ``min_s`` of wall time has passed (at least once).

    ``call`` returns (result, wall interval); gives the last result and every
    interval.
    """
    intervals = []
    while not intervals or sum(b - a for a, b in intervals) < min_s:
        out, interval = call()
        intervals.append(interval)
    return out, intervals


def run_stages(case: Case, times: dict, solve_min_s: float, verify_min_s: float):
    """The case's CLI-equivalent calls; ``times`` gets each stage's wall intervals."""
    from flexgrid import bilevel, follower, oracle

    clock = time.perf_counter
    limit = {} if case.node_limit is None else {"node_limit": case.node_limit}

    def solve():
        ctx = build(case.study)
        t0 = clock()
        res = bilevel.run_iterative(ctx, case.mode, direction=case.direction, **limit)
        return (ctx, res), (t0, clock())

    def verify():
        t0 = clock()
        report = oracle.verify_decision(ctx, case.mode, res.decision, direction=case.direction)
        return report, (t0, clock())

    (ctx, res), times["solve_s"] = _repeat(solve, solve_min_s)
    report, times["verify_s"] = _repeat(verify, verify_min_s)
    brute = []
    if case.recheck:
        scenarios = follower.all_scenarios(ctx.n, direction=case.direction)
        t0 = clock()
        brute = [oracle.brute_force_worst_voltage(ctx, case.mode, res.decision, sc)
                 for sc in scenarios]
        times["recheck_s"] = [(t0, clock())]
    return ctx, res, report, brute


def _duality_failures(ctx, mode: str, res) -> list[str]:
    """Strong-duality certificates of the active followers at the decision."""
    from flexgrid.follower import SLOT_DP_MINUS, SLOT_DP_PLUS, build_follower
    from flexgrid.lp import verify_strong_duality

    dec = res.decision
    values = {**dec.setpoints, SLOT_DP_PLUS: dec.dp_plus, SLOT_DP_MINUS: dec.dp_minus}
    fix_q = mode == "constant-q" and any(s.startswith("qset") for s in dec.setpoints)
    failures = []
    for sc in res.followers:
        problem = build_follower(ctx, sc, mode, fix_q=fix_q)
        slots = {k: v for k, v in values.items() if k in problem.slot_names}
        cert = problem.solve(slots)
        if not cert.is_optimal:
            failures.append(f"follower {sc} is {cert.status} at the decision")
        elif not verify_strong_duality(problem.to_lp(slots), cert).ok:
            failures.append(f"follower {sc} fails the strong-duality check")
    return failures


def check_case(case: Case, ctx, res, report, brute) -> tuple[dict, list[str]]:
    """Facts to report for a solved case, and the correctness checks it fails."""
    base = ctx.feeder.base_kva
    dec, single, wc = res.decision, res.single_level, res.worst_case
    width_kw = (dec.dp_plus - dec.dp_minus) * base
    facts = {
        "band_kw": [dec.dp_minus * base, dec.dp_plus * base],
        "worst_case_kw": [wc.range_lower * base, wc.range_upper * base],
        "bnb_status": single.bnb.status,
        "gap_kw": single.bnb.gap * base,
        "bnb_nodes": single.bnb.nodes,
        "escalations": single.escalations,
        "iterations": res.iterations,
        "active_followers": len(res.followers),
        "converged_flag": res.converged,
        "max_lin_error_pu": report.max_error,
        "max_band_excess_pu": report.max_band_excess,
    }
    failures = []
    if case.study.fingerprint != FINGERPRINTS[case.study.name]:
        failures.append(f"input fingerprint {case.study.fingerprint} differs from the frozen one")
    if report.max_error > ORACLE_TOL_PU:
        failures.append(f"linearization error {report.max_error:.4g} p.u. > {ORACLE_TOL_PU}")
    if report.max_band_excess > ORACLE_TOL_PU:
        failures.append(f"nonlinear band excess {report.max_band_excess:.4g} p.u. > {ORACLE_TOL_PU}")
    failures += _duality_failures(ctx, case.mode, res)
    if case.check_ceiling and not all(
        abs(abs(edge) - CEILING_KW) <= 1e-6 * CEILING_KW for edge in facts["band_kw"]
    ):
        failures.append(f"band {facts['band_kw']} kW is not ±{CEILING_KW:g} kW")
    if case.width_kw is not None:
        tol_kw = BNB_EPSILON * (base + case.width_kw)  # epsilon * (1 + |objective|) in kW
        if abs(width_kw - case.width_kw) > tol_kw:
            failures.append(f"band width {width_kw!r} kW differs from the recorded {case.width_kw!r} kW")
    if brute:
        facts["bruteforce_points"] = sum(b.points for b in brute)
        excess = max(
            b.vm_nonlinear - ctx.v_max if b.scenario.extremum == "max" else ctx.v_min - b.vm_nonlinear
            for b in brute
        )
        facts["bruteforce_band_excess_pu"] = excess
        if excess > ORACLE_TOL_PU:
            failures.append(f"brute-force |v| leaves the band by {excess:.4g} p.u.")
    return facts, failures


def run_pass(cases: list[Case], tracer=None, before_case=None) -> list[dict]:
    """One run of every case; a traced pass calls each entry point once."""
    records = []
    for case in cases:
        if before_case is not None:
            before_case()
        rec = {"case": case.name, "intervals": {}, "facts": {}, "failures": []}
        try:
            if tracer is None:
                out = run_stages(case, rec["intervals"], SOLVE_PASS_S / len(cases),
                                 VERIFY_PASS_S / len(cases))
            else:
                out = tracer.run_case(case.name,
                                      lambda: run_stages(case, rec["intervals"], 0.0, 0.0))
            rec["facts"], rec["failures"] = check_case(case, *out)
        except Exception as exc:  # a case that raises is counted as failed; the run goes on
            rec["failures"].append(f"raised {type(exc).__name__}: {exc}")
        records.append(rec)
    return records


def to_seconds(records: list[dict], seconds) -> None:
    """Turn each stage's wall intervals into its median call time.

    ``seconds(t0, t1)`` measures one interval; ``wall_s`` keeps the plain
    wall-clock medians next to ``times``.
    """
    for r in records:
        intervals = r.pop("intervals")
        r["times"] = {k: statistics.median(seconds(*iv) for iv in ivs)
                      for k, ivs in intervals.items()}
        r["wall_s"] = {k: statistics.median(b - a for a, b in ivs)
                       for k, ivs in intervals.items()}


def _wall(t0: float, t1: float) -> float:
    return t1 - t0


def _pass_sum(records: list[dict], key: str | None = None) -> float:
    return sum(v for r in records for k, v in r["times"].items() if key in (None, k))


def end_to_end_metrics(passes: list[list[dict]], setup_samples: list[float]) -> dict:
    band_kw = sum(r["facts"]["band_kw"][1] - r["facts"]["band_kw"][0]
                  for r in passes[0] if r["facts"])
    med = statistics.median
    return {
        "setup_s": (med(setup_samples), "s"),
        "solve_s": (med(_pass_sum(p, "solve_s") for p in passes), "s"),
        "verify_s": (med(_pass_sum(p, "verify_s") for p in passes), "s"),
        "total_s": (med(_pass_sum(p) for p in passes), "s"),
        "band_kw": (band_kw, "kW"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def environment(args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "flexgrid").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "processes": 1,
        "workers_argument": None,
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "node_cap": B13_NODE_CAP if args.workload == "binding-13bus" else None,
    }


def _print_cases(records: list[dict]) -> None:
    for r in records:
        times = " ".join(f"{k}={v:.4f} (wall {r['wall_s'][k]:.4f})" for k, v in r["times"].items())
        print(f"case {r['case']}: {times} {json.dumps(r['facts'])}")
        for f in r["failures"]:
            print(f"  FAILED {r['case']}: {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flexgrid" / "__init__.py").is_file():
        print(f"error: no flexgrid sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:  # one BLAS thread unless the caller chose (at most nproc)
        os.environ.setdefault(var, "1")
        if int(os.environ[var]) > nproc:
            os.environ[var] = str(nproc)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    import flexgrid
    import speed
    import tracing

    if Path(flexgrid.__file__).resolve().parent != (SRC / "flexgrid").resolve():
        print(f"error: imported flexgrid from {flexgrid.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    cases = make_cases(args.workload)
    studies = list({c.study.name: c.study for c in cases}.values())
    order = random.Random(args.seed)
    print("env " + json.dumps(env))
    for st in studies:
        print(f"input {st.name}: sha256 {st.fingerprint} band [{st.v_min!r}, {st.v_max!r}]")

    setup_intervals = []

    def sample_setup():
        t0, done = time.perf_counter(), 0
        while done < SETUP_BATCH or time.perf_counter() - t0 < SETUP_BATCH_S:
            setup_intervals.append(setup_time(studies))
            done += 1

    # The end-to-end times are taken at the reference speed (see speed.py);
    # the traced run's spans are plain wall time, so it runs no speedometer.
    meter = None if args.trace else speed.Speedometer()
    passes = []
    try:
        if meter is not None:
            meter.start()
        sample_setup()
        start = time.perf_counter()
        while True:
            passes.append(run_pass(order.sample(cases, len(cases)), before_case=sample_setup))
            sample_setup()
            elapsed = time.perf_counter() - start
            if args.trace or elapsed + elapsed / len(passes) > args.seconds:
                break
    finally:
        if meter is not None:
            meter.stop()
    seconds = _wall if meter is None else meter.seconds
    records = [r for p in passes for r in p]
    to_seconds(records, seconds)
    setup_samples = [seconds(*iv) for iv in setup_intervals]

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(order.sample(cases, len(cases)), tracer)
        finally:
            tracer.uninstall()
        to_seconds(traced, _wall)
        records += traced
        metrics, missing = tracing.layer_metrics(tracer)
        summary = tracing.span_summary(tracer)
        residual = sum(c["residual_s"] for c in summary["cases"].values())
        metrics["trace.residual_s"] = (residual, "s")
        metrics["trace.overhead_s"] = (_pass_sum(traced, "solve_s") - _pass_sum(passes[0], "solve_s"), "s")
        metrics["bnb.gap_kw"] = (sum(r["facts"].get("gap_kw", 0.0) for r in traced), "kW")
        _print_cases(traced)
        print("layer self times (s): " + json.dumps(
            {k: round(v["self_s"], 6) for k, v in summary["layers"].items()}))
        for case_id, c in summary["cases"].items():
            print(f"coverage {case_id}: wall {c['wall_s']:.4f} s, not covered by a layer span "
                  f"{c['residual_s']:.6f} s ({100 * c['residual_s'] / c['wall_s']:.3f} %)")
        if missing or tracer.missing:
            print(f"missing layer metrics {missing}; unwrapped names {tracer.missing}")
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
        Path(f"{stem}-trace.json").write_text(json.dumps(
            {"env": env, "summary": summary, "cases": traced,
             "metrics": {k: v[0] for k, v in metrics.items()}, "missing": missing}, indent=1))
    else:
        metrics = end_to_end_metrics(passes, setup_samples)
        _print_cases(passes[0])
        print(f"passes {len(passes)}, setup samples {len(setup_samples)}, "
              f"speed samples {len(meter.kernel_s)}, kernel time quartiles "
              f"{[round(q * 1e3, 4) for q in statistics.quantiles(meter.kernel_s, n=4)]} ms "
              f"(reference {speed.REF_KERNEL_S * 1e3:g} ms), "
              f"speedometer overhead {100 * meter.overhead():.2f} % of wall time")
        print(f"wall-clock setup_s = {statistics.median(b - a for a, b in setup_intervals)!r} s "
              f"(median; the metrics are at the reference speed)")
        if any("recheck_s" in r["times"] for r in passes[0]):
            value = statistics.median(_pass_sum(p, "recheck_s") for p in passes)
            print(f"stage recheck_s = {value!r} s (median over passes)")
        OUT_DIR.mkdir(exist_ok=True)
        Path(OUT_DIR / f"{args.workload}-seed{args.seed}-e2e.json").write_text(json.dumps(
            {"env": env, "passes": passes, "setup_samples": setup_samples,
             "metrics": {k: v[0] for k, v in metrics.items()}}, indent=1))

    print("waiting: none measured -- one process, no queues, no worker pool")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    failed = sum(1 for r in records if r["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
