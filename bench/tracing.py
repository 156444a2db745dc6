"""Span tracing of flexgrid's layers from outside the package.

``install`` replaces public functions of ``flexgrid.*`` (and scipy's HiGHS
entry point) at the names the calling modules bound at import, so a call
made inside the package goes through a wrapper that records one span: name,
case id, parent span, start and end, plus a few counts read off the result.
``uninstall`` puts the originals back.  Spans stay in memory until the run
ends; ``layer_metrics`` and ``self_times`` derive the per-layer numbers.

A target that no longer exists is skipped and reported, and every metric
that needs its span is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span name, module, attribute) for every wrapped call site.
TARGETS = (
    ("feeder.load", "flexgrid.feeder", "load_feeder"),
    ("setup.build_context", "flexgrid.follower", "build_context"),
    ("powerflow.newton", "flexgrid.follower", "solve_nonlinear_pf"),
    ("powerflow.newton", "flexgrid.oracle", "solve_nonlinear_pf"),
    ("powerflow.linearize", "flexgrid.follower", "build_fixed_point_model"),
    ("powerflow.linearize", "flexgrid.follower", "magnitude_taylor"),
    ("lp.solve", "flexgrid.follower", "solve_materialized"),
    ("lp.solve", "flexgrid.bnb", "solve_lp"),
    ("lp.linprog", "flexgrid.lp", "linprog"),
    ("lp.highs_core", "scipy.optimize._linprog_highs", "_highs_wrapper"),
    ("lp.materialize", "flexgrid.lp", "LinearProgram.materialize"),
    ("follower.build", "flexgrid.bilevel", "build_follower"),
    ("follower.build", "flexgrid.oracle", "build_follower"),
    ("follower.materialize", "flexgrid.follower", "FollowerProblem.materialize"),
    ("follower.solve", "flexgrid.follower", "MaterializedFollower.solve"),
    ("bilevel.run_iterative", "flexgrid.bilevel", "run_iterative"),
    ("bilevel.screen", "flexgrid.bilevel", "worst_case_limits"),
    ("bilevel.feasibility", "flexgrid.bilevel", "feasibility_check"),
    ("bilevel.single_level", "flexgrid.bilevel", "solve_single_level"),
    ("bilevel.assemble", "flexgrid.bilevel", "assemble_single_level"),
    ("bnb.search", "flexgrid.bilevel", "spatial_branch_and_bound"),
    ("bnb.relax_build", "flexgrid.bnb", "mccormick_relax"),
    ("oracle.verify", "flexgrid.oracle", "verify_decision"),
    ("oracle.bruteforce", "flexgrid.oracle", "brute_force_worst_voltage"),
)

# The B&B hook is wrapped through the ``incumbent_hook`` argument.
HOOK_SPAN = "bnb.hook"
CASE_SPAN = "case"


def _attrs(name: str, out) -> dict:
    """Counts recorded at a span boundary, read off the call's result."""
    if name == "powerflow.newton":
        return {"iters": getattr(out, "iterations", 0)}
    if name == "lp.solve":
        return {"infeasible": getattr(out, "status", None) == "infeasible"}
    if name == "bnb.search":
        return {"nodes": getattr(out, "nodes", 0)}
    if name == "bilevel.single_level":
        return {"escalations": getattr(out, "escalations", 0)}
    if name == "bilevel.run_iterative":
        return {
            "iterations": getattr(out, "iterations", 0),
            "active": len(getattr(out, "followers", ())),
        }
    if name == "oracle.verify":
        return {
            "scenarios": len(getattr(out, "checks", ())),
            "max_error": getattr(out, "max_error", 0.0),
            "max_band_excess": getattr(out, "max_band_excess", 0.0),
        }
    if name == "oracle.bruteforce":
        return {"points": getattr(out, "points", 0)}
    if name == HOOK_SPAN:
        return {"yield": out is not None}
    return {}


class Tracer:
    """Collects spans as [id, name, case, parent, start, end, attrs] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.case = None
        self._saved: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []

    def call(self, name: str, fn, args, kwargs):
        span = [len(self.spans), name, self.case,
                self._stack[-1] if self._stack else None, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[4] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
        span[6] = _attrs(name, out)
        return out

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.case is None:  # outside a case: the benchmark's own checks
                return fn(*args, **kwargs)
            if name == "bnb.search" and kwargs.get("incumbent_hook") is not None:
                kwargs["incumbent_hook"] = tracer.wrap(HOOK_SPAN, kwargs["incumbent_hook"])
            return tracer.call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            owner_path, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original))
            self.installed.add(name)
        if "bnb.search" in self.installed:
            self.installed.add(HOOK_SPAN)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def run_case(self, case_id: str, fn):
        """Run ``fn()`` under a root span that every span of the case shares."""
        self.case = case_id
        try:
            return self.call(CASE_SPAN, fn, (), {})
        finally:
            self.case = None


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[5] - s[4]
    return own


def _has_ancestor(spans, span, name: str) -> bool:
    parent = span[3]
    while parent is not None:
        if spans[parent][1] == name:
            return True
        parent = spans[parent][3]
    return False


class _View:
    def __init__(self, spans):
        self.spans = spans
        self.by_name: dict[str, list[list]] = {}
        for s in spans:
            self.by_name.setdefault(s[1], []).append(s)

    def count(self, name, where=None):
        return sum(1 for s in self.by_name.get(name, ()) if where is None or where(s))

    def seconds(self, name, where=None):
        return sum(s[5] - s[4] for s in self.by_name.get(name, ()) if where is None or where(s))

    def attr_sum(self, name, key):
        return sum(s[6][key] for s in self.by_name.get(name, ()) if s[6])

    def attr_max(self, name, key):
        return max((s[6][key] for s in self.by_name.get(name, ()) if s[6]), default=0.0)

    def parent_is(self, name):
        return lambda s: s[3] is not None and self.spans[s[3]][1] == name

    def under(self, name):
        return lambda s: _has_ancestor(self.spans, s, name)


def _hook_yield(v: _View) -> float:
    calls = v.count(HOOK_SPAN)
    return v.attr_sum(HOOK_SPAN, "yield") / calls if calls else 0.0


def _presolve_s(v: _View) -> float:
    """Single-level time outside assembly and the B&B search: the presolve."""
    inner = v.parent_is("bilevel.single_level")
    return (v.seconds("bilevel.single_level") - v.seconds("bilevel.assemble", inner)
            - v.seconds("bnb.search", inner))


# name -> (unit, spans it needs, derivation from a _View)
LAYER_METRICS = {
    "powerflow.newton_calls": ("count", ("powerflow.newton",), lambda v: v.count("powerflow.newton")),
    "powerflow.newton_iters": ("count", ("powerflow.newton",), lambda v: v.attr_sum("powerflow.newton", "iters")),
    "powerflow.newton_s": ("s", ("powerflow.newton",), lambda v: v.seconds("powerflow.newton")),
    "powerflow.linearize_s": ("s", ("powerflow.linearize",), lambda v: v.seconds("powerflow.linearize")),
    "lp.solves": ("count", ("lp.solve",), lambda v: v.count("lp.solve")),
    "lp.solve_s": ("s", ("lp.solve",), lambda v: v.seconds("lp.solve")),
    "lp.linprog_s": ("s", ("lp.linprog",), lambda v: v.seconds("lp.linprog")),
    "lp.wrapper_s": ("s", ("lp.solve", "lp.linprog"),
                     lambda v: v.seconds("lp.solve") - v.seconds("lp.linprog")),
    "lp.highs_core_s": ("s", ("lp.highs_core",), lambda v: v.seconds("lp.highs_core")),
    "lp.materialize_s": ("s", ("lp.materialize",), lambda v: v.seconds("lp.materialize")),
    "lp.infeasible": ("count", ("lp.solve",), lambda v: v.attr_sum("lp.solve", "infeasible")),
    "follower.builds": ("count", ("follower.build",), lambda v: v.count("follower.build")),
    "follower.build_s": ("s", ("follower.build",), lambda v: v.seconds("follower.build")),
    "follower.materialize_s": ("s", ("follower.materialize",), lambda v: v.seconds("follower.materialize")),
    "follower.solves": ("count", ("follower.solve",), lambda v: v.count("follower.solve")),
    "follower.solve_s": ("s", ("follower.solve",), lambda v: v.seconds("follower.solve")),
    "bilevel.screen_s": ("s", ("bilevel.screen",), lambda v: v.seconds("bilevel.screen")),
    "bilevel.screen_lp_solves": ("count", ("bilevel.screen", "lp.solve"),
                                 lambda v: v.count("lp.solve", v.under("bilevel.screen"))),
    "bilevel.feasibility_s": ("s", ("bilevel.feasibility",), lambda v: v.seconds("bilevel.feasibility")),
    "bilevel.single_level_calls": ("count", ("bilevel.single_level",), lambda v: v.count("bilevel.single_level")),
    "bilevel.single_level_s": ("s", ("bilevel.single_level",), lambda v: v.seconds("bilevel.single_level")),
    "bilevel.assemble_s": ("s", ("bilevel.assemble",), lambda v: v.seconds("bilevel.assemble")),
    "bilevel.presolve_s": ("s", ("bilevel.single_level", "bilevel.assemble", "bnb.search"), _presolve_s),
    "bilevel.escalations": ("count", ("bilevel.single_level",),
                            lambda v: v.attr_sum("bilevel.single_level", "escalations")),
    "bilevel.iterations": ("count", ("bilevel.run_iterative",),
                           lambda v: v.attr_sum("bilevel.run_iterative", "iterations")),
    "bilevel.active_followers": ("count", ("bilevel.run_iterative",),
                                 lambda v: v.attr_sum("bilevel.run_iterative", "active")),
    "bnb.nodes": ("count", ("bnb.search",), lambda v: v.attr_sum("bnb.search", "nodes")),
    "bnb.relax_build_s": ("s", ("bnb.relax_build",), lambda v: v.seconds("bnb.relax_build")),
    "bnb.relax_solves": ("count", ("bnb.search", "lp.solve"),
                         lambda v: v.count("lp.solve", v.parent_is("bnb.search"))),
    "bnb.relax_solve_s": ("s", ("bnb.search", "lp.solve"),
                          lambda v: v.seconds("lp.solve", v.parent_is("bnb.search"))),
    "bnb.hook_calls": ("count", (HOOK_SPAN,), lambda v: v.count(HOOK_SPAN)),
    "bnb.hook_s": ("s", (HOOK_SPAN,), lambda v: v.seconds(HOOK_SPAN)),
    "bnb.hook_lp_solves": ("count", (HOOK_SPAN, "lp.solve"),
                           lambda v: v.count("lp.solve", v.under(HOOK_SPAN))),
    "bnb.hook_yield": ("ratio", (HOOK_SPAN,), _hook_yield),
    "oracle.verify_scenarios": ("count", ("oracle.verify",), lambda v: v.attr_sum("oracle.verify", "scenarios")),
    "oracle.bruteforce_points": ("count", ("oracle.bruteforce",),
                                 lambda v: v.attr_sum("oracle.bruteforce", "points")),
    "oracle.bruteforce_s": ("s", ("oracle.bruteforce",), lambda v: v.seconds("oracle.bruteforce")),
    "oracle.max_lin_error_pu": ("pu", ("oracle.verify",), lambda v: v.attr_max("oracle.verify", "max_error")),
    "oracle.max_band_excess_pu": ("pu", ("oracle.verify",),
                                  lambda v: v.attr_max("oracle.verify", "max_band_excess")),
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the recorded spans, and the names left missing."""
    view = _View(tracer.spans)
    metrics, missing = {}, []
    for name, (unit, needs, derive) in LAYER_METRICS.items():
        if all(n in tracer.installed for n in needs):
            metrics[name] = (float(derive(view)), unit)
        else:
            missing.append(name)
    return metrics, missing


def span_summary(tracer: Tracer) -> dict:
    """Calls, inclusive and self seconds per span name, and the part of each
    case's wall time that no layer span covers (the case span's self time)."""
    own = self_times(tracer.spans)
    table: dict[str, list] = {}
    cases: dict[str, dict] = {}
    for s, self_s in zip(tracer.spans, own):
        row = table.setdefault(s[1], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s[5] - s[4]
        row[2] += self_s
        if s[1] == CASE_SPAN:
            cases[s[2]] = {"wall_s": s[5] - s[4], "residual_s": self_s}
    return {
        "layers": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                   for k, v in sorted(table.items())},
        "cases": cases,
    }
