"""Two sha256 digests over the solver's results on the binding corpus and ieee13-binding.

Run from the repository root:

    PYTHONPATH=src python tests/fingerprint.py

Each case is solved by ``run_iterative(node_limit=400)`` and its decision
checked by ``verify_decision``; both results are written out field by field,
floats as ``float.hex``, and hashed in case order.  Two trees that print the
same first digest gave the same bands, decisions, B&B records and oracle checks
bit for bit, which is how a refactor shows it changed no result.  The second
digest leaves the node accounting out (``NODE_ACCOUNTING``): two trees that
print the same second digest differ at most in how many relaxations each search
solved and which searches were taken from the run's store.  Before the
digests, standard error gets each case's band and then, per mode, the
corpus's node total over every single-level solve, its proven cases and the
wall times of its ``run_iterative`` and of its ``verify_decision`` calls.
Pytest does not collect this file.
"""

import dataclasses
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from corpus import BINDING_CORPUS, case_id, corpus_context

from flexgrid import bilevel, build_context, load_feeder
from flexgrid.bilevel import run_iterative
from flexgrid.feeder import MODE_CONSTANT_PF
from flexgrid.follower import MaterializedFollower
from flexgrid.oracle import verify_decision

# (dataclass, field) pairs the second digest leaves out.
NODE_ACCOUNTING = frozenset({
    ("SingleLevelResult", "nodes_by_search"), ("SingleLevelResult", "reused"), ("BnBResult", "nodes"),
    ("SingleLevelResult", "tightening_by_search"), ("BnBResult", "tightening_lps"),
    ("BnBResult", "boxes_shrunk"),
})

DATA_13 = Path(__file__).resolve().parents[1] / "src" / "flexgrid" / "data" / "ieee13.json"


def ieee13_binding_context():
    """The 13-bus feeder with v_max 0.5 mV above the anchor's highest |v|."""
    model = load_feeder(DATA_13)
    probe = build_context(model)
    return build_context(model, v_max=float(probe.anchor.vm.max()) + 0.0005)


def cases():
    """(name, context, mode) of every case, corpus first."""
    for seed, z_scale, mode in BINDING_CORPUS:
        yield case_id(seed, z_scale, mode), corpus_context(seed, z_scale, mode), mode
    yield "ieee13-binding", ieee13_binding_context(), MODE_CONSTANT_PF


def encode(obj, omit=frozenset()) -> str:
    """A canonical text of a result: dataclasses by field, floats as hex,
    and no (dataclass, field) pair in ``omit``."""
    if dataclasses.is_dataclass(obj):
        name = type(obj).__name__
        parts = (f"{f.name}={encode(getattr(obj, f.name), omit)}" for f in dataclasses.fields(obj)
                 if (name, f.name) not in omit)
        return f"{name}({','.join(parts)})"
    if isinstance(obj, dict):
        items = sorted((encode(k, omit), encode(v, omit)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(encode(v, omit) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return f"array{obj.shape}[{','.join(encode(v, omit) for v in obj.ravel().tolist())}]"
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.generic):
        return repr(obj.item())
    return repr(obj)


def main() -> None:
    full, projected = hashlib.sha256(), hashlib.sha256()
    nodes = [0]  # relaxations of every single-level solve of the running case
    solve = bilevel.solve_single_level

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        nodes[0] += res.bnb.nodes
        return res

    kernel = [0]  # ``values`` calls of the running case
    values = MaterializedFollower.values

    def counted_values(*args, **kwargs):
        kernel[0] += 1
        return values(*args, **kwargs)

    bilevel.solve_single_level = counted
    MaterializedFollower.values = counted_values
    # mode -> [nodes, proven, solve s, verify s, values calls] over the corpus
    table: dict[str, list] = {}
    for name, ctx, mode in cases():
        nodes[0] = kernel[0] = 0
        start = time.perf_counter()
        result = run_iterative(ctx, mode, node_limit=400)
        wall = time.perf_counter() - start
        start = time.perf_counter()
        report = verify_decision(ctx, mode, result.decision)
        verify_wall = time.perf_counter() - start
        for digest, omit in ((full, frozenset()), (projected, NODE_ACCOUNTING)):
            digest.update(f"{name}\n{encode(result, omit)}\n{encode(report, omit)}\n".encode())
        print(name, f"{result.dp_minus:+.6f}", f"{result.dp_plus:+.6f}", file=sys.stderr)
        if name != "ieee13-binding":
            row = table.setdefault(mode, [0, 0, 0.0, 0.0, 0])
            row[0] += nodes[0]
            row[1] += result.single_level.bnb.status == "optimal"
            row[2] += wall
            row[3] += verify_wall
            row[4] += kernel[0]
    bilevel.solve_single_level = solve
    MaterializedFollower.values = values
    print("mode nodes proven wall_s verify_ms values_calls", file=sys.stderr)
    for mode, (total, proven, wall, verify_wall, calls) in table.items():
        print(mode, total, proven, f"{wall:.2f}", f"{1e3 * verify_wall:.1f}", calls, file=sys.stderr)
    print(full.hexdigest())
    print(projected.hexdigest(), "(node accounting left out)")


if __name__ == "__main__":
    main()
