"""One sha256 over the solver's results on the binding corpus and ieee13-binding.

Run from the repository root:

    PYTHONPATH=src python tests/fingerprint.py

Each case is solved by ``run_iterative(node_limit=400)`` and its decision
checked by ``verify_decision``; both results are written out field by field,
floats as ``float.hex``, and hashed in case order.  Two trees that print the
same digest gave the same bands, decisions, B&B records and oracle checks bit
for bit, which is how a refactor shows it changed no result.  Pytest does not
collect this file.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

from corpus import BINDING_CORPUS, case_id, corpus_context

from flexgrid import build_context, load_feeder
from flexgrid.bilevel import run_iterative
from flexgrid.feeder import MODE_CONSTANT_PF
from flexgrid.oracle import verify_decision

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


def encode(obj) -> str:
    """A canonical text of a result: dataclasses by field, floats as hex."""
    if dataclasses.is_dataclass(obj):
        parts = (f"{f.name}={encode(getattr(obj, f.name))}" for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({','.join(parts)})"
    if isinstance(obj, dict):
        items = sorted((encode(k), encode(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(encode, obj)) + "]"
    if isinstance(obj, np.ndarray):
        return f"array{obj.shape}[{','.join(map(encode, obj.ravel().tolist()))}]"
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.generic):
        return repr(obj.item())
    return repr(obj)


def main() -> None:
    digest = hashlib.sha256()
    for name, ctx, mode in cases():
        result = run_iterative(ctx, mode, node_limit=400)
        report = verify_decision(ctx, mode, result.decision)
        digest.update(f"{name}\n{encode(result)}\n{encode(report)}\n".encode())
        print(name, f"{result.dp_minus:+.6f}", f"{result.dp_plus:+.6f}", file=sys.stderr)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
