"""The benchmark's tracer must find every call site it wraps.

``bench/tracing.py`` wraps flexgrid functions at the names the calling
modules bound at import.  A refactor that moves one of those call sites
would make a traced benchmark run report that layer's metrics as missing;
this check turns that into a test failure instead.  The module is loaded by
file path under a private name: ``bench`` is not a test path, and its
``feedergen`` module would clash with the one in ``tests``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    assert tracing.TARGETS
    unresolved = []
    for _, module_name, attr in tracing.TARGETS:
        try:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            unresolved.append(f"{module_name}.{attr}")
    assert not unresolved
