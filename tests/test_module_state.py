"""No module of the package keeps run-time state in a module-level container.

A module-level name bound to an empty mutable container (``{}``, ``[]``,
``dict()``, ``list()``, ``set()``) is a cache the program fills as it runs,
and it outlives the ``FlexContext`` whose results it holds, keeping that
context alive.  Such state belongs on the context, as a ``cached_property``
like ``FlexContext.followers``.  This parses each module of
``src/flexgrid`` and fails on such an assignment at its top level, but for
the names ``ALLOWED`` lists with the reason each stays.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flexgrid"
MODULES = sorted(PACKAGE.glob("*.py"))

# Module-level containers that stay, and why each refers to no context.
ALLOWED = {
    ("lp.py", "_spare_highs"): "holds the HiGHS instances of ended searches, not contexts",
}


def _is_empty_container(node: ast.expr) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords
    )


def empty_containers(source: str) -> list[str]:
    """Names the module's top-level assignments bind to an empty mutable container."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        if _is_empty_container(stmt.value):
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_the_check_sees_an_empty_container():
    source = (
        "A = {}\nB: list[int] = []\nC = D = dict()\nE = set()\nF = list()\n"
        "G = {1: 2}\nH = [0]\nI = ()\nJ = frozenset()\nK: dict\n"
        "def f():\n    local = {}\n\nclass C:\n    member = []\n"
    )
    assert empty_containers(source) == ["A", "B", "C", "D", "E", "F"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_module_level_container_outlives_a_context(module):
    found = empty_containers(module.read_text())
    assert [name for name in found if (module.name, name) not in ALLOWED] == []


def test_every_allowed_container_still_exists():
    found = {(p.name, name) for p in MODULES for name in empty_containers(p.read_text())}
    assert set(ALLOWED) <= found
