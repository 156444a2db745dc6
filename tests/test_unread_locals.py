"""Every local a function of the package binds is read.

No linter runs on this code base, so this parses each module of
``src/flexgrid`` and fails on a name that a function binds in its own
scope and that nothing in the function, nested functions included, reads.
A binding is an assignment, a loop or comprehension target, a ``with`` or
``except`` name or an import.  Names that start with ``_`` are left out,
as are the names a ``global`` or ``nonlocal`` statement hands to an outer
scope.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flexgrid"
MODULES = sorted(PACKAGE.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = (*FUNCTIONS, ast.Lambda, ast.ClassDef)


def own_nodes(func: ast.AST):
    """The nodes of ``func`` outside the functions and classes nested in it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(source: str) -> list[str]:
    """``function: name`` for each local a function binds and never reads."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, FUNCTIONS):
            continue
        bound, outer = [], set()
        for node in own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.append(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.append(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
        read = {
            node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            f"{func.name}: {name}" for name in dict.fromkeys(bound)
            if name not in read | outer and not name.startswith("_")
        ]
    return found


def test_the_check_sees_an_unread_local():
    source = (
        "def f(xs):\n"
        "    a, b = xs\n"
        "    for i, x in enumerate(xs):\n"
        "        print(x)\n"
        "    _, c = xs\n"
        "    n = 0\n"
        "    def g():\n"
        "        nonlocal n\n"
        "        n = b\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    return [y for y in xs], n\n"
    )
    assert sorted(unread_locals(source)) == ["f: a", "f: c", "f: exc", "f: i"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unread_local(module):
    assert unread_locals(module.read_text()) == []
