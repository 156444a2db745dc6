"""Every module-level definition and class member of the package is read somewhere.

A function, class or constant that ``src/flexgrid`` defines at module level,
or a method or class-level field of one of its classes, that nothing in
``src``, ``tests`` or ``bench`` reads is dead code, such as a constant left
behind when the loop that used it goes, or a report field nobody looks at.
A name counts as read where it is loaded, named as an attribute, imported,
or spelled in a string constant (the benchmark's tracer names its targets
that way); its own definition does not count, and neither does a keyword
argument that sets a field.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flexgrid"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = sorted(
    p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")
)


def defined_names_in(body: list[ast.stmt]) -> list[str]:
    """Functions, classes and assigned names a block of statements defines."""
    names = []
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def defined_names(source: str) -> list[str]:
    """Functions, classes and constants a module defines at its top level."""
    return defined_names_in(ast.parse(source).body)


def member_names(source: str) -> list[tuple[str, str]]:
    """(class, member) for the methods and class-level fields of the
    module's top-level classes."""
    members = []
    for cls in ast.parse(source).body:
        if isinstance(cls, ast.ClassDef):
            members += [(cls.name, name) for name in defined_names_in(cls.body)]
    return members


def read_names(source: str) -> set[str]:
    """Names a source file loads, uses as attributes, imports or spells in strings."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


@pytest.fixture(scope="module")
def everything_read():
    read = set()
    for path in SOURCES:
        read |= read_names(path.read_text())
    return read


def test_the_check_sees_a_dead_definition():
    source = (
        "LIMIT = 3\nUNUSED = 4\n\ndef used():\n    return LIMIT\n\n"
        "def dead():\n    return used()\n\nclass Ghost:\n    pass\n"
    )
    assert [n for n in defined_names(source) if n not in read_names(source)] == [
        "UNUSED", "dead", "Ghost",
    ]
    assert {"Ghost", "x"} <= read_names("from m import Ghost\ny = 'a.x'\n")
    # A class member: a field set only by keyword and a method nobody calls.
    source = (
        "class Report:\n    kept: int\n    unread: int\n    LIMIT = 3\n\n"
        "    def __init__(self):\n        self.kept = self.LIMIT\n\n"
        "    def used(self):\n        return self.kept\n\n"
        "    def dead(self):\n        return self.used()\n\n"
        "Report(unread=1).used()\n"
    )
    assert [m for m in member_names(source) if m[1] not in read_names(source)] == [
        ("Report", "unread"), ("Report", "dead"),
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_dead_module_level_definition(module, everything_read):
    assert [n for n in defined_names(module.read_text()) if n not in everything_read] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_dead_class_member(module, everything_read):
    assert [m for m in member_names(module.read_text()) if m[1] not in everything_read] == []
