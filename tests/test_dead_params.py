"""Every keyword-only parameter of the package is set by the program.

A keyword-only parameter with a default, on a function or method that
``src/flexgrid`` defines, is a knob.  If no call in ``src`` or ``bench``
passes it by keyword, the program uses one value everywhere and the knob
belongs in a module constant instead; a knob only tests set counts only
when ``TEST_KNOBS`` lists it with its reason.  Calls are matched by the
name they call: a plain function name, a method attribute, or a class name
for ``__init__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flexgrid"
MODULES = sorted(PACKAGE.glob("*.py"))

# Knobs that no call in ``src`` or ``bench`` passes, and why each stays.
TEST_KNOBS = {
    ("solve_single_level", "split"):
        "False runs the joint search alone, the reference the split solve is tested against",
    ("run_iterative", "node_limit"):
        "bench/run.py passes it through **limit, which this scan cannot see",
}


def knobs(source: str) -> list[tuple[str, str]]:
    """(callable name, parameter) for every keyword-only parameter with a
    default; an ``__init__`` is named after its class."""
    tree = ast.parse(source)
    owner = {
        stmt: node.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for stmt in node.body
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = owner.get(node, node.name) if node.name == "__init__" else node.name
            args = node.args
            found += [
                (name, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
    return found


def passed_keywords(source: str) -> set[tuple[str, str]]:
    """(called name, keyword) for every call that passes a keyword."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        passed.update((name, kw.arg) for kw in node.keywords if kw.arg is not None)
    return passed


def passed_in(*dirs: str) -> set[tuple[str, str]]:
    """(called name, keyword) for every call in the ``*.py`` files under ``dirs``."""
    passed = set()
    for path in sorted(p for d in dirs for p in (ROOT / d).rglob("*.py")):
        passed |= passed_keywords(path.read_text())
    return passed


@pytest.fixture(scope="module")
def program_passed():
    return passed_in("src", "bench")


def test_the_check_sees_a_knob_nobody_sets():
    source = (
        "def f(x, *, used=1, unset=2, required):\n    return x\n\n"
        "class C:\n    def __init__(self, *, size=3, spare=4):\n        pass\n\n"
        "    def m(self, *, step=5):\n        pass\n\n"
        "f(0, used=2, required=1)\nC(size=1)\nC().m(step=1)\n"
    )
    assert knobs(source) == [
        ("f", "used"), ("f", "unset"), ("C", "size"), ("C", "spare"), ("m", "step"),
    ]
    assert [k for k in knobs(source) if k not in passed_keywords(source)] == [
        ("f", "unset"), ("C", "spare"),
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_keyword_only_parameter_is_passed(module, program_passed):
    unset = [k for k in knobs(module.read_text()) if k not in program_passed]
    assert [k for k in unset if k not in TEST_KNOBS] == []


def test_every_test_knob_is_a_knob_only_tests_pass(program_passed):
    """An allowlisted knob that is gone, that the program now passes or
    that no test passes leaves the list."""
    defined = {k for m in MODULES for k in knobs(m.read_text())}
    tests_pass = passed_in("tests")
    assert [
        k for k in TEST_KNOBS if k not in defined or k in program_passed or k not in tests_pass
    ] == []
