"""Each top-level function and class of the library has one home module, and a reader."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import epifuse

SRC = Path(epifuse.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def test_no_name_defined_in_two_modules():
    # A copy left behind by a move would be what a tracer or a monkeypatch
    # of that module replaces, not the function callers use.
    homes = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                homes[node.name].add(path.name)
    assert len(homes) > 50
    assert {name: sorted(mods) for name, mods in homes.items() if len(mods) > 1} == {}


def test_every_error_type_is_raised():
    # An error type nothing raises is a synonym of one in use; it drifts,
    # and its exit code with it.
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    defined = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    assert len(defined) > 5
    assert sorted(defined - raised - {"EpifuseError"}) == []


def referenced_names(path: Path) -> set[str]:
    """Every name, attribute and string constant in a Python file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # perfbench's tracer names what it wraps
    return names


def test_every_public_function_has_a_reader():
    # A public function that only tests call is test code kept in the
    # library; one that nothing calls and the README does not name is dead.
    used = set()
    for folder in (SRC, ROOT / "scripts", ROOT / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            used |= referenced_names(path)
    named = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    public = {
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert len(public) > 30
    assert sorted(public - used - named) == []
