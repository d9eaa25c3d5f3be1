"""Each top-level function and class of the library has one home module."""

import ast
from collections import defaultdict
from pathlib import Path

import epifuse

SRC = Path(epifuse.__file__).resolve().parent


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
