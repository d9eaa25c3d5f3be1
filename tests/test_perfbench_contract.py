"""The benchmark reaches the library by name; every name it uses must exist."""

import ast
import dataclasses
import importlib
import importlib.util
import types
from pathlib import Path

from epifuse.fusion import FusionGradients, FusionParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, function in tracing.TRACED:
        assert module.__name__.startswith("epifuse.")
        assert callable(getattr(module, function, None)), f"{module.__name__}.{function}"


def imported_modules(tree):
    """Local names bound to epifuse modules by `from epifuse[.x] import ...`.

    Importing a name that does not exist raises.
    """
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "epifuse":
            parent = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(parent, alias.name, None)
                if value is None:
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    return modules


def test_library_attributes_read_by_perfbench_exist():
    checked = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = imported_modules(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                module = modules[node.value.id]
                where = f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
                assert hasattr(module, node.attr), where
                checked += 1
    assert checked >= 20


def test_train_replaces_existing_fusion_params_fields(monkeypatch):
    # Train's gradient check moves the parameters it gets from _grad_parts
    # through dataclasses.replace, which needs a FusionParams field for each.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    fields = {f.name for f in dataclasses.fields(FusionParams)}
    grads = types.SimpleNamespace(**{f.name: None for f in dataclasses.fields(FusionGradients)})
    for variant in ("identity", "bottleneck"):
        params = FusionParams.initialize(variant, "softmax", 4)
        names = [n for n, _ in workloads.Train._grad_parts(params, grads)]
        moved = {n: getattr(params, n) for n in names if n not in ("f_ref", "f_src")}
        assert moved and set(moved) <= fields, (variant, sorted(moved))
        dataclasses.replace(params, **moved)
