"""The benchmark's tracer wraps library functions by name; they must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, function in tracing.TRACED:
        assert module.__name__.startswith("epifuse.")
        assert callable(getattr(module, function, None)), f"{module.__name__}.{function}"
