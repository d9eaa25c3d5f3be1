"""The benchmark reaches the library by name; every name it uses must exist."""

import ast
import dataclasses
import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

from epifuse.fusion import (
    FusionGradients,
    FusionParams,
    plan_epipolar_sampling,
    transformer_forward,
)
from epifuse.sampler import FeatureMap, epipolar_samples
from epifuse.triangulation import ransac_triangulate
from helpers import look_at_camera, project, rectified_pair

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    tracing = load_tracing()
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


def test_tracer_counters_read_real_library_results():
    # The tracer's counters read fields of library results, which the
    # attribute checks above do not see. Each _after_* hook gets a real
    # result here; install() is not called, as it would patch the library
    # for every later test.
    tracer = load_tracing().Tracer()
    ref, src = rectified_pair(width=8, height=8)
    rng = np.random.default_rng(0)
    f_ref, f_src = (FeatureMap(rng.standard_normal((8, 8, 4))) for _ in range(2))
    params = FusionParams.initialize("identity", "softmax", 4)
    plan = plan_epipolar_sampling(ref, src, (8, 8), (8, 8), 4)
    tracer._after_plan_epipolar_sampling((ref, src, (8, 8), (8, 8), 4), {}, plan)
    args = (f_ref, f_src, ref, src, params, 4)
    tracer._after_transformer_forward(args, {}, transformer_forward(*args))
    tracer._after_transformer_forward(args, {"plan": plan},
                                      transformer_forward(*args, plan=plan))
    cams = [look_at_camera((900.0 * np.cos(a), 900.0 * np.sin(a), 200.0)) for a in (0, 1, 2)]
    stack = np.stack([cam.M for cam in cams])
    pixels = np.array([project(cam, np.zeros(3)) for cam in cams])
    tracer._after_ransac_triangulate((stack, pixels), {}, ransac_triangulate(stack, pixels))
    for p in ((3.0, 4.0), (3.0, 100.0)):
        query = (f_src, ref, src, np.array(p), 4)
        tracer._after_epipolar_samples(query, {}, epipolar_samples(*query))

    hooks = {name for name in vars(type(tracer)) if name.startswith("_after_")}
    assert hooks == {"_after_plan_epipolar_sampling", "_after_transformer_forward",
                     "_after_ransac_triangulate", "_after_epipolar_samples"}
    layer = tracer.per_layer(1)
    assert layer["fusion.plan_epipolar_sampling.valid_share"] > 0
    reads = np.count_nonzero(plan.valid) * plan.k
    assert layer["fusion.transformer_forward.sample_reads"] == 2 * reads
    assert layer["triangulation.ransac_triangulate.inlier_share"] == 1.0
    assert layer["sampler.epipolar_samples.misses"] == 1
