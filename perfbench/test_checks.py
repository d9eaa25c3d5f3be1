"""Each of the benchmark's checks accepts real outputs and rejects corrupted ones.

Run with: python3 -m pytest perfbench -q
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from epifuse import synth
from epifuse.sampler import FeatureMap

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Small stand-ins for configs/default.json. The scenario one stays inside
# the release gate's bounds (MPJPE 2.48 mm < 3 mm, matching 1.0); the train
# one leaves one reference pixel without epipolar samples.
SCENARIO_CONFIG = synth.ScenarioConfig(
    cameras=6, image_wh=96, focal_px=120.0, k=32, joints=6, seed=11, ransac_iterations=25,
)
TRAIN_CONFIG = synth.ScenarioConfig(image_wh=32, focal_px=40.0, k=8, channels=8)


def _default_config(config):
    """Make workloads that read configs/default.json get `config` instead."""
    mp = pytest.MonkeyPatch()
    mp.setattr(workloads.synth, "load_scenario", lambda path: config)
    return mp


@pytest.fixture(scope="module")
def scenario_run():
    mp = _default_config(SCENARIO_CONFIG)
    try:
        scenario = workloads.Scenario(ROOT, 0)
        yield scenario, scenario.op()
    finally:
        mp.undo()


@pytest.fixture
def train():
    mp = _default_config(TRAIN_CONFIG)
    try:
        yield workloads.Train(ROOT, 3)
    finally:
        mp.undo()


def _query_outputs(seed=0):
    query = workloads.Query(ROOT, seed)
    return query, [(i, op()) for i, op in enumerate(query.cycle()[:200])]


def test_query_checks_accept_every_real_output():
    query, outs = _query_outputs()
    for i, out in outs:
        query.check(i, out)
    assert any(out[1] is None for _, out in outs)  # misses are checked too
    assert any(query.queries[i][2] is query.half for i, _ in outs)


def test_sample_moved_off_its_line_is_rejected():
    query, outs = _query_outputs()
    for i, (line, samples, weights) in outs:
        if samples is not None:
            break
    moved = samples.locations.copy()
    moved[5] += 1e-3 * line.l[:2]  # the unit normal is the same in map pixels
    bad = dataclasses.replace(samples, locations=moved)
    with pytest.raises(checks.CheckFailed, match="off its epipolar line"):
        query.check(i, (line, bad, weights))


def test_skipped_query_with_a_crossing_line_is_rejected():
    query, outs = _query_outputs()
    i, (line, samples, weights) = next((i, o) for i, o in outs if o[1] is not None)
    with pytest.raises(checks.CheckFailed, match="skipped"):
        query.check(i, (line, None, None))


def test_feature_and_weight_corruptions_are_rejected():
    query, outs = _query_outputs()
    i, (line, samples, weights) = next((i, o) for i, o in outs if o[1] is not None and i % 10 == 0)
    features = samples.features.copy()
    features[3, 2] += 1e-9
    with pytest.raises(checks.CheckFailed, match="four-corner"):
        query.check(i, (line, dataclasses.replace(samples, features=features), weights))
    with pytest.raises(checks.CheckFailed, match="sum to"):
        query.check(i, (line, samples, weights * 1.001))
    negative = weights.copy()
    negative[0] = -1e-12
    with pytest.raises(checks.CheckFailed, match="negative"):
        query.check(i, (line, samples, negative))


def test_independent_line_matches_the_library():
    query, outs = _query_outputs()
    i, (line, _, _) = outs[0]
    ref, src, _, p, _ = query.queries[i]
    expected = checks.epipolar_line_through(ref.M, src.M, p)
    checks.check_same_line(line.l, expected)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_line(line.l + np.array([0.0, 0.0, 1e-6]), expected)


def test_gradient_scaled_by_1_001_is_rejected(train):
    for i, op in enumerate(train.cycle()[:2]):  # one identity, one bottleneck step
        fused, grads = op()
        train.check(i, (fused, grads))  # the real gradient passes
        parts = train._grad_parts(train.params[i], grads)
        scaled = [(name, g * 1.001) for name, g in parts]
        with pytest.raises(checks.CheckFailed, match="directional derivative"):
            train.check_gradient(train.params[i], scaled)


def test_changed_skipped_pixel_is_rejected(train):
    fused, _ = train.cycle()[0]()
    skipped = np.flatnonzero(~train.plan.valid)
    assert skipped.size, "the small pair should have skipped pixels"
    checks.check_skipped_pixels(fused.data, train.f_ref.data, train.plan.valid)
    data = fused.data.copy().reshape(-1, fused.data.shape[2])
    data[skipped[0], 0] = np.nextafter(data[skipped[0], 0], np.inf)
    with pytest.raises(checks.CheckFailed, match="skipped pixel"):
        checks.check_skipped_pixels(data.reshape(fused.data.shape), train.f_ref.data, train.plan.valid)


def test_repeated_train_step_must_repeat_bits(train):
    ops = train.cycle()
    train.check(0, ops[0]())
    train.check(2, ops[2]())  # the cycle's second identity step repeats the first
    fused, grads = ops[2]()
    grads.w_z[0, 0] = np.nextafter(grads.w_z[0, 0], np.inf)
    with pytest.raises(checks.CheckFailed, match="differs"):
        train.check(2, (fused, grads))


def test_one_changed_fused_pixel_is_rejected(scenario_run):
    scenario, (text, fused) = scenario_run
    scenario.check(0, (text, fused))
    data = fused[1].data.copy()
    data[7, 9, 3] = np.nextafter(data[7, 9, 3], -np.inf)
    corrupted = fused[:1] + [FeatureMap(data)] + fused[2:]
    with pytest.raises(checks.CheckFailed, match="view 1"):
        scenario.check(1, (text, corrupted))


def test_report_changes_are_rejected(scenario_run):
    scenario, (text, fused) = scenario_run
    scenario.check(0, (text, fused))
    report = json.loads(text)
    report["per_joint"][2]["analytic_error_mm"] = 1.0
    with pytest.raises(checks.CheckFailed, match="joint 2 analytic error"):
        scenario.check(1, (json.dumps(report), fused))
    with pytest.raises(checks.CheckFailed, match="different report"):
        scenario.check(1, (text.replace('"k": 32', '"k": 33'), fused))
    bound = 0.005 * SCENARIO_CONFIG.extent_mm
    for key, value, message in (
        ("mpjpe_mm", 1.0, "mean joint error"),
        ("matching_accuracy", 0.98, "matching accuracy"),
        ("analytic_mpjpe_mm", 1e-3, "analytic MPJPE"),
    ):
        bad = dict(json.loads(text), **{key: value})
        with pytest.raises(checks.CheckFailed, match=message):
            checks.check_scenario_report(bad, bound)
    far = json.loads(text)
    for joint in far["per_joint"]:
        joint["error_mm"] = bound
    far["mpjpe_mm"] = bound
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_scenario_report(far, bound)


def test_sweep_checks():
    sweep = workloads.Sweep(ROOT, 0)
    report = sweep.cycle()[0]()
    views, error, hits, total = sweep.check(0, report)
    assert views == 2 and error == report.mpjpe_mm and hits <= total
    with pytest.raises(checks.CheckFailed, match="matching accuracy"):
        sweep.check_cycle([(2, 3.0, 89, 100), (4, 2.0, 0, 0), (8, 1.0, 0, 0)])
    doc = json.loads(synth.report_json(report))
    doc["per_joint"][0]["analytic_error_mm"] = None
    doc["per_joint"][0]["observed_views"] = 2
    with pytest.raises(checks.CheckFailed, match="not triangulated"):
        checks.check_sweep_report(doc)
    checks.check_error_falls_with_views({2: 19.0, 4: 8.0, 8: 4.0})
    with pytest.raises(checks.CheckFailed, match="does not fall"):
        checks.check_error_falls_with_views({2: 19.0, 4: 8.0, 8: 8.0})


def test_trace_self_times_add_up_to_each_op(scenario_run):
    import tracing

    scenario, _ = scenario_run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in scenario.cycle():
            tracer.begin_op()
            op()
            tracer.end_op()
        spans = len(tracer.rows)
        scenario.check(0, scenario.op())  # no op is open: nothing is recorded
        assert len(tracer.rows) == spans
    finally:
        for module, function in tracing.TRACED:
            _restore(module, function)
    consistency = tracer.consistency()
    assert consistency["nested"] and consistency["ops"] == 2
    assert consistency["worst_relative_gap"] < 1e-9
    layers = tracer.per_layer(2)
    assert layers["synth.run_pipeline.calls"] == 1.0
    assert layers["fusion.transformer_forward.calls"] == SCENARIO_CONFIG.cameras
    assert layers["fusion.plan_epipolar_sampling.calls"] == SCENARIO_CONFIG.cameras
    assert layers["synth.render_descriptor_map.calls"] == SCENARIO_CONFIG.cameras
    assert layers["triangulation.dlt_triangulate.calls"] > layers["triangulation.ransac_triangulate.calls"]
    assert 0.0 < layers["fusion.plan_epipolar_sampling.valid_share"] <= 1.0


def _restore(module, function):
    import sys

    wrapper = getattr(module, function)
    original = getattr(wrapper, "__wrapped__", wrapper)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("epifuse"):
            for attr, value in list(vars(mod).items()):
                if value is wrapper:
                    setattr(mod, attr, original)
