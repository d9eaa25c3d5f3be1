"""The benchmark's four workloads: inputs, operations and checks.

A workload builds its inputs from the seed in __init__ (set-up), then
exposes one cycle of operations as zero-argument callables. check(i, out)
verifies the output of operation i and returns a small summary;
check_cycle(summaries) verifies what only a whole cycle shows. Library
functions are always reached through their module (fusion.transformer_forward,
not a bare name), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from pathlib import Path

import numpy as np

from epifuse import fusion, geometry, sampler, synth
from epifuse.geometry import CameraView

import checks


class Workload:
    def check_cycle(self, summaries: list) -> None:
        """Checks that need a whole cycle's summaries; none by default."""


class Scenario(Workload):
    """The shipped default config, as `epifuse run --threads 1` runs it.

    The seed is the one in configs/default.json, not --seed: the release
    gate's bounds checked here (heatmap MPJPE, matching accuracy) are
    stated for that config. A cycle runs it twice; the second report must
    repeat the first byte for byte, and so must every later one.
    """

    name = "scenario"

    def __init__(self, root: Path, seed: int) -> None:
        self.config = synth.load_scenario(root / "configs" / "default.json")
        self.reference: str | None = None

    def cycle(self) -> list:
        return [self.op, self.op]

    def op(self):
        fused: list = []
        report = synth.run_scenario(self.config, threads=1, fused_out=fused)
        return synth.report_json(report, self.config), fused

    def check(self, i: int, out) -> None:
        text, fused = out
        checks.check_scenario_report(json.loads(text), 0.005 * self.config.extent_mm)
        rig, scene, _, _ = synth.build_scenario(self.config)
        rendered = [
            synth.render_descriptor_map(cam, scene, self.config.sigma_px, self.config.map_wh).data
            for cam in rig.cameras
        ]
        checks.check_fused_is_rendered([f.data for f in fused], rendered)
        if self.reference is None:
            self.reference = text
        checks.check_identical_bytes(self.reference, text)


class Sweep(Workload):
    """Criterion-9-sized scenarios: a 12 degree ring at 2, 4 and 8 views.

    64x64 images, K=16, C=8, 6 joints, 25 RANSAC iterations, no detection
    noise; 60 scenes drawn from --seed, each seen by all three rigs. Many
    small calls: triangulation and per-call overhead weigh more here than in
    scenario. With 10 scenes the median error failed to fall from 4 to 8
    views on about 1 seed in 100 (resampling 300 scenes); with 30, never in
    20,000 draws. 60 scenes make a cycle of about 36 s: with 30 (18 s)
    ops_per_s spread by up to 0.136 (quartile distance over median) in sets
    of ten runs. Matching accuracy is checked over the whole cycle: a 2-view
    scenario has only 12 joint-view pairs, so one scene can read 0.917 on a
    single miss.
    """

    name = "sweep"
    VIEWS = (2, 4, 8)
    SCENES = 60

    def __init__(self, root: Path, seed: int) -> None:
        self.cases = []
        for views in self.VIEWS:
            for i in range(self.SCENES):
                s_rig, s_scene, s_params, s_pipe = (
                    int(s) for s in np.random.SeedSequence([seed, i]).generate_state(4)
                )
                rig = synth.make_rig(views, 12.0, 1500.0, (64, 64), 80.0, s_rig)
                scene = synth.make_scene(6, 600.0, 8, s_scene)
                params = fusion.FusionParams.initialize("identity", "softmax", 8, s_params)
                self.cases.append((views, rig, scene, params, s_pipe))
        self.reports: dict[int, str] = {}

    def cycle(self) -> list:
        return [lambda case=case: self.op(case) for case in self.cases]

    @staticmethod
    def op(case):
        _, rig, scene, params, s_pipe = case
        return synth.run_pipeline(
            rig, scene, params, 16, 0.0, s_pipe, ransac_iterations=25, threads=1
        )

    def check(self, i: int, report) -> tuple[int, float, int, int]:
        text = synth.report_json(report)
        self.reports.setdefault(i, text)
        checks.check_identical_bytes(self.reports[i], text)
        doc = json.loads(text)
        checks.check_sweep_report(doc)
        joints = doc["per_joint"]
        hits = sum(j["match_hits"] for j in joints)
        return self.cases[i][0], report.mpjpe_mm, hits, sum(j["match_total"] for j in joints)

    def check_cycle(self, summaries: list) -> None:
        by_views: dict[int, list[float]] = {}
        for views, error, _, _ in summaries:
            by_views.setdefault(views, []).append(error)
        checks.check_error_falls_with_views(
            {v: statistics.median(e) for v, e in by_views.items()}
        )
        checks.check_matching(
            sum(s[2] for s in summaries) / sum(s[3] for s in summaries), 0.9
        )


def _random_camera(rng: np.random.Generator, size: int) -> CameraView:
    """Camera 400-1200 mm from the origin in a random direction, aimed near it."""
    direction = rng.standard_normal(3)
    center = rng.uniform(400.0, 1200.0) * direction / np.linalg.norm(direction)
    focal = rng.uniform(50.0, 150.0)
    z = rng.normal(0.0, 30.0, 3) - center
    z /= np.linalg.norm(z)
    up = np.array([0.0, 0.0, 1.0]) if abs(z[2]) < 0.97 else np.array([0.0, 1.0, 0.0])
    x = np.cross(z, up)
    x /= np.linalg.norm(x)
    rot = np.stack([x, np.cross(z, x), z])
    k = np.array([[focal, 0.0, (size - 1) / 2.0], [0.0, focal, (size - 1) / 2.0], [0.0, 0.0, 1.0]])
    return CameraView(k @ np.hstack([rot, (-rot @ center)[:, None]]), size, size)


class Query(Workload):
    """The public per-query path on random camera pairs, 20 queries per pair.

    One op is epipolar_line, then epipolar_samples (K=64) on a 64x64 C=16
    map, then similarity_weights. Every fourth pair reads a 32x32 map
    instead (a quarter of all queries), so the sampler rescales the source
    camera on those calls. A cycle is 100 pairs, 2,000 queries.
    """

    name = "query"
    PAIRS = 100
    PER_PAIR = 20
    SIZE = 64
    K = 64
    C = 16
    HALF_EVERY = 4

    def __init__(self, root: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        self.full = sampler.FeatureMap(rng.standard_normal((self.SIZE, self.SIZE, self.C)))
        half = self.SIZE // 2
        self.half = sampler.FeatureMap(rng.standard_normal((half, half, self.C)))
        self.queries = []
        for pair in range(self.PAIRS):
            ref, src = _random_camera(rng, self.SIZE), _random_camera(rng, self.SIZE)
            fmap = self.half if pair % self.HALF_EVERY == self.HALF_EVERY - 1 else self.full
            for p, q in zip(
                rng.uniform(0.0, self.SIZE - 1.0, (self.PER_PAIR, 2)),
                rng.standard_normal((self.PER_PAIR, self.C)),
            ):
                self.queries.append((ref, src, fmap, p, q))
        self.expected: dict[int, np.ndarray] = {}  # lines built by the check, per query

    def cycle(self) -> list:
        return [lambda query=query: self.op(query) for query in self.queries]

    def op(self, query):
        ref, src, fmap, p, q = query
        line = geometry.epipolar_line(ref, src, p)
        samples = sampler.epipolar_samples(fmap, ref, src, p, self.K)
        weights = None if samples is None else fusion.similarity_weights(q, samples.features)
        return line, samples, weights

    def check(self, i: int, out) -> None:
        ref, src, fmap, p, _ = self.queries[i]
        line, samples, weights = out
        if i not in self.expected:
            self.expected[i] = checks.epipolar_line_through(ref.M, src.M, p)
        expected = self.expected[i]
        checks.check_same_line(line.l, expected)
        scale = self.SIZE / fmap.width
        if samples is None:
            checks.check_line_misses(expected, fmap.width, fmap.height, scale)
            return
        checks.check_samples_on_line(samples.locations, expected, fmap.width, fmap.height, scale)
        if i % 10 == 0:
            checks.check_features(
                samples.features, checks.bilinear_blend(fmap.data, samples.locations)
            )
        checks.check_weights(weights, self.K)


class Train(Workload):
    """Forward with record_grad plus backward on one pair of the default rig.

    Views 0 and 1 (24 degrees apart) at 160x160, K=64, C=16; the sampling
    plan is built once in set-up, as training would reuse it. A cycle is
    four steps alternating the identity and bottleneck variants, both with
    a random nonzero w_z drawn from --seed. Four, not two, so that a run
    times about 20 s: with two steps (10 s) ops_per_s spread by 0.12-0.13
    (quartile distance over median) in two sets of ten runs.
    """

    name = "train"
    STEPS = 4
    STEP = 1e-5

    def __init__(self, root: Path, seed: int) -> None:
        config = synth.load_scenario(root / "configs" / "default.json")
        config = dataclasses.replace(config, seed=seed)
        rig, scene, _, _ = synth.build_scenario(config)
        self.ref, self.src = rig.cameras[0], rig.cameras[1]
        self.f_ref = synth.render_descriptor_map(self.ref, scene, config.sigma_px)
        self.f_src = synth.render_descriptor_map(self.src, scene, config.sigma_px)
        hw = (self.f_ref.height, self.f_ref.width)
        self.k = config.k
        self.plan = fusion.plan_epipolar_sampling(self.ref, self.src, hw, hw, self.k)
        rng = np.random.default_rng([seed, 4])
        c = config.channels
        self.upstream = rng.standard_normal(hw + (c,))
        bottleneck = fusion.FusionParams.initialize("bottleneck", "softmax", c, seed)
        self.params = [
            fusion.FusionParams("identity", "softmax", 0.3 * rng.standard_normal((c, c))),
            fusion.FusionParams(
                "bottleneck", "softmax", 0.3 * rng.standard_normal((c // 2, c)),
                theta=bottleneck.theta, phi=bottleneck.phi, g=bottleneck.g,
            ),
        ]
        self.rng = rng
        self.first: dict[int, bytes] = {}  # digest of each variant's first step

    def cycle(self) -> list:
        return [
            lambda params=self.params[i % 2]: self.op(params) for i in range(self.STEPS)
        ]

    def op(self, params):
        result = fusion.transformer_forward(
            self.f_ref, self.f_src, self.ref, self.src, params, self.k,
            plan=self.plan, record_grad=True,
        )
        grads = fusion.transformer_backward(result.state, self.upstream)
        return result.fused, grads

    @staticmethod
    def _grad_parts(params, grads) -> list[tuple[str, np.ndarray]]:
        names = ["w_z"] if params.variant == "identity" else ["w_z", "theta", "phi", "g"]
        return [("f_ref", grads.f_ref), ("f_src", grads.f_src)] + [
            (n, getattr(grads, n)) for n in names
        ]

    def check(self, i: int, out) -> None:
        fused, grads = out
        variant = i % 2
        params = self.params[variant]
        checks.check_skipped_pixels(fused.data, self.f_ref.data, self.plan.valid)
        parts = self._grad_parts(params, grads)
        digest = hashlib.blake2b(fused.data.tobytes())
        for _, g in parts:
            digest.update(g.tobytes())
        digest = digest.digest()
        if variant not in self.first:
            self.check_gradient(params, parts)
            self.first[variant] = digest
        checks.require(
            digest == self.first[variant],
            f"{params.variant} step differs from the first one of this run",
        )

    def check_gradient(self, params, parts) -> float:
        """Central difference of sum(upstream * fused) along a random direction."""
        direction = {name: self.rng.standard_normal(g.shape) for name, g in parts}
        analytic = sum(float(np.sum(g * direction[name])) for name, g in parts)

        def loss(h: float) -> float:
            moved = {
                name: getattr(params, name) + h * direction[name]
                for name, _ in parts
                if name not in ("f_ref", "f_src")
            }
            shifted = dataclasses.replace(params, **moved)
            fused = fusion.transformer_forward(
                sampler.FeatureMap(self.f_ref.data + h * direction["f_ref"]),
                sampler.FeatureMap(self.f_src.data + h * direction["f_src"]),
                self.ref, self.src, shifted, self.k, plan=self.plan,
            ).fused
            return float(np.sum(self.upstream * fused.data))

        numeric = (loss(self.STEP) - loss(-self.STEP)) / (2.0 * self.STEP)
        return checks.check_directional_derivative(analytic, numeric)


WORKLOADS = {w.name: w for w in (Scenario, Sweep, Query, Train)}
