"""Spans around calls into epifuse's public functions, recorded from outside.

install() replaces each traced function wherever epifuse modules look it up
(the defining module and every module that imported the name), so calls
between library modules are traced too. Spans stay in memory as
(name, op, parent, start, end) rows and are written out once, at the end.
A wrapper records nothing unless an operation is open, so the checks that
run between operations stay out of the trace.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from epifuse import fusion, geometry, metrics, sampler, synth, triangulation
from epifuse.errors import Degenerate, NoConsensus

OP = "op"

# (module, function): the public entry points of each layer.
TRACED = (
    (synth, "run_pipeline"),
    (synth, "render_descriptor_map"),
    (fusion, "plan_epipolar_sampling"),
    (fusion, "transformer_forward"),
    (fusion, "transformer_backward"),
    (fusion, "similarity_weights"),
    (sampler, "epipolar_samples"),
    (geometry, "epipolar_line"),
    (geometry, "rescale_camera"),
    (metrics, "argmax_peak"),
    (triangulation, "ransac_triangulate"),
    (triangulation, "dlt_triangulate"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.rows: list[list] = []  # [name index, op, parent row, start, end]
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.counts: dict[str, float] = {}
        self.largest_sample_mb = 0.0
        self.last_plan = None

    # -- spans -----------------------------------------------------------------

    def _open(self, name_index: int) -> int:
        row = len(self.rows)
        parent = self.stack[-1] if self.stack else -1
        self.rows.append([name_index, self.op, parent, time.perf_counter(), 0.0])
        self.stack.append(row)
        return row

    def _close(self, row: int) -> None:
        self.rows[row][4] = time.perf_counter()
        self.stack.pop()

    def begin_op(self) -> None:
        self.op += 1
        self.active = True
        self._open(0)

    def end_op(self) -> None:
        self._close(self.stack[-1])
        self.active = False

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        for module, function in TRACED:
            original = getattr(module, function)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{function}"
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "epifuse" and not mod_name.startswith("epifuse."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        self.names.append(name)
        name_index = len(self.names) - 1
        after = getattr(self, "_after_" + name.split(".")[1], None)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            row = self._open(name_index)
            try:
                result = fn(*args, **kwargs)
            except (NoConsensus, Degenerate):
                if name == "triangulation.ransac_triangulate":
                    self._count(name + ".failed")
                raise
            finally:
                self._close(row)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Counters read from arguments and results, after the span has closed.

    def _after_plan_epipolar_sampling(self, args, kwargs, plan) -> None:
        self.last_plan = plan
        self._count("fusion.plan_epipolar_sampling.valid", float(np.count_nonzero(plan.valid)))
        self._count("fusion.plan_epipolar_sampling.pixels", float(plan.valid.size))

    def _after_transformer_forward(self, args, kwargs, result) -> None:
        plan = kwargs.get("plan") or self.last_plan
        n_reads = float(np.count_nonzero(plan.valid)) * plan.k
        self._count("fusion.transformer_forward.sample_reads", n_reads)
        channels = result.fused.data.shape[2]
        self.largest_sample_mb = max(self.largest_sample_mb, n_reads * channels * 8 / 1e6)

    def _after_ransac_triangulate(self, args, kwargs, result) -> None:
        self._count("triangulation.ransac_triangulate.inliers", float(np.sum(result.inliers)))
        self._count("triangulation.ransac_triangulate.observations", float(result.inliers.size))

    def _after_epipolar_samples(self, args, kwargs, result) -> None:
        if result is None:
            self._count("sampler.epipolar_samples.misses")

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (self time, duration); self = duration minus child durations."""
        rows = np.array([r[2:] for r in self.rows], dtype=np.float64).reshape(-1, 3)
        parent = rows[:, 0].astype(np.intp)
        duration = rows[:, 2] - rows[:, 1]
        own = duration.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], duration[has_parent])
        return own, duration

    def consistency(self) -> dict:
        """Children nest inside parents; each op's self times add up to its wall time."""
        own, duration = self.self_times()
        rows = self.rows
        nested = all(
            rows[r[2]][3] <= r[3] and r[4] <= rows[r[2]][4] and rows[r[2]][1] == r[1]
            for r in rows
            if r[2] >= 0
        )
        ops = np.array([r[1] for r in rows], dtype=np.intp)
        is_root = np.array([r[0] == 0 for r in rows])
        self_sum = np.bincount(ops, weights=own, minlength=self.op + 1)
        wall = np.zeros(self.op + 1)
        wall[ops[is_root]] = duration[is_root]
        gap = float(np.max(np.abs(self_sum - wall) / np.maximum(wall, 1e-12))) if len(wall) else 0.0
        return {"nested": bool(nested), "worst_relative_gap": gap, "ops": self.op + 1}

    def per_layer(self, ops: int) -> dict[str, float]:
        """Self time and calls per op for every traced function, plus counters."""
        own, _ = self.self_times()
        names = np.array([r[0] for r in self.rows], dtype=np.intp)
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[name + ".self_s"] = float(self_s[i]) / ops
            out[name + ".calls"] = float(calls[i]) / ops
        c = self.counts

        def share(num: str, den: str) -> float:
            return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

        out["fusion.transformer_forward.sample_reads"] = (
            c.get("fusion.transformer_forward.sample_reads", 0.0) / ops
        )
        out["fusion.transformer_forward.sample_tensor_mb"] = self.largest_sample_mb
        out["fusion.plan_epipolar_sampling.valid_share"] = share(
            "fusion.plan_epipolar_sampling.valid", "fusion.plan_epipolar_sampling.pixels"
        )
        out["triangulation.ransac_triangulate.failed"] = (
            c.get("triangulation.ransac_triangulate.failed", 0.0) / ops
        )
        out["triangulation.ransac_triangulate.inlier_share"] = share(
            "triangulation.ransac_triangulate.inliers",
            "triangulation.ransac_triangulate.observations",
        )
        out["sampler.epipolar_samples.misses"] = c.get("sampler.epipolar_samples.misses", 0.0) / ops
        return out

    def write(self, path: Path, meta: dict) -> None:
        own, _ = self.self_times()
        t0 = self.rows[0][3] if self.rows else 0.0
        doc = dict(meta)
        doc["names"] = self.names
        doc["columns"] = ["name", "op", "parent", "start_s", "end_s", "self_s"]
        doc["spans"] = [
            [r[0], r[1], r[2], r[3] - t0, r[4] - t0, float(s)] for r, s in zip(self.rows, own)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
