"""In-memory wall-clock spans around the calls into each layer.

The tracer patches callables *from outside the program*: instance
attributes on the engine's model, program and executors, and the
module-level names that callers look up at call time
(``repro.models.pointpillars.model.nms_bev`` and ``decode_boxes``,
``repro.nn.functional.scatter_to_grid``,
``repro.detection.nms.iou_bev``).  Every patch is recorded and
:meth:`Tracer.restore` puts the original back, so a traced run leaves
the program exactly as it found it.

A span is ``(id, name, start, end, parent, frame)``: ``parent`` is the
id of the enclosing span on the same thread, ``frame`` the frame id
(or the tuple of frame ids of a batched window) the work belongs to.
"""

from __future__ import annotations

import collections
import functools
import itertools
import threading
import time

import repro.detection.nms as nms_module
import repro.models.pointpillars.model as pointpillars_module
import repro.nn.functional as functional_module

#: Stages that partition one frame's time inside ``predict_window``.
FRAME_STAGES = ("pointcloud.preprocess", "nn.pfn", "nn.scatter",
                "nn.backbone", "nn.head", "detection.postprocess")

_MISSING = object()


class Tracer:
    """Records spans and counts while patched callables run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    def _enter(self, name: str, frame) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if frame is None and parent is not None:
            frame = parent[5]
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                None if parent is None else parent[0], frame]
        stack.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(tuple(span))

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        previous = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, previous, original))

    def wrap(self, owner, attr: str, name: str, *, frame=None,
             observe=None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``frame(*args)`` names the frame the call works on (inherited
        from the enclosing span otherwise); ``observe(args, result)``
        records counts after the call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._enter(name, None if frame is None
                               else frame(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(span)
            if observe is not None:
                observe(args, result)
            return result

        self._patch(owner, attr, traced)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count ``owner.attr`` calls without a span (hot inner calls)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.add(name)
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, previous, _ = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # ------------------------------------------------------------------
    def install(self, engine) -> list:
        """Patch the layers one :class:`InferenceEngine` runs through.

        Returns the ``(owner, attr, original)`` triples patched, so a
        caller can check afterwards that :meth:`restore` undid them.
        """
        model = engine.model
        program = engine.program
        self.wrap(program, "predict_window", "runtime.engine.predict_window",
                  frame=lambda model, scenes: tuple(
                      scene.frame_id for scene in scenes))
        self.wrap(model, "preprocess", "pointcloud.preprocess",
                  frame=lambda scene: scene.frame_id)

        def voxelized(args, pillars):
            self.add("pointcloud.points", len(args[0]))
            self.add("pointcloud.pillars", pillars.num_pillars)

        self.wrap(model.encoder, "encode", "pointcloud.voxelize",
                  observe=voxelized)
        self.wrap(model.pfn, "forward", "nn.pfn")
        self.wrap(functional_module, "scatter_to_grid", "nn.scatter")
        self.wrap(model.backbone, "forward", "nn.backbone")
        self.wrap(model.head, "forward", "nn.head")
        self.wrap(model, "_decode_head_outputs", "detection.postprocess",
                  frame=lambda outputs, frame_id: frame_id)
        self.wrap(pointpillars_module, "decode_boxes", "detection.decode")

        def suppressed(args, keep):
            self.add("detection.nms.candidates", len(args[0]))
            self.add("detection.nms.kept", len(keep))

        self.wrap(pointpillars_module, "nms_bev", "detection.nms",
                  observe=suppressed)
        self.count_calls(nms_module, "iou_bev", "detection.iou_bev")
        for node, executor in program.executors.items():
            self.wrap(executor, "forward", f"runtime.executors.{node}")
        return [(owner, attr, original)
                for owner, attr, _, original in self._patches]


def unrestored(patched: list) -> list[str]:
    """Names of patched attributes that no longer resolve to the
    original callable (empty when every patch was undone)."""
    return [attr for owner, attr, original in patched
            if getattr(owner, attr) != original]


def durations(spans, names=None) -> dict:
    """Total seconds and call count per span name."""
    totals: dict = collections.defaultdict(lambda: [0.0, 0])
    for _, name, start, end, _, _ in spans:
        if names is None or name in names:
            entry = totals[name]
            entry[0] += end - start
            entry[1] += 1
    return totals


def window_spans(spans) -> dict:
    """frame id -> (start, end) of the predict_window that ran it."""
    windows = {}
    for _, name, start, end, _, frames in spans:
        if name == "runtime.engine.predict_window":
            for frame in frames:
                windows[frame] = (start, end)
    return windows


def stage_seconds(spans) -> float:
    """Seconds spent in the stages of :data:`FRAME_STAGES`."""
    return sum(total for total, _ in durations(spans, FRAME_STAGES).values())


def layer_metrics(tracer: Tracer, frames: int, frame_wall_s: float,
                  executor_nodes: list[str]) -> dict:
    """Per-frame stage times and counts of one traced phase.

    ``frame_wall_s`` is the wall time the frames took in total; the NMS
    share is taken of it.
    """
    totals = durations(tracer.spans)
    counts = tracer.counts

    def ms(name):
        return totals[name][0] * 1e3 / frames

    def calls(name):
        return totals[name][1] / frames

    voxelized = max(totals["pointcloud.voxelize"][1], 1)
    candidates = counts["detection.nms.candidates"]
    metrics = {
        "pointcloud.voxelize.ms": ms("pointcloud.voxelize"),
        "pointcloud.voxelize.calls": calls("pointcloud.voxelize"),
        "pointcloud.points_per_frame": counts["pointcloud.points"] / voxelized,
        "pointcloud.pillars_per_frame":
            counts["pointcloud.pillars"] / voxelized,
        "nn.pfn.ms": ms("nn.pfn"),
        "nn.scatter.ms": ms("nn.scatter"),
        "nn.backbone.ms": ms("nn.backbone"),
        "nn.head.ms": ms("nn.head"),
        "detection.postprocess.ms": ms("detection.postprocess"),
        "detection.decode.ms": ms("detection.decode"),
        "detection.nms.ms": ms("detection.nms"),
        "detection.nms.calls": calls("detection.nms"),
        "detection.nms.candidates_per_call":
            candidates / max(totals["detection.nms"][1], 1),
        "detection.nms.kept_ratio":
            counts["detection.nms.kept"] / max(candidates, 1),
        "detection.nms.wall_share": totals["detection.nms"][0] / frame_wall_s,
        "detection.iou_bev.calls": counts["detection.iou_bev"] / frames,
        "runtime.engine.predict_window.ms":
            ms("runtime.engine.predict_window"),
        "runtime.engine.frames_per_window":
            frames / max(totals["runtime.engine.predict_window"][1], 1),
    }
    for node in executor_nodes:
        metrics[f"runtime.executors.{node}.ms"] = \
            ms(f"runtime.executors.{node}")
        metrics[f"runtime.executors.{node}.calls"] = \
            calls(f"runtime.executors.{node}")
    return metrics
