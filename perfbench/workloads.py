"""The benchmark's workloads: inputs, set-up, timed phases and checks.

Every workload builds its inputs from the seed before any clock starts,
drives only the public runtime API (``InferenceEngine.run`` or
``ServingEngine.open_stream/submit/close_stream/result``), and checks
every emitted frame's detections against the solo sequential batch-1
``InferenceEngine.run`` output for the same scenes.  Times are host
wall-clock seconds; the simulated Jetson cost appears only in the
per-layer ``hardware.*`` counts and is never mixed with them.

``pp-trained-stream``
    The trained registry PointPillars (restored from the committed
    checkpoint, never retrained here) as one closed-loop stream.  Its
    scores clear the threshold on almost no anchor, so voxelize, the
    PFN and the integer trunk are the whole frame and NMS is bypassed.
``tiny-serve-thread``
    The serving-bench tiny PointPillars (seeded random init) behind a
    thread-backend ``ServingEngine`` with four open-loop streams.  Every
    frame fills 3 classes x 64 NMS candidates, so NMS and the serving
    queue set latency and throughput.

Inputs cycle over a small pool of generated scenes per stream (each
frame a fresh copy under its own frame id), which keeps the solo
reference pass, and so the run, short.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import resource
import statistics
import time

import numpy as np

from repro.core import UPAQCompressor, hck_config
from repro.harness.pretrain import (TrainConfig, default_scene_config,
                                    get_pretrained)
from repro.hardware import default_devices
from repro.models import PointPillars
from repro.pointcloud import (LidarConfig, PillarConfig, SceneConfig,
                              SceneGenerator)
from repro.runtime import InferenceEngine, ServingEngine

from loadgen import OpenLoop, closed_loop, frame_id, sustained_rate
from tracing import (Tracer, durations, layer_metrics, stage_seconds,
                     unrestored, window_spans)

#: ``repro.harness.pretrain`` the module (the package re-exports a
#: function of the same name).
pretrain_module = importlib.import_module("repro.harness.pretrain")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Frames per stretch of the closed loop whose sustained rate is ``fps``
#: (about half a second of frames).
STREAM_STRETCH = 10
#: Counters of ``ServingStats`` reported per layer.
SERVING_COUNTERS = ("windows", "cross_stream_windows", "batched_frames",
                    "window_holds", "deadline_dispatches", "window_timeouts",
                    "pool_failures", "frames_rejected", "frames_failed")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run as specified (e.g. a missing input)."""


def load_json(name: str) -> dict:
    with open(os.path.join(HERE, name)) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def boxes_key(result) -> tuple:
    """Exact, hashable form of one frame's detections."""
    return tuple((box.label, float(box.score), float(box.x), float(box.y),
                  float(box.z), float(box.dx), float(box.dy), float(box.dz),
                  float(box.yaw)) for box in result.boxes)


def digest(reference: list[list[tuple]]) -> str:
    """sha256 over every reference frame's detections, in order."""
    return hashlib.sha256(repr(reference).encode()).hexdigest()


def check_digest(workload: str, seed: int, reference) -> tuple:
    """``(ok, note)``: the reference digest against the committed one."""
    expected = load_json("digests.json").get(workload, {}).get(str(seed))
    actual = digest(reference)
    if expected is None:
        return True, f"no committed digest for seed {seed}"
    if actual != expected:
        return False, f"reference digest {actual} != committed {expected}"
    return True, "reference digest matches the committed one"


def frame_failures(report, lane: int, sent: int, reference: list) -> int:
    """Frames of one stream that failed: not emitted, not ``ok``, or
    with detections other than the solo reference's for its scene."""
    failed = sent - len(report.predictions)
    for index, (result, record) in enumerate(
            zip(report.predictions, report.frames)):
        if record.status != "ok" or result.frame_id != frame_id(lane, index) \
                or boxes_key(result) != reference[index % len(reference)]:
            failed += 1
    return failed


# ----------------------------------------------------------------------
# Systems under test
# ----------------------------------------------------------------------
def load_trained_pointpillars(checkpoint: dict):
    """The committed checkpoint, through ``get_pretrained``; never trains."""
    path = os.path.join(ROOT, checkpoint["file"])
    if not os.path.exists(path):
        raise BenchmarkError(f"checkpoint {checkpoint['file']} is missing")
    with open(path, "rb") as handle:
        sha = hashlib.sha256(handle.read()).hexdigest()
    if sha != checkpoint["sha256"]:
        raise BenchmarkError(f"checkpoint {checkpoint['file']} changed: "
                             f"sha256 {sha}, recorded {checkpoint['sha256']}")
    config = TrainConfig(steps=300, seed=0, with_image=False)
    key = (f"pointpillars_s{config.steps}_seed{config.seed}"
           f"_p{PointPillars().num_parameters()}")
    if os.path.basename(path) != key + ".npz":
        raise BenchmarkError(f"the registry PointPillars now has checkpoint "
                             f"key {key}, not {os.path.basename(path)}")
    cached = os.path.join(pretrain_module._ARTIFACT_DIR, key + ".npz")
    if os.path.realpath(cached) != os.path.realpath(path):
        raise BenchmarkError("get_pretrained would not read the committed "
                             "checkpoint (is REPRO_ARTIFACTS set?)")

    def refuse(*args, **kwargs):
        raise BenchmarkError("get_pretrained tried to pretrain")

    original = pretrain_module.pretrain
    pretrain_module.pretrain = refuse
    try:
        model, _ = get_pretrained("pointpillars", config, cache=True)
    finally:
        pretrain_module.pretrain = original
    return model


def tiny_pointpillars():
    """The serving-bench tiny PointPillars (seeded random init)."""
    return PointPillars(
        pillar_config=PillarConfig(x_range=(0, 25.6), y_range=(-12.8, 12.8)),
        pfn_channels=8, stage_channels=(8, 16, 32), stage_depths=(1, 1, 1),
        upsample_channels=8, seed=1)


def compress(model) -> tuple:
    """HCK-compress ``model``; returns ``(model, ir, seconds)``."""
    start = time.perf_counter()
    report = UPAQCompressor(hck_config()).compress(
        model, *model.example_inputs())
    report.model.eval()
    return report.model, report.ir, time.perf_counter() - start


def lowered_engine(model, ir, batch_size: int) -> tuple:
    """A lowered engine with its program built; ``(engine, seconds)``."""
    start = time.perf_counter()
    engine = InferenceEngine(model, default_devices()["jetson"], ir=ir,
                             execution="lowered", batch_size=batch_size)
    engine.program
    return engine, time.perf_counter() - start


def median_setup(build, close) -> tuple:
    """Set up :data:`SETUP_REPEATS` times; ``(last system, median
    seconds, median seconds per step)``.

    ``build()`` returns ``(system, seconds per step)``; each discarded
    system is passed to ``close`` before the next set-up.
    """
    totals, steps, system = [], [], None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            close(system)
        start = time.perf_counter()
        system, parts = build()
        totals.append(time.perf_counter() - start)
        steps.append(parts)
    return system, statistics.median(totals), {
        key: statistics.median(parts[key] for parts in steps)
        for key in steps[0]}


def solo_reference(model, ir, pools: list[list]) -> tuple:
    """Solo sequential batch-1 ``run`` of each stream's scenes;
    ``(engine, detections per scene per stream)``."""
    engine, _ = lowered_engine(model, ir, batch_size=1)
    return engine, [[boxes_key(result) for result in engine.run(pool)
                     .predictions] for pool in pools]


def traced_overhead(engine, pools, reference) -> tuple:
    """Run every reference scene solo untraced, then traced, alternating
    so that drift in host speed falls on both; ``(overhead share, traced
    outputs == reference)``."""
    untraced_s = traced_s = 0.0
    traced = []
    for pool in pools:
        traced.append([])
        for scene in pool:
            start = time.perf_counter()
            engine.run([scene])
            untraced_s += time.perf_counter() - start
            tracer = Tracer()
            patched = tracer.install(engine)
            try:
                start = time.perf_counter()
                report = engine.run([scene])
                traced_s += time.perf_counter() - start
            finally:
                tracer.restore()
            check_restored(patched)
            traced[-1].append(boxes_key(report.predictions[0]))
    return traced_s / untraced_s - 1.0, traced == reference


def check_restored(patched: list) -> None:
    if unrestored(patched):
        raise BenchmarkError(f"patches not restored: {unrestored(patched)}")


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (no workload starts child
    processes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hardware_metrics(reports) -> dict:
    """Simulated Jetson cost per executed frame (labelled, never wall)."""
    frames = [record for report in reports for record in report.frames]
    return {
        "hardware.device_ms_per_frame":
            1e3 * sum(r.device_latency_s for r in frames) / len(frames),
        "hardware.device_mj_per_frame":
            1e3 * sum(r.device_energy_j for r in frames) / len(frames),
    }


def write_out(workload: str, seed: int, trace: bool, report: dict,
              tracer: Tracer | None) -> None:
    """Write the run's report, and its spans when traced, to ``out/``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    with open(f"{stem}-trace{int(trace)}.json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    if tracer is not None:
        origin = min((span[2] for span in tracer.spans), default=0.0)
        with open(f"{stem}-spans.json", "w") as handle:
            json.dump({"columns": ["id", "name", "start_s", "end_s",
                                   "parent", "frame"],
                       "spans": [[i, name, start - origin, end - origin,
                                  parent, frame]
                                 for i, name, start, end, parent, frame
                                 in tracer.spans]}, handle)


# ----------------------------------------------------------------------
# pp-trained-stream: one closed-loop stream through InferenceEngine.run
# ----------------------------------------------------------------------
def stream_inputs(seed: int, record: dict) -> tuple:
    """The stream's scene pool (as one-stream list) and a warm-up scene."""
    generator = SceneGenerator(default_scene_config(), seed=seed)
    scenes = [generator.generate(index, with_image=False)
              for index in range(record["stream"]["scenes"] + 1)]
    return [scenes[:-1]], scenes[-1]


def run_pp_trained_stream(seed: int, seconds: float, trace: bool) -> dict:
    record = load_json("workloads.json")
    (pool,), warm = stream_inputs(seed, record)

    def build():
        start = time.perf_counter()
        model = load_trained_pointpillars(record["checkpoint"])
        load_s = time.perf_counter() - start
        model, ir, compress_s = compress(model)
        engine, lower_s = lowered_engine(model, ir, batch_size=1)
        start = time.perf_counter()
        engine.run([warm])
        return engine, {"load_s": load_s, "compress_s": compress_s,
                        "lower_s": lower_s,
                        "warmup_s": time.perf_counter() - start}

    engine, setup_s, setup_parts = median_setup(build, lambda engine: None)
    ref_model, ref_ir, _ = compress(
        load_trained_pointpillars(record["checkpoint"]))
    ref_engine, reference = solo_reference(ref_model, ref_ir, [pool])

    tracer = Tracer() if trace else None
    patched = tracer.install(engine) if trace else []
    stamps: list = []
    try:
        report = engine.run(closed_loop(pool, seconds, stamps))
    finally:
        if tracer is not None:
            tracer.restore()
    check_restored(patched)

    attempted = len(stamps)
    failed = frame_failures(report, 0, attempted, reference[0])
    digest_ok, note = check_digest("pp-trained-stream", seed, reference)
    notes = [note]
    latencies = [done - sent for sent, done in stamps]
    frame_wall_s = sum(latencies)
    result = {"correct": failed == 0 and digest_ok,
              "attempted": attempted, "failed": failed}
    if not trace:
        fps = sustained_rate([(stamps[0][0], 0)] + [
            (done, 1) for _, done in stamps], STREAM_STRETCH)
        result["metrics"] = {
            "setup_s": setup_s,
            "fps": fps,
            "latency_ms_p90": percentile_ms(latencies, 90),
            # One closed-loop client: the highest rate it sustains is
            # the rate at which the engine returns its frames.
            "max_rate_fps": fps,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        overhead, traced_equal = traced_overhead(ref_engine, [pool],
                                                 reference)
        if not traced_equal:
            result["correct"] = False
            notes.append("traced outputs differ from untraced outputs")
        outside_s = frame_wall_s \
            - durations(tracer.spans)["runtime.engine.predict_window"][0]
        metrics = layer_metrics(tracer, attempted, frame_wall_s,
                                record["executor_nodes"])
        metrics.update(hardware_metrics([report]))
        metrics.update({f"runtime.serving.{name}": 0.0
                        for name in SERVING_COUNTERS + (
                            "queue_wait_ms_p50", "queue_wait_ms_p90")})
        metrics.update({
            "runtime.engine.self_ms": outside_s * 1e3 / attempted,
            "runtime.engine.latency_ms_p50": percentile_ms(latencies, 50),
            "setup.compress_s": setup_parts["compress_s"],
            "setup.lower_s": setup_parts["lower_s"],
            "setup.pool_spawn_s": 0.0,
            "loadgen.lag_ms_p90": 0.0,
            "trace.overhead_frac": overhead,
            # Stage spans plus the engine's time outside predict_window,
            # as a share of the frames' wall time.
            "trace.stage_coverage":
                (stage_seconds(tracer.spans) + outside_s) / frame_wall_s,
        })
        result["metrics"] = metrics
    write_out("pp-trained-stream", seed, trace,
              dict(result, latency_samples=len(latencies),
                   mean_fps=attempted / (stamps[-1][1] - stamps[0][0]),
                   latency_ms_p50=percentile_ms(latencies, 50),
                   setup_parts_s=setup_parts, notes=notes), tracer)
    return result


# ----------------------------------------------------------------------
# tiny-serve-thread: open-loop multi-stream serving on a fixed ladder
# ----------------------------------------------------------------------
def serve_inputs(seed: int, record: dict) -> tuple:
    """Per-stream scene pools (stream ``i`` seeds ``seed * 100 + i``)
    plus one warm-up scene, as ``benchmarks/test_serving_load.py``
    configures its scenes."""
    streams = record["serve"]["streams"]
    per_stream = record["serve"]["scenes_per_stream"]
    config = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                         lidar=LidarConfig(channels=10, azimuth_steps=80))
    pools = [[SceneGenerator(config, seed=seed * 100 + lane).generate(
                 index, with_image=False) for index in range(per_stream)]
             for lane in range(streams)]
    warm = SceneGenerator(config, seed=seed * 100 + streams).generate(
        0, with_image=False)
    return pools, warm


def run_tiny_serve_thread(seed: int, seconds: float, trace: bool) -> dict:
    record = load_json("workloads.json")
    serve = record["serve"]
    streams = serve["streams"]
    pools, warm = serve_inputs(seed, record)

    def build():
        model, ir, compress_s = compress(tiny_pointpillars())
        engine, lower_s = lowered_engine(model, ir,
                                         batch_size=serve["batch_size"])
        start = time.perf_counter()
        serving = ServingEngine(engine, backend="thread",
                                max_streams=streams + 1,
                                queue_depth=serve["queue_depth"])
        spawn_s = time.perf_counter() - start
        start = time.perf_counter()
        handle = serving.open_stream("warm")
        handle.submit(warm)
        handle.close()
        handle.result(timeout=120.0)
        return (serving, engine), {
            "compress_s": compress_s, "lower_s": lower_s,
            "pool_spawn_s": spawn_s,
            "warmup_s": time.perf_counter() - start}

    (serving, engine), setup_s, setup_parts = median_setup(
        build, lambda system: system[0].shutdown())
    ref_model, ref_ir, _ = compress(tiny_pointpillars())
    ref_engine, reference = solo_reference(ref_model, ref_ir, pools)
    before = serving.stats()
    names = [f"stream{lane}" for lane in range(streams)]
    for name in names:
        serving.open_stream(name)
    loop = OpenLoop(serving, names, pools, serve["latency_limit_ms"] / 1e3)
    tracer = Tracer() if trace else None
    patched = tracer.install(engine) if trace else []
    try:
        loop.run(serve["ladder_fps"], serve["latency_frames"], seconds)
        reports = loop.finish(timeout=120.0)
    finally:
        if tracer is not None:
            tracer.restore()
    check_restored(patched)
    stats = serving.stats()
    rss = peak_rss_mb()
    serving.shutdown()

    failed = loop.rejected + sum(
        frame_failures(report, lane, len(loop.lanes[lane]), reference[lane])
        for lane, report in enumerate(reports))
    attempted = len(loop.frames) + loop.rejected
    digest_ok, note = check_digest("tiny-serve-thread", seed, reference)
    notes = [note]

    ladder = serve["ladder_fps"]
    rungs, max_rate = {}, 0.0
    for rung in sorted(loop.planned):
        sent = [frame.enqueued for frame in loop.frames if frame.rung == rung]
        rungs[rung] = {"fps": ladder[rung], "planned": loop.planned[rung],
                       "sent": len(sent), "misses": loop.misses(rung),
                       "passed": loop.passed(rung)}
    # The highest rung of an unbroken run of passes from the lowest: the
    # rate the generator achieved there.
    for rung in range(len(ladder)):
        if rung not in rungs or not rungs[rung]["passed"]:
            break
        sent = [frame.enqueued for frame in loop.frames if frame.rung == rung]
        if len(sent) > 1:
            max_rate = (len(sent) - 1) / (sent[-1] - sent[0])
    latency_frames = [frame for frame in loop.frames if frame.rung == 0]
    latencies = [frame.latency for frame in latency_frames]
    result = {"correct": failed == 0 and digest_ok,
              "attempted": attempted, "failed": failed}
    if not trace:
        result["metrics"] = {
            "setup_s": setup_s,
            "fps": loop.capacity,
            "latency_ms_p90": percentile_ms(latencies, 90),
            "max_rate_fps": max_rate,
            "peak_rss_mb": rss,
        }
    else:
        overhead, traced_equal = traced_overhead(ref_engine, pools,
                                                 reference)
        if not traced_equal:
            result["correct"] = False
            notes.append("traced outputs differ from untraced outputs")
        windows = window_spans(tracer.spans)
        queue_waits, after_window = [], []
        for frame in loop.frames:
            span = windows.get(frame_id(frame.lane, frame.index))
            if span is not None:
                queue_waits.append(span[0] - frame.enqueued)
                after_window.append(frame.emitted - span[1])
        window_s = durations(tracer.spans)["runtime.engine.predict_window"][0]
        metrics = layer_metrics(tracer, len(windows), window_s,
                                record["executor_nodes"])
        metrics.update(hardware_metrics(reports))
        metrics.update({f"runtime.serving.{name}":
                        float(getattr(stats, name) - getattr(before, name))
                        for name in SERVING_COUNTERS})
        metrics.update({
            # Completion-side engine work: window end to emission.
            "runtime.engine.self_ms": 1e3 * statistics.fmean(after_window),
            "runtime.engine.latency_ms_p50": percentile_ms(latencies, 50),
            "runtime.serving.queue_wait_ms_p50": percentile_ms(queue_waits,
                                                               50),
            "runtime.serving.queue_wait_ms_p90": percentile_ms(queue_waits,
                                                               90),
            "setup.compress_s": setup_parts["compress_s"],
            "setup.lower_s": setup_parts["lower_s"],
            "setup.pool_spawn_s": setup_parts["pool_spawn_s"],
            "loadgen.lag_ms_p90": percentile_ms(
                [frame.enqueued - frame.due for frame in latency_frames], 90),
            "trace.overhead_frac": overhead,
            "trace.stage_coverage": stage_seconds(tracer.spans) / window_s,
        })
        result["metrics"] = metrics
    write_out("tiny-serve-thread", seed, trace,
              dict(result, latency_samples=len(latencies), ladder_fps=ladder,
                   latency_ms_p50=percentile_ms(latencies, 50),
                   latency_limit_ms=serve["latency_limit_ms"],
                   rungs=list(rungs.values()),
                   setup_parts_s=setup_parts,
                   stats=dataclasses.asdict(stats), notes=notes), tracer)
    return result


def reference_digest(workload: str, seed: int) -> str:
    """Digest of the solo reference detections of a workload's inputs."""
    record = load_json("workloads.json")
    if workload == "pp-trained-stream":
        pools, _ = stream_inputs(seed, record)
        model = load_trained_pointpillars(record["checkpoint"])
    else:
        pools, _ = serve_inputs(seed, record)
        model = tiny_pointpillars()
    model, ir, _ = compress(model)
    return digest(solo_reference(model, ir, pools)[1])


WORKLOADS = {
    "pp-trained-stream": run_pp_trained_stream,
    "tiny-serve-thread": run_tiny_serve_thread,
}
