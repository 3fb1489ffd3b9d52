"""Self-checks of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import repro.detection.nms as nms_module  # noqa: E402
import repro.models.pointpillars.model as pointpillars_module  # noqa: E402
import repro.nn.functional as functional_module  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, unrestored  # noqa: E402

MODULE_NAMES = [(pointpillars_module, "nms_bev"),
                (pointpillars_module, "decode_boxes"),
                (nms_module, "iou_bev"),
                (functional_module, "scatter_to_grid")]


def module_originals():
    return {(module, name): getattr(module, name)
            for module, name in MODULE_NAMES}


def assert_modules_restored(originals):
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, name


def test_tracer_patches_are_observation_only_and_restored():
    originals = module_originals()
    record = workloads.load_json("workloads.json")
    model, ir, _ = workloads.compress(workloads.tiny_pointpillars())
    engine, _ = workloads.lowered_engine(model, ir, batch_size=1)
    pools, _ = workloads.serve_inputs(0, record)
    untraced = engine.run(pools[0][:1]).predictions[0]
    tracer = Tracer()
    patched = tracer.install(engine)
    assert getattr(pointpillars_module, "nms_bev") is not \
        originals[(pointpillars_module, "nms_bev")]
    traced = engine.run(pools[0][:1]).predictions[0]
    tracer.restore()

    assert unrestored(patched) == []
    assert_modules_restored(originals)
    for executor in engine.program.executors.values():
        assert "forward" not in vars(executor)
    for owner, attr in [(model, "preprocess"), (model.encoder, "encode"),
                        (model.pfn, "forward"), (model.backbone, "forward"),
                        (model.head, "forward"),
                        (model, "_decode_head_outputs"),
                        (engine.program, "predict_window")]:
        assert attr not in vars(owner), attr
    assert workloads.boxes_key(traced) == workloads.boxes_key(untraced)
    names = {span[1] for span in tracer.spans}
    assert {"runtime.engine.predict_window", "pointcloud.voxelize",
            "nn.backbone", "detection.nms",
            "runtime.executors.pfn.conv"} <= names
    assert tracer.counts["detection.iou_bev"] > 0


def test_pp_trained_stream_spans_cover_frame_and_bypass_nms():
    originals = module_originals()
    result = workloads.run_pp_trained_stream(0, 4.0, True)
    assert_modules_restored(originals)
    metrics = result["metrics"]
    assert result["correct"] and result["failed"] == 0
    assert abs(metrics["trace.stage_coverage"] - 1.0) <= 0.05
    assert metrics["detection.nms.wall_share"] < 0.05


def test_tiny_serve_thread_is_nms_bound_when_traced():
    originals = module_originals()
    result = workloads.run_tiny_serve_thread(0, 8.0, True)
    assert_modules_restored(originals)
    metrics = result["metrics"]
    assert result["correct"] and result["failed"] == 0
    assert metrics["detection.nms.wall_share"] >= 0.9
    assert abs(metrics["trace.stage_coverage"] - 1.0) <= 0.05


def test_output_check_fails_run_on_perturbed_serving_detections(
        monkeypatch):
    """Serving-path detections that differ from the solo reference by
    one coordinate fail the run."""
    build = workloads.lowered_engine

    def perturbed(model, ir, batch_size):
        engine, seconds = build(model, ir, batch_size)
        if batch_size > 1:
            program = engine.program
            predict = program.predict_window

            def shifted(model, scenes):
                results = predict(model, scenes)
                for result in results:
                    result.boxes[0].x += 1e-9
                return results

            monkeypatch.setattr(program, "predict_window", shifted)
        return engine, seconds

    monkeypatch.setattr(workloads, "lowered_engine", perturbed)
    result = workloads.run_tiny_serve_thread(1, 5.0, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_committed_digest_catches_detections_that_move_together(
        monkeypatch):
    """Both paths keeping one box fewer still fails the default seed."""
    record = workloads.load_json("workloads.json")
    pools, _ = workloads.serve_inputs(0, record)
    model, ir, _ = workloads.compress(workloads.tiny_pointpillars())
    reference = workloads.solo_reference(model, ir, pools[:1])[1]
    nms = pointpillars_module.nms_bev
    monkeypatch.setattr(pointpillars_module, "nms_bev",
                        lambda *args, **kwargs: nms(*args, **kwargs)[:-1])
    moved = workloads.solo_reference(model, ir, pools[:1])[1]
    monkeypatch.undo()
    assert moved != reference
    full = workloads.solo_reference(model, ir, pools)[1]
    assert workloads.check_digest("tiny-serve-thread", 0, full)[0]
    assert not workloads.check_digest("tiny-serve-thread", 0,
                                      moved + full[1:])[0]


def test_bare_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "pp-trained-stream", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    for line in completed.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError(f"printed a result: {line}")
