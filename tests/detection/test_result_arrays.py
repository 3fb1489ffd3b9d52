"""Array-backed detection results (``DetectionResult.from_arrays``)."""

import pickle

import numpy as np
import pytest

from repro.detection import DetectionResult
from repro.detection import evaluation as evaluation_module
from repro.pointcloud import array_to_boxes

NAMES = ("Car", "Pedestrian", "Cyclist")


@pytest.fixture
def arrays():
    rng = np.random.default_rng(0)
    boxes = rng.uniform(-5.0, 5.0, (5, 7)).astype(np.float32)
    scores = rng.uniform(0.3, 1.0, 5).astype(np.float32)
    class_ids = np.array([0, 0, 1, 2, 2])
    return boxes, scores, class_ids


def _fields(boxes):
    return [(b.x, b.y, b.z, b.dx, b.dy, b.dz, b.yaw, b.label, b.score,
             b.difficulty, b.meta) for b in boxes]


def test_len_does_not_build_the_box_list(arrays, monkeypatch):
    result = DetectionResult.from_arrays(*arrays, NAMES, frame_id=3)

    def forbidden(*args, **kwargs):
        raise AssertionError("len() built the box list")

    monkeypatch.setattr(evaluation_module, "array_to_boxes", forbidden)
    assert len(result) == 5
    assert result.frame_id == 3
    assert len(DetectionResult.from_arrays(
        np.zeros((0, 7), np.float32), np.zeros(0, np.float32),
        np.zeros(0, np.int64), NAMES)) == 0


def test_boxes_equal_array_to_boxes_field_by_field(arrays):
    boxes, scores, class_ids = arrays
    result = DetectionResult.from_arrays(boxes, scores, class_ids, NAMES)
    expected = array_to_boxes(boxes, labels=[NAMES[i] for i in class_ids],
                              scores=scores)
    assert _fields(result.boxes) == _fields(expected)
    assert all(type(b.score) is float and type(b.x) is float
               for b in result.boxes)


def test_mutation_through_boxes_persists(arrays):
    result = DetectionResult.from_arrays(*arrays, NAMES)
    result.boxes[0].x += 1.0
    result.boxes.pop()
    assert result.boxes[0].x == float(arrays[0][0, 0]) + 1.0
    assert len(result) == 4


def test_pickle_round_trip(arrays):
    lazy = DetectionResult.from_arrays(*arrays, NAMES, frame_id=7)
    built = DetectionResult.from_arrays(*arrays, NAMES, frame_id=7)
    built.boxes[1].score = 0.5
    for result in (lazy, built, DetectionResult([], frame_id=2)):
        restored = pickle.loads(pickle.dumps(result))
        assert restored.frame_id == result.frame_id
        assert len(restored) == len(result)
        assert _fields(restored.boxes) == _fields(result.boxes)
    assert pickle.loads(pickle.dumps(built)).boxes[1].score == 0.5


def test_list_constructor_keeps_its_api():
    result = DetectionResult(boxes=[], frame_id=4)
    assert result.boxes == [] and len(result) == 0
    assert result == DetectionResult([], 4)
    assert result != DetectionResult([], 5)
