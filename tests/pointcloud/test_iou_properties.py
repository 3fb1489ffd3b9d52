"""Property-based invariants of the BEV/3D IoU geometry kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import nms_bev
from repro.pointcloud import (iou_3d, iou_bev, iou_bev_pairs, iou_matrix_bev)

_coord = st.floats(-40.0, 40.0)
_size = st.floats(0.5, 6.0)
_angle = st.floats(-np.pi, np.pi)


@st.composite
def _box(draw):
    return np.array([draw(_coord), draw(_coord), draw(st.floats(-1.0, 2.0)),
                     draw(_size), draw(_size), draw(_size), draw(_angle)],
                    dtype=np.float64)


class TestIoUProperties:
    @given(_box(), _box())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        # Polygon clipping accumulates last-ulp differences depending on
        # which box plays subject vs clip, so symmetry is approximate.
        assert iou_bev(a, b) == pytest.approx(iou_bev(b, a), abs=1e-9)
        assert iou_3d(a, b) == pytest.approx(iou_3d(b, a), abs=1e-9)

    @given(_box(), _box())
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, a, b):
        for value in (iou_bev(a, b), iou_3d(a, b)):
            assert 0.0 <= value <= 1.0 + 1e-9

    @given(_box())
    @settings(max_examples=40, deadline=None)
    def test_self_iou_is_one(self, a):
        assert abs(iou_bev(a, a) - 1.0) < 1e-6
        assert abs(iou_3d(a, a) - 1.0) < 1e-6

    @given(_box(), st.floats(0, 2 * np.pi))
    @settings(max_examples=40, deadline=None)
    def test_rotation_by_pi_is_identity(self, a, _):
        """A BEV rectangle is symmetric under a half-turn."""
        b = a.copy()
        b[6] += np.pi
        assert abs(iou_bev(a, b) - 1.0) < 1e-6

    @given(_box(), st.floats(50.0, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_boxes_score_zero(self, a, gap):
        b = a.copy()
        # Move past any possible extent of either footprint.
        b[0] += a[3] + a[4] + gap
        assert iou_bev(a, b) == 0.0
        assert iou_3d(a, b) == 0.0

    @given(_box(), st.floats(20.0, 40.0))
    @settings(max_examples=40, deadline=None)
    def test_vertical_separation_kills_3d_overlap(self, a, dz):
        """Same footprint, stacked far apart: BEV 1.0 but 3D 0.0."""
        b = a.copy()
        b[2] += a[5] + dz
        assert abs(iou_bev(a, b) - 1.0) < 1e-6
        assert iou_3d(a, b) == 0.0

    @given(st.integers(0, 9999), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_matrix_matches_pairwise(self, seed, n, m):
        rng = np.random.default_rng(seed)

        def batch(count):
            boxes = np.zeros((count, 7))
            boxes[:, 0] = rng.uniform(-20, 20, count)
            boxes[:, 1] = rng.uniform(-20, 20, count)
            boxes[:, 3:6] = rng.uniform(1, 4, (count, 3))
            boxes[:, 6] = rng.uniform(-np.pi, np.pi, count)
            return boxes

        a, b = batch(n), batch(m)
        matrix = iou_matrix_bev(a, b)
        assert matrix.shape == (n, m)
        for i in range(n):
            for j in range(m):
                assert matrix[i, j] == iou_bev(a[i], b[j])


# ----------------------------------------------------------------------
# Batched NMS kernel against the scalar oracle
# ----------------------------------------------------------------------
def _reference_nms(boxes, scores, iou_threshold=0.3, max_keep=100):
    """The pair-by-pair greedy loop the batched kernel replaced."""
    order = np.argsort(-np.asarray(scores))
    keep = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        if len(keep) >= max_keep:
            break
        for other in order:
            if suppressed[other] or other == idx:
                continue
            if iou_bev(boxes[idx], boxes[other]) > iou_threshold:
                suppressed[other] = True
    return np.array(keep, dtype=np.int64)


@st.composite
def _candidates(draw):
    """A clustered NMS input: near-duplicates, exact and rotated
    duplicates, zero-size footprints and tied scores."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 24))
    boxes = np.zeros((n, 7))
    boxes[:, 0] = rng.uniform(0.0, 8.0, n)
    boxes[:, 1] = rng.uniform(-4.0, 4.0, n)
    boxes[:, 2] = rng.uniform(-1.0, 1.0, n)
    boxes[:, 3:6] = rng.uniform(0.5, 4.0, (n, 3))
    boxes[:, 6] = rng.uniform(-np.pi, np.pi, n)
    if n >= 2:
        for _ in range(draw(st.integers(0, 3))):
            src, dst = rng.integers(0, n, 2)
            boxes[dst] = boxes[src]
            if draw(st.booleans()):     # same footprint, quarter-turned
                boxes[dst, 6] += np.pi / 2
                boxes[dst, [3, 4]] = boxes[src, [4, 3]]
        for index in rng.integers(0, n, draw(st.integers(0, 2))):
            boxes[index, [3, 4][:draw(st.integers(1, 2))]] = 0.0
    scores = rng.integers(0, draw(st.sampled_from([2, 5, 1000])), n) / 10.0
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return boxes.astype(dtype), scores.astype(np.float32)


_THRESHOLDS = st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0])


class TestBatchedNMS:
    @given(_candidates(), _THRESHOLDS, st.sampled_from([1, 2, 5, 100]))
    @settings(max_examples=150, deadline=None)
    def test_kept_indices_match_reference_loop(self, candidates, threshold,
                                               max_keep):
        boxes, scores = candidates
        kept = nms_bev(boxes, scores, threshold, max_keep)
        assert kept.dtype == np.int64
        assert kept.tolist() == _reference_nms(boxes, scores, threshold,
                                               max_keep).tolist()

    @given(_candidates())
    @settings(max_examples=60, deadline=None)
    def test_kernel_iou_matches_scalar(self, candidates):
        boxes, _ = candidates
        first, second = np.triu_indices(len(boxes), k=1)
        kernel = iou_bev_pairs(boxes, first, second)
        scalar = np.array([iou_bev(boxes[i], boxes[j])
                           for i, j in zip(first, second)])
        unsure = np.isnan(kernel)
        # Only a zero-area clip footprint makes the kernel defer.
        assert np.all((boxes[second[unsure], 3]
                       * boxes[second[unsure], 4]) == 0)
        assert np.all(np.abs(kernel[~unsure] - scalar[~unsure]) <= 1e-12)

    def test_empty_and_single_input(self):
        assert nms_bev(np.zeros((0, 7)), np.zeros(0)).tolist() == []
        one = np.array([[1.0, 2.0, 0.0, 4.0, 2.0, 1.5, 0.3]])
        assert nms_bev(one, np.array([0.7])).tolist() == [0]

    def test_band_pairs_are_decided_by_the_scalar_oracle(self, monkeypatch):
        """A pair whose IoU lies within the band of the threshold goes
        through the module-level ``iou_bev`` NMS resolves at call time;
        pairs outside the band never do."""
        from repro.detection import nms as nms_module
        boxes = np.array([[0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0],
                          [1.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.3]])
        scores = np.array([0.9, 0.8])
        iou = iou_bev(boxes[0], boxes[1])
        calls = []

        def counted(a, b):
            calls.append(1)
            return iou_bev(a, b)

        monkeypatch.setattr(nms_module, "iou_bev", counted)
        half_band = nms_module.NMS_FALLBACK_BAND / 2
        for offset, kept, oracle_calls in [(0.0, [0, 1], 1),
                                           (half_band, [0, 1], 1),
                                           (-half_band, [0], 1),
                                           (1e-6, [0, 1], 0),
                                           (-1e-6, [0], 0)]:
            calls.clear()
            assert nms_bev(boxes, scores, iou + offset).tolist() == kept
            assert len(calls) == oracle_calls, offset

    def test_tiny_pointpillars_matches_reference_loop(self, monkeypatch):
        from repro.models import PointPillars
        from repro.models.pointpillars import model as pointpillars_module
        from repro.pointcloud import LidarConfig, SceneConfig, SceneGenerator
        from repro.pointcloud.voxelize import PillarConfig

        model = PointPillars(
            pillar_config=PillarConfig(x_range=(0, 25.6),
                                       y_range=(-12.8, 12.8)),
            pfn_channels=8, stage_channels=(8, 16, 32),
            stage_depths=(1, 1, 1), upsample_channels=8, seed=1)
        config = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                             lidar=LidarConfig(channels=10, azimuth_steps=80))
        scenes = [SceneGenerator(config, seed=seed).generate(
                      0, with_image=False) for seed in range(3)]

        def fields(result):
            return [(b.label, b.score, b.x, b.y, b.z, b.dx, b.dy, b.dz,
                     b.yaw) for b in result.boxes]

        results = model.predict_batch(scenes)
        counts = [len(result) for result in results]
        monkeypatch.setattr(pointpillars_module, "nms_bev", _reference_nms)
        expected = model.predict_batch(scenes)
        assert sum(counts) > 0
        assert counts == [len(result.boxes) for result in expected]
        assert [fields(r) for r in results] == [fields(r) for r in expected]
