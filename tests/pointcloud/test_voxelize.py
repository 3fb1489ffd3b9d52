"""Tests for pillar and voxel encoders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pointcloud import (PillarConfig, PillarEncoder, VoxelConfig,
                              VoxelEncoder)


def cloud(points):
    return np.asarray(points, dtype=np.float32)


@pytest.fixture
def pillar_encoder():
    return PillarEncoder(PillarConfig(
        x_range=(0, 8), y_range=(-4, 4), z_range=(-1, 3),
        pillar_size=1.0, max_points_per_pillar=4, max_pillars=16))


class TestPillarEncoder:
    def test_single_point_single_pillar(self, pillar_encoder):
        pillars = pillar_encoder.encode(cloud([[0.5, -3.5, 0.0, 0.7]]))
        assert pillars.num_pillars == 1
        np.testing.assert_array_equal(pillars.indices[0], [0, 0])
        assert pillars.mask[0, 0] == 1.0
        assert pillars.mask[0, 1:].sum() == 0

    def test_points_in_same_cell_share_pillar(self, pillar_encoder):
        pillars = pillar_encoder.encode(cloud([
            [2.1, 0.1, 0.5, 0.3], [2.9, 0.8, 1.0, 0.4]]))
        assert pillars.num_pillars == 1
        assert pillars.mask[0].sum() == 2

    def test_out_of_range_points_dropped(self, pillar_encoder):
        pillars = pillar_encoder.encode(cloud([
            [100.0, 0.0, 0.0, 0.1], [2.0, 0.0, 0.5, 0.1]]))
        assert pillars.num_pillars == 1

    def test_max_points_per_pillar_truncates(self, pillar_encoder):
        points = [[2.5, 0.5, 0.5, 0.1]] * 10
        pillars = pillar_encoder.encode(cloud(points))
        assert pillars.mask.sum() == 4

    def test_max_pillars_keeps_most_populated(self):
        encoder = PillarEncoder(PillarConfig(
            x_range=(0, 8), y_range=(-4, 4), pillar_size=1.0,
            max_points_per_pillar=8, max_pillars=1))
        points = ([[0.5, 0.5, 0.5, 0.1]] * 5    # popular cell
                  + [[5.5, 2.5, 0.5, 0.1]])     # lonely cell
        pillars = encoder.encode(cloud(points))
        assert pillars.num_pillars == 1
        assert pillars.mask.sum() == 5

    def test_centroid_offsets_zero_mean(self, pillar_encoder):
        points = [[2.1, 0.3, 0.5, 0.1], [2.9, 0.7, 1.5, 0.1]]
        pillars = pillar_encoder.encode(cloud(points))
        offsets = pillars.features[0, :2, 4:7]
        np.testing.assert_allclose(offsets.sum(axis=0), np.zeros(3),
                                   atol=1e-5)

    def test_center_offsets_bounded_by_cell(self, pillar_encoder):
        points = [[2.1, 0.3, 0.5, 0.1], [2.9, -0.7, 1.5, 0.1]]
        pillars = pillar_encoder.encode(cloud(points))
        center_offsets = pillars.features[:, :, 7:9]
        assert np.abs(center_offsets).max() <= 0.5 + 1e-6  # half a cell

    def test_feature_dim_is_nine(self, pillar_encoder):
        pillars = pillar_encoder.encode(cloud([[1, 0, 0, 0.5]]))
        assert pillars.features.shape[-1] == 9

    @given(st.integers(1, 60))
    @settings(max_examples=20, deadline=None)
    def test_mask_matches_feature_support(self, n_points):
        rng = np.random.default_rng(n_points)
        points = np.column_stack([
            rng.uniform(0, 8, n_points), rng.uniform(-4, 4, n_points),
            rng.uniform(-1, 3, n_points), rng.uniform(0, 1, n_points),
        ]).astype(np.float32)
        encoder = PillarEncoder(PillarConfig(
            x_range=(0, 8), y_range=(-4, 4), pillar_size=1.0,
            max_points_per_pillar=4, max_pillars=64))
        pillars = encoder.encode(points)
        # Wherever the mask is 0, all features must be 0.
        empty = pillars.mask == 0
        assert np.abs(pillars.features[empty]).sum() == 0


class TestVoxelEncoder:
    def test_mean_feature(self):
        encoder = VoxelEncoder(VoxelConfig(
            x_range=(0, 4), y_range=(-2, 2), z_range=(0, 2),
            voxel_size=(1.0, 1.0, 1.0)))
        voxels = encoder.encode(cloud([
            [0.2, -1.5, 0.5, 0.2], [0.8, -1.9, 0.9, 0.6]]))
        assert voxels.num_voxels == 1
        np.testing.assert_allclose(voxels.features[0],
                                   [0.5, -1.7, 0.7, 0.4], atol=1e-5)

    def test_coords_layout_zyx(self):
        encoder = VoxelEncoder(VoxelConfig(
            x_range=(0, 4), y_range=(-2, 2), z_range=(0, 2),
            voxel_size=(1.0, 1.0, 1.0)))
        voxels = encoder.encode(cloud([[3.5, 1.5, 1.5, 0.1]]))
        np.testing.assert_array_equal(voxels.coords[0], [1, 3, 3])

    def test_to_dense_roundtrip(self):
        encoder = VoxelEncoder(VoxelConfig(
            x_range=(0, 4), y_range=(-2, 2), z_range=(0, 2),
            voxel_size=(1.0, 1.0, 1.0)))
        voxels = encoder.encode(cloud([[0.5, -1.5, 0.5, 0.3]]))
        dense = voxels.to_dense()
        assert dense.shape == (4, 2, 4, 4)
        z, y, x = voxels.coords[0]
        np.testing.assert_allclose(dense[:, z, y, x], voxels.features[0])
        assert dense.sum() == pytest.approx(voxels.features.sum(), rel=1e-5)

    @pytest.mark.parametrize("seed", range(4))
    def test_mean_features_match_scatter_add(self, seed):
        """Per-column bincount sums ≡ an ``np.add.at`` scatter-add."""
        rng = np.random.default_rng(seed)
        points = np.column_stack([
            rng.uniform(0, 4, 500), rng.uniform(-2, 2, 500),
            rng.uniform(0, 2, 500), rng.uniform(0, 1, 500)]) \
            .astype(np.float32)
        config = VoxelConfig(x_range=(0, 4), y_range=(-2, 2),
                             z_range=(0, 2), voxel_size=(1.0, 1.0, 1.0))
        voxels = VoxelEncoder(config).encode(points)
        nz, ny, nx = config.grid_shape
        flat = ((points[:, 2].astype(np.int64) * ny
                 + (points[:, 1] + 2).astype(np.int64)) * nx
                + points[:, 0].astype(np.int64))
        cells, inverse = np.unique(flat, return_inverse=True)
        sums = np.zeros((len(cells), 4), dtype=np.float64)
        np.add.at(sums, inverse, points)
        counts = np.bincount(inverse)[:, None]
        expected = (sums / counts).astype(np.float32)
        assert voxels.features.tobytes() == expected.tobytes()

    def test_grid_shape(self):
        config = VoxelConfig(x_range=(0, 51.2), y_range=(-25.6, 25.6),
                             z_range=(-1, 3), voxel_size=(0.8, 0.8, 0.5))
        assert config.grid_shape == (8, 64, 64)


def _loop_encode(config, points):
    """The per-point pillar fill, kept as the oracle for the vectorized
    :meth:`PillarEncoder.encode`: one Python step per point, visiting
    points grouped by pillar in input order."""
    cfg = config
    pts = np.asarray(points, dtype=np.float32)
    in_range = ((pts[:, 0] >= cfg.x_range[0]) & (pts[:, 0] < cfg.x_range[1])
                & (pts[:, 1] >= cfg.y_range[0]) & (pts[:, 1] < cfg.y_range[1])
                & (pts[:, 2] >= cfg.z_range[0]) & (pts[:, 2] < cfg.z_range[1]))
    pts = pts[in_range]
    rows = ((pts[:, 1] - cfg.y_range[0]) / cfg.pillar_size).astype(np.int64)
    cols = ((pts[:, 0] - cfg.x_range[0]) / cfg.pillar_size).astype(np.int64)
    ny, nx = cfg.grid_shape
    flat = rows * nx + cols
    unique_cells, inverse = np.unique(flat, return_inverse=True)
    if len(unique_cells) > cfg.max_pillars:
        counts = np.bincount(inverse)
        keep = np.argsort(-counts)[:cfg.max_pillars]
        keep_set = np.zeros(len(unique_cells), dtype=bool)
        keep_set[keep] = True
        point_keep = keep_set[inverse]
        pts = pts[point_keep]
        flat = flat[point_keep]
        unique_cells, inverse = np.unique(flat, return_inverse=True)
    n_pillars = len(unique_cells)
    max_pts = cfg.max_points_per_pillar
    features = np.zeros((n_pillars, max_pts, 9), dtype=np.float32)
    mask = np.zeros((n_pillars, max_pts), dtype=np.float32)
    fill = np.zeros(n_pillars, dtype=np.int64)
    for point_idx in np.argsort(inverse, kind="stable"):
        pillar = inverse[point_idx]
        slot = fill[pillar]
        if slot >= max_pts:
            continue
        features[pillar, slot, :4] = pts[point_idx]
        mask[pillar, slot] = 1.0
        fill[pillar] += 1
    indices = np.stack([unique_cells // nx, unique_cells % nx], axis=1)
    counts = mask.sum(axis=1, keepdims=True)
    centroid = (features[:, :, :3] * mask[:, :, None]).sum(axis=1,
                                                           keepdims=True)
    centroid = centroid / np.maximum(counts[:, :, None], 1.0)
    features[:, :, 4:7] = (features[:, :, :3] - centroid) * mask[:, :, None]
    center_x = cfg.x_range[0] + (indices[:, 1] + 0.5) * cfg.pillar_size
    center_y = cfg.y_range[0] + (indices[:, 0] + 0.5) * cfg.pillar_size
    features[:, :, 7] = (features[:, :, 0] - center_x[:, None]) * mask
    features[:, :, 8] = (features[:, :, 1] - center_y[:, None]) * mask
    return features, mask, indices


#: Coordinates on the test grid's range edges (x in [0, 4), y in
#: [-2, 2), z in [-1, 1)), cell boundaries, and just outside.
_EDGES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 4.5,
          np.nextafter(np.float32(4.0), np.float32(0.0)))
_coord = st.one_of(st.sampled_from(_EDGES),
                   st.floats(-2.5, 4.5, width=32))
_point = st.tuples(_coord, _coord, _coord,
                   st.floats(0.0, 1.0, width=32))


@st.composite
def _clouds(draw):
    """Clouds with repeated points (copies of drawn ones, in any order)."""
    base = draw(st.lists(_point, min_size=0, max_size=40))
    if base:
        picks = draw(st.lists(st.integers(0, len(base) - 1), max_size=60))
        base = base + [base[i] for i in picks]
    return np.asarray(base, dtype=np.float32).reshape(-1, 4)


class TestVectorizedPillars:
    """The vectorized fill ≡ the per-point loop, byte for byte."""

    @staticmethod
    def _config(max_points, max_pillars):
        return PillarConfig(x_range=(0, 4), y_range=(-2, 2),
                            z_range=(-1, 1), pillar_size=1.0,
                            max_points_per_pillar=max_points,
                            max_pillars=max_pillars)

    def _assert_matches(self, config, points):
        pillars = PillarEncoder(config).encode(points)
        features, mask, indices = _loop_encode(config, points)
        for got, want in ((pillars.features, features),
                          (pillars.mask, mask), (pillars.indices, indices)):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(_clouds(), st.integers(1, 5), st.integers(1, 20))
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_on_random_clouds(self, points, max_points,
                                           max_pillars):
        self._assert_matches(self._config(max_points, max_pillars), points)

    @pytest.mark.parametrize("max_points", [1, 2, 4])
    def test_overflowing_pillars_keep_first_points(self, max_points):
        rng = np.random.default_rng(max_points)
        # 50 distinct points in one cell, interleaved with a second cell.
        points = np.column_stack([
            rng.uniform(0.0, 1.0, 50) + np.tile([0.0, 2.0], 25),
            rng.uniform(-2.0, -1.0, 50), rng.uniform(-1.0, 1.0, 50),
            rng.uniform(0.0, 1.0, 50)]).astype(np.float32)
        config = self._config(max_points, 16)
        self._assert_matches(config, points)
        pillars = PillarEncoder(config).encode(points)
        assert pillars.mask.sum() == 2 * max_points
        # Slot s of each pillar holds that pillar's s-th point in input
        # order.
        np.testing.assert_array_equal(pillars.features[0, :, :4],
                                      points[0::2][:max_points])

    def test_max_pillars_cap(self):
        rng = np.random.default_rng(5)
        points = np.column_stack([
            rng.uniform(0, 4, 300), rng.uniform(-2, 2, 300),
            rng.uniform(-1, 1, 300), rng.uniform(0, 1, 300)]) \
            .astype(np.float32)
        for max_pillars in (1, 3, 15, 16):
            self._assert_matches(self._config(3, max_pillars), points)

    def test_empty_cloud(self):
        config = self._config(4, 16)
        self._assert_matches(config, np.zeros((0, 4), dtype=np.float32))
        assert PillarEncoder(config).encode(
            np.zeros((0, 4), dtype=np.float32)).num_pillars == 0

    def test_every_point_out_of_range(self):
        points = cloud([[-0.5, 0.0, 0.0, 0.1], [4.0, 0.0, 0.0, 0.2],
                        [1.0, 2.0, 0.0, 0.3], [1.0, 0.0, 1.0, 0.4],
                        [1.0, -2.5, 0.0, 0.5]])
        self._assert_matches(self._config(4, 16), points)
        assert PillarEncoder(self._config(4, 16)).encode(points) \
            .num_pillars == 0

    def test_duplicate_points(self):
        points = cloud([[1.5, 0.5, 0.0, 0.1]] * 7
                       + [[2.5, -1.5, 0.5, 0.9]] * 3
                       + [[1.5, 0.5, 0.0, 0.1]] * 2)
        for max_points in (1, 4, 16):
            self._assert_matches(self._config(max_points, 16), points)

    def test_points_on_range_edges(self):
        below = float(np.nextafter(np.float32(4.0), np.float32(0.0)))
        points = cloud([[0.0, -2.0, -1.0, 0.1], [below, 1.5, 0.5, 0.2],
                        [4.0, 0.0, 0.0, 0.3], [1.0, 2.0, 0.0, 0.4],
                        [1.0, 1.0, 1.0, 0.5], [1.0, 1.0, 0.0, 0.6],
                        [2.0, -1.0, 0.99, 0.7]])
        self._assert_matches(self._config(2, 16), points)
