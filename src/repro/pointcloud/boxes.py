"""3D bounding boxes and IoU geometry.

Boxes follow the KITTI/OpenPCDet convention used by both detectors:
center ``(x, y, z)`` in LiDAR coordinates (x forward, y left, z up, with
z at the box *center*), size ``(dx, dy, dz)`` (length, width, height),
and ``yaw`` rotation around +z.  BEV overlap of rotated boxes is computed
exactly with Sutherland–Hodgman polygon clipping; 3D IoU multiplies BEV
intersection by the z-extent overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box3D", "boxes_to_array", "array_to_boxes", "bev_corners",
    "polygon_area", "clip_polygon", "bev_intersection_area",
    "iou_bev", "iou_3d", "iou_matrix_bev", "iou_matrix_3d",
    "bev_corners_batch", "iou_bev_pairs", "iou_bev_upper",
    "points_in_box", "CLASS_NAMES", "CLASS_IDS",
]

CLASS_NAMES = ("Car", "Pedestrian", "Cyclist")
CLASS_IDS = {name: i for i, name in enumerate(CLASS_NAMES)}


@dataclass
class Box3D:
    """An oriented 3D bounding box with a class label and score."""

    x: float
    y: float
    z: float
    dx: float
    dy: float
    dz: float
    yaw: float
    label: str = "Car"
    score: float = 1.0
    difficulty: int = 0  # 0 easy, 1 moderate, 2 hard (KITTI convention)
    meta: dict = field(default_factory=dict)

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float32)

    @property
    def size(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz], dtype=np.float32)

    def as_vector(self) -> np.ndarray:
        """(x, y, z, dx, dy, dz, yaw) array."""
        return np.array([self.x, self.y, self.z,
                         self.dx, self.dy, self.dz, self.yaw],
                        dtype=np.float32)

    def corners(self) -> np.ndarray:
        """(8, 3) corner coordinates, bottom face first."""
        dx, dy, dz = self.dx / 2, self.dy / 2, self.dz / 2
        template = np.array([
            [dx, dy, -dz], [dx, -dy, -dz], [-dx, -dy, -dz], [-dx, dy, -dz],
            [dx, dy, dz], [dx, -dy, dz], [-dx, -dy, dz], [-dx, dy, dz],
        ], dtype=np.float32)
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float32)
        return template @ rot.T + self.center

    def volume(self) -> float:
        return float(self.dx * self.dy * self.dz)

    def range_from_origin(self) -> float:
        """Ground distance of the box center from the sensor."""
        return float(np.hypot(self.x, self.y))


def boxes_to_array(boxes: list[Box3D]) -> np.ndarray:
    """Stack boxes into an (N, 7) array of [x y z dx dy dz yaw]."""
    if not boxes:
        return np.zeros((0, 7), dtype=np.float32)
    return np.stack([b.as_vector() for b in boxes])


def array_to_boxes(array: np.ndarray, labels=None, scores=None) -> list[Box3D]:
    """Inverse of :func:`boxes_to_array`."""
    boxes = []
    for i, row in enumerate(np.asarray(array, dtype=np.float32)):
        boxes.append(Box3D(
            *[float(v) for v in row[:7]],
            label=labels[i] if labels is not None else "Car",
            score=float(scores[i]) if scores is not None else 1.0,
        ))
    return boxes


def bev_corners(box: np.ndarray) -> np.ndarray:
    """(4, 2) BEV footprint corners of a [x y z dx dy dz yaw] box."""
    x, y = box[0], box[1]
    dx, dy = box[3] / 2, box[4] / 2
    yaw = box[6]
    template = np.array([[dx, dy], [dx, -dy], [-dx, -dy], [-dx, dy]],
                        dtype=np.float64)
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s], [s, c]])
    return template @ rot.T + np.array([x, y])


def polygon_area(poly: np.ndarray) -> float:
    """Signed shoelace area of a 2D polygon (positive if CCW)."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland–Hodgman clipping of ``subject`` against convex ``clip``.

    Both polygons must be wound counter-clockwise.  Returns the (possibly
    empty) intersection polygon.
    """
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            break
        a = clip[i]
        b = clip[(i + 1) % n]
        edge = b - a
        input_list = output
        output = []

        def inside(p):
            return edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) >= -1e-12

        m = len(input_list)
        for j in range(m):
            current = input_list[j]
            prev = input_list[j - 1]
            cur_in = inside(current)
            prev_in = inside(prev)
            if cur_in:
                if not prev_in:
                    output.append(_segment_intersection(prev, current, a, b))
                output.append(current)
            elif prev_in:
                output.append(_segment_intersection(prev, current, a, b))
    return np.array(output) if output else np.zeros((0, 2))


def _segment_intersection(p1, p2, a, b) -> np.ndarray:
    """Intersection of line p1→p2 with (infinite) line a→b."""
    d1 = p2 - p1
    d2 = b - a
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < 1e-12:
        return p2
    t = ((a[0] - p1[0]) * d2[1] - (a[1] - p1[1]) * d2[0]) / denom
    return p1 + t * d1


def _ccw(poly: np.ndarray) -> np.ndarray:
    return poly if polygon_area(poly) >= 0 else poly[::-1]


def bev_intersection_area(box_a: np.ndarray, box_b: np.ndarray) -> float:
    """Exact BEV overlap area of two [x y z dx dy dz yaw] boxes."""
    pa = _ccw(bev_corners(box_a))
    pb = _ccw(bev_corners(box_b))
    inter = clip_polygon(pa, pb)
    return abs(polygon_area(inter))


def iou_bev(box_a: np.ndarray, box_b: np.ndarray) -> float:
    """Rotated IoU of the BEV footprints."""
    inter = bev_intersection_area(box_a, box_b)
    area_a = float(box_a[3] * box_a[4])
    area_b = float(box_b[3] * box_b[4])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def iou_3d(box_a: np.ndarray, box_b: np.ndarray) -> float:
    """Full 3D IoU: BEV intersection × vertical overlap."""
    inter_bev = bev_intersection_area(box_a, box_b)
    za_lo, za_hi = box_a[2] - box_a[5] / 2, box_a[2] + box_a[5] / 2
    zb_lo, zb_hi = box_b[2] - box_b[5] / 2, box_b[2] + box_b[5] / 2
    overlap_z = max(0.0, min(za_hi, zb_hi) - max(za_lo, zb_lo))
    inter = inter_bev * overlap_z
    vol_a = float(box_a[3] * box_a[4] * box_a[5])
    vol_b = float(box_b[3] * box_b[4] * box_b[5])
    union = vol_a + vol_b - inter
    return inter / union if union > 0 else 0.0


# ----------------------------------------------------------------------
# Batched BEV IoU (the NMS kernel)
# ----------------------------------------------------------------------
#: Vertex capacity of the batched clipper: a convex quadrilateral
#: clipped by four half-planes keeps at most eight vertices.
_CLIP_CAPACITY = 8
_TEMPLATE_X = np.array([1.0, 1.0, -1.0, -1.0])
_TEMPLATE_Y = np.array([1.0, -1.0, -1.0, 1.0])


def bev_corners_batch(boxes: np.ndarray) -> np.ndarray:
    """(N, 4, 2) counter-clockwise BEV footprints of (N, 7) boxes.

    The arithmetic of :func:`bev_corners` followed by ``_ccw``, one box
    per row: ``cos``/``sin`` run in the input's dtype and are then
    widened to float64, exactly as the scalar path does.
    """
    boxes = np.asarray(boxes)
    cos = np.cos(boxes[:, 6]).astype(np.float64)[:, None]
    sin = np.sin(boxes[:, 6]).astype(np.float64)[:, None]
    half_x = (boxes[:, 3] / 2).astype(np.float64)[:, None] * _TEMPLATE_X
    half_y = (boxes[:, 4] / 2).astype(np.float64)[:, None] * _TEMPLATE_Y
    corners = np.stack([
        half_x * cos + half_y * -sin + boxes[:, 0:1].astype(np.float64),
        half_x * sin + half_y * cos + boxes[:, 1:2].astype(np.float64),
    ], axis=-1)
    x, y = corners[..., 0], corners[..., 1]
    twice_area = (np.sum(x * np.roll(y, -1, axis=1), axis=1)
                  - np.sum(y * np.roll(x, -1, axis=1), axis=1))
    clockwise = twice_area < 0
    corners[clockwise] = corners[clockwise, ::-1]
    return corners


def _clip_batch(subject: np.ndarray, clip: np.ndarray) -> tuple:
    """Sutherland–Hodgman over P polygon pairs at once.

    ``subject`` and ``clip`` are (P, 4, 2) CCW quadrilaterals.  Every
    pair's polygon lives in fixed (P, 8) x/y buffers with a vertex
    count; each clip edge emits, per input vertex, the edge crossing
    and/or the vertex itself exactly as :func:`clip_polygon` does.
    Returns ``(x, y, count, overflow)``; ``overflow`` flags pairs whose
    polygon outgrew the buffer (only possible through tolerance noise on
    degenerate input), whose area is then not trustworthy.
    """
    pairs = len(subject)
    rows = np.arange(pairs)[:, None]
    slots = np.arange(_CLIP_CAPACITY)
    dump = 2 * _CLIP_CAPACITY
    x = np.zeros((pairs, _CLIP_CAPACITY))
    y = np.zeros((pairs, _CLIP_CAPACITY))
    x[:, :4], y[:, :4] = subject[..., 0], subject[..., 1]
    count = np.full(pairs, 4)
    overflow = np.zeros(pairs, dtype=bool)
    for i in range(4):
        ax, ay = clip[:, i, 0:1], clip[:, i, 1:2]
        ex = clip[:, (i + 1) % 4, 0:1] - ax
        ey = clip[:, (i + 1) % 4, 1:2] - ay
        valid = slots < count[:, None]
        prev_slot = np.where(slots == 0, count[:, None] - 1, slots - 1)
        px, py = x[rows, prev_slot], y[rows, prev_slot]
        cur_in = ex * (y - ay) - ey * (x - ax) >= -1e-12
        crossing = valid & (cur_in != cur_in[rows, prev_slot])
        kept = valid & cur_in
        # _segment_intersection(prev, cur, a, b), elementwise.
        dx, dy = x - px, y - py
        denom = dx * ey - dy * ex
        parallel = np.abs(denom) < 1e-12
        t = ((ax - px) * ey - (ay - py) * ex) \
            / np.where(parallel, 1.0, denom)
        emitted = crossing.astype(np.int64) + kept
        start = np.cumsum(emitted, axis=1) - emitted
        at_crossing = np.where(crossing, start, dump)
        at_kept = np.where(kept, start + crossing, dump)
        next_x = np.zeros((pairs, dump + 1))
        next_y = np.zeros((pairs, dump + 1))
        next_x[rows, at_crossing] = np.where(parallel, x, px + t * dx)
        next_y[rows, at_crossing] = np.where(parallel, y, py + t * dy)
        next_x[rows, at_kept] = x
        next_y[rows, at_kept] = y
        count = emitted.sum(axis=1)
        overflow |= count > _CLIP_CAPACITY
        count = np.minimum(count, _CLIP_CAPACITY)
        x, y = next_x[:, :_CLIP_CAPACITY], next_y[:, :_CLIP_CAPACITY]
    return x, y, count, overflow


def _polygon_area_batch(x: np.ndarray, y: np.ndarray,
                        count: np.ndarray) -> np.ndarray:
    """Shoelace areas of buffered polygons (0 below three vertices)."""
    rows = np.arange(len(x))[:, None]
    slots = np.arange(x.shape[1])
    valid = slots < count[:, None]
    following = np.where(slots + 1 < count[:, None], slots + 1, 0)
    x_next, y_next = x[rows, following], y[rows, following]
    area = 0.5 * (np.sum(np.where(valid, x * y_next, 0.0), axis=1)
                  - np.sum(np.where(valid, y * x_next, 0.0), axis=1))
    return np.where(count >= 3, area, 0.0)


def iou_bev_pairs(boxes: np.ndarray, first: np.ndarray,
                  second: np.ndarray) -> np.ndarray:
    """Rotated BEV IoU of ``boxes[first[k]]`` against ``boxes[second[k]]``.

    Batched form of :func:`iou_bev` (first box as the clipped subject,
    second as the clip polygon), agreeing with it to about 1e-13.  NaN
    marks the pairs this kernel does not vouch for, which callers must
    send to :func:`iou_bev`: a clip that overflowed the vertex buffer,
    or a union below half the larger area — impossible for real
    footprints (the intersection never exceeds the smaller area), so
    it only happens for a zero-size footprint, where the scalar ratio
    is ill-conditioned.
    """
    boxes = np.asarray(boxes)
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    if len(first) == 0:
        return np.zeros(0)
    corners = bev_corners_batch(boxes)
    area = (boxes[:, 3] * boxes[:, 4]).astype(np.float64)
    x, y, count, overflow = _clip_batch(corners[first], corners[second])
    inter = np.abs(_polygon_area_batch(x, y, count))
    union = area[first] + area[second] - inter
    iou = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
    unsure = overflow | (union < 0.5 * np.maximum(area[first], area[second]))
    return np.where(unsure, np.nan, iou)


def iou_bev_upper(boxes: np.ndarray) -> np.ndarray:
    """(N, N) rotated BEV IoUs of ``boxes[i]`` against ``boxes[j]`` for
    ``i < j``; zero on and below the diagonal.

    The NMS kernel: ``boxes`` come in score order, so row ``i`` holds
    what box ``i`` would suppress.  Pairs whose circumscribed circles
    are disjoint are skipped (IoU 0) unless the clip box has zero area
    (its zero-length edges bound nothing, so the scalar clip does not
    come out empty).  NaN entries come from :func:`iou_bev_pairs`.
    """
    boxes = np.asarray(boxes)
    n = len(boxes)
    matrix = np.zeros((n, n))
    if n < 2:
        return matrix
    first, second = np.triu_indices(n, k=1)
    wide = boxes[:, :7].astype(np.float64)
    radius = 0.5 * np.hypot(wide[:, 3], wide[:, 4])
    dist = np.hypot(wide[first, 0] - wide[second, 0],
                    wide[first, 1] - wide[second, 1])
    degenerate = (boxes[:, 3] * boxes[:, 4]) == 0
    near = (dist <= radius[first] + radius[second]) | degenerate[second]
    first, second = first[near], second[near]
    matrix[first, second] = iou_bev_pairs(boxes, first, second)
    return matrix


def _pairwise(boxes_a: np.ndarray, boxes_b: np.ndarray, fn) -> np.ndarray:
    matrix = np.zeros((len(boxes_a), len(boxes_b)), dtype=np.float32)
    for i, box_a in enumerate(boxes_a):
        # Cheap circumscribed-circle rejection before exact clipping.
        radius_a = 0.5 * np.hypot(box_a[3], box_a[4])
        for j, box_b in enumerate(boxes_b):
            radius_b = 0.5 * np.hypot(box_b[3], box_b[4])
            dist = np.hypot(box_a[0] - box_b[0], box_a[1] - box_b[1])
            if dist > radius_a + radius_b:
                continue
            matrix[i, j] = fn(box_a, box_b)
    return matrix


def iou_matrix_bev(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """(Na, Nb) matrix of rotated BEV IoUs."""
    return _pairwise(boxes_a, boxes_b, iou_bev)


def iou_matrix_3d(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """(Na, Nb) matrix of 3D IoUs."""
    return _pairwise(boxes_a, boxes_b, iou_3d)


def points_in_box(points: np.ndarray, box: Box3D,
                  margin: float = 0.0) -> np.ndarray:
    """Boolean mask of LiDAR points inside an oriented box."""
    local = points[:, :3] - box.center
    c, s = np.cos(-box.yaw), np.sin(-box.yaw)
    x = local[:, 0] * c - local[:, 1] * s
    y = local[:, 0] * s + local[:, 1] * c
    z = local[:, 2]
    return ((np.abs(x) <= box.dx / 2 + margin)
            & (np.abs(y) <= box.dy / 2 + margin)
            & (np.abs(z) <= box.dz / 2 + margin))
