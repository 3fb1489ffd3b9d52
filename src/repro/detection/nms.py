"""Non-maximum suppression for rotated BEV boxes and 2D boxes."""

from __future__ import annotations

import numpy as np

from repro.pointcloud.boxes import iou_bev, iou_bev_upper

__all__ = ["nms_bev", "nms_2d", "NMS_FALLBACK_BAND"]

#: Kernel IoUs this close to the threshold are re-decided by the scalar
#: :func:`iou_bev`.  The batched kernel agrees with it to ~1e-13, so
#: every suppression decision is the scalar one by construction.
NMS_FALLBACK_BAND = 1e-9


def nms_bev(boxes: np.ndarray, scores: np.ndarray,
            iou_threshold: float = 0.3,
            max_keep: int = 100) -> np.ndarray:
    """Greedy rotated-BEV NMS; returns indices of kept boxes.

    Each kept box suppresses every lower-scored box whose IoU with it
    (kept box first) exceeds ``iou_threshold``.  The IoUs come from one
    batched kernel over the score-ordered pairs; pairs the kernel
    cannot vouch for, or whose IoU lies within
    :data:`NMS_FALLBACK_BAND` of the threshold, are recomputed with
    :func:`iou_bev` when their row's box is kept.
    """
    order = np.argsort(-np.asarray(scores))
    ranked = np.asarray(boxes)[order]
    iou = iou_bev_upper(ranked)
    suppresses = iou > iou_threshold
    unsure = np.triu(np.isnan(iou)
                     | (np.abs(iou - iou_threshold) <= NMS_FALLBACK_BAND),
                     k=1)
    keep: list[int] = []
    suppressed = np.zeros(len(order), dtype=bool)
    for i, idx in enumerate(order):
        if suppressed[i]:
            continue
        keep.append(int(idx))
        if len(keep) >= max_keep:
            break
        for j in np.flatnonzero(unsure[i] & ~suppressed):
            suppresses[i, j] = iou_bev(ranked[i], ranked[j]) > iou_threshold
        suppressed |= suppresses[i]
    return np.array(keep, dtype=np.int64)


def nms_2d(boxes: np.ndarray, scores: np.ndarray,
           iou_threshold: float = 0.5,
           max_keep: int = 100) -> np.ndarray:
    """Axis-aligned 2D NMS on [x0 y0 x1 y1] boxes (vectorized)."""
    boxes = np.asarray(boxes, dtype=np.float64)
    order = np.argsort(-np.asarray(scores))
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    keep: list[int] = []
    while order.size > 0 and len(keep) < max_keep:
        idx = order[0]
        keep.append(int(idx))
        rest = order[1:]
        xx0 = np.maximum(boxes[idx, 0], boxes[rest, 0])
        yy0 = np.maximum(boxes[idx, 1], boxes[rest, 1])
        xx1 = np.minimum(boxes[idx, 2], boxes[rest, 2])
        yy1 = np.minimum(boxes[idx, 3], boxes[rest, 3])
        inter = np.clip(xx1 - xx0, 0, None) * np.clip(yy1 - yy0, 0, None)
        union = areas[idx] + areas[rest] - inter
        iou = np.where(union > 0, inter / union, 0.0)
        order = rest[iou <= iou_threshold]
    return np.array(keep, dtype=np.int64)
