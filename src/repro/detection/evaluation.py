"""KITTI-style average-precision evaluation for 3D detections.

Implements the R40 interpolated AP used by the modern KITTI benchmark:
detections are matched to ground truth greedily by descending score under
a class-specific BEV IoU threshold; precision is sampled at 40 equally
spaced recall positions.  ``evaluate_map`` averages over classes, which
is the single mAP number the paper reports in Table 2.

Empty-input conventions mirror the streaming runtime's NaN-on-empty
rule (:class:`repro.runtime.StreamReport`): a metric that is
*undefined* is NaN, a metric that is *genuinely zero* is 0.0.
Concretely: a class absent from the ground truth has NaN AP (there was
nothing to find — 0.0 would read as a catastrophic miss) and is
excluded from the mAP mean; ``mAP`` itself is NaN only when no
evaluated class has any ground truth.  A class with ground truth but
zero matching predictions — e.g. the all-dropped stream, whose
predictions are all empty — scores a legitimate 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.pointcloud.boxes import (Box3D, array_to_boxes, boxes_to_array,
                                    iou_matrix_bev, CLASS_NAMES)

__all__ = ["DetectionResult", "EvalConfig", "average_precision",
           "evaluate_map", "match_detections", "evaluate_by_difficulty",
           "precision_recall_curve"]

_DEFAULT_IOU = {"Car": 0.5, "Pedestrian": 0.25, "Cyclist": 0.25}


class DetectionResult:
    """Predictions for one frame.

    Built from a ``Box3D`` list, or compactly from arrays with
    :meth:`from_arrays`.  An array-backed result makes its box list on
    the first access of :attr:`boxes` and keeps it, so edits through
    the list persist; ``len(result)`` never makes it.
    """

    __slots__ = ("frame_id", "_boxes", "_arrays")

    def __init__(self, boxes: list[Box3D], frame_id: int = 0):
        self._boxes = boxes
        self._arrays = None
        self.frame_id = frame_id

    @classmethod
    def from_arrays(cls, boxes: np.ndarray, scores: np.ndarray,
                    class_ids: np.ndarray, class_names,
                    frame_id: int = 0) -> "DetectionResult":
        """Detections as float32 (N, 7) ``[x y z dx dy dz yaw]`` boxes,
        (N,) scores and (N,) indices into ``class_names``."""
        result = cls([], frame_id)
        result._boxes = None
        result._arrays = (np.asarray(boxes, dtype=np.float32).reshape(-1, 7),
                          np.asarray(scores), np.asarray(class_ids),
                          tuple(class_names))
        return result

    @property
    def boxes(self) -> list[Box3D]:
        if self._boxes is None:
            array, scores, class_ids, names = self._arrays
            self._boxes = array_to_boxes(
                array, labels=[names[i] for i in class_ids], scores=scores)
            self._arrays = None
        return self._boxes

    @boxes.setter
    def boxes(self, boxes: list[Box3D]) -> None:
        self._boxes = boxes
        self._arrays = None

    def __len__(self) -> int:
        if self._boxes is None:
            return len(self._arrays[0])
        return len(self._boxes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetectionResult):
            return NotImplemented
        return (self.frame_id, self.boxes) == (other.frame_id, other.boxes)

    def __repr__(self) -> str:
        return (f"DetectionResult(boxes={self.boxes!r}, "
                f"frame_id={self.frame_id!r})")


@dataclass
class EvalConfig:
    class_names: tuple = CLASS_NAMES
    iou_thresholds: dict = field(default_factory=lambda: dict(_DEFAULT_IOU))
    recall_positions: int = 40
    max_difficulty: int = 2   # include easy..hard


def match_detections(pred: list[Box3D], gt: list[Box3D],
                     iou_threshold: float) -> tuple[np.ndarray, int]:
    """Greedy score-ordered matching within one frame and one class.

    Returns (tp flags aligned with score-sorted predictions, num gt).
    """
    order = np.argsort([-b.score for b in pred])
    pred_sorted = [pred[i] for i in order]
    tp = np.zeros(len(pred_sorted), dtype=bool)
    if not gt:
        return tp, 0
    gt_used = np.zeros(len(gt), dtype=bool)
    if pred_sorted:
        iou = iou_matrix_bev(boxes_to_array(pred_sorted), boxes_to_array(gt))
        for i in range(len(pred_sorted)):
            candidates = np.where(~gt_used & (iou[i] >= iou_threshold))[0]
            if len(candidates) > 0:
                best = candidates[np.argmax(iou[i][candidates])]
                gt_used[best] = True
                tp[i] = True
    return tp, len(gt)


def average_precision(predictions: list[DetectionResult],
                      ground_truth: list[list[Box3D]],
                      class_name: str,
                      config: EvalConfig | None = None) -> float:
    """R40 interpolated AP (0-100 scale) for one class.

    NaN when the class has no ground truth in any frame (the metric is
    undefined); 0.0 when ground truth exists but nothing matched.
    """
    config = config or EvalConfig()
    threshold = config.iou_thresholds[class_name]
    _check_aligned(predictions, ground_truth)

    scores: list[float] = []
    tps: list[bool] = []
    total_gt = 0
    for frame_pred, frame_gt in zip(predictions, ground_truth):
        pred = [b for b in frame_pred.boxes if b.label == class_name]
        gt = [b for b in frame_gt if b.label == class_name
              and b.difficulty <= config.max_difficulty]
        tp, n_gt = match_detections(pred, gt, threshold)
        order = np.argsort([-b.score for b in pred])
        scores.extend(pred[i].score for i in order)
        tps.extend(tp.tolist())
        total_gt += n_gt

    if total_gt == 0:
        return math.nan
    if not scores:
        return 0.0

    order = np.argsort(-np.array(scores))
    tp_sorted = np.array(tps)[order]
    tp_cum = np.cumsum(tp_sorted)
    fp_cum = np.cumsum(~tp_sorted)
    recall = tp_cum / total_gt
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1)

    # R40 interpolation: precision envelope sampled at 40 recall points.
    ap = 0.0
    samples = np.linspace(1.0 / config.recall_positions, 1.0,
                          config.recall_positions)
    for r in samples:
        mask = recall >= r - 1e-9
        ap += precision[mask].max() if mask.any() else 0.0
    return 100.0 * ap / config.recall_positions


def _check_aligned(predictions, ground_truth) -> None:
    if len(predictions) != len(ground_truth):
        raise ValueError(
            f"predictions and ground truth are misaligned: "
            f"{len(predictions)} predicted frames vs "
            f"{len(ground_truth)} ground-truth frames")


def evaluate_map(predictions: list[DetectionResult],
                 ground_truth: list[list[Box3D]],
                 config: EvalConfig | None = None) -> dict:
    """Per-class AP plus their mean (the paper's mAP).

    Classes absent from the ground truth carry NaN AP and are excluded
    from the mean; ``mAP`` is NaN only when *no* class has ground truth
    (empty frame list, or frames with no annotations at the evaluated
    difficulty).
    """
    config = config or EvalConfig()
    _check_aligned(predictions, ground_truth)
    result = {}
    present = []
    for cls in config.class_names:
        ap = average_precision(predictions, ground_truth, cls, config)
        result[cls] = ap
        if not math.isnan(ap):
            present.append(ap)
    result["mAP"] = float(np.mean(present)) if present else math.nan
    return result


def evaluate_by_difficulty(predictions: list[DetectionResult],
                           ground_truth: list[list[Box3D]],
                           config: EvalConfig | None = None) -> dict:
    """KITTI-style stratified evaluation: easy / moderate / hard mAP.

    Each bucket evaluates against ground truth *up to* that difficulty
    (easy ⊆ moderate ⊆ hard), mirroring KITTI's cumulative protocol.
    """
    config = config or EvalConfig()
    buckets = {"easy": 0, "moderate": 1, "hard": 2}
    result = {}
    for name, max_difficulty in buckets.items():
        stratified = EvalConfig(class_names=config.class_names,
                                iou_thresholds=dict(config.iou_thresholds),
                                recall_positions=config.recall_positions,
                                max_difficulty=max_difficulty)
        result[name] = evaluate_map(predictions, ground_truth, stratified)
    return result


def precision_recall_curve(predictions: list[DetectionResult],
                           ground_truth: list[list[Box3D]],
                           class_name: str,
                           config: EvalConfig | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Raw (recall, precision) points for one class, score-ordered."""
    config = config or EvalConfig()
    threshold = config.iou_thresholds[class_name]
    _check_aligned(predictions, ground_truth)
    scores: list[float] = []
    tps: list[bool] = []
    total_gt = 0
    for frame_pred, frame_gt in zip(predictions, ground_truth):
        pred = [b for b in frame_pred.boxes if b.label == class_name]
        gt = [b for b in frame_gt if b.label == class_name
              and b.difficulty <= config.max_difficulty]
        tp, n_gt = match_detections(pred, gt, threshold)
        order = np.argsort([-b.score for b in pred])
        scores.extend(pred[i].score for i in order)
        tps.extend(tp.tolist())
        total_gt += n_gt
    if total_gt == 0 or not scores:
        return np.zeros(0), np.zeros(0)
    order = np.argsort(-np.array(scores))
    tp_sorted = np.array(tps)[order]
    tp_cum = np.cumsum(tp_sorted)
    fp_cum = np.cumsum(~tp_sorted)
    recall = tp_cum / total_gt
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1)
    return recall, precision
