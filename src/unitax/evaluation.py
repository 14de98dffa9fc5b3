"""mIoU accounting under the void convention.

The void class absorbs universal mass foreign to the evaluation dataset
(see training.dataset_scores).  A void prediction on ground truth c adds
one false negative for c and no false positive anywhere.
"""

from __future__ import annotations

import numpy as np

from .taxonomy import VOID

__all__ = ["VOID", "ConfusionAccumulator"]


class ConfusionAccumulator:
    """Per-dataset confusion counts with an extra void prediction column.

    Rows are ground-truth classes, columns are predicted classes plus void.
    Accumulators merge by elementwise addition.
    """

    def __init__(self, classes):
        self.classes = list(classes)
        self.index = {c: i for i, c in enumerate(self.classes)}
        n = len(self.classes)
        self.counts = np.zeros((n, n + 1), dtype=np.int64)

    def update(self, gt: str, predicted: str) -> None:
        """Record one sample; ``predicted`` may be a class name or VOID.
        Kept without a shipped caller: bench/tracing.py wraps it."""
        col = len(self.classes) if predicted == VOID else self.index[predicted]
        self.add([self.index[gt]], [col])

    def add(self, truth, predicted) -> None:
        """Record a batch of samples given as index arrays of one length:
        ``truth`` into the classes, ``predicted`` into the classes followed
        by void.  An index out of range raises ValueError."""
        n = len(self.classes)
        truth = np.asarray(truth, dtype=np.int64)
        predicted = np.asarray(predicted, dtype=np.int64)
        if truth.shape != predicted.shape or truth.ndim != 1:
            raise ValueError("truth and predicted must be index arrays of one length")
        if len(truth) and not (0 <= truth.min() and truth.max() < n
                               and 0 <= predicted.min() and predicted.max() <= n):
            raise ValueError(f"indices must lie in 0..{n - 1} (truth) and 0..{n} (predicted)")
        flat = np.bincount(truth * (n + 1) + predicted, minlength=n * (n + 1))
        self.counts += flat.reshape(n, n + 1)

    def merge(self, other: "ConfusionAccumulator") -> "ConfusionAccumulator":
        if other.classes != self.classes:
            raise ValueError("accumulators over different class lists cannot merge")
        out = ConfusionAccumulator(self.classes)
        out.counts = self.counts + other.counts
        return out

    def void_fraction(self) -> float:
        total = int(self.counts.sum())
        if total == 0:
            return 0.0
        return float(self.counts[:, -1].sum()) / total

    def iou(self) -> dict:
        """Per-class IoU under the void convention.

        IoU_c = TP / (TP + FP + FN); void predictions contribute to FN only.
        Classes absent from both ground truth and predictions are omitted.
        """
        n = len(self.classes)
        out = {}
        for c, name in enumerate(self.classes):
            tp = int(self.counts[c, c])
            fn = int(self.counts[c, :].sum()) - tp
            fp = int(self.counts[:, c].sum()) - tp
            if tp + fn + fp == 0:
                continue
            out[name] = tp / (tp + fp + fn)
        return out

    def miou(self) -> float:
        ious = self.iou()
        if not ious:
            return 0.0
        return float(sum(ious.values()) / len(ious))

    def report(self) -> dict:
        return {
            "per_class_iou": self.iou(),
            "miou": self.miou(),
            "void_fraction": self.void_fraction(),
        }

