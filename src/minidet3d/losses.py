"""Semantic MSE loss, the combined objective, and the two-stage weight schedule.

Stage 1 trains on the semantic feature MSE alone (weights 1.0 / 0.0); after
the transition epoch the weighting flips to 0.2 / 0.8 and the learning rate
drops an order of magnitude, so geometry (the IoU term) dominates late
training while the semantic term keeps its anchor role.

The trainer's batch MSE and epoch objective are these two functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, ShapeMismatch


def mse_semantic_loss(pred, gt) -> float:
    """Mean over the batch of squared feature distances ||f_pred - f_gt||^2.

    `pred` and `gt` are (B, D) batches; the squared norm sums over the D
    feature dimensions and the mean runs over the B rows.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if len(pred) != len(gt):
        raise ShapeMismatch(f"{len(pred)} predictions vs {len(gt)} ground truths")
    if not len(pred):
        raise EmptyBatch("mse_semantic_loss requires at least one pair")
    if pred.ndim != 2 or pred.shape != gt.shape:
        raise ShapeMismatch(f"expected two equal (B, D) batches, got {pred.shape} vs {gt.shape}")
    d = pred - gt
    return float((d * d).sum(axis=1).mean())


def combined_loss(mse: float, iou_loss: float, lambda1: float, lambda2: float) -> float:
    """Weighted sum lambda1 * mse + lambda2 * iou_loss."""
    return lambda1 * mse + lambda2 * iou_loss


@dataclass(frozen=True)
class LossSchedule:
    """Epoch-indexed (lambda1, lambda2, learning-rate) step schedule."""

    transition_epoch: int = 50
    total_epochs: int = 100
    stage1_weights: tuple[float, float] = (1.0, 0.0)
    stage2_weights: tuple[float, float] = (0.2, 0.8)
    stage1_lr: float = 1e-4
    stage2_lr: float = 1e-5

    def __post_init__(self):
        for name in ("stage1_weights", "stage2_weights"):
            pair = tuple(getattr(self, name))
            if len(pair) != 2 or pair[0] < 0 or pair[1] < 0:
                raise ValueError(f"{name}: must be two non-negative values, got {pair}")
            object.__setattr__(self, name, pair)
        if not 1 <= self.transition_epoch < self.total_epochs:
            raise ValueError(f"transition_epoch: {self.transition_epoch} must lie in [1, "
                             f"total_epochs {self.total_epochs})")
        for name in ("stage1_lr", "stage2_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")


def schedule_weights(s: LossSchedule, epoch: int) -> tuple[float, float, float]:
    """(lambda1, lambda2, lr) for a 1-based epoch index."""
    if not 1 <= epoch <= s.total_epochs:
        raise ValueError(f"epoch {epoch} outside [1, {s.total_epochs}]")
    if epoch <= s.transition_epoch:
        return (s.stage1_weights[0], s.stage1_weights[1], s.stage1_lr)
    return (s.stage2_weights[0], s.stage2_weights[1], s.stage2_lr)
