"""The two-stage weight schedule of the semantic MSE and IoU loss terms.

Stage 1 trains on the semantic feature MSE alone (weights 1.0 / 0.0); after
the transition epoch the weighting flips to 0.2 / 0.8 and the learning rate
drops an order of magnitude, so geometry (the IoU term) dominates late
training while the semantic term keeps its anchor role.

The semantic MSE itself is `FusionModel.semantic_loss`, beside the frozen
head it is measured through; the trainer weights the two terms inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
            if not all(map(math.isfinite, pair)):
                raise ValueError(f"{name}: must be finite, got {pair}")
            object.__setattr__(self, name, pair)
        if not 1 <= self.transition_epoch < self.total_epochs:
            raise ValueError(f"transition_epoch: {self.transition_epoch} must lie in [1, "
                             f"total_epochs {self.total_epochs})")
        for name in ("stage1_lr", "stage2_lr"):
            if (lr := getattr(self, name)) <= 0:
                raise ValueError(f"{name}: must be positive, got {lr}")
            if not math.isfinite(lr):
                raise ValueError(f"{name}: must be finite, got {lr}")


def schedule_weights(s: LossSchedule, epoch: int) -> tuple[float, float, float]:
    """(lambda1, lambda2, lr) for a 1-based epoch index."""
    if not 1 <= epoch <= s.total_epochs:
        raise ValueError(f"epoch {epoch} outside [1, {s.total_epochs}]")
    if epoch <= s.transition_epoch:
        return (s.stage1_weights[0], s.stage1_weights[1], s.stage1_lr)
    return (s.stage2_weights[0], s.stage2_weights[1], s.stage2_lr)
