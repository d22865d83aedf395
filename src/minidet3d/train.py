"""Training loop: AdamW over the model's trainable parameters under the
two-stage loss schedule.

Losses come from `mse_semantic_loss`, `batch_iou_loss` and `combined_loss`.
The semantic MSE gradient flows analytically through the frozen projection
head; the IoU-loss gradient per sample comes from the finite-difference
estimator. Samples whose IoU is exactly 0 or 1, or that sit on a
clipping-topology boundary, contribute their loss value but no IoU gradient
for that step (the retained MSE term keeps pulling them toward overlap); the
per-epoch log counts how many were skipped.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .data import FeaturePair, SceneRecord, to_lidar_frame
from .errors import ConfigError, DegenerateOverlap, DivergenceError, EmptyBatch, NonSmoothPoint
from .geom import Box7
from .iou import batch_iou_loss, iou_3d, iou_loss_grad
from .losses import LossSchedule, combined_loss, mse_semantic_loss, schedule_weights
from .metrics import (
    ConfusionCounts,
    aggregate_by_category,
    match_predictions,
    miou_categories,
    miou_samples,
    report_dict,
)
from .model import FusionModel, box_from_raw, box_params_from_raw, box_params_grad_chain


@dataclass(frozen=True)
class TrainSample:
    sample_id: str
    fused: np.ndarray  # visual features followed by text features
    gt_box: Box7  # LiDAR frame
    category: str


def build_training_samples(
    records: list[SceneRecord], features: dict[str, FeaturePair]
) -> list[TrainSample]:
    """Pair each record's single annotation (in the LiDAR frame) with its features."""
    samples = []
    for rec in records:
        if len(rec.annotations) != 1:
            raise ConfigError(
                f"record {rec.sample_id!r} has {len(rec.annotations)} annotations; "
                "training expects exactly one box per sample"
            )
        if rec.sample_id not in features:
            raise ConfigError(f"no features for sample {rec.sample_id!r}")
        ann = to_lidar_frame(rec)[0]
        pair = features[rec.sample_id]
        samples.append(
            TrainSample(
                sample_id=rec.sample_id,
                fused=np.concatenate([pair.visual, pair.text]),
                gt_box=ann.box,
                category=ann.category,
            )
        )
    return samples


def split_by_hash(samples: list[TrainSample], val_fraction: float = 0.1):
    """Deterministic train/val split keyed on a hash of the sample id."""
    train, val = [], []
    threshold = int(val_fraction * 2**32)
    for s in samples:
        digest = hashlib.sha256(s.sample_id.encode("utf-8")).digest()
        (val if int.from_bytes(digest[:4], "big") < threshold else train).append(s)
    return train, val


class AdamW:
    """Decoupled-weight-decay Adam with the standard defaults."""

    def __init__(self, params: dict[str, np.ndarray], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.01):
        self.beta1, self.beta2, self.eps, self.weight_decay = beta1, beta2, eps, weight_decay
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for key, p in params.items():
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * self.weight_decay * p
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lambda1: float
    lambda2: float
    lr: float
    mse_loss: float
    iou_loss: float
    combined_loss: float
    val_miou: float | None
    skipped_iou_grads: int


LOG_HEADER = "epoch,lambda1,lambda2,lr,mse_loss,iou_loss,combined_loss,val_miou,skipped_iou_grads"


def format_log_row(s: EpochStats) -> str:
    val = repr(s.val_miou) if s.val_miou is not None else ""
    return (
        f"{s.epoch},{s.lambda1!r},{s.lambda2!r},{s.lr!r},{s.mse_loss!r},"
        f"{s.iou_loss!r},{s.combined_loss!r},{val},{s.skipped_iou_grads}"
    )


def predict_boxes(model: FusionModel, samples: list[TrainSample]) -> list[Box7]:
    """The model's boxes for a sample list, from one batched forward pass."""
    raws = model.forward_batch(np.stack([s.fused for s in samples]))
    return [box_from_raw(raw) for raw in raws]


def validation_miou(model: FusionModel, samples: list[TrainSample]) -> float:
    """Mean IoU between predicted and ground-truth boxes over a sample list."""
    if not samples:
        raise EmptyBatch("validation requires at least one sample")
    boxes = predict_boxes(model, samples)
    return sum(iou_3d(box, s.gt_box).iou for box, s in zip(boxes, samples)) / len(samples)


def run_training(
    model: FusionModel,
    train_samples: list[TrainSample],
    schedule: LossSchedule,
    seed: int,
    batch_size: int = 32,
    val_samples: list[TrainSample] | None = None,
    epoch_callback=None,
) -> list[EpochStats]:
    """Train the model in place; returns per-epoch statistics.

    Deterministic for a fixed (model seed, data, schedule, seed): batch order
    comes from a dedicated generator and all math is float64.
    """
    if not train_samples:
        raise EmptyBatch("run_training requires at least one training sample")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    params = model.trainable_parameters()
    opt = AdamW(params)
    rng = np.random.default_rng(seed)
    gt_params = np.stack([s.gt_box.params() for s in train_samples])
    fused_all = np.stack([s.fused for s in train_samples])

    history: list[EpochStats] = []
    for epoch in range(1, schedule.total_epochs + 1):
        lam1, lam2, lr = schedule_weights(schedule, epoch)
        order = rng.permutation(len(train_samples))
        mse_sum = 0.0
        iou_sum = 0.0
        seen = 0
        skipped = 0
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            B = len(idx)
            F = fused_all[idx]
            raw = model.forward_batch(F)
            params_pred = box_params_from_raw(raw)
            f_pred = model.semantic_features(params_pred)
            f_gt = model.semantic_features(gt_params[idx])
            diffs = f_pred - f_gt
            mse_batch = mse_semantic_loss(f_pred, f_gt)

            pairs = [(Box7.from_params(params_pred[b]), train_samples[i].gt_box)
                     for b, i in enumerate(idx)]
            iou_batch = batch_iou_loss(pairs)
            iou_grads = np.zeros((B, 7))
            if lam2 > 0.0:
                for b, (pred_box, gt_box) in enumerate(pairs):
                    try:
                        iou_grads[b] = iou_loss_grad(pred_box, gt_box)
                    except (DegenerateOverlap, NonSmoothPoint):
                        skipped += 1

            upstream_params = (2.0 * lam1 / B) * model.semantic_input_grad(diffs)
            if lam2 > 0.0:
                upstream_params += (lam2 / B) * iou_grads
            upstream_raw = box_params_grad_chain(raw, upstream_params)
            grads, _ = model.backward_batch(upstream_raw)
            opt.step(params, grads, lr)

            mse_sum += mse_batch * B
            iou_sum += iou_batch * B
            seen += B

        mse_epoch = mse_sum / seen
        iou_epoch = iou_sum / seen
        combined = combined_loss(mse_epoch, iou_epoch, lam1, lam2)
        if not math.isfinite(combined):
            raise DivergenceError(f"non-finite loss at epoch {epoch}: {combined}")
        val = validation_miou(model, val_samples) if val_samples else None
        stats = EpochStats(epoch, lam1, lam2, lr, mse_epoch, iou_epoch, combined, val, skipped)
        history.append(stats)
        if epoch_callback is not None:
            epoch_callback(stats)
    return history


def evaluate_model(
    model: FusionModel,
    samples: list[TrainSample],
    iou_threshold: float,
    predictions: list[Box7] | None = None,
) -> dict:
    """Inference plus matching and the full metric report.

    `predictions` overrides the model's own outputs (used for oracle runs
    that evaluate ground truth against itself).
    """
    if not samples:
        raise EmptyBatch("evaluate_model requires at least one sample")
    if predictions is None:
        if model is None:
            raise ConfigError("evaluate_model needs a model or explicit predictions")
        predictions = predict_boxes(model, samples)
    elif len(predictions) != len(samples):
        raise ConfigError("predictions list does not match samples")

    per_sample_iou = []
    instances = []
    tp = fp = fn = 0
    for pred, s in zip(predictions, samples):
        counts, _ = match_predictions(
            [(pred, s.category)], [(s.gt_box, s.category)], iou_threshold
        )
        tp += counts.tp
        fp += counts.fp
        fn += counts.fn
        iou = iou_3d(pred, s.gt_box).iou
        per_sample_iou.append(iou)
        instances.append((s.category, iou))

    table = miou_categories(aggregate_by_category(instances))
    return report_dict(
        table,
        miou_samples(per_sample_iou),
        ConfusionCounts(tp=tp, tn=0, fp=fp, fn=fn),
        iou_threshold,
    )
