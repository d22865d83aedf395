"""Training loop: AdamW over the model's trainable parameters under the
two-stage loss schedule.

The optimizer works on the model's `arena`, the one flat vector behind every
trainable parameter. `backward_batch` writes each batch's gradients into
`model.grad`, which has the arena's layout, so nothing is gathered: the
gradient is checked for finiteness once and `AdamW.step` updates the arena
in place in fixed-size chunks, so the named parameter views and the adapters
see every step and are never rebound. The step is AdamW's folded form (one
decay scaling, the bias corrections as scalars), which rounds differently
from the textbook per-tensor update; `tools/quality_band.py` is the gate for
such changes to the training arithmetic.

Losses come from `mse_semantic_loss`, the mean IoU loss and `combined_loss`.
The semantic MSE gradient flows analytically through the frozen projection
head; the IoU-loss gradient per sample is the exact `iou_loss_grad`, handed
the pair's rows and IoU only: `iou_3d` clips each pair once per batch for
its value, the gradient clips the pair again in the ground truth's frame
with vertices tagged by source, so it needs no sort, and the trainer makes
no footprints.
Samples whose IoU is exactly 0 or 1, or that sit at a clipping-topology tie,
contribute their loss value but no IoU gradient for that step (the retained
MSE term keeps pulling them toward overlap); the per-epoch log counts how
many were skipped. A batch whose model output, loss or gradients go
non-finite, or whose predicted sizes underflow to zero, raises
DivergenceError naming the epoch and batch before the optimizer step; the
same output check guards the per-epoch validation pass and evaluation, and
names the first sample whose output failed it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .data import FeaturePair, SceneRecord, for_record, to_lidar_frame
from .errors import ConfigError, DegenerateOverlap, DivergenceError, EmptyBatch, NonSmoothPoint
from .geom import Box7, wrap_angle
from .iou import iou_3d, iou_loss_grad
from .losses import LossSchedule, combined_loss, mse_semantic_loss, schedule_weights
from .metrics import check_iou_threshold, miou_samples, report_dict
# perfbench's tracer wraps train.match_predictions: keep it importable.
from .metrics import match_predictions  # noqa: F401
from .model import FusionModel, box_params_from_raw, box_params_grad_chain


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
        ann = for_record(to_lidar_frame, rec)[0]
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


DEFAULT_BATCH_SIZE = 32
DEFAULT_VAL_FRACTION = 0.1


def split_by_hash(samples: list[TrainSample], val_fraction: float = DEFAULT_VAL_FRACTION):
    """Deterministic train/val split keyed on a hash of the sample id."""
    train, val = [], []
    threshold = int(val_fraction * 2**32)
    for s in samples:
        digest = hashlib.sha256(s.sample_id.encode("utf-8")).digest()
        (val if int.from_bytes(digest[:4], "big") < threshold else train).append(s)
    return train, val


ADAMW_CHUNK = 16384  # elements per pass; one chunk of the five vectors stays in L2


class AdamW:
    """Decoupled-weight-decay Adam with the standard defaults, over one flat
    parameter vector (the model's arena), updated in place.

    `step` takes the folded form of the update (Loshchilov & Hutter,
    arXiv:1711.05101, as most libraries write it): the decay scales `p` by
    `1 - lr*wd` once, and the bias corrections are the scalars `lr/bc1` and
    `1/sqrt(bc2)`, so each element costs one sqrt and one divide,
    `p <- p*(1 - lr*wd) - (lr/bc1) * m / (sqrt(v)/sqrt(bc2) + eps)`. This
    equals the textbook update `p -= lr*wd*p; p -= lr*(m/bc1)/(sqrt(v/bc2)
    + eps)` up to rounding. The passes run over each `ADAMW_CHUNK`-element
    chunk in place, with one preallocated scratch vector.
    """

    def __init__(self, params: np.ndarray, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.01):
        self.beta1, self.beta2, self.eps, self.weight_decay = beta1, beta2, eps, weight_decay
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._s = np.empty(min(ADAMW_CHUNK, params.size))
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float):
        self.t += 1
        b1, b2, eps = self.beta1, self.beta2, self.eps
        keep = 1.0 - lr * self.weight_decay
        step_size = lr / (1.0 - b1**self.t)
        inv_sqrt_bc2 = 1.0 / math.sqrt(1.0 - b2**self.t)
        for lo in range(0, params.size, ADAMW_CHUNK):
            hi = lo + ADAMW_CHUNK
            p, g, m, v = params[lo:hi], grads[lo:hi], self.m[lo:hi], self.v[lo:hi]
            s = self._s[: p.size]
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            p *= keep
            np.sqrt(v, out=s)
            s *= inv_sqrt_bc2
            s += eps
            np.divide(m, s, out=s)
            s *= step_size
            p -= s


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


LOG_HEADER = ",".join(f.name for f in fields(EpochStats))


def format_log_row(s: EpochStats) -> str:
    """One train_log.csv row: each field's repr, or nothing for None."""
    return ",".join("" if v is None else repr(v) for v in astuple(s))


def _checked_box_params(raw: np.ndarray, samples, where: str = "", rows=None) -> np.ndarray:
    """Box parameters of a raw (B, 7) batch whose row b is the prediction for
    `samples[rows[b]]` (`samples[b]` without `rows`); DivergenceError if the
    output is non-finite or a size underflowed to zero, before any IoU is
    taken. Only a failing batch is searched for the first row at fault, and
    the message names its sample (and, for a size, the raw channel)."""
    def sample(b) -> str:
        return f"sample {samples[b if rows is None else rows[b]].sample_id!r}"

    if not np.isfinite(raw).all():
        b = np.flatnonzero(~np.isfinite(raw).all(axis=1))[0]
        raise DivergenceError(f"non-finite model output{where} ({sample(b)})")
    params = box_params_from_raw(raw)
    if not (params[:, 3:6] > 0.0).all():
        b, c = np.argwhere(params[:, 3:6] <= 0.0)[0]  # row-major: the first row at fault
        raise DivergenceError(f"a predicted box size is not positive{where} "
                              f"({sample(b)}, raw {'lwh'[c]} {raw[b, 3 + c]:.6g})")
    return params


def _rows(params: np.ndarray) -> list[tuple]:
    """Box rows of (B, 7) parameters, yaw wrapped as Box7(*params[b]) wraps it."""
    return [(x, y, z, l, w, h, wrap_angle(yaw)) for x, y, z, l, w, h, yaw in params.tolist()]


def _sample_ious(model, samples: list[TrainSample], predictions=None) -> list[float]:
    """IoU of each sample's prediction (by default the model's) with its ground truth."""
    if predictions is None:
        raws = model.forward_batch(np.stack([s.fused for s in samples]))
        predictions = _rows(_checked_box_params(raws, samples))
    return [iou_3d(pred, s.gt_box).iou for pred, s in zip(predictions, samples)]


def validation_miou(model: FusionModel, samples: list[TrainSample]) -> float:
    """Mean IoU between predicted and ground-truth boxes."""
    if not samples:
        raise EmptyBatch("validation requires at least one sample")
    return miou_samples(_sample_ious(model, samples))


def _diverged(epoch: int, batch: int, what: str):
    raise DivergenceError(f"{what} at epoch {epoch}, batch {batch}")


def run_training(
    model: FusionModel,
    train_samples: list[TrainSample],
    schedule: LossSchedule,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
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
    opt = AdamW(model.arena)
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
        for batch, start in enumerate(range(0, len(order), batch_size)):
            idx = order[start : start + batch_size]
            B = len(idx)
            F = fused_all[idx]
            raw = model.forward_batch(F)
            where = f" at epoch {epoch}, batch {batch}"
            params_pred = _checked_box_params(raw, train_samples, where, idx)
            f_pred = model.semantic_features(params_pred)
            f_gt = model.semantic_features(gt_params[idx])
            diffs = f_pred - f_gt
            mse_batch = mse_semantic_loss(f_pred, f_gt)
            if not math.isfinite(mse_batch):
                _diverged(epoch, batch, f"non-finite loss {mse_batch}")

            pairs = [(p, train_samples[i].gt_box) for p, i in zip(_rows(params_pred), idx)]
            ious = [iou_3d(p, g).iou for p, g in pairs]
            iou_batch = sum(1.0 - iou for iou in ious) / B
            upstream_params = (2.0 * lam1 / B) * model.semantic_input_grad(diffs)
            if lam2 > 0.0:
                iou_grads = np.zeros((B, 7))
                for b, (p, g) in enumerate(pairs):
                    try:
                        iou_grads[b] = iou_loss_grad(p, g, ious[b])
                    except (DegenerateOverlap, NonSmoothPoint):
                        skipped += 1
                upstream_params += (lam2 / B) * iou_grads
            upstream_raw = box_params_grad_chain(raw, upstream_params)
            grad = model.backward_batch(upstream_raw)
            if not np.isfinite(grad).all():
                _diverged(epoch, batch, "non-finite gradient")
            opt.step(model.arena, grad, lr)

            mse_sum += mse_batch * B
            iou_sum += iou_batch * B
            seen += B

        mse_epoch = mse_sum / seen
        iou_epoch = iou_sum / seen
        combined = combined_loss(mse_epoch, iou_epoch, lam1, lam2)
        if not math.isfinite(combined):
            raise DivergenceError(f"non-finite loss at epoch {epoch}: {combined}")
        try:
            val = validation_miou(model, val_samples) if val_samples else None
        except DivergenceError as e:
            raise DivergenceError(f"{e} on the validation samples at epoch {epoch}") from None
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
    """Inference and the eval report: `metrics.report_dict` of each sample's
    (category, IoU) in sample order.

    Each sample pairs one prediction with one ground truth of the same
    category, so it has one IoU, and `report_dict` applies the hit rule.
    `predictions` overrides the model's own outputs (used for oracle runs
    that evaluate ground truth against itself).
    """
    if not samples:
        raise EmptyBatch("evaluate_model requires at least one sample")
    check_iou_threshold(iou_threshold)
    if predictions is None and model is None:
        raise ConfigError("evaluate_model needs a model or explicit predictions")
    if predictions is not None and len(predictions) != len(samples):
        raise ConfigError("predictions list does not match samples")

    ious = _sample_ious(model, samples, predictions)
    return report_dict(zip((s.category for s in samples), ious), iou_threshold)
