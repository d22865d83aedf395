"""The benchmark's workloads: one closed-loop caller driving minidet3d's public API.

A *pass* is the user's whole pipeline on one generated data set:

  setup   synth_scenes (train + val), then build_training_samples and model init
  ingest  emit + save_features, a seeded share of corrupted copies inserted on
          disk, ingest_lenient + load_features, process_record on every record
  train   run_training under the acceptance schedule's shape (33/51 epochs)
          with validation every epoch
  eval    evaluate_model on the trained model, on ground truth and on jittered
          ground truth, then match_predictions on crowded frames

A run repeats passes over SUBSEEDS data sets derived from --seed until its
time is up, at least once more than SUBSEEDS so that every run re-checks one
data set bit for bit. The workloads differ only in the stage-2 loss weights.

Every call into the program goes through its module attribute (data.emit,
train.run_training, ...) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import minidet3d.data as data
import minidet3d.iou as iou
import minidet3d.metrics as metrics
import minidet3d.train as train
from minidet3d.errors import MiniDetError
from minidet3d.geom import Box7
from minidet3d.losses import LossSchedule
from minidet3d.model import FusionModel, ModelConfig

from .stats import summarize
from .tracing import LayerStats, Tracer, aggregate

# The acceptance benchmark's category mix, schedule shape, learning rates and
# seeds; only the data size is scaled down so that a run repeats passes.
MIX = {"adult": 0.4, "car": 0.4, "trafficcone": 0.2}
TRANSITION_EPOCH, TOTAL_EPOCHS = 33, 51
STAGE1_LR, STAGE2_LR = 2e-3, 5e-5
MODEL_SEED, BATCH_ORDER_SEED = 0, 5
BATCH_SIZE = 32
TRAIN_SAMPLES = 128  # four batches of 32 per epoch
VAL_SAMPLES = 256
# Quality at this size varies by about 14% from one data set to the next;
# averaging over six brings the run-to-run spread of val mIoU under 10%.
SUBSEEDS = 6

CORRUPT_SHARE = 0.05
IOU_THRESHOLD = 0.25
FRAME_BOXES = 8  # ground-truth boxes per crowded frame
FRAME_HALF_WIDTH_M = 3.0
FALSE_POSITIVES = 2  # displaced duplicates added to each frame's predictions
# The eval stage takes ~0.1 s; repeating it gives eval_boxes_per_s as many
# samples per run as the other rates, and re-checks that evaluation repeats.
EVAL_REPEATS = 4

# The machine this benchmark was defined on (2 vCPUs of a shared VM) runs the
# same code up to 1.6x faster or slower from one minute to the next, whatever
# the code. Each pass therefore times a fixed calibration kernel between its
# stages and epochs, and reports its timings at the reference speed at which
# that kernel takes CALIBRATION_REF_S: time x CALIBRATION_REF_S / kernel time.
# The kernel mixes pure-Python float loops and small numpy matmuls, as the
# program does; it lives here so that no change to the program moves it.
CALIBRATION_REF_S = 0.004

WORKLOADS = {
    "train-two-stage": (0.2, 0.8),
    "train-mse": (1.0, 0.0),
}


def calibration_kernel() -> float:
    """Run the fixed calibration kernel; returns its wall time in seconds."""
    start = time.perf_counter()
    pts = [(math.cos(i * 0.01), math.sin(i * 0.01)) for i in range(3000)]
    acc = 0.0
    for _ in range(2):
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            acc += x0 * y1 - x1 * y0
    a = np.full((32, 64), 0.5)
    w = np.full((64, 64), 0.01)
    for _ in range(150):
        a = np.tanh(a @ w + acc * 1e-9)
    return time.perf_counter() - start


@dataclass
class PassResult:
    subseed: int
    wall_s: float
    setup_s: float
    ingest_s: float
    records: int  # records on disk, corrupted copies included
    rejected: int
    epoch_s: list[float] = field(default_factory=list)
    history: list = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)  # one per repeat of the eval stage
    eval_boxes: int = 0  # boxes scored by one repeat
    kernel_s: list[float] = field(default_factory=list)  # calibration samples
    lora_params: int = 0
    fingerprint: tuple = ()
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return bool(self.history)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def pass_seeds(seed: int, subseed: int) -> tuple[int, int, int]:
    """Train-data, val-data and harness seeds of one data set."""
    return tuple(int(s) for s in np.random.SeedSequence([seed, subseed]).generate_state(3))


def _corrupt(rec: dict, kind: int) -> None:
    """Break one field so that ingestion must reject the record."""
    if kind == 0:
        del rec["lidar_to_ego"]
    elif kind == 1:
        rec["cameras"][0]["name"] = "roof"
    elif kind == 2:
        rec["annotations"][0]["box"][3] = -1.0
    elif kind == 3:
        rec["annotations"][0]["box"] = rec["annotations"][0]["box"][:6]
    else:
        rec["ego_to_global"]["rotation"] = [2.0, 0.0, 0.0, 0.0]


def corrupt_scene_file(path: Path, rng: np.random.Generator) -> list[int]:
    """Insert a corrupted copy after a seeded share of the records on disk.

    Returns the on-disk indices of the copies.
    """
    doc = json.loads(path.read_text(encoding="utf-8"))
    records, bad = [], []
    for rec in doc["records"]:
        records.append(rec)
        if rng.random() < CORRUPT_SHARE:
            broken = copy.deepcopy(rec)
            broken["sample_id"] += "-corrupt"
            _corrupt(broken, int(rng.integers(5)))
            bad.append(len(records))
            records.append(broken)
    doc["records"] = records
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return bad


_RECORD_INDEX = re.compile(r"^records\[(\d+)\]")


def record_index(field: str) -> int:
    """On-disk record index a diagnostic's field path names, or -1 if none."""
    m = _RECORD_INDEX.match(field)
    return int(m.group(1)) if m else -1


def _jitter(b: Box7, rng: np.random.Generator, shift_m: float) -> Box7:
    dx, dy, dz = rng.normal(0.0, shift_m, size=3)
    sl, sw, sh = rng.uniform(0.9, 1.1, size=3)
    return Box7(b.x + dx, b.y + dy, b.z + dz, b.l * sl, b.w * sw, b.h * sh,
                b.yaw + rng.normal(0.0, 0.1))


def crowded_frames(samples, rng: np.random.Generator):
    """Frames of FRAME_BOXES ground-truth boxes packed into a few meters.

    Predictions are jittered copies of every box plus FALSE_POSITIVES
    displaced duplicates that compete for the same matches.
    """
    frames = []
    for start in range(0, len(samples) - FRAME_BOXES + 1, FRAME_BOXES):
        gts = []
        for s in samples[start : start + FRAME_BOXES]:
            x, y = rng.uniform(-FRAME_HALF_WIDTH_M, FRAME_HALF_WIDTH_M, size=2)
            b = s.gt_box
            gts.append((Box7(x, y, b.z, b.l, b.w, b.h, b.yaw), s.category))
        preds = [(_jitter(b, rng, 0.1), c) for b, c in gts]
        for i in rng.choice(len(gts), size=FALSE_POSITIVES, replace=False):
            b, c = gts[i]
            preds.append((_jitter(b, rng, 0.5), c))
        frames.append((preds, gts))
    return frames


def _params_digest(model: FusionModel) -> str:
    h = hashlib.sha256()
    for name, value in sorted(model.trainable_parameters().items()):
        h.update(name.encode())
        h.update(value.tobytes())
    return h.hexdigest()


def run_pass(stage2_weights, seed: int, subseed: int, workdir: Path,
             tracer: Tracer | None = None) -> PassResult:
    """One pipeline pass on data set `subseed` of `seed`, checking its outputs."""
    def stage(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    def calibrate():
        # A span of its own, so that run_training's self time excludes it.
        with stage("calibration"):
            kernel_s.append(calibration_kernel())

    kernel_s: list[float] = []

    clock = time.perf_counter
    pass_start = clock()
    train_seed, val_seed, harness_seed = pass_seeds(seed, subseed)
    rng = np.random.default_rng(harness_seed)
    calibrate()

    t = clock()
    with stage("setup"):
        tr_records, tr_features = data.synth_scenes(TRAIN_SAMPLES, MIX, train_seed)
        va_records, va_features = data.synth_scenes(VAL_SAMPLES, MIX, val_seed)
    setup_s = clock() - t

    scenes, features_path = workdir / "scenes.json", workdir / "features.json"
    t = clock()
    with stage("ingest"):
        data.emit(tr_records + va_records, scenes)
        data.save_features(tr_features + va_features, features_path)
    ingest_s = clock() - t
    corrupt_at = corrupt_scene_file(scenes, rng)  # harness work, not timed
    t = clock()
    with stage("ingest"):
        records, diagnostics = data.ingest_lenient(scenes)
        features = data.load_features(features_path)
        processed = [data.process_record(rec) for rec in records]
    ingest_s += clock() - t
    calibrate()

    valid_ids = [r.sample_id for r in tr_records + va_records]
    accepted_ids = [r.sample_id for r in records]
    rejected_at = sorted(record_index(d.field) for d in diagnostics)
    result = PassResult(subseed, 0.0, setup_s, ingest_s, len(valid_ids) + len(corrupt_at),
                        len(diagnostics), kernel_s=kernel_s)
    # One operation per record on disk: a valid record rejected or a
    # corrupted one accepted is a failure.
    n_wrong = len(set(valid_ids) - set(accepted_ids)) + len(set(accepted_ids) - set(valid_ids))
    result.attempted += result.records
    if n_wrong or accepted_ids != valid_ids or rejected_at != corrupt_at:
        result.failed += max(n_wrong, 1)
        result.problems.append(f"ingest: {n_wrong} records misjudged; rejected {rejected_at}, "
                               f"corrupted {corrupt_at}")

    t = clock()
    with stage("setup"):
        samples = train.build_training_samples(records, features)
        model = FusionModel(ModelConfig(seed=MODEL_SEED))
    result.setup_s += clock() - t
    val_ids = {r.sample_id for r in va_records}
    train_set = [s for s in samples if s.sample_id not in val_ids]
    val_set = [s for s in samples if s.sample_id in val_ids]
    result.lora_params = sum(a.param_count for a in model.adapters())

    schedule = LossSchedule(
        transition_epoch=TRANSITION_EPOCH, total_epochs=TOTAL_EPOCHS,
        stage2_weights=stage2_weights, stage1_lr=STAGE1_LR, stage2_lr=STAGE2_LR,
    )
    ends, resumes = [], []  # per epoch: when it ended, when the next one began

    def on_epoch(_):
        ends.append(clock())
        calibrate()
        resumes.append(clock())

    t = clock()
    try:
        with stage("train"):
            history = train.run_training(
                model, train_set, schedule, seed=BATCH_ORDER_SEED, batch_size=BATCH_SIZE,
                val_samples=val_set, epoch_callback=on_epoch,
            )
    except MiniDetError as e:
        result.check(False, f"training raised {type(e).__name__}: {e}")
        result.wall_s = clock() - pass_start
        return result
    result.check(True, "training")
    result.epoch_s = [end - begin for begin, end in zip([t] + resumes, ends)]
    result.history = history

    gt_boxes = [s.gt_box for s in val_set]
    jittered = [_jitter(b, rng, 0.1) for b in gt_boxes]
    frames = crowded_frames(val_set, rng)
    outputs = []
    for _ in range(EVAL_REPEATS):
        t = clock()
        with stage("eval"):
            reports = [
                train.evaluate_model(model, val_set, IOU_THRESHOLD),
                train.evaluate_model(None, val_set, IOU_THRESHOLD, predictions=gt_boxes),
                train.evaluate_model(None, val_set, IOU_THRESHOLD, predictions=jittered),
            ]
            matches = [
                (metrics.match_predictions(preds, gts, IOU_THRESHOLD),
                 metrics.match_predictions(gts, gts, IOU_THRESHOLD))
                for preds, gts in frames
            ]
        result.eval_s.append(clock() - t)
        calibrate()
        outputs.append((reports, matches))
    result.eval_boxes = 3 * len(val_set) + sum(len(p) + 2 * len(g) for p, g in frames)
    (model_report, gt_report, jitter_report), matches = outputs[0]
    result.check(all(o == outputs[0] for o in outputs[1:]),
                 "eval: a repeated evaluation gave different results")
    result.check(model_report["miou_samples"] == history[-1].val_miou,
                 f"eval: model mIoU {model_report['miou_samples']!r} differs from the last "
                 f"validation mIoU {history[-1].val_miou!r}")
    result.check(gt_report["miou_samples"] == 1.0 and gt_report["miou_categories"] == 1.0
                 and gt_report["counts"]["tp"] == len(val_set),
                 f"eval: ground truth against itself gives {gt_report['miou_samples']!r}")
    result.check(0.0 < jitter_report["miou_samples"] < 1.0,
                 f"eval: jittered mIoU {jitter_report['miou_samples']!r} outside (0, 1)")
    for (preds, gts), ((counts, matched), (self_counts, _)) in zip(frames, matches):
        result.check(
            counts.tp + counts.fp == len(preds) and counts.tp + counts.fn == len(gts)
            and len(matched) == counts.tp and all(m >= IOU_THRESHOLD for m in matched),
            f"match: inconsistent counts {counts}",
        )
        result.check(self_counts.tp == len(gts) and self_counts.fp == 0,
                     f"match: ground truth against itself gives {self_counts}")

    result.fingerprint = (
        tuple(history), _params_digest(model), json.dumps(model_report, sort_keys=True),
        json.dumps(jitter_report, sort_keys=True), tuple(m for m, _ in matches),
        rejected_at, sum(a.retained for p in processed for a in p.annotations),
    )
    result.wall_s = clock() - pass_start
    return result


@dataclass
class RunOutcome:
    metrics: dict[str, float]
    details: dict[str, dict]
    attempted: int
    failed: int
    problems: list[str]


def _tally(passes: list[PassResult]) -> tuple[int, int, list[str]]:
    return (sum(p.attempted for p in passes), sum(p.failed for p in passes),
            [f"pass {i} (data set {p.subseed}): {m}" for i, p in enumerate(passes)
             for m in p.problems])


def _slowness(passes: list[PassResult]) -> tuple[float, float]:
    """The run's median calibration-kernel time, and how much slower than the
    reference speed that is; times are divided by it and rates multiplied."""
    kernel_s = statistics.median(k for p in passes for k in p.kernel_s)
    return kernel_s, kernel_s / CALIBRATION_REF_S


def _check_repeat(p: PassResult, first: dict[int, PassResult]) -> None:
    """A pass on a data set already run must reproduce it bit for bit."""
    if p.subseed in first:
        p.check(p.fingerprint == first[p.subseed].fingerprint,
                "repeat: outputs differ from the first pass on this data set")
    elif p.complete:
        first[p.subseed] = p


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path) -> RunOutcome:
    """Passes until `seconds` are used; the end-to-end metrics."""
    weights = WORKLOADS[workload]
    passes: list[PassResult] = []
    first: dict[int, PassResult] = {}
    start = time.perf_counter()
    while True:
        p = run_pass(weights, seed, len(passes) % SUBSEEDS, workdir)
        _check_repeat(p, first)
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.wall_s for q in passes)
        if len(passes) > SUBSEEDS and elapsed + typical > seconds:
            break

    attempted, failed, problems = _tally(passes)
    done = [p for p in passes if p.complete]
    if len(first) < SUBSEEDS:
        problems.append(f"only {len(first)} of {SUBSEEDS} data sets completed a pass")
        return RunOutcome({}, {}, attempted, failed, problems)

    kernel_s, slowness = _slowness(passes)
    times = {
        "setup_s": [p.setup_s for p in passes],
        "stage1_epoch_s": [e for p in done for e in p.epoch_s[:TRANSITION_EPOCH]],
        "stage2_epoch_s": [e for p in done for e in p.epoch_s[TRANSITION_EPOCH:]],
    }
    rates = {
        "ingest_records_per_s": [p.records / p.ingest_s for p in passes],
        "eval_boxes_per_s": [p.eval_boxes / e for p in done for e in p.eval_s],
    }
    details = {}
    for name, values in times.items():
        details[name] = summarize(v / slowness for v in values)
        details[name]["raw_median"] = statistics.median(values)
    for name, values in rates.items():
        details[name] = summarize(v * slowness for v in values)
        details[name]["raw_median"] = statistics.median(values)
    result = {name: d["median"] for name, d in details.items()}
    # Samples stepped over the schedule's time with each stage's epochs at
    # their median: the throughput of a whole run_training, robust to the
    # machine's transient slowdowns in the way a median is.
    result["train_samples_per_s"] = TRAIN_SAMPLES * TOTAL_EPOCHS / (
        TRANSITION_EPOCH * result["stage1_epoch_s"]
        + (TOTAL_EPOCHS - TRANSITION_EPOCH) * result["stage2_epoch_s"])
    ordered = [first[k] for k in range(SUBSEEDS)]
    result["val_miou_stage1"] = statistics.fmean(
        p.history[TRANSITION_EPOCH - 1].val_miou for p in ordered)
    result["val_miou_final"] = statistics.fmean(p.history[-1].val_miou for p in ordered)
    details["run"] = {
        "passes": len(passes), "data_sets": SUBSEEDS, "train_samples": TRAIN_SAMPLES,
        "val_samples": VAL_SAMPLES, "batch_size": BATCH_SIZE,
        "epochs": [TRANSITION_EPOCH, TOTAL_EPOCHS], "stage2_weights": list(WORKLOADS[workload]),
        "records_per_pass": [p.records for p in passes], "eval_boxes_per_pass": done[0].eval_boxes,
        "val_miou_stage1_per_data_set": [p.history[TRANSITION_EPOCH - 1].val_miou for p in ordered],
        "val_miou_final_per_data_set": [p.history[-1].val_miou for p in ordered],
        "calibration_kernel_ms": 1e3 * kernel_s, "slowness": slowness,
    }
    return RunOutcome(result, details, attempted, failed, problems)


def _rows(args) -> int:
    """Batch size of a FusionModel method call (args[0] is the model)."""
    return len(args[1])


def install(tracer: Tracer) -> None:
    """Wrap every traced layer at the attribute its caller looks up."""
    for module in (iou, train, metrics):
        tracer.wrap(module, "iou_3d", "iou.iou_3d")
    tracer.wrap(train, "iou_loss_grad", "iou.iou_loss_grad")
    for method in ("forward_batch", "backward_batch", "semantic_features"):
        tracer.wrap(FusionModel, method, f"model.{method}", tag=_rows)
    tracer.wrap(train.AdamW, "step", "train.AdamW.step")
    for name in ("run_training", "validation_miou", "build_training_samples", "evaluate_model"):
        tracer.wrap(train, name, f"train.{name}")
    for module in (train, metrics):
        tracer.wrap(module, "match_predictions", "metrics.match_predictions")
    for name in ("synth_scenes", "emit", "save_features", "ingest_lenient", "load_features",
                 "process_record"):
        tracer.wrap(data, name, f"data.{name}")
    for name in ("transform_box", "project_corners"):
        tracer.wrap(data, name, f"geom.{name}")


# Per-layer figures of a traced pass, by span name.
COUNTED = ("iou.iou_loss_grad", "iou.iou_3d", "model.forward_batch", "train.AdamW.step",
           "data.process_record", "geom.transform_box", "geom.project_corners",
           "metrics.match_predictions")
PER_CALL = ("iou.iou_loss_grad", "iou.iou_3d", "train.AdamW.step", "data.process_record",
            "geom.project_corners", "metrics.match_predictions")
PER_CALL_AT_BATCH = ("model.forward_batch", "model.backward_batch", "model.semantic_features")
TOTAL = ("train.validation_miou", "train.evaluate_model",
         "data.synth_scenes", "data.emit", "data.save_features", "data.ingest_lenient",
         "data.load_features")


def layer_metrics(layers: dict[str, LayerStats], p: PassResult,
                  spans: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer figures of one traced pass: (those that must repeat exactly, timings)."""
    def get(name):
        return layers.get(name, LayerStats())

    def at_batch(name):
        calls, total_ns = get(name).tagged.get(BATCH_SIZE, (0, 0))
        return total_ns / calls / 1e3 if calls else 0.0

    grad = get("iou.iou_loss_grad")
    exact = {f"{name}.calls": get(name).calls for name in COUNTED}
    exact.update({
        "iou.iou_loss_grad.useful_ratio": grad.outcomes.get("ok", 0) / grad.calls if grad.calls else 0.0,
        "iou.skip_degenerate": grad.outcomes.get("DegenerateOverlap", 0),
        "iou.skip_nonsmooth": grad.outcomes.get("NonSmoothPoint", 0),
        "data.rejected": p.rejected,
        "lora.trainable_params": p.lora_params,
        "trace.spans": spans,
    })
    timed = {f"{name}.us_per_call": get(name).us_per_call for name in PER_CALL}
    timed.update({f"{name}.us_per_call": at_batch(name) for name in PER_CALL_AT_BATCH})
    timed.update({f"{name}.s": get(name).total_ns / 1e9 for name in TOTAL})
    timed["train.run_training.self_s"] = get("train.run_training").self_ns / 1e9
    return exact, timed


def run_traced(workload: str, seed: int, seconds: float, workdir: Path, run_id: str,
               spans_path: Path) -> RunOutcome:
    """Untraced and traced passes on data set 0, alternating, until `seconds`
    are used; the per-layer metrics and the tracing overhead."""
    weights = WORKLOADS[workload]
    passes: list[PassResult] = []
    first: dict[int, PassResult] = {}
    walls: dict[bool, list[float]] = {False: [], True: []}
    per_pass: list[tuple[dict, dict]] = []
    start = time.perf_counter()
    while True:
        traced = len(passes) % 2 == 1
        tracer = Tracer(run_id) if traced else None
        if tracer is not None:
            install(tracer)
        try:
            p = run_pass(weights, seed, 0, workdir, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        _check_repeat(p, first)
        passes.append(p)
        walls[traced].append(p.wall_s)
        if tracer is not None:
            per_pass.append(layer_metrics(aggregate(tracer.spans), p, len(tracer.spans)))
            if len(per_pass) == 1:
                tracer.write(spans_path)
        elapsed = time.perf_counter() - start
        if traced and elapsed + 2 * statistics.median(q.wall_s for q in passes) > seconds:
            break

    attempted, failed, problems = _tally(passes)
    exact = per_pass[0][0]
    for later, _ in per_pass[1:]:
        if later != exact:
            failed += 1
            problems.append(f"per-layer counts differ between traced passes: {later} vs {exact}")
    kernel_s, slowness = _slowness(passes)
    result = dict(exact)
    for name in per_pass[0][1]:
        result[name] = statistics.median(timed[name] for _, timed in per_pass) / slowness
    untraced, traced_wall = statistics.median(walls[False]), statistics.median(walls[True])
    result["trace.overhead_s"] = (traced_wall - untraced) / slowness
    result["trace.overhead_share"] = (traced_wall - untraced) / untraced
    details = {"run": {"passes": len(passes), "untraced_wall_s": walls[False],
                       "traced_wall_s": walls[True], "spans_file": spans_path.name,
                       "calibration_kernel_ms": 1e3 * kernel_s, "slowness": slowness}}
    return RunOutcome(result, details, attempted, failed, problems)
