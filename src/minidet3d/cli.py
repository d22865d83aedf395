"""Command-line surface: iou, ingest, synth, train, eval, report.

Every command is deterministic under a fixed seed and fixed inputs, writes
its resolved configuration next to its outputs, and sends diagnostics to
stderr. Exit code 0 means the command completed with zero errors; argparse
failures exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import ConfigError, MiniDetError, check_json_value, check_keys, unique_keys
from .geom import Box7
from .iou import iou_3d, monte_carlo_iou
from .losses import LossSchedule
from .metrics import DEFAULT_IOU_THRESHOLD, check_iou_threshold, check_report, report_csv, report_json
from .model import FusionModel, ModelConfig, load_checkpoint, save_checkpoint, train_bytes
from .train import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_VAL_FRACTION,
    LOG_HEADER,
    build_training_samples,
    evaluate_model,
    format_log_row,
    run_training,
    split_by_hash,
)

_TRAIN_DEFAULTS = {
    "seed": 0,
    "data": None,
    "val_data": None,
    "val_fraction": DEFAULT_VAL_FRACTION,
    "batch_size": DEFAULT_BATCH_SIZE,
    "model": dataclasses.asdict(ModelConfig()),
    "schedule": dataclasses.asdict(LossSchedule()),
}


def _config_error(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _merge_config(defaults: dict, given: dict, where: str) -> dict:
    """`defaults` updated from `given`, whose every key is optional."""
    check_keys(given, (), where, _config_error, optional=defaults)
    merged = {}
    for key, default in defaults.items():
        if isinstance(default, dict):
            merged[key] = _merge_config(default, given.get(key, {}), f"{where}.{key}")
        else:
            if key in given:
                check_json_value(given[key], default, f"{where}.{key}", _config_error)
            merged[key] = given.get(key, default)
    return merged


def _build(make, where: str, *args, **kwargs):
    """make(*args, **kwargs); its ValueError as a ConfigError that starts with `where`."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}{e}") from None


def _write_resolved_config(config: dict, path: Path) -> None:
    path.write_text(json.dumps(config, indent=1, sort_keys=True), encoding="utf-8")


def _load_dataset(dirpath: str, model: ModelConfig | None = None, owner: str = ""):
    """Samples of a dataset directory. Every feature id must belong to a scene
    record. With a model config, the feature widths must equal its d_v/d_t;
    `owner` names where that config came from."""
    d = Path(dirpath)
    scenes = d / "scenes.json"
    feats = d / "features.json"
    if not scenes.is_file() or not feats.is_file():
        raise ConfigError(f"{dirpath}: expected scenes.json and features.json")
    records = data_mod.ingest(scenes)
    features = data_mod.load_features(feats)
    known = {rec.sample_id for rec in records}
    extra = [sid for sid in features if sid not in known]
    if extra:
        raise ConfigError(
            f"{feats}: {len(extra)} feature ids match no scene record, first {extra[:3]}"
        )
    if model is not None and features:
        first = next(iter(features.values()))
        for key, name in (("d_v", "visual"), ("d_t", "text")):
            want, got = getattr(model, key), len(getattr(first, name))
            if got != want:
                raise ConfigError(
                    f"{owner}{key}: {want}, but the {name} features in {feats} are {got} wide"
                )
    return build_training_samples(records, features)


# ---- subcommands -------------------------------------------------------------


def cmd_iou(args) -> int:
    for flag, value in (("--mc-samples", args.mc_samples), ("--mc-seed", args.mc_seed)):
        if value < 0:
            raise ConfigError(f"{flag} must be >= 0, got {value}")
    a, b = (_build(Box7, f"box {n}: ", *args.box[i:i + 7]) for n, i in (("a", 0), ("b", 7)))
    res = iou_3d(a, b)
    print(f"iou={res.iou!r}")
    print(f"intersection={res.intersection_volume!r}")
    print(f"union={res.union_volume!r}")
    if args.mc_samples:
        mc = monte_carlo_iou(a, b, args.mc_samples, args.mc_seed)
        print(f"mc_iou={mc.iou!r}")
        print(f"mc_se={mc.standard_error!r}")
    return 0


def cmd_ingest(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    records, diagnostics = data_mod.ingest_lenient(args.scenes)
    for diag in diagnostics:
        print(f"rejected: {diag}", file=sys.stderr)

    step = functools.partial(data_mod.for_record, data_mod.process_record)
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            processed = list(pool.map(step, records, chunksize=16))
    else:
        processed = [step(r) for r in records]

    dropped = 0
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        for sample in processed:
            dropped += sum(1 for a in sample.annotations if not a.retained)
            f.write(json.dumps(data_mod.processed_to_json(sample)) + "\n")

    _write_resolved_config(
        {"command": "ingest", "scenes": args.scenes, "out": args.out, "workers": args.workers},
        out.with_suffix(out.suffix + ".config.json"),
    )
    print(f"accepted={len(records)} rejected={len(diagnostics)} dropped_invisible={dropped}")
    return 1 if diagnostics else 0


def cmd_synth(args) -> int:
    for flag, value, least in (("--count", args.count, 1), ("--seed", args.seed, 0),
                               ("--d-v", args.d_v, 7), ("--d-t", args.d_t, 1)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    if not 0.0 <= args.noise < np.inf:
        raise ConfigError(f"--noise must be finite and >= 0, got {args.noise}")
    mix = {}
    for part in args.mix.split(","):
        name, _, weight = part.partition("=")
        name = name.strip()
        if name in mix:
            raise ConfigError(f"--mix: category {name!r} is given twice")
        try:
            mix[name] = float(weight)
        except ValueError:
            raise ConfigError(f"--mix: bad entry {part!r}, expected name=number") from None
        if not np.isfinite(mix[name]):
            raise ConfigError(f"--mix: entry {part!r} is not finite")
    config = data_mod.SynthConfig(d_v=args.d_v, d_t=args.d_t, noise_std=args.noise)
    # the flags are checked above, so any ValueError left is the mix's
    records, features = _build(data_mod.synth_scenes, "--mix: ", args.count, mix, args.seed, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.emit(records, out / "scenes.json")
    data_mod.save_features(features, out / "features.json")
    _write_resolved_config(
        {
            "command": "synth",
            "count": args.count,
            "seed": args.seed,
            "mix": mix,
            "noise": args.noise,
            "d_v": args.d_v,
            "d_t": args.d_t,
        },
        out / "resolved_config.json",
    )
    print(f"wrote {len(records)} scenes to {out}")
    return 0


def cmd_train(args) -> int:
    given = data_mod.read_json(args.config, "config", unique_keys)
    config = _merge_config(_TRAIN_DEFAULTS, given, "config")
    if not config["data"]:
        raise _config_error("config.data", "must point to a dataset directory")
    if not 0.0 <= config["val_fraction"] < 1.0:
        raise _config_error("config.val_fraction",
                            f"must be in [0, 1), got {config['val_fraction']}")
    for key, least in (("seed", 0), ("batch_size", 1)):
        if config[key] < least:
            raise _config_error(f"config.{key}", f"must be >= {least}, got {config[key]}")

    model_config = _build(ModelConfig, "config.model.", **config["model"])
    schedule = _build(LossSchedule, "config.schedule.", **config["schedule"])
    need = train_bytes(model_config)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"config.model: training needs {need / 2**30:.1f} GiB, "
                          f"more than this machine's {have / 2**30:.1f} GiB of memory")
    samples = _load_dataset(config["data"], model_config, "config.model.")
    if config["val_data"]:
        train_samples = samples
        val_samples = _load_dataset(config["val_data"], model_config, "config.model.")
    else:
        train_samples, val_samples = split_by_hash(samples, config["val_fraction"])

    model = FusionModel(model_config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_resolved_config(config, out / "resolved_config.json")
    print(f"trainable_fraction={model.trainable_fraction()!r}")
    print(f"train_samples={len(train_samples)} val_samples={len(val_samples)}")

    rows = [LOG_HEADER]
    history = run_training(
        model,
        train_samples,
        schedule,
        seed=config["seed"],
        batch_size=config["batch_size"],
        val_samples=val_samples or None,
        epoch_callback=lambda s: rows.append(format_log_row(s)),
    )
    (out / "train_log.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    save_checkpoint(model, out / "checkpoint.bin")
    print(f"final_loss={history[-1].combined_loss!r}")
    return 0


def cmd_eval(args) -> int:
    _build(check_iou_threshold, "--threshold: ", args.threshold)
    if args.gt_as_pred:
        model = None
        samples = _load_dataset(args.data)
        predictions = [s.gt_box for s in samples]
    else:
        if not args.checkpoint:
            raise ConfigError("--checkpoint required unless --gt-as-pred")
        model = load_checkpoint(args.checkpoint)
        samples = _load_dataset(args.data, model.config, f"checkpoint {args.checkpoint}: ")
        predictions = None
    report = evaluate_model(model, samples, args.threshold, predictions=predictions)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_json(report) + "\n", encoding="utf-8")
    (out / "report.csv").write_text(report_csv(report), encoding="utf-8")
    _write_resolved_config(
        {
            "command": "eval",
            "checkpoint": args.checkpoint,
            "data": args.data,
            "threshold": args.threshold,
            "gt_as_pred": args.gt_as_pred,
        },
        out / "resolved_config.json",
    )
    print(f"miou_samples={report['miou_samples']!r}")
    print(f"miou_categories={report['miou_categories']!r}")
    print(f"recall={report['recall']!r}")
    return 0


def cmd_report(args) -> int:
    report = data_mod.read_json(args.report, "report", unique_keys)
    check_report(report)
    if args.csv:
        print(report_csv(report), end="")
        return 0
    summary = {"mIoU (categories)": "miou_categories", "mIoU (samples)": "miou_samples",
               **{key: key for key in ("accuracy", "precision", "recall", "f1")}}
    width = max(map(len, ["category", *summary, *(r["category"] for r in report["categories"])]))
    print(f"{'category':<{width}}  {'iou':>8}  count")
    for row in report["categories"]:
        print(f"{row['category']:<{width}}  {row['iou']:>8.4f}  {row['count']}")
    for label, key in summary.items():
        print(f"{label:<{width}}  {report[key]:>8.4f}")
    return 0


# ---- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minidet3d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iou", help="IoU of two boxes given as 14 numbers")
    p.add_argument("box", type=float, nargs=14, metavar="N",
                   help="x y z l w h yaw for box A, then box B")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="also run the Monte-Carlo cross-check with this many samples")
    p.add_argument("--mc-seed", type=int, default=0)
    p.set_defaults(func=cmd_iou)

    p = sub.add_parser("ingest", help="validate scenes and run the preprocessing pipeline")
    p.add_argument("scenes", help="scene JSON file")
    p.add_argument("--out", required=True, help="output JSON-lines file of processed samples")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--mix", default="adult=0.5,car=0.5", help="category=weight, comma separated")
    p.add_argument("--noise", type=float, default=data_mod.SynthConfig.noise_std)
    p.add_argument("--d-v", type=int, default=data_mod.SynthConfig.d_v)
    p.add_argument("--d-t", type=int, default=data_mod.SynthConfig.d_t)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train from a JSON config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_IOU_THRESHOLD)
    p.add_argument("--out", required=True)
    p.add_argument("--gt-as-pred", action="store_true",
                   help="oracle mode: evaluate ground truth against itself")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="pretty-print an eval report.json")
    p.add_argument("report")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MiniDetError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
