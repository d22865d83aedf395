"""Seeded quality band for the paper's headline claim: two-stage vs MSE-only.

    python3 tools/quality_band.py --out CLAIMS.json
    python3 tools/quality_band.py --out new.json --parent CLAIMS.json

Run from the repository root; `src/` of the same checkout is imported and
nothing is installed. It trains the configuration of acceptance criterion 8
(synth 2000 train / 200 val scenes with data seeds 101/202, 51 epochs with
the transition at 33, learning rates 2e-3/5e-5, the trainer's default batch
of 32) for model seeds 0-7, with batch-order seed 5+s, in two arms:

- `two-stage`: the acceptance schedule (stage-2 weights 0.2/0.8);
- `mse-only`: the same schedule with stage-2 weights 1/0.

The 16 runs go to two spawned worker processes, with BLAS pinned to one
thread before numpy loads; they take about 5 minutes on 2 cores. The output
file holds, per seed and arm, the stage-1 checkpoint mIoU (epoch 33), the
final mIoU (epoch 51), the stage-2 total of `skipped_iou_grads` (epochs
34-51) and its split into IoU 0, IoU 1 and non-smooth (counted by wrapping
`minidet3d.train.iou_loss_grad` in the worker; both recorded to show
whether a change moved a tie decision, not gated) and the wall time; per
arm, the median, min and max
over seeds; the paired relative gain of two-stage over MSE-only per seed,
with its sign count and median, next to the paper's 12.8%; and the
provenance, taken before the workers start, with a SHA-256 of
`src/minidet3d/*.py` and the OpenBLAS core that numpy dispatched
(`blas_core`, from `tools/bit_identity.py`).

A change that alters the training arithmetic cannot keep results bit-identical,
so it is gated on this band instead. With `--parent FILE` (the output of this
script at the parent commit) the file also records the gate: each arm's median
final mIoU lies within the parent's [min, max] over seeds, and the median
paired gain is above 0. The exit code is 1 when the gate fails. Next to the
gate it records, per arm, each seed's final-mIoU change against the parent
and the largest of them, and both runs' BLAS cores (not gated). A rounding
change of the kernel moves seeds too, so when the cores differ, or the parent
recorded none, the script says that the per-seed moves include the kernel's.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "tools"))

MIX = {"adult": 0.4, "car": 0.4, "trafficcone": 0.2}
SCHEDULE = {"transition_epoch": 33, "total_epochs": 51, "stage1_lr": 2e-3, "stage2_lr": 5e-5}
ARMS = {"two-stage": (0.2, 0.8), "mse-only": (1.0, 0.0)}
SEEDS = range(8)
WORKERS = 2
PAPER_GAIN = 0.128


@functools.cache
def _samples():
    """(train, val) samples of the criterion-8 data, built once per worker."""
    from minidet3d.data import synth_scenes
    from minidet3d.train import build_training_samples

    def build(count, seed):
        records, features = synth_scenes(count, MIX, seed=seed)
        return build_training_samples(records, {f.sample_id: f for f in features})

    return build(2000, 101), build(200, 202)


def _run(seed: int, arm: str) -> dict:
    from minidet3d import train as train_mod
    from minidet3d.errors import DegenerateOverlap, NonSmoothPoint
    from minidet3d.losses import LossSchedule
    from minidet3d.model import FusionModel, ModelConfig

    grad, skips = train_mod.iou_loss_grad, {"iou_0": 0, "iou_1": 0, "nonsmooth": 0}

    def counted_grad(p, g, iou):  # the trainer hands the gradient each pair's IoU
        try:
            return grad(p, g, iou)
        except DegenerateOverlap:
            skips["iou_0" if iou <= 0.0 else "iou_1"] += 1
            raise
        except NonSmoothPoint:
            skips["nonsmooth"] += 1
            raise

    train, val = _samples()
    schedule = LossSchedule(**SCHEDULE, stage2_weights=ARMS[arm])
    start = time.perf_counter()
    train_mod.iou_loss_grad = counted_grad
    try:
        history = train_mod.run_training(FusionModel(ModelConfig(seed=seed)), train, schedule,
                                         seed=5 + seed, val_samples=val)
    finally:
        train_mod.iou_loss_grad = grad
    skipped = sum(s.skipped_iou_grads for s in history[schedule.transition_epoch:])
    if sum(skips.values()) != skipped:  # stage 1 takes no IoU gradient
        raise RuntimeError(f"seed {seed} {arm}: skips {skips} do not add up to {skipped}")
    return {
        "seed": seed,
        "arm": arm,
        "stage1_checkpoint_miou": history[schedule.transition_epoch - 1].val_miou,
        "final_miou": history[-1].val_miou,
        "stage2_skipped_iou_grads": skipped,
        "stage2_skips": skips,
        "wall_s": round(time.perf_counter() - start, 2),
    }


def _git(*args) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _provenance() -> dict:
    import numpy
    from bit_identity import blas_core

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "minidet3d").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    head = _git("rev-parse", "HEAD")
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_core": blas_core(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": WORKERS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_head": head,
        # a band is often run on an uncommitted change, whose src is not HEAD's
        "src_differs_from_head": (None if head is None
                                  else bool(_git("status", "--porcelain", "src"))),
        "src_sha256": digest.hexdigest(),
    }


def _spread(values) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def summarize(runs: list[dict]) -> dict:
    """Per-arm spreads and the paired gain of two-stage over MSE-only."""
    by = {(r["seed"], r["arm"]): r for r in runs}
    seeds = sorted({r["seed"] for r in runs})
    arms = {
        arm: {key: _spread([by[s, arm][key] for s in seeds])
              for key in ("stage1_checkpoint_miou", "final_miou")}
        for arm in ARMS
    }
    gains = [by[s, "two-stage"]["final_miou"] / by[s, "mse-only"]["final_miou"] - 1.0
             for s in seeds]
    return {
        "arms": arms,
        "paired_gain": {
            "what": "two-stage final mIoU / MSE-only final mIoU - 1, per model seed",
            "per_seed": dict(zip(map(str, seeds), gains)),
            "wins": sum(g > 0 for g in gains),
            "seeds": len(seeds),
            "median": statistics.median(gains),
            "paper": PAPER_GAIN,
        },
    }


def gate(parent: dict, change: dict) -> dict:
    """Each arm's median final mIoU inside the parent's [min, max]; median gain > 0.

    Per arm, each seed's final mIoU minus the parent's and the move of largest
    size (signed) are recorded next to it, not gated, with both runs' BLAS
    cores; `moves_include_kernel` says whether those moves may be the kernel's."""
    checks, moves = {}, {}
    for arm in ARMS:
        band = parent["arms"][arm]["final_miou"]
        median = change["arms"][arm]["final_miou"]["median"]
        checks[f"{arm} median final mIoU in parent band"] = {
            "value": median, "band": [band["min"], band["max"]],
            "ok": band["min"] <= median <= band["max"],
        }
        before = {r["seed"]: r["final_miou"] for r in parent["runs"] if r["arm"] == arm}
        per_seed = {str(r["seed"]): r["final_miou"] - before[r["seed"]]
                    for r in change["runs"] if r["arm"] == arm}
        moves[arm] = {"per_seed": per_seed, "largest": max(per_seed.values(), key=abs)}
    median_gain = change["paired_gain"]["median"]
    checks["median paired gain above 0"] = {"value": median_gain, "ok": median_gain > 0}
    cores = {side: run["provenance"].get("blas_core")
             for side, run in (("parent", parent), ("change", change))}
    return {"passed": all(c["ok"] for c in checks.values()), "checks": checks,
            "final_miou_moves": moves, "blas_cores": cores,
            "moves_include_kernel": cores["parent"] is None or cores["parent"] != cores["change"],
            "parent_src_sha256": parent["provenance"]["src_sha256"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", help="this script's output at the parent, to gate against")
    args = parser.parse_args(argv)
    from minidet3d.train import DEFAULT_BATCH_SIZE
    parent = json.loads(Path(args.parent).read_text(encoding="utf-8")) if args.parent else None

    jobs = [(seed, arm) for seed in SEEDS for arm in ARMS]
    provenance = _provenance()  # each worker imports src/ as it starts: hash what it imports
    start = time.perf_counter()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=spawn) as pool:
        futures = [pool.submit(_run, seed, arm) for seed, arm in jobs]
        runs = []
        for future in futures:
            r = future.result()
            runs.append(r)
            print(f"seed {r['seed']} {r['arm']:<9} stage-1 {r['stage1_checkpoint_miou']:.4f} "
                  f"final {r['final_miou']:.4f} skipped {r['stage2_skipped_iou_grads']} "
                  f"{r['stage2_skips']} ({r['wall_s']:.0f} s)", flush=True)

    result = {
        "config": {"train": "synth 2000, seed 101", "val": "synth 200, seed 202", "mix": MIX,
                   "schedule": SCHEDULE, "batch_size": DEFAULT_BATCH_SIZE,
                   "model_seeds": list(SEEDS),
                   "batch_seed": "5 + model seed", "arms": ARMS},
        "runs": runs,
        **summarize(runs),
        "elapsed_s": round(time.perf_counter() - start, 1),
        "provenance": provenance,
    }
    if parent is not None:
        result["gate"] = gate(parent, result)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    gain = result["paired_gain"]
    print(f"paired gain of two-stage over MSE-only: median {100 * gain['median']:+.2f}% "
          f"({gain['wins']}/{gain['seeds']} seeds positive); paper {100 * PAPER_GAIN:.1f}%")
    if parent is not None:
        moves = result["gate"]["final_miou_moves"]
        print("largest final-mIoU move against the parent: "
              + ", ".join(f"{arm} {m['largest']:+.6f}" for arm, m in moves.items()))
        if result["gate"]["moves_include_kernel"]:
            cores = result["gate"]["blas_cores"]
            print(f"BLAS core: parent {cores['parent']}, change {cores['change']}; "
                  "the per-seed moves include the kernel's")
        print(f"gate: {'PASS' if result['gate']['passed'] else 'FAIL'}")
        return 0 if result["gate"]["passed"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
