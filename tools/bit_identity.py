"""Bit-identity hashes of the kit's deterministic artifacts.

    python3 tools/bit_identity.py

Run from the repository root; `src/` of the same checkout is imported and
nothing is installed. A change that leaves the arithmetic alone must print
the same five lines as its parent commit. BLAS is pinned to one thread
before numpy loads. It takes a few seconds on one core and writes only
to a temporary directory.

- `checkpoint`, `train_log`, `report`, `ingest`: the sequence of acceptance
  criterion 9. `synth` 48 records at seed 21 (adult/car 0.5 each), `train`
  with seed 4, batch 16, epochs 2/4 at lr 1e-3/1e-4, `eval` of that
  checkpoint on the same data, and `ingest` of the scene file. The ingest
  runs with `--workers 1` and `--workers 4`, and the two outputs must be
  equal bytes.
- `stage2_checkpoint`: the run of `test_stage2_run_is_bit_reproducible`.
  256 training records at data seed 101 and 64 validation records at 202
  (adult/car 0.5 each), `ModelConfig(seed=5)`, epochs 8/14 at lr
  2e-3/5e-5, batch-order seed 5. Its stage 2 takes IoU-loss gradients.

Each line is a label and the first 16 hex digits of the artifact's SHA-256.
The exit code is 1 if a command fails or the two ingests differ.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minidet3d.cli import main as cli_main  # noqa: E402
from minidet3d.data import synth_scenes  # noqa: E402
from minidet3d.losses import LossSchedule  # noqa: E402
from minidet3d.model import FusionModel, ModelConfig, save_checkpoint  # noqa: E402
from minidet3d.train import build_training_samples, run_training  # noqa: E402

MIX = {"adult": 0.5, "car": 0.5}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def cli(*argv) -> None:
    """Run one subcommand, its output discarded; SystemExit if it fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"minidet3d {argv[0]} exited {code}")


def criterion_9(tmp: Path) -> dict[str, Path]:
    data, run, report = tmp / "data", tmp / "run", tmp / "eval"
    cli("synth", "--count", 48, "--seed", 21, "--out", data, "--mix", "adult=0.5,car=0.5")
    config = {
        "seed": 4, "data": str(data), "batch_size": 16,
        "schedule": {"transition_epoch": 2, "total_epochs": 4, "stage1_lr": 1e-3, "stage2_lr": 1e-4},
    }
    (tmp / "config.json").write_text(json.dumps(config))
    cli("train", "--config", tmp / "config.json", "--out", run)
    cli("eval", "--checkpoint", run / "checkpoint.bin", "--data", data, "--out", report)
    ingests = [tmp / f"ingest-w{w}.jsonl" for w in (1, 4)]
    for workers, out in zip((1, 4), ingests):
        cli("ingest", data / "scenes.json", "--out", out, "--workers", workers)
    if ingests[0].read_bytes() != ingests[1].read_bytes():
        raise SystemExit("ingest --workers 1 and --workers 4 wrote different bytes")
    return {"checkpoint": run / "checkpoint.bin", "train_log": run / "train_log.csv",
            "report": report / "report.json", "ingest": ingests[0]}


def stage2_run(tmp: Path) -> Path:
    def samples(count, seed):
        records, features = synth_scenes(count, MIX, seed=seed)
        return build_training_samples(records, {f.sample_id: f for f in features})

    model = FusionModel(ModelConfig(seed=5))
    schedule = LossSchedule(transition_epoch=8, total_epochs=14, stage1_lr=2e-3, stage2_lr=5e-5)
    run_training(model, samples(256, 101), schedule, seed=5, val_samples=samples(64, 202))
    save_checkpoint(model, tmp / "stage2.bin")
    return tmp / "stage2.bin"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        artifacts = criterion_9(tmp)
        artifacts["stage2_checkpoint"] = stage2_run(tmp)
        for label, path in artifacts.items():
            print(f"{label:<18} {digest(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
