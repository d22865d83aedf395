"""Bit-identity hashes of the kit's deterministic artifacts.

    python3 tools/bit_identity.py

Run from the repository root; `src/` of the same checkout is imported and
nothing is installed. A change that leaves the arithmetic alone must print
the same eight hash lines as its parent commit. BLAS is pinned to one thread
before numpy loads. It takes a few seconds on one core and writes only
to a temporary directory.

- `checkpoint`, `train_log`, `report`, `ingest`: the sequence of acceptance
  criterion 9. `synth` 48 records at seed 21 (adult/car 0.5 each), `train`
  with seed 4, batch 16, epochs 2/4 at lr 1e-3/1e-4, `eval` of that
  checkpoint on the same data, and `ingest` of the scene file. The ingest
  runs with `--workers 1` and `--workers 4`, and the two outputs must be
  equal bytes. The records that `data.ingest_lenient` parses from the scene
  file, which share the rig's interned poses and intrinsics, are then
  emitted again; no record may be rejected, and the new file must equal the
  synth's `scenes.json` byte for byte.
- `stage2_checkpoint`: the run of `test_stage2_run_is_bit_reproducible`.
  256 training records at data seed 101 and 64 validation records at 202
  (adult/car 0.5 each), `ModelConfig(seed=5)`, epochs 8/14 at lr
  2e-3/5e-5, batch-order seed 5. Its stage 2 takes IoU-loss gradients.
- `synth_widths`: `synth` of 64 records at seed 33 (adult, car, trafficcone
  and bicycle, weight 1 each) at `--d-v 16 --d-t 8 --noise 0.05`, run after
  the criterion-9 synth in the same process, so an encoder matrix or text
  embedding kept from one width cannot stand in for another's. One hash of
  `scenes.json` followed by `features.json`.
- `stage2_report`: the `eval` report bytes (`report_json` and a newline, as
  `eval` writes `report.json`) of the stage-2 run's model on its 64
  validation samples at threshold 0.25. Unlike criterion 9's report, it has
  hits (TP 29, FP = FN = 35), so it pins every rate formula.
- `ingest_visibility`: criterion 9's `--workers 1` ingest output without
  its pixels: each record's sample id, each annotation's `retained` flag
  and each camera's per-corner `visible` flags. A change that moves the
  projected pixels only by rounding moves `ingest` and leaves this line.

The first line, `blas_core`, names the OpenBLAS kernel that numpy dispatched
(`None` if it cannot be asked): the hashes hold for one numpy build and one
kernel, so compare two commits on the same machine. Each other line is a
label and the first 16 hex digits of the artifact's SHA-256.
The exit code is 1 if a command fails, the two ingests differ, a record of
the synth's scene file is rejected, or the re-emitted file differs from it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minidet3d.cli import main as cli_main  # noqa: E402
from minidet3d.data import emit, ingest_lenient, synth_scenes  # noqa: E402
from minidet3d.losses import LossSchedule  # noqa: E402
from minidet3d.metrics import report_json  # noqa: E402
from minidet3d.model import FusionModel, ModelConfig, save_checkpoint  # noqa: E402
from minidet3d.train import build_training_samples, evaluate_model, run_training  # noqa: E402

MIX = {"adult": 0.5, "car": 0.5}


def blas_core() -> str | None:
    """The name of the OpenBLAS core that numpy dispatched, asked of the
    OpenBLAS library under `numpy.libs`; None if no such library answers."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(dll, name):
                corename = getattr(dll, name)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


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
    records, rejected = ingest_lenient(data / "scenes.json")
    if rejected:
        raise SystemExit(f"the synth's scenes.json has a rejected record: {rejected[0]}")
    emit(records, tmp / "reemitted.json")
    if (tmp / "reemitted.json").read_bytes() != (data / "scenes.json").read_bytes():
        raise SystemExit("the ingested records emitted again differ from the synth's scenes.json")
    return {"checkpoint": (run / "checkpoint.bin",), "train_log": (run / "train_log.csv",),
            "report": (report / "report.json",), "ingest": ingests[:1]}


def visibility(ingest_out: Path, tmp: Path) -> Path:
    """A file of the ingest output's sample ids and visibility flags, one
    record a line, with no pixel in it."""
    lines = []
    for line in ingest_out.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        flags = [[a["retained"], {cam: [c[2] for c in corners]
                                  for cam, corners in a["projections"].items()}]
                 for a in rec["annotations"]]
        lines.append(json.dumps([rec["sample_id"], flags], sort_keys=True))
    out = tmp / "ingest_visibility.jsonl"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def synth_widths(tmp: Path) -> tuple[Path, Path]:
    out = tmp / "widths"
    cli("synth", "--count", 64, "--seed", 33, "--out", out,
        "--mix", "adult=1,car=1,trafficcone=1,bicycle=1", "--d-v", 16, "--d-t", 8, "--noise", 0.05)
    return out / "scenes.json", out / "features.json"


def stage2_run(tmp: Path) -> tuple[Path, Path]:
    """The stage-2 run's checkpoint and the eval report of its model on its
    validation samples."""
    def samples(count, seed):
        records, features = synth_scenes(count, MIX, seed=seed)
        return build_training_samples(records, {f.sample_id: f for f in features})

    model = FusionModel(ModelConfig(seed=5))
    schedule = LossSchedule(transition_epoch=8, total_epochs=14, stage1_lr=2e-3, stage2_lr=5e-5)
    val = samples(64, 202)
    run_training(model, samples(256, 101), schedule, seed=5, val_samples=val)
    save_checkpoint(model, tmp / "stage2.bin")
    report = tmp / "stage2_report.json"
    report.write_text(report_json(evaluate_model(model, val, 0.25)) + "\n", encoding="utf-8")
    return tmp / "stage2.bin", report


def main() -> int:
    print(f"{'blas_core':<18} {blas_core()}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        artifacts = criterion_9(tmp)
        widths = synth_widths(tmp)  # between two synths at the default widths
        checkpoint, report = stage2_run(tmp)
        artifacts["stage2_checkpoint"] = (checkpoint,)
        artifacts["synth_widths"] = widths
        artifacts["stage2_report"] = (report,)
        artifacts["ingest_visibility"] = (visibility(*artifacts["ingest"], tmp),)
        for label, paths in artifacts.items():
            print(f"{label:<18} {digest(*paths)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
