"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the lines as they
complete. The training-based criteria share module-scoped fixtures so the
expensive runs happen once.
"""

import json
import math
import time

import numpy as np
import pytest

from minidet3d.cli import main as cli_main
from minidet3d.data import synth_scenes
from minidet3d.geom import Box7
from minidet3d.iou import iou_3d, monte_carlo_iou
from minidet3d.lora import LoRAAdapter, adapter_init, merge_adapter
from minidet3d.losses import LossSchedule
from minidet3d.model import FusionModel, ModelConfig
from minidet3d.train import build_training_samples, run_training
from oracles import apply_adapted, named_grads

BENCH_MIX = {"adult": 0.4, "car": 0.4, "trafficcone": 0.2}


def _criterion(num: int, name: str, body):
    try:
        detail = body()
    except BaseException as e:
        print(f"[acceptance] criterion {num} ({name}): FAIL ({e})")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS{' - ' + detail if detail else ''}")


def random_box(rng):
    return Box7(
        *rng.uniform(-5, 5, 3), *rng.uniform(0.5, 4, 3), rng.uniform(-math.pi, math.pi)
    )


def test_criterion_1_iou_oracle_agreement():
    def body():
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        agreements = 0
        for i in range(200):
            a, b = random_box(rng), random_box(rng)
            exact = iou_3d(a, b).iou
            mc = monte_carlo_iou(a, b, 1_000_000, seed=i)
            if abs(exact - mc.iou) <= 4 * mc.standard_error:
                agreements += 1
        elapsed = time.monotonic() - start
        assert agreements >= 198, f"only {agreements}/200 within 4 standard errors"
        assert elapsed < 120, f"took {elapsed:.1f}s"
        return f"{agreements}/200 agree, {elapsed:.1f}s"

    _criterion(1, "iou-oracle-agreement", body)


def test_criterion_2_analytic_rotated_cube_fixture():
    def body():
        a = Box7(0, 0, 0, 1, 1, 1, 0)
        b = Box7(0, 0, 0, 1, 1, 1, math.pi / 4)
        res = iou_3d(a, b)
        octagon = 2.0 * (math.sqrt(2.0) - 1.0)
        assert abs(res.intersection_volume - octagon) <= 1e-9
        assert abs(res.iou - 1.0 / math.sqrt(2.0)) <= 1e-9
        return f"iou={res.iou:.12f}"

    _criterion(2, "analytic-45-degree-fixture", body)


def test_criterion_3_gradient_correctness():
    def body():
        # adapters are randomized so the factor gradients are non-trivial
        cfg = ModelConfig(seed=11)
        model = FusionModel(cfg)
        rng = np.random.default_rng(40)
        for p in model.trainable_parameters().values():
            p += rng.normal(0, 0.02, size=p.shape)

        h = 1e-5
        worst = 0.0
        sampled = 0
        for input_seed in (1, 2, 3):
            in_rng = np.random.default_rng(input_seed)
            x = in_rng.normal(size=cfg.d_v + cfg.d_t)
            u = in_rng.normal(size=7)
            model.forward_batch(x[None])
            grads = named_grads(model, u[None])
            for name, p in model.trainable_parameters().items():
                flat = p.reshape(-1)
                for i in in_rng.choice(flat.size, size=min(3, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + h
                    fp = float(u @ model.forward_batch(x[None])[0])
                    flat[i] = orig - h
                    fm = float(u @ model.forward_batch(x[None])[0])
                    flat[i] = orig
                    fd = (fp - fm) / (2 * h)
                    an = grads[name].reshape(-1)[i]
                    sampled += 1
                    denom = max(abs(fd), abs(an))
                    if denom > 1e-12:
                        worst = max(worst, abs(fd - an) / denom)
            model.forward_batch(x[None])  # restore a clean cache for the next seed
        assert sampled >= 200, f"only sampled {sampled} parameters"
        assert worst <= 1e-4, f"max relative error {worst:.3e}"
        return f"{sampled} params, max rel err {worst:.2e}"

    _criterion(3, "gradient-correctness", body)


def test_criterion_4_lora_algebra():
    def body():
        rng = np.random.default_rng(7)
        # B = 0 initialization leaves the base model bit-identical
        w = rng.normal(size=(64, 64))
        fresh = adapter_init(64, 64, r=16, alpha=32.0, seed=1)
        assert merge_adapter(w, fresh).tobytes() == w.tobytes()
        for _ in range(10):
            x = rng.normal(size=64)
            assert np.array_equal(apply_adapted(w, fresh, x), w @ x)
        # the product's merged weight agrees with the factored oracle
        for _ in range(20):
            a = LoRAAdapter(
                A=rng.normal(size=(16, 64)), B=rng.normal(size=(64, 16)), r=16, alpha=32.0
            )
            x = rng.normal(size=64)
            merged = merge_adapter(w, a) @ x
            assert np.allclose(apply_adapted(w, a, x), merged, atol=1e-9)
        # parameter count formula, square case
        assert fresh.param_count == 16 * (64 + 64) == 2 * 64 * 16
        rect = adapter_init(48, 80, r=8, alpha=1.0, seed=2)
        assert rect.param_count == 8 * (48 + 80)
        return "zero-init frozen, merged==factored, count=r(d_in+d_out)"

    _criterion(4, "lora-algebra", body)


def test_criterion_5_schedule_conformance(tmp_path):
    def body():
        assert cli_main(
            ["synth", "--count", "24", "--seed", "3", "--out", str(tmp_path / "data"),
             "--mix", "adult=0.5,car=0.5"]
        ) == 0
        config = {
            "seed": 0,
            "data": str(tmp_path / "data"),
            "batch_size": 8,
            "schedule": {"transition_epoch": 3, "total_epochs": 6},
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert cli_main(
            ["train", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "run")]
        ) == 0
        rows = (tmp_path / "run" / "train_log.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 6
        for row in rows:
            epoch_s, lam1_s, lam2_s, lr_s = row.split(",")[:4]
            expected = (1.0, 0.0, 1e-4) if int(epoch_s) <= 3 else (0.2, 0.8, 1e-5)
            assert (float(lam1_s), float(lam2_s), float(lr_s)) == expected, row
        return "log (lambda1, lambda2, lr) columns exact per stage"

    _criterion(5, "schedule-conformance", body)


def test_criterion_6_pipeline_roundtrip():
    def body():
        from minidet3d.data import global_to_lidar_pose, process_record, to_lidar_frame
        from minidet3d.geom import transform_box

        records, _ = synth_scenes(1000, BENCH_MIX, seed=606)
        worst = 0.0
        for rec in records:
            (ann,) = to_lidar_frame(rec)
            back = global_to_lidar_pose(rec).inverse()
            recovered = transform_box(ann.box, back)
            worst = max(worst, float(np.max(np.abs(recovered.params() - rec.annotations[0].box.params()))))
        assert worst <= 1e-9, f"worst round-trip error {worst:.3e}"

        # behind-camera fixture is dropped by the positive-depth rule
        from minidet3d.data import _CAMERA_AXES, Annotation, CameraBlock, SceneRecord
        from minidet3d.geom import CameraIntrinsics, Pose

        cam = CameraBlock(
            name="front",
            intrinsics=CameraIntrinsics(fx=1000, fy=1000, cx=800, cy=450, width=1600, height=900),
            sensor_to_ego=Pose((0, 0, 0), _CAMERA_AXES),
        )
        behind = SceneRecord(
            sample_id="behind",
            ego_to_global=Pose((0.0, 0.0, 0.0)),
            lidar_to_ego=Pose((0.0, 0.0, 0.0)),
            cameras=(cam,),
            annotations=(Annotation("car", Box7(-10, 0, 0, 1, 1, 1, 0)),),
        )
        assert not process_record(behind).annotations[0].retained
        return f"1000 records, worst error {worst:.2e}; behind-camera box dropped"

    _criterion(6, "pipeline-roundtrip", body)


def test_criterion_7_metric_identities():
    def body():
        from minidet3d.metrics import match_predictions, report_dict
        from oracles import match_optimal_bruteforce
        from test_metrics import TRAINING_CATEGORY_IOUS, random_instance

        miou = report_dict([(c, v) for c, v in TRAINING_CATEGORY_IOUS], 0.25)["miou_categories"]
        assert abs(miou - 0.2344) <= 0.0015, f"mIoU {miou}"

        rng = np.random.default_rng(77)
        for _ in range(200):
            preds, gts = random_instance(rng, max_side=5)
            greedy, g_matched = match_predictions(preds, gts, 0.25)
            optimal, o_matched = match_optimal_bruteforce(preds, gts, 0.25)
            assert greedy == optimal
            assert sorted(g_matched) == pytest.approx(sorted(o_matched))
        return f"table mIoU {miou:.4f}; greedy==bruteforce on 200 instances"

    _criterion(7, "metric-identities", body)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Zero-noise synthetic benchmark: two-stage vs MSE-only at equal epochs.

    Stage 2 starts at epoch 33 and the run ends at epoch 51, mirroring the
    published two-stage trajectory; learning rates are desk-scale choices.
    """
    start = time.monotonic()
    records, features = synth_scenes(2000, BENCH_MIX, seed=101)
    train = build_training_samples(records, {f.sample_id: f for f in features})
    vrecords, vfeatures = synth_scenes(200, BENCH_MIX, seed=202)
    val = build_training_samples(vrecords, {f.sample_id: f for f in vfeatures})

    two_stage = LossSchedule(
        transition_epoch=33, total_epochs=51, stage1_lr=2e-3, stage2_lr=5e-5
    )
    mse_only = LossSchedule(
        transition_epoch=33, total_epochs=51, stage1_lr=2e-3, stage2_lr=5e-5,
        stage2_weights=(1.0, 0.0),
    )
    model_two = FusionModel(ModelConfig(seed=0))
    hist_two = run_training(model_two, train, two_stage, seed=5, val_samples=val)
    model_mse = FusionModel(ModelConfig(seed=0))
    hist_mse = run_training(model_mse, train, mse_only, seed=5, val_samples=val)
    elapsed = time.monotonic() - start
    return {
        "stage1_checkpoint_miou": hist_two[two_stage.transition_epoch - 1].val_miou,
        "two_stage_final_miou": hist_two[-1].val_miou,
        "mse_only_final_miou": hist_mse[-1].val_miou,
        "elapsed": elapsed,
    }


def test_criterion_8_two_stage_directional_claim(benchmark_runs):
    def body():
        b = benchmark_runs
        assert b["two_stage_final_miou"] >= b["mse_only_final_miou"], (
            f"two-stage {b['two_stage_final_miou']:.4f} < MSE-only {b['mse_only_final_miou']:.4f}"
        )
        gain = b["two_stage_final_miou"] - b["stage1_checkpoint_miou"]
        assert gain >= 0.02, f"stage-2 gain {gain:.4f} below 2 points"
        assert b["elapsed"] < 600, f"benchmark took {b['elapsed']:.0f}s"
        return (
            f"ckpt {b['stage1_checkpoint_miou']:.4f} -> {b['two_stage_final_miou']:.4f} "
            f"(+{100 * gain:.1f} pts), MSE-only {b['mse_only_final_miou']:.4f}, "
            f"{b['elapsed']:.0f}s"
        )

    _criterion(8, "two-stage-directional-claim", body)


def test_criterion_9_determinism(tmp_path):
    def body():
        data = tmp_path / "data"
        assert cli_main(
            ["synth", "--count", "48", "--seed", "21", "--out", str(data),
             "--mix", "adult=0.5,car=0.5"]
        ) == 0
        config = {
            "seed": 4,
            "data": str(data),
            "batch_size": 16,
            "schedule": {
                "transition_epoch": 2, "total_epochs": 4,
                "stage1_lr": 1e-3, "stage2_lr": 1e-4,
            },
        }
        (tmp_path / "config.json").write_text(json.dumps(config))

        for run in ("r1", "r2"):
            assert cli_main(
                ["train", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / run)]
            ) == 0
        assert (tmp_path / "r1" / "checkpoint.bin").read_bytes() == (
            tmp_path / "r2" / "checkpoint.bin"
        ).read_bytes()
        assert (tmp_path / "r1" / "train_log.csv").read_bytes() == (
            tmp_path / "r2" / "train_log.csv"
        ).read_bytes()

        for ev in ("e1", "e2"):
            assert cli_main(
                ["eval", "--checkpoint", str(tmp_path / "r1" / "checkpoint.bin"),
                 "--data", str(data), "--out", str(tmp_path / ev)]
            ) == 0
        assert (tmp_path / "e1" / "report.json").read_bytes() == (
            tmp_path / "e2" / "report.json"
        ).read_bytes()

        for workers, name in ((1, "w1.jsonl"), (4, "w4.jsonl")):
            assert cli_main(
                ["ingest", str(data / "scenes.json"), "--out", str(tmp_path / name),
                 "--workers", str(workers)]
            ) == 0
        assert (tmp_path / "w1.jsonl").read_bytes() == (tmp_path / "w4.jsonl").read_bytes()
        return "train x2, eval x2, ingest workers 1 vs 4 all bit-identical"

    _criterion(9, "determinism", body)
