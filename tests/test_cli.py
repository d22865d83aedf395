import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from minidet3d.cli import main
from minidet3d.data import Annotation, emit, ingest_lenient, synth_scenes
from minidet3d.geom import Box7, quat_from_yaw
from minidet3d.losses import LossSchedule
from minidet3d.model import FusionModel, ModelConfig, param_bytes, save_checkpoint, train_bytes

MIX = "adult=0.5,car=0.5"

# ego poses that preprocessing rejects, with the message it gives
BAD_EGOS = pytest.mark.parametrize("ego, message", [
    ({"translation": [1.7e308, 1.7e308, 0.0], "rotation": list(quat_from_yaw(math.pi / 4))},
     "pose components must be finite"),
    ({"translation": [5.0, 1.0, 0.0], "rotation": [math.cos(0.01), math.sin(0.01), 0.0, 0.0]},
     "pose tilts the vertical axis by 2.000e-02 rad; boxes here carry yaw only"),
], ids=["overflow", "tilt"])


def run_cli(*args):
    return main([str(a) for a in args])


def make_dataset(tmp_path, name, count, seed, mix=MIX):
    out = tmp_path / name
    assert run_cli("synth", "--count", count, "--seed", seed, "--out", out, "--mix", mix) == 0
    return out


def make_narrow_dataset(tmp_path):
    """A dataset with 16-wide visual features, where the model default is 32."""
    out = tmp_path / "narrow"
    assert run_cli("synth", "--count", 8, "--seed", 1, "--out", out, "--d-v", 16) == 0
    return out


class TestIouCommand:
    def test_identical_boxes(self, capsys):
        assert run_cli("iou", *([0, 0, 0, 1, 1, 1, 0] * 2)) == 0
        out = capsys.readouterr().out
        assert "iou=1.0" in out

    def test_disjoint_boxes(self, capsys):
        assert run_cli("iou", 0, 0, 0, 1, 1, 1, 0, 50, 0, 0, 1, 1, 1, 0) == 0
        assert "iou=0.0" in capsys.readouterr().out

    def test_rotated_pair_value(self, capsys):
        assert run_cli("iou", 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, math.pi / 4) == 0
        out = capsys.readouterr().out
        iou = float(out.split("iou=")[1].split("\n")[0])
        assert abs(iou - 1 / math.sqrt(2)) < 1e-5

    def test_collinear_pair_a_gap_apart_is_zero(self, capsys):
        # Same yaw and width, end to end 0.1 m apart: the clip without the
        # collinear-edge rule printed iou=0.02215.
        a = [2.087049452795237, 2.1765327997073203, 0, 0.8850389659034383,
             1.155012621354435, 1, 0.8063829143116736]
        b = [0, 0, 0, 4.945904723641236, 1.155012621354435, 1, 0.8063829143116736]
        assert run_cli("iou", *a, *b, "--mc-samples", 200000) == 0
        out = capsys.readouterr().out
        assert "iou=0.0\n" in out and "mc_iou=0.0\n" in out

    def test_monte_carlo_flag(self, capsys):
        assert run_cli(
            "iou", 0, 0, 0, 1, 1, 1, 0, 0.3, 0, 0, 1, 1, 1, 0.2,
            "--mc-samples", 50000, "--mc-seed", 3,
        ) == 0
        out = capsys.readouterr().out
        assert "mc_iou=" in out and "mc_se=" in out

    def test_log_variable_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("MINIDET3D_LOG", "verbose")
        assert run_cli("iou", *([0, 0, 0, 1, 1, 1, 0] * 2)) == 0
        assert "iou=1.0" in capsys.readouterr().out

    def test_parse_failure_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("iou", "a", "b")
        assert exc.value.code == 2

    def test_invalid_box_exit_1(self, capsys):
        # sizes must be positive: parse succeeds, validation fails
        assert run_cli("iou", 0, 0, 0, -1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--mc-samples", -5), ("--mc-seed", -1),
    ])
    def test_bad_monte_carlo_flag_named_before_any_output(self, capsys, flag, value):
        assert run_cli("iou", 0, 0, 0, 1, 1, 1, 0, 0.3, 0, 0, 1, 1, 1, 0.2, flag, value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 0, got {value}\n"

    @pytest.mark.parametrize("box, at, message", [
        ("a", 6, "Box7.yaw must be finite, got nan"),
        ("b", 6, "Box7.yaw must be finite, got nan"),
        ("b", 0, "Box7.x must be finite, got inf"),
        ("a", 4, "Box7 sizes must be positive, got l=1.0, w=-1.0, h=1.0"),
    ])
    def test_invalid_box_names_it(self, capsys, box, at, message):
        values = [0, 0, 0, 1, 1, 1, 0] * 2
        values[at + (7 if box == "b" else 0)] = {0: "inf", 4: -1, 6: "nan"}[at]
        assert run_cli("iou", *values) == 1
        assert capsys.readouterr().err == f"error: box {box}: {message}\n"


    @pytest.mark.parametrize("values, box, size", [
        ([0, 0, 0, 1e-110, 1e-110, 1e-110, 0, 1e-111, 0, 0, 1e-110, 1e-110, 1e-110, 0], "a", 1e-110),
        ([0, 0, 0, 1, 1, 1, 0, 0.5, 0, 0, 1e110, 1e110, 1e110, 0], "b", 1e110),
    ], ids=["underflow", "overflow"])
    def test_box_without_a_positive_finite_volume_names_it(self, capsys, values, box, size):
        # the union of two such boxes is 0 or inf: no IoU is taken
        assert run_cli("iou", *values) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: box {box}: Box7 sizes must give a positive, finite "
                                f"volume, got l={size}, w={size}, h={size}\n")


class TestSynthCommand:
    def test_writes_dataset(self, tmp_path, capsys):
        out = make_dataset(tmp_path, "data", 12, 3)
        assert (out / "scenes.json").is_file()
        assert (out / "features.json").is_file()
        assert (out / "resolved_config.json").is_file()

    def test_deterministic(self, tmp_path, capsys):
        a = make_dataset(tmp_path, "a", 10, 5)
        b = make_dataset(tmp_path, "b", 10, 5)
        assert (a / "scenes.json").read_bytes() == (b / "scenes.json").read_bytes()
        assert (a / "features.json").read_bytes() == (b / "features.json").read_bytes()


class TestIngestCommand:
    def test_empty_file(self, tmp_path, capsys):
        scenes = tmp_path / "empty.json"
        scenes.write_text(json.dumps({"schema_version": 1, "records": []}))
        assert run_cli("ingest", scenes, "--out", tmp_path / "out.jsonl") == 0
        assert "accepted=0 rejected=0 dropped_invisible=0" in capsys.readouterr().out

    def test_behind_camera_box_dropped(self, tmp_path, capsys):
        from minidet3d.data import CameraBlock, SceneRecord
        from minidet3d.geom import CameraIntrinsics, Pose, quat_from_matrix

        cam = CameraBlock(
            name="front",
            intrinsics=CameraIntrinsics(fx=1000, fy=1000, cx=800, cy=450, width=1600, height=900),
            sensor_to_ego=Pose(
                (0, 0, 0),
                quat_from_matrix(np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])),
            ),
        )
        rec = SceneRecord(
            sample_id="behind-0",
            ego_to_global=Pose((0.0, 0.0, 0.0)),
            lidar_to_ego=Pose((0.0, 0.0, 0.0)),
            cameras=(cam,),
            annotations=(Annotation("car", Box7(-10, 0, 0, 1, 1, 1, 0)),),
        )
        scenes = tmp_path / "scenes.json"
        emit([rec], scenes)
        assert run_cli("ingest", scenes, "--out", tmp_path / "out.jsonl") == 0
        assert "dropped_invisible=1" in capsys.readouterr().out

    def test_rejected_record_nonzero_exit(self, tmp_path, capsys):
        records, _ = synth_scenes(2, {"car": 1.0}, seed=1)
        scenes = tmp_path / "scenes.json"
        emit(records, scenes)
        doc = json.loads(scenes.read_text())
        doc["records"][0]["ego_to_global"]["rotation"] = [2, 0, 0, 0]
        scenes.write_text(json.dumps(doc))
        assert run_cli("ingest", scenes, "--out", tmp_path / "out.jsonl") == 1
        captured = capsys.readouterr()
        assert "rejected" in captured.err
        assert "accepted=1 rejected=1" in captured.out

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        assert run_cli("ingest", tmp_path / "nope.json", "--out", tmp_path / "out.jsonl") == 1

    def test_rerun_byte_identical(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 15, 7)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli("ingest", data / "scenes.json", "--out", out1) == 0
        assert run_cli("ingest", data / "scenes.json", "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_give_identical_output(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 20, 8)
        records, _ = ingest_lenient(data / "scenes.json")  # the records share their rig
        assert records[0].lidar_to_ego is records[-1].lidar_to_ego
        assert records[0].cameras[5].sensor_to_ego is records[-1].cameras[5].sensor_to_ego
        out1, out4 = tmp_path / "w1.jsonl", tmp_path / "w4.jsonl"
        assert run_cli("ingest", data / "scenes.json", "--out", out1, "--workers", 1) == 0
        assert run_cli("ingest", data / "scenes.json", "--out", out4, "--workers", 4) == 0
        assert out1.read_bytes() == out4.read_bytes()

    @pytest.mark.parametrize("workers", [1, 4])
    @BAD_EGOS
    def test_preprocessing_failure_names_its_record(self, tmp_path, capfd, workers, ego, message):
        records, _ = synth_scenes(40, {"car": 1.0}, seed=4)
        scenes = tmp_path / "scenes.json"
        emit(records, scenes)
        doc = json.loads(scenes.read_text())
        doc["records"][21]["ego_to_global"] = ego
        scenes.write_text(json.dumps(doc))
        capfd.readouterr()
        assert run_cli("ingest", scenes, "--out", tmp_path / "out.jsonl", "--workers", workers) == 1
        captured = capfd.readouterr()
        assert captured.err == f"error: record {records[21].sample_id!r}: {message}\n"
        assert captured.out == ""

    def test_repeated_sample_id_rejects_the_later_record(self, tmp_path, capsys):
        records, _ = synth_scenes(3, {"car": 1.0}, seed=1)
        scenes = tmp_path / "scenes.json"
        emit([records[0], records[1], dataclasses.replace(records[2], sample_id=records[0].sample_id)],
             scenes)
        assert run_cli("ingest", scenes, "--out", tmp_path / "out.jsonl") == 1
        captured = capsys.readouterr()
        assert captured.err == (f"rejected: records[2].sample_id: duplicate sample_id "
                                f"{records[0].sample_id!r}, first at records[0]\n")
        assert "accepted=2 rejected=1" in captured.out

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        data = make_dataset(tmp_path, "data", 2, 8)
        capsys.readouterr()
        out = tmp_path / "out.jsonl"
        assert run_cli("ingest", data / "scenes.json", "--out", out, "--workers", workers) == 1
        assert capsys.readouterr().err == f"error: --workers must be at least 1, got {workers}\n"
        assert not out.exists()

    def test_golden_fixture_byte_identical(self, tmp_path, capsys):
        from pathlib import Path

        golden_dir = Path(__file__).parent / "golden"
        out = tmp_path / "processed.jsonl"
        assert run_cli("ingest", golden_dir / "scenes.json", "--out", out) == 0
        assert out.read_bytes() == (golden_dir / "processed.jsonl").read_bytes()

    def test_golden_fixture_matches_pinhole_arithmetic(self):
        # corner 0 of the visible box sits at ego (10.5, -0.5, -0.5); in the
        # camera frame (x=-y_ego, y=-z_ego, z=x_ego) that is (0.5, 0.5, 10.5)
        from pathlib import Path

        golden = Path(__file__).parent / "golden" / "processed.jsonl"
        sample = json.loads(golden.read_text().splitlines()[0])
        u, v, visible = sample["annotations"][0]["projections"]["front"][0]
        assert u == pytest.approx(1000 * 0.5 / 10.5 + 800)
        assert v == pytest.approx(1000 * 0.5 / 10.5 + 450)
        assert visible is True
        behind = json.loads(golden.read_text().splitlines()[1])
        assert behind["annotations"][0]["retained"] is False


def train_config(tmp_path, data_dir, **overrides):
    config = {
        "seed": 1,
        "data": str(data_dir),
        "batch_size": 16,
        "model": {"seed": 0},
        "schedule": {
            "transition_epoch": 2,
            "total_epochs": 4,
            "stage1_lr": 1e-3,
            "stage2_lr": 1e-4,
        },
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("command", ["ingest", "train", "eval"])
@pytest.mark.parametrize("path, field", [
    (("annotations", 0, "box", 0), "records[2].annotations[0].box[0]"),
    (("ego_to_global", "translation", 2), "records[2].ego_to_global.translation[2]"),
    (("cameras", 1, "intrinsics", "fx"), "records[2].cameras[1].intrinsics.fx"),
])
def test_integer_too_large_for_a_float_names_its_field(tmp_path, capsys, command, path, field):
    data = make_dataset(tmp_path, "data", 4, 12)
    doc = json.loads((data / "scenes.json").read_text())
    target = doc["records"][2]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 10**400
    (data / "scenes.json").write_text(json.dumps(doc))
    args = {
        "ingest": ("ingest", data / "scenes.json", "--out", tmp_path / "out.jsonl"),
        "train": ("train", "--config", train_config(tmp_path, data), "--out", tmp_path / "run"),
        "eval": ("eval", "--data", data, "--out", tmp_path / "e", "--gt-as-pred"),
    }[command]
    capsys.readouterr()
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    prefix = "rejected" if command == "ingest" else "error"
    assert err == f"{prefix}: {field}: must be a finite number, got an integer of 401 digits\n"


@pytest.mark.parametrize("command", ["train", "eval"])
@BAD_EGOS
def test_preprocessing_failure_in_train_and_eval_names_its_record(
        tmp_path, capsys, command, ego, message):
    data = make_dataset(tmp_path, "data", 6, 13)
    doc = json.loads((data / "scenes.json").read_text())
    doc["records"][2]["ego_to_global"] = ego
    (data / "scenes.json").write_text(json.dumps(doc))
    args = {
        "train": ("train", "--config", train_config(tmp_path, data), "--out", tmp_path / "run"),
        "eval": ("eval", "--data", data, "--out", tmp_path / "e", "--gt-as-pred"),
    }[command]
    capsys.readouterr()
    assert run_cli(*args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: record {doc['records'][2]['sample_id']!r}: {message}\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings: an open gap
@pytest.mark.parametrize("command", ["train", "eval"])
def test_overflowing_feature_names_its_sample(tmp_path, capsys, command):
    # -1e308 is finite, so the features file loads; the first layer overflows
    data = make_dataset(tmp_path, "data", 40, 3)
    doc = json.loads((data / "features.json").read_text())
    sample_id = sorted(doc["features"])[7]
    doc["features"][sample_id]["visual"][0] = -1e308
    (data / "features.json").write_text(json.dumps(doc))
    save_checkpoint(FusionModel(ModelConfig()), tmp_path / "model.bin")
    args = {
        "train": ("train", "--config", train_config(tmp_path, data), "--out", tmp_path / "run"),
        "eval": ("eval", "--checkpoint", tmp_path / "model.bin", "--data", data,
                 "--out", tmp_path / "e"),
    }[command]
    capsys.readouterr()
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: non-finite model output[^\n]* \(sample '{sample_id}'\)[^\n]*\n", err)


class TestTrainCommand:
    def test_smoke_run_writes_artifacts(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 40, 9)
        cfg = train_config(tmp_path, data)
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        captured = capsys.readouterr().out
        assert "trainable_fraction=" in captured
        assert (out / "checkpoint.bin").is_file()
        assert (out / "resolved_config.json").is_file()
        log = (out / "train_log.csv").read_text().strip().split("\n")
        assert log[0].startswith("epoch,lambda1,lambda2,lr")
        assert len(log) == 5  # header + 4 epochs

    def test_log_lambda_columns_match_schedule(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 40, 10)
        cfg = train_config(tmp_path, data)
        out = tmp_path / "run"
        run_cli("train", "--config", cfg, "--out", out)
        capsys.readouterr()
        rows = (out / "train_log.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            epoch, lam1, lam2, lr = row.split(",")[:4]
            if int(epoch) <= 2:
                assert (float(lam1), float(lam2), float(lr)) == (1.0, 0.0, 1e-3)
            else:
                assert (float(lam1), float(lam2), float(lr)) == (0.2, 0.8, 1e-4)

    @pytest.mark.parametrize("text, path", [
        ('"seed": 1, "seed": 2', "config.seed"),
        ('"model": {"d_v": 32, "d_v": 16}', "config.model.d_v"),
    ], ids=["top-level", "nested"])
    def test_repeated_config_key_rejected(self, tmp_path, capsys, text, path):
        # json.loads alone keeps the last value and would train with it
        data = make_dataset(tmp_path, "data", 10, 11)
        cfg = tmp_path / "config.json"
        cfg.write_text(f'{{"data": {json.dumps(str(data))}, {text}}}')
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: is given more than once\n"
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 10, 11)
        cfg = train_config(tmp_path, data, typo_key=5)
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, path",
        [
            ({"batch_size": "8"}, "config.batch_size"),
            ({"model": {"lora_alpha": "32"}}, "config.model.lora_alpha"),
            ({"schedule": {"stage1_weights": 1.0}}, "config.schedule.stage1_weights"),
        ],
    )
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, override, path):
        data = make_dataset(tmp_path, "data", 10, 11)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"data": str(data), **override}))
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("override, message", [
        ({"schedule": {"stage1_lr": float("nan")}},
         "config.schedule.stage1_lr: must be a finite number, got NaN"),
        ({"schedule": {"stage2_lr": float("inf")}},
         "config.schedule.stage2_lr: must be a finite number, got Infinity"),
        ({"model": {"lora_alpha": -float("inf")}},
         "config.model.lora_alpha: must be a finite number, got -Infinity"),
        ({"schedule": {"stage2_weights": [0.2, float("nan")]}},
         "config.schedule.stage2_weights[1]: must be a finite number, got NaN"),
        ({"schedule": {"stage1_lr": 10**400}},
         "config.schedule.stage1_lr: must be a finite number, got an integer of 401 digits"),
        ({"schedule": {"stage2_weights": [0.2, -(10**400)]}},
         "config.schedule.stage2_weights[1]: must be a finite number, got an integer of 401 digits"),
        ({"model": {"lora_alpha": 10**309}},
         "config.model.lora_alpha: must be a finite number, got an integer of 310 digits"),
        ({"val_fraction": 1.5}, "config.val_fraction: must be in [0, 1), got 1.5"),
        ({"val_fraction": 1}, "config.val_fraction: must be in [0, 1), got 1"),
        ({"val_fraction": -0.1}, "config.val_fraction: must be in [0, 1), got -0.1"),
        ({"batch_size": 10**400},
         "config.batch_size: must be an integer within float range, got an integer of 401 digits"),
    ])
    def test_bad_config_number_rejected_at_load(self, tmp_path, capsys, override, message):
        data = make_dataset(tmp_path, "data", 4, 11)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"data": str(data), **override}))
        capsys.readouterr()
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_model_larger_than_memory_rejected_before_it_is_built(self, tmp_path, capsys):
        # d_model 2**20 makes each frozen attention and FFN weight at least
        # 2**40 values, 2**47 bytes (128 TiB) in all, and training holds half
        # as much again in merged weights: the count is computed from the
        # shape table, and nothing of that size is allocated
        data = make_dataset(tmp_path, "data", 4, 11)
        cfg = train_config(tmp_path, data, model={"seed": 0, "d_model": 2**20})
        capsys.readouterr()
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config.model: training needs 196634.1 GiB, more than")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_memory_check_counts_gradient_optimizer_and_merged_weights(
            self, tmp_path, capsys, monkeypatch):
        # memory between the default model's parameters and what its training
        # holds besides them: the gradient, AdamW's two moments, the merge
        params, held = param_bytes(ModelConfig()), train_bytes(ModelConfig())
        assert 3 * params < held
        have = (params + held) // 2
        data = make_dataset(tmp_path, "data", 4, 11)
        cfg = train_config(tmp_path, data)
        capsys.readouterr()
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config.model: training needs ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_malformed_features_file_rejected(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 4, 16)
        doc = json.loads((data / "features.json").read_text())
        del doc["features"]
        (data / "features.json").write_text(json.dumps(doc))
        cfg = train_config(tmp_path, data)
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
        assert capsys.readouterr().err == f"error: {data / 'features.json'}.features: missing\n"

    def test_feature_width_mismatch_rejected(self, tmp_path, capsys):
        data = make_narrow_dataset(tmp_path)
        cfg = train_config(tmp_path, data)
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config.model.d_v: 32, but the visual features in ")
        assert "Traceback" not in err

    def test_extra_feature_ids_rejected(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 8, 15)
        feats = data / "features.json"
        doc = json.loads(feats.read_text())
        entry = next(iter(doc["features"].values()))
        doc["features"]["ghost-1"] = doc["features"]["ghost-2"] = entry
        feats.write_text(json.dumps(doc))
        cfg = train_config(tmp_path, data)
        capsys.readouterr()
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {feats}: 2 feature ids match no scene record, first ['ghost-1', 'ghost-2']\n"
        )

    def test_defaults_written_to_resolved_config(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 4, 15)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"data": str(data)}))
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 0
        resolved = json.loads((tmp_path / "run" / "resolved_config.json").read_text())
        for key, cls in (("model", ModelConfig), ("schedule", LossSchedule)):
            assert resolved[key] == json.loads(json.dumps(dataclasses.asdict(cls())))

    def test_deterministic_across_runs(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 40, 12)
        cfg = train_config(tmp_path, data)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("train", "--config", cfg, "--out", out1) == 0
        assert run_cli("train", "--config", cfg, "--out", out2) == 0
        assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()
        assert (out1 / "train_log.csv").read_bytes() == (out2 / "train_log.csv").read_bytes()

    def test_explicit_validation_set(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 30, 13)
        val = make_dataset(tmp_path, "val", 10, 14)
        cfg = train_config(tmp_path, data, val_data=str(val))
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        rows = (out / "train_log.csv").read_text().strip().split("\n")[1:]
        assert all(row.split(",")[7] != "" for row in rows)  # val_miou column filled

    def test_validation_features_schema_names_that_file(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 4, 13)
        val = make_dataset(tmp_path, "val", 4, 14)
        doc = json.loads((val / "features.json").read_text())
        (val / "features.json").write_text(json.dumps({**doc, "schema_version": 2}))
        cfg = train_config(tmp_path, data, val_data=str(val))
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err == f"error: {val / 'features.json'}.schema_version: must be 1, got 2\n"

    def test_stage1_only_converges_on_zero_noise_data(self, tmp_path, capsys):
        # 200-epoch MSE-only run on zero-noise data: by construction the
        # features determine the box, so the loss must collapse. The loss
        # weights stay at (1.0, 0.0) throughout; only the learning rate steps
        # down mid-run, as the schedule is designed to do.
        data = make_dataset(tmp_path, "data", 128, 20)
        cfg = train_config(
            tmp_path,
            data,
            schedule={
                "transition_epoch": 100,
                "total_epochs": 200,
                "stage1_lr": 1e-3,
                "stage2_lr": 1e-4,
                "stage2_weights": [1.0, 0.0],
            },
        )
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        rows = (out / "train_log.csv").read_text().strip().split("\n")[1:]
        first_mse = float(rows[0].split(",")[4])
        final_mse = float(rows[-1].split(",")[4])
        assert final_mse < 0.01 * first_mse


def _header_edit(edit):
    def apply(blob):
        hlen = int.from_bytes(blob[5:9], "little")
        cfg = json.loads(blob[9 : 9 + hlen])
        edit(cfg)
        header = json.dumps(cfg, sort_keys=True).encode()
        return blob[:5] + len(header).to_bytes(4, "little") + header + blob[9 + hlen :]

    return apply


def _repeat_header_seed(blob):
    """The checkpoint with `"seed": 1` put before its header's own seed."""
    hlen = int.from_bytes(blob[5:9], "little")
    header = b'{"seed": 1, ' + blob[10 : 9 + hlen]
    return blob[:5] + len(header).to_bytes(4, "little") + header + blob[9 + hlen :]


MALFORMED_CHECKPOINTS = {
    "four_bytes": (lambda blob: b"MD3D", "version"),
    "no_header_length": (lambda blob: b"MD3D\x01", "header length"),
    "bad_magic": (lambda blob: b"NOPE" + blob[4:], "magic"),
    "header_length_past_end": (
        lambda blob: blob[:5] + len(blob).to_bytes(4, "little") + blob[9:], "header length"
    ),
    "header_not_json": (lambda blob: blob[:5] + b"\x03\0\0\0{x}" + blob[9:], "header"),
    "header_nested_too_deeply": (
        lambda blob: blob[:5] + (10**5).to_bytes(4, "little") + b"[" * 10**5, "header"
    ),
    "unknown_header_key": (_header_edit(lambda c: c.update(extra=1)), "header"),
    "missing_header_key": (_header_edit(lambda c: c.pop("seed")), "header.seed"),
    "repeated_header_key": (_repeat_header_seed, "header.seed"),
    "mistyped_header_value": (_header_edit(lambda c: c.update(d_v="x")), "header.d_v"),
    "header_number_too_large_for_a_float": (
        _header_edit(lambda c: c.update(lora_alpha=10**400)), "header.lora_alpha"
    ),
    "truncated_weights": (lambda blob: blob[:-4], "weights"),
    "trailing_bytes": (lambda blob: blob + bytes(8), "weights"),
}


class TestEvalCommand:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_rejected(self, tmp_path, capsys, case):
        corrupt, part = MALFORMED_CHECKPOINTS[case]
        data = make_dataset(tmp_path, "data", 4, 22)
        path = tmp_path / "model.bin"
        save_checkpoint(FusionModel(ModelConfig()), path)
        path.write_bytes(corrupt(path.read_bytes()))
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", path, "--data", data, "--out", tmp_path / "e") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {part}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_feature_width_mismatch_rejected(self, tmp_path, capsys):
        data = make_narrow_dataset(tmp_path)
        path = tmp_path / "model.bin"
        save_checkpoint(FusionModel(ModelConfig()), path)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", path, "--data", data, "--out", tmp_path / "e") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {path}: d_v: 32, but the visual features in ")
        assert "Traceback" not in err

    def test_gt_as_pred_oracle(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 25, 15)
        out = tmp_path / "eval"
        assert run_cli("eval", "--data", data, "--out", out, "--gt-as-pred") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["miou_samples"] == 1.0
        assert report["recall"] == 1.0
        assert (out / "report.csv").is_file()

    def test_checkpoint_eval_deterministic(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 30, 16)
        cfg = train_config(tmp_path, data)
        run_dir = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", run_dir) == 0
        e1, e2 = tmp_path / "e1", tmp_path / "e2"
        for e in (e1, e2):
            assert run_cli(
                "eval", "--checkpoint", run_dir / "checkpoint.bin", "--data", data, "--out", e
            ) == 0
        assert (e1 / "report.json").read_bytes() == (e2 / "report.json").read_bytes()
        assert (e1 / "report.csv").read_bytes() == (e2 / "report.csv").read_bytes()

    def test_missing_checkpoint_nonzero(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 5, 17)
        code = run_cli(
            "eval", "--checkpoint", tmp_path / "nope.bin", "--data", data, "--out", tmp_path / "e"
        )
        assert code == 1

    def test_missing_data_nonzero(self, tmp_path, capsys):
        assert run_cli("eval", "--data", tmp_path / "nope", "--out", tmp_path / "e",
                       "--gt-as-pred") == 1

    @pytest.mark.parametrize("threshold", ["0", "1", "1.5", "nan"])
    def test_threshold_outside_unit_interval_one_error_line(self, tmp_path, capsys, threshold):
        data = make_dataset(tmp_path, "data", 5, 20)
        capsys.readouterr()
        assert run_cli("eval", "--data", data, "--out", tmp_path / "e", "--gt-as-pred",
                       "--threshold", threshold) == 1
        err = capsys.readouterr().err
        assert err == (f"error: --threshold: iou_threshold must be in (0, 1), "
                       f"got {float(threshold)}\n")
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("threshold", ["0", "1.5", "nan"])
    def test_threshold_refused_before_any_file_is_read(self, tmp_path, capsys, threshold):
        # the data directory does not exist: the flag is named, not the directory
        assert run_cli("eval", "--data", tmp_path / "nope", "--out", tmp_path / "e",
                       "--gt-as-pred", "--threshold", threshold) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --threshold") and err.count("\n") == 1
        assert not (tmp_path / "e").exists()


class TestReportCommand:
    def test_pretty_print(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 10, 18)
        out = tmp_path / "eval"
        run_cli("eval", "--data", data, "--out", out, "--gt-as-pred")
        capsys.readouterr()
        assert run_cli("report", out / "report.json") == 0
        text = capsys.readouterr().out
        assert "mIoU (categories)" in text
        assert "recall" in text

    def test_csv_mode(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 10, 19)
        out = tmp_path / "eval"
        run_cli("eval", "--data", data, "--out", out, "--gt-as-pred")
        capsys.readouterr()
        assert run_cli("report", out / "report.json", "--csv") == 0
        assert capsys.readouterr().out.startswith("category,iou,count")

    VALID = {
        "iou_threshold": 0.25, "counts": {"tp": 1, "tn": 0, "fp": 0, "fn": 0},
        "accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0,
        "miou_samples": 1.0, "miou_categories": 1.0,
        "categories": [{"category": "car", "iou": 1.0, "count": 1}],
    }

    def test_hand_written_report_prints(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(self.VALID))
        assert run_cli("report", path) == 0
        assert "car" in capsys.readouterr().out

    @pytest.mark.parametrize("category", ["car", "a-category-name-longer-than-the-labels"])
    def test_table_values_start_in_one_column(self, tmp_path, capsys, category):
        path = tmp_path / "report.json"
        rows = [{"category": category, "iou": 0.5, "count": 3},
                {"category": "adult", "iou": 0.25, "count": 1}]
        path.write_text(json.dumps({**self.VALID, "categories": rows}))
        assert run_cli("report", path) == 0
        _, *lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 + 6
        assert len({re.search(r"\d\.\d{4}", line).start() for line in lines}) == 1

    @pytest.mark.parametrize("doc, field", [
        ({}, "report.categories"),
        ([], "{path}"),
        ({"categories": {}}, "report.categories"),
        ({"categories": ["car"]}, "report.categories[0]"),
        ({"categories": [{"iou": 1.0, "count": 1}]}, "report.categories[0].category"),
        ({"categories": [{"category": "car", "count": 1}]}, "report.categories[0].iou"),
        ({"categories": [{"category": "car", "iou": "1", "count": 1}]}, "report.categories[0].iou"),
        ({"categories": [{"category": "car", "iou": 1.0}]}, "report.categories[0].count"),
        ({"categories": [{"category": "car", "iou": 1.0, "count": 1.5}]},
         "report.categories[0].count"),
        ({"miou_categories": "1.0"}, "report.miou_categories"),
        ({"miou_categories": 10**400}, "report.miou_categories"),
        ({"f1": -(10**400)}, "report.f1"),
        ({"categories": [{"category": "car", "iou": 10**400, "count": 1}]},
         "report.categories[0].iou"),
        ({"recall": None}, "report.recall"),
        ({"miou_samples": float("nan")}, "report.miou_samples"),
        ({"f1": float("inf")}, "report.f1"),
        ({"categories": [{"category": "car", "iou": float("nan"), "count": 1}]},
         "report.categories[0].iou"),
        ({"categories": [{"category": "car", "iou": 1.0, "count": 10**400}]},
         "report.categories[0].count"),
        ({"categories": [{"category": "car", "iou": 1.0, "count": -5}]},
         "report.categories[0].count"),
        ({"categories": [{"category": "car", "iou": 2.0, "count": 1}]},
         "report.categories[0].iou"),
        ({"miou_categories": 1.5}, "report.miou_categories"),
        ({"recall": -0.25}, "report.recall"),
        ({"iou_threshold": "x"}, "report.iou_threshold"),
        ({"iou_threshold": 1.0}, "report.iou_threshold"),
        ({"iou_threshold": 0}, "report.iou_threshold"),
        ({"counts": "y"}, "report.counts"),
        ({"counts": {"tp": 1, "tn": 0, "fp": -1, "fn": 0}}, "report.counts.fp"),
        ({"counts": {"tp": 1, "tn": 0, "fp": 0}}, "report.counts.fn"),
        ({"counts": {"tp": 1.5, "tn": 0, "fp": 0, "fn": 0}}, "report.counts.tp"),
    ])
    @pytest.mark.parametrize("csv", [False, True])
    def test_malformed_report_names_the_field(self, tmp_path, capsys, doc, field, csv):
        if isinstance(doc, dict) and doc:
            doc = {**self.VALID, **doc}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert run_cli("report", path, *(["--csv"] if csv else [])) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field.format(path=path)}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, text, field", [
        ("miou_samples", '0.5, "miou_samples": 0.75', "report.miou_samples"),
        ("counts", '{"tp": 1, "tn": 0, "fp": 0, "fn": 0, "tp": 2}', "report.counts.tp"),
    ], ids=["top-level", "nested"])
    def test_repeated_report_key_names_the_field(self, tmp_path, capsys, key, text, field):
        # json.loads alone keeps the last value and would print it
        doc = {k: v for k, v in self.VALID.items() if k != key}
        path = tmp_path / "report.json"
        path.write_text(f'{json.dumps(doc)[:-1]}, "{key}": {text}}}')
        assert run_cli("report", path) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {field}: is given more than once\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["{", "[" * 100_000, b"\xff\xfe"])
    def test_unreadable_report_names_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        assert run_cli("report", path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a JSON report: ")
        assert err.count("\n") == 1


UNREADABLE_JSON = {"truncated": "{", "deeply nested": "[" * 100_000, "not UTF-8": b"\xff\xfe"}


@pytest.mark.parametrize("defect", UNREADABLE_JSON)
@pytest.mark.parametrize("target", ["config", "scenes", "features"])
def test_unreadable_input_file_names_it(tmp_path, capsys, target, defect):
    """Each input file that is not JSON gives one error line naming it; the
    report command's file is covered in TestReportCommand."""
    data = make_dataset(tmp_path, "data", 4, 21)
    cfg = train_config(tmp_path, data)
    path, what = {"config": (cfg, "config"), "scenes": (data / "scenes.json", "scene file"),
                  "features": (data / "features.json", "features file")}[target]
    text = UNREADABLE_JSON[defect]
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    capsys.readouterr()
    out = tmp_path / "out"
    if target == "config":
        assert run_cli("train", "--config", cfg, "--out", out) == 1
    else:
        assert run_cli("eval", "--data", data, "--out", out, "--gt-as-pred") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a JSON {what}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("override, path", [
    ({"seed": -1}, "config.seed"),
    ({"model": {"seed": -3}}, "config.model.seed"),
    ({"model": {"d_model": 65}}, "config.model.d_model"),
    ({"model": {"lora_targets": ["q", "k", "v", "o"]}}, "config.model: unknown keys"),
    ({"model": {"mlp_hidden": [512, 256, 128]}}, "config.model: unknown keys"),
    ({"model": {"lora_rank": 100}}, "config.model.lora_rank"),
    ({"schedule": {"transition_epoch": 0}}, "config.schedule.transition_epoch"),
    ({"schedule": {"stage2_weights": [1]}}, "config.schedule.stage2_weights"),
    ({"batch_size": 0}, "config.batch_size"),
])
def test_bad_config_value_names_its_path_before_writing(tmp_path, capsys, override, path):
    data = make_dataset(tmp_path, "data", 4, 11)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"data": str(data), **override}))
    capsys.readouterr()
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.count("error:") == 1 and "Traceback" not in err
    assert re.match(rf"error: {re.escape(path)}\b", err), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, flag", [
    (("--seed", -1), "--seed"),
    (("--mix", "adult=abc"), "--mix"),
    (("--mix", "adult"), "--mix"),
    (("--mix", "adult=nan"), "--mix"),
    (("--mix", "car=0.5,adult=inf"), "--mix"),
    (("--mix", "adult=1,adult=2"), "--mix"),
    (("--mix", "adult=-1,car=1"), "--mix"),
    (("--mix", "adult=0,car=0"), "--mix"),
    (("--mix", "=1"), "--mix"),
    (("--noise", -1), "--noise"),
    (("--noise", "nan"), "--noise"),
    (("--noise", "inf"), "--noise"),
    (("--d-t", 0), "--d-t"),
    (("--count", 0), "--count"),
    (("--d-v", 3), "--d-v"),
    (("--mix", "adult=1e308,car=1e308"), "--mix: category weights sum to inf, not a finite"),
])
def test_bad_synth_flag_names_the_flag_before_writing(tmp_path, capsys, flags, flag):
    assert run_cli("synth", "--count", 4, "--out", tmp_path / "data", *flags) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.count("error:") == 1 and "Traceback" not in err
    assert re.match(rf"error: {re.escape(flag)}\b", err), err
    assert not (tmp_path / "data").exists()
