import dataclasses
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minidet3d.cli as cli_mod
from minidet3d.cli import main
from minidet3d.data import Annotation, emit, ingest_lenient, save_features, synth_scenes
from minidet3d.geom import Box7, Pose, quat_from_yaw
from minidet3d.losses import LossSchedule
from minidet3d.model import FusionModel, ModelConfig, param_bytes, save_checkpoint, train_bytes

MIX = "adult=0.5,car=0.5"

TILTED_EGO = {"translation": [5.0, 1.0, 0.0],
              "rotation": [math.cos(0.01), math.sin(0.01), 0.0, 0.0]}
# ego poses that preprocessing rejects, with the message it gives
BAD_EGOS = pytest.mark.parametrize("ego, message", [
    ({"translation": [1.7e308, 1.7e308, 0.0], "rotation": list(quat_from_yaw(math.pi / 4))},
     "pose components must be finite"),
    (TILTED_EGO, "pose tilts the vertical axis by 2.000e-02 rad; boxes here carry yaw only"),
], ids=["overflow", "tilt"])


def run_cli(*args):
    return main([str(a) for a in args])


def make_dataset(tmp_path, name, count, seed, mix=MIX):
    out = tmp_path / name
    assert run_cli("synth", "--count", count, "--seed", seed, "--out", out, "--mix", mix) == 0
    return out


def make_empty_dataset(tmp_path):
    """A dataset directory that holds no record."""
    out = tmp_path / "empty"
    out.mkdir()
    emit([], out / "scenes.json")
    save_features([], out / "features.json")
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

    def test_boxes_whose_volumes_sum_past_the_float_maximum_are_refused(self, capsys):
        # each volume, 9.73e307, is finite; their union would not be
        big = [4.6e102] * 3
        assert run_cli("iou", 0, 0, 0, *big, 0, 1e99, 0, 0, *big, 0) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: box a: Box7 sizes must give a volume of at most ")


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
        from minidet3d.data import _CAMERA_AXES, CameraBlock, SceneRecord
        from minidet3d.geom import CameraIntrinsics, Pose

        cam = CameraBlock(
            name="front",
            intrinsics=CameraIntrinsics(fx=1000, fy=1000, cx=800, cy=450, width=1600, height=900),
            sensor_to_ego=Pose((0, 0, 0), _CAMERA_AXES),
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

    @pytest.mark.parametrize("workers", [1, 4])
    def test_non_finite_pixel_names_its_record_and_camera(self, tmp_path, capfd, workers):
        records, _ = synth_scenes(3, {"car": 1.0}, seed=4)
        far = dataclasses.replace(records[1], ego_to_global=Pose((0.0, 0.0, 0.0)), annotations=(
            Annotation("car", Box7(1.5e308, 1.5e308, 0.0, 1.0, 1.0, 1.0, 0.0)),))
        scenes, out = tmp_path / "scenes.json", tmp_path / "out.jsonl"
        emit([records[0], far, records[2]], scenes)
        assert ingest_lenient(scenes)[1] == []  # the record itself is valid
        capfd.readouterr()
        assert run_cli("ingest", scenes, "--out", out, "--workers", workers) == 1
        captured = capfd.readouterr()
        assert captured.err == (f"error: record {far.sample_id!r}: camera 'front': corner 0 "
                                "projects to the non-finite pixel (-inf, 450.0)\n")
        assert captured.out == "" and not out.exists()

    def test_finite_pixels_whose_sum_overflows_are_written(self, tmp_path, capsys):
        records, _ = synth_scenes(1, {"car": 1.0}, seed=4)
        far = dataclasses.replace(records[0], ego_to_global=Pose((0.0, 0.0, 0.0)), annotations=(
            Annotation("car", Box7(3.0, -1e305, 0.0, 1.0, 1.0, 1.0, 0.0)),))
        scenes, out = tmp_path / "scenes.json", tmp_path / "out.jsonl"
        emit([far], scenes)
        assert run_cli("ingest", scenes, "--out", out) == 0
        (line,) = out.read_text().splitlines()
        front = json.loads(line, parse_constant=pytest.fail)["annotations"][0]["projections"]["front"]
        assert max(u for u, _, _ in front) == 1e308  # eight such pixels sum to inf

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

    @staticmethod
    def in_process_pool(monkeypatch, cores):
        """Stand `cli.ProcessPoolExecutor` in with a pool that maps in this
        process, on a machine of `cores` cores; returns each pool's max_workers."""
        opened = []

        class InProcessPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        return opened

    @pytest.mark.parametrize("cores, pool", [(64, 3), (2, 2), (1, None)])
    def test_pool_never_outnumbers_the_chunks_or_the_cores(self, tmp_path, capsys, monkeypatch,
                                                           cores, pool):
        data = make_dataset(tmp_path, "data", 48, 8)
        serial, pooled = tmp_path / "w1.jsonl", tmp_path / "w1000.jsonl"
        assert run_cli("ingest", data / "scenes.json", "--out", serial) == 0
        opened = self.in_process_pool(monkeypatch, cores)
        assert run_cli("ingest", data / "scenes.json", "--out", pooled, "--workers", 1000) == 0
        assert opened == ([] if pool is None else [pool])  # 48 records are three chunks of 16
        assert pooled.read_bytes() == serial.read_bytes()

    def test_no_pool_without_an_accepted_record(self, tmp_path, capsys, monkeypatch):
        records, _ = synth_scenes(2, {"car": 1.0}, seed=4)
        scenes = tmp_path / "scenes.json"
        emit(records, scenes)
        doc = json.loads(scenes.read_text())
        for rec in doc["records"]:
            rec["sample_id"] = 5
        scenes.write_text(json.dumps(doc))
        opened = self.in_process_pool(monkeypatch, 64)
        out = tmp_path / "out.jsonl"
        assert run_cli("ingest", scenes, "--out", out, "--workers", 1000) == 1
        assert "accepted=0 rejected=2" in capsys.readouterr().out
        assert opened == [] and out.read_bytes() == b""

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
    # ingest rejects the record; train and eval name the file it is in
    prefix = "rejected" if command == "ingest" else f"error: {data / 'scenes.json'}"
    assert err == f"{prefix}: {field}: must be a finite number, got an integer of 401 digits\n"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("pose", ["ego_to_global", "lidar_to_ego"])
@BAD_EGOS
def test_preprocessing_failure_in_train_and_eval_names_its_record(
        tmp_path, capsys, command, pose, ego, message):
    data = make_dataset(tmp_path, "data", 6, 13)
    doc = json.loads((data / "scenes.json").read_text())
    doc["records"][2][pose] = ego
    (data / "scenes.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = {
        "train": ("train", "--config", train_config(tmp_path, data), "--out", out),
        "eval": ("eval", "--data", data, "--out", out, "--gt-as-pred"),
    }[command]
    capsys.readouterr()
    assert run_cli(*args) == 1
    captured = capsys.readouterr()
    sid = doc["records"][2]["sample_id"]
    assert captured.err == f"error: {data / 'scenes.json'}: record {sid!r}: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("defect", ["features", "annotations"])
def test_unpairable_record_names_its_file(tmp_path, capsys, command, defect):
    data = make_dataset(tmp_path, "data", 4, 17)
    scenes_doc = json.loads((data / "scenes.json").read_text())
    record = scenes_doc["records"][1]
    sid = record["sample_id"]
    if defect == "features":
        doc = json.loads((data / "features.json").read_text())
        del doc["features"][sid]
        (data / "features.json").write_text(json.dumps(doc))
        want = f"error: {data / 'features.json'}: no features for sample {sid!r}\n"
    else:
        record["annotations"] *= 2
        (data / "scenes.json").write_text(json.dumps(scenes_doc))
        want = (f"error: {data / 'scenes.json'}: record {sid!r} has 2 annotations; "
                "training expects exactly one box per sample\n")
    out = tmp_path / "out"
    args = {
        "train": ("train", "--config", train_config(tmp_path, data), "--out", out),
        "eval": ("eval", "--data", data, "--out", out, "--gt-as-pred"),
    }[command]
    capsys.readouterr()
    assert run_cli(*args) == 1
    captured = capsys.readouterr()
    assert captured.err == want
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_missing_feature_entry_is_named_before_a_record_fault(tmp_path, capsys, command):
    # the two files are paired before any record is built, so record 0's tilt waits
    data = make_dataset(tmp_path, "data", 4, 17)
    scenes_doc = json.loads((data / "scenes.json").read_text())
    scenes_doc["records"][0]["ego_to_global"] = TILTED_EGO
    (data / "scenes.json").write_text(json.dumps(scenes_doc))
    features_doc = json.loads((data / "features.json").read_text())
    sid = scenes_doc["records"][2]["sample_id"]
    del features_doc["features"][sid]
    (data / "features.json").write_text(json.dumps(features_doc))
    out = tmp_path / "out"
    args = {
        "train": ("train", "--config", train_config(tmp_path, data), "--out", out),
        "eval": ("eval", "--data", data, "--out", out, "--gt-as-pred"),
    }[command]
    capsys.readouterr()
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'features.json'}: no features for sample {sid!r}\n")
    assert not out.exists()


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


def test_loss_overflow_in_train_is_one_error_line(tmp_path, capsys):
    # the loss overflows before any check sees a non-finite value; numpy's
    # report is recorded, not printed, so only the error line reaches stderr
    data = make_dataset(tmp_path, "data", 40, 3)
    config = train_config(tmp_path, data, batch_size=4,
                          schedule={"stage1_lr": 1e12, "stage2_lr": 1e12})
    capsys.readouterr()
    assert run_cli("train", "--config", config, "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err == "error: non-finite loss inf at epoch 1, batch 1\n"


def test_resolved_config_is_the_parsed_flags(tmp_path, capsys):
    data, processed, report = tmp_path / "data", tmp_path / "p.jsonl", tmp_path / "e"
    runs = [
        (("synth", "--count", 6, "--seed", 2, "--out", data, "--mix", "adult=1,car=3"),
         data / "resolved_config.json",
         {"command": "synth", "count": 6, "seed": 2, "out": str(data),
          "mix": {"adult": 1.0, "car": 3.0}, "noise": 0.0, "d_v": 32, "d_t": 32}),
        (("ingest", data / "scenes.json", "--out", processed),
         tmp_path / "p.jsonl.config.json",
         {"command": "ingest", "scenes": str(data / "scenes.json"), "out": str(processed),
          "workers": 1}),
        (("eval", "--data", data, "--out", report, "--gt-as-pred"),
         report / "resolved_config.json",
         {"command": "eval", "checkpoint": None, "data": str(data), "threshold": 0.25,
          "out": str(report), "gt_as_pred": True}),
    ]
    for argv, written, flags in runs:
        assert run_cli(*argv) == 0
        assert json.loads(written.read_text()) == flags


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

    def test_huge_layer_count_refused_before_anything_is_built(self, tmp_path, capsys):
        # refused from the count alone, before the data is read or anything is built
        cfg = train_config(tmp_path, tmp_path / "absent", model={"n_layers": 2**31})
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run_cli("train", "--config", cfg, "--out", tmp_path / "run")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1 and peak < 4 << 20
        assert re.fullmatch(r"error: config\.model: training needs \d+\.\d GiB, more than this "
                            r"machine's \d+\.\d GiB of memory\n", err), err
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

    def test_resolved_config_reruns_the_same_training(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "data", 40, 9)
        first, second = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("train", "--config", train_config(tmp_path, data), "--out", first) == 0
        assert run_cli("train", "--config", first / "resolved_config.json", "--out", second) == 0
        for name in ("checkpoint.bin", "train_log.csv", "resolved_config.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

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
    "header_config_model_config_refuses": (
        _header_edit(lambda c: c.update(n_heads=3)), "header: d_model"
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

    def test_huge_layer_count_in_a_header_is_refused_at_its_weights(self, tmp_path, capsys):
        path = tmp_path / "model.bin"
        save_checkpoint(FusionModel(ModelConfig()), path)
        blob = _header_edit(lambda c: c.update(n_layers=2**31))(path.read_bytes())
        path.write_bytes(blob[: 9 + int.from_bytes(blob[5:9], "little")])  # no weights
        assert path.stat().st_size == 201
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run_cli("eval", "--checkpoint", path, "--data", tmp_path / "absent",
                           "--out", tmp_path / "e")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = param_bytes(ModelConfig(n_layers=2**31))
        assert code == 1 and peak < 4 << 20
        assert capsys.readouterr().err == (
            f"error: {path}: weights: 0 bytes, but the header's shapes need {need}\n")
        assert not (tmp_path / "e").exists()

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

    def test_checkpoint_required_without_gt_as_pred(self, tmp_path, capsys):
        assert run_cli("eval", "--data", tmp_path / "nope", "--out", tmp_path / "e") == 1
        assert capsys.readouterr().err == "error: --checkpoint required unless --gt-as-pred\n"
        assert not (tmp_path / "e").exists()

    def test_gt_as_pred_refuses_a_checkpoint(self, tmp_path, capsys):
        # the oracle reads no checkpoint, so naming one is a mistake, not a no-op
        data = make_dataset(tmp_path, "data", 5, 17)
        capsys.readouterr()
        assert run_cli("eval", "--gt-as-pred", "--checkpoint", tmp_path / "nope.bin",
                       "--data", data, "--out", tmp_path / "e") == 1
        assert capsys.readouterr().err == (
            "error: --gt-as-pred evaluates ground truth and takes no --checkpoint\n")
        assert not (tmp_path / "e").exists()

    def test_missing_data_nonzero(self, tmp_path, capsys):
        assert run_cli("eval", "--data", tmp_path / "nope", "--out", tmp_path / "e",
                       "--gt-as-pred") == 1

    @pytest.mark.parametrize("mode", ["--gt-as-pred", "--checkpoint"])
    def test_dataset_with_no_sample_names_data(self, tmp_path, capsys, mode):
        empty = make_empty_dataset(tmp_path)
        save_checkpoint(FusionModel(ModelConfig()), tmp_path / "model.bin")
        flags = ["--gt-as-pred"] if mode == "--gt-as-pred" else [mode, tmp_path / "model.bin"]
        capsys.readouterr()
        assert run_cli("eval", "--data", empty, "--out", tmp_path / "e", *flags) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --data: no sample in {empty}\n"
        assert captured.out == ""
        assert not (tmp_path / "e").exists()

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


# the header fields that hold a JSON integer
HEADER_INTEGERS = sorted(k for k, v in dataclasses.asdict(ModelConfig()).items() if type(v) is int)
# JSON values by their Python type
JSON_VALUES = {type(None): st.none(), bool: st.booleans(), int: st.integers(-3, 40),
               float: st.floats(-1e3, 1e3), str: st.text(max_size=3),
               list: st.lists(st.integers(0, 9), max_size=2),
               dict: st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=1)}


def _mutated_checkpoint(blob: bytes, draw) -> bytes:
    """A valid checkpoint with its header or bytes broken in one of the ways drawn."""
    hlen = int.from_bytes(blob[5:9], "little")
    header, weights = json.loads(blob[9 : 9 + hlen]), blob[9 + hlen :]
    kind = draw(st.sampled_from(["drop", "retype", "non-finite", "extra", "truncate", "utf-8"]))
    if kind == "truncate":  # as often inside the magic, version, length or header as after
        return blob[: draw(st.integers(0, 8 + hlen) | st.integers(0, len(blob) - 1))]
    if kind == "utf-8":  # 0xff starts no UTF-8 sequence
        at = draw(st.integers(9, 8 + hlen))
        return blob[:at] + b"\xff" + blob[at + 1 :]
    key = draw(st.sampled_from(sorted(header)))
    if kind == "drop":
        del header[key]
    elif kind == "retype":
        other = draw(st.sampled_from([t for t in JSON_VALUES if t is not type(header[key])]))
        header[key] = draw(JSON_VALUES[other])
    elif kind == "non-finite":
        header[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:
        new_key = draw(st.text(max_size=6).filter(lambda k: k not in header))
        header[new_key] = draw(st.one_of(*JSON_VALUES.values()))
    text = json.dumps(header).encode()
    return blob[:5] + len(text).to_bytes(4, "little") + text + weights


class TestMutatedCheckpoint:
    """`eval --checkpoint` of a valid checkpoint with one part broken either
    runs, or ends as one `error:` line that starts with the checkpoint's path
    and writes no `--out`: never a traceback, a warning or a failed allocation."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("checkpoints")
        data = base / "data"
        assert run_cli("synth", "--count", 4, "--seed", 23, "--out", data,
                       "--d-v", 8, "--d-t", 8) == 0
        config = ModelConfig(d_v=8, d_t=8, d_model=16, n_layers=1, n_heads=2, lora_rank=2)
        save_checkpoint(FusionModel(config), base / "model.bin")
        return base, data, (base / "model.bin").read_bytes()

    @staticmethod
    def check(valid, mutate):
        """`eval --checkpoint` of the valid checkpoint's bytes as `mutate` leaves them."""
        base, dataset, blob = valid
        run = Path(tempfile.mkdtemp(dir=base))
        path, out = run / "model.bin", run / "out"
        path.write_bytes(mutate(blob))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = run_cli("eval", "--checkpoint", path, "--data", dataset, "--out", out)
        err = stderr.getvalue()
        assert caught == []
        assert code in (0, 1), err
        if code == 1:
            assert err.count("\n") == 1 and err.startswith(f"error: {path}: "), err
            assert stdout.getvalue() == ""
            assert not out.exists()

    @pytest.mark.parametrize("key", HEADER_INTEGERS)
    @pytest.mark.parametrize("value", [2**31, 10**400], ids=["2**31", "10**400"])
    def test_huge_integer_field(self, valid, key, value):
        self.check(valid, _header_edit(lambda c: c.update({key: value})))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exits_0_or_with_one_error_line_naming_the_checkpoint(self, valid, data):
        self.check(valid, lambda blob: _mutated_checkpoint(blob, data.draw))


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

    def test_both_renderings_byte_for_byte(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({
            **self.VALID, "counts": {"tp": 3, "tn": 0, "fp": 1, "fn": 1},
            "accuracy": 0.6, "precision": 0.75, "recall": 0.75, "f1": 0.75,
            "miou_samples": 0.6927083333333333, "miou_categories": 0.5729166666666666,
            "categories": [{"category": "car", "iou": 0.8125, "count": 3},
                           {"category": "adult", "iou": 0.3333333333333333, "count": 1}],
        }))
        assert run_cli("report", path) == 0
        assert capsys.readouterr().out == (
            "category                iou  count\n"
            "car                  0.8125  3\n"
            "adult                0.3333  1\n"
            "mIoU (categories)    0.5729\n"
            "mIoU (samples)       0.6927\n"
            "accuracy             0.6000\n"
            "precision            0.7500\n"
            "recall               0.7500\n"
            "f1                   0.7500\n"
        )
        assert run_cli("report", path, "--csv") == 0
        assert capsys.readouterr().out == (
            "category,iou,count\n"
            "car,0.812500,3\n"
            "adult,0.333333,1\n"
            "mIoU_categories,0.572917,\n"
            "mIoU_samples,0.692708,\n"
            "accuracy,0.600000,\n"
            "precision,0.750000,\n"
            "recall,0.750000,\n"
            "f1,0.750000,\n"
        )

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
    ({"data": None}, "config.data: must point to a dataset directory"),
    ({"val_fraction": 0.9}, "config.val_fraction: 0.9 leaves no training sample: all 4 of"),
    ({"data": "empty"}, "config.data: no sample in"),
    ({"data": "empty", "val_data": "data"}, "config.data: no sample in"),
    ({"val_data": "empty"}, "config.val_data: no sample in"),
])
def test_bad_config_value_names_its_path_before_writing(tmp_path, capsys, override, path):
    data = make_dataset(tmp_path, "data", 4, 11)
    make_empty_dataset(tmp_path)
    # "data" and "empty" in a case above name the two dataset directories made here
    override = {key: str(tmp_path / v) if key.endswith("data") and v else v
                for key, v in override.items()}
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
    (("--seed", 1, "--noise", 1e308), "--noise 1e+308 drives a visual feature of sample"),
])
def test_bad_synth_flag_names_the_flag_before_writing(tmp_path, capsys, flags, flag):
    assert run_cli("synth", "--count", 4, "--out", tmp_path / "data", *flags) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.count("error:") == 1 and "Traceback" not in err
    assert re.match(rf"error: {re.escape(flag)}\b", err), err
    assert not (tmp_path / "data").exists()


def _apply_defect(defect, scenes, features, draw):
    """Break a valid dataset's two documents in place; the name of a file to
    delete, or None."""
    records, entries = scenes["records"], features["features"]
    rec = draw(st.sampled_from(records))
    if defect == "no records":
        records.clear()
        if draw(st.booleans()):  # else every feature id matches no record
            entries.clear()
    elif defect == "feature entry removed":
        del entries[rec["sample_id"]]
    elif defect == "extra feature entry":
        sid = draw(st.text(min_size=1, max_size=12).filter(lambda t: t not in entries))
        entries[sid] = entries[rec["sample_id"]]
    elif defect == "second annotation":
        rec["annotations"] += draw(st.lists(st.sampled_from(rec["annotations"]), min_size=1,
                                            max_size=2))
    elif defect == "tilted pose":
        half, axis = draw(st.floats(0.005, 0.5)), draw(st.sampled_from([1, 2]))
        rotation = [math.cos(half), 0.0, 0.0, 0.0]
        rotation[axis] = math.sin(half)
        rec[draw(st.sampled_from(["ego_to_global", "lidar_to_ego"]))]["rotation"] = rotation
    elif defect == "two widths":
        entry = entries[rec["sample_id"]][draw(st.sampled_from(["visual", "text"]))]
        if draw(st.booleans()):
            entry.pop()
        else:
            entry.append(draw(st.floats(-1.0, 1.0)))
    else:
        return draw(st.sampled_from(["scenes.json", "features.json"]))
    return None


class TestBadDatasetDirectory:
    """A small valid synth directory with one defect ends, through `train`
    (as `data` or `val_data`), `eval --gt-as-pred` and `eval --checkpoint`, as
    one `error:` line that starts with the flag or config path, the directory
    or one of its two files, and writes no `--out`."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("datasets")
        data = base / "data"
        assert run_cli("synth", "--count", 4, "--seed", 23, "--out", data) == 0
        save_checkpoint(FusionModel(ModelConfig()), base / "model.bin")
        return base, data

    @pytest.mark.parametrize("command", ["train", "eval --gt-as-pred", "eval --checkpoint"])
    @pytest.mark.parametrize("defect", ["no records", "feature entry removed",
                                        "extra feature entry", "second annotation",
                                        "tilted pose", "two widths", "file missing"])
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(data=st.data())
    def test_one_error_line_names_the_dataset(self, valid, command, defect, data):
        base, good = valid
        bad = Path(tempfile.mkdtemp(dir=base))
        docs = {name: json.loads((good / name).read_text())
                for name in ("scenes.json", "features.json")}
        missing = _apply_defect(defect, docs["scenes.json"], docs["features.json"], data.draw)
        for name, doc in docs.items():
            if name != missing:
                (bad / name).write_text(json.dumps(doc))
        out = bad / "out"
        if command == "train":
            slot = data.draw(st.sampled_from(["data", "val_data"]))
            key = f"config.{slot}"
            config = bad / "config.json"
            config.write_text(json.dumps({"data": str(good), slot: str(bad)}))
            argv = ("train", "--config", config, "--out", out)
        else:
            key = "--data"
            mode = ["--gt-as-pred"] if command == "eval --gt-as-pred" else [
                "--checkpoint", base / "model.bin"]
            argv = ("eval", "--data", bad, "--out", out, *mode)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = run_cli(*argv)
        err = stderr.getvalue()
        assert code == 1, err
        assert caught == []
        assert err.count("\n") == 1 and err.count("error:") == 1 and "Traceback" not in err
        names = "|".join(map(re.escape, (key, str(bad))))
        assert re.match(rf"error: ({names})", err), err
        assert stdout.getvalue() == ""
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config.data", "config.val_data", "--data --gt-as-pred",
                                       "--data --checkpoint"])
    def test_a_path_that_is_no_dataset_is_named_with_its_key(self, valid, tmp_path, capsys, where):
        base, good = valid
        nowhere = tmp_path / "nowhere"
        if where.startswith("config."):
            config = tmp_path / "config.json"
            slot = where.removeprefix("config.")
            config.write_text(json.dumps({"data": str(good), slot: str(nowhere)}))
            argv = ("train", "--config", config)
        else:
            mode = ["--gt-as-pred"] if where.endswith("pred") else ["--checkpoint",
                                                                    base / "model.bin"]
            argv = ("eval", "--data", nowhere, *mode)
        capsys.readouterr()
        assert run_cli(*argv, "--out", tmp_path / "out") == 1
        key = where.split()[0]
        assert capsys.readouterr().err == (
            f"error: {key}: {nowhere}: expected scenes.json and features.json\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("slot, name, field, message", [
        ("val_data", "scenes.json", "records[0].annotations[0].box[0]", 'must be a number, got "x"'),
        ("data", "scenes.json", "records[2].sample_id", "must be a non-empty string"),
        ("val_data", "features.json", "features[\"synth-23-000001\"].text",
         "must be a list of numbers"),
    ])
    def test_bad_entry_names_its_file(self, valid, tmp_path, capsys, slot, name, field, message):
        base, good = valid
        bad = tmp_path / "bad"
        bad.mkdir()
        docs = {n: json.loads((good / n).read_text()) for n in ("scenes.json", "features.json")}
        if name == "features.json":
            docs[name]["features"]["synth-23-000001"]["text"] = 1.0
        elif field.endswith("sample_id"):
            docs[name]["records"][2]["sample_id"] = ""
        else:
            docs[name]["records"][0]["annotations"][0]["box"][0] = "x"
        for n, doc in docs.items():
            (bad / n).write_text(json.dumps(doc))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": str(good), slot: str(bad)}))
        capsys.readouterr()
        assert run_cli("train", "--config", config, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: {bad / name}: {field}: {message}\n"
        assert not (tmp_path / "out").exists()


# ---- fuzzed input files --------------------------------------------------------


class _Raw(str):
    """JSON text that `_json_text` writes as it stands."""


def _json_text(value) -> str:
    """json.dumps(value), NaN and Infinity included, with each _Raw written as it stands."""
    if isinstance(value, _Raw):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    return json.dumps(value)


# the schedule's epoch counts train as long as they say: a huge one is a request, not a fault
_EPOCH_KEYS = ("transition_epoch", "total_epochs")
_ANY_JSON = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(-10, 10),
                      st.text(max_size=6), st.just([]), st.just({}))
_BAD_NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 2**31, 2**63, -2**63, 10**400, -1]


def _mutated_json(doc, draw) -> bytes:
    """The bytes of `doc` with one drawn defect: at a node reached by a random
    walk, a key dropped or added, a value retyped, non-finite, huge, negative or
    deeply nested, a key or list entry given twice; or the text truncated, or
    not UTF-8."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        parent, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                 else range(len(node))))
        node = parent[key]
    defect = draw(st.sampled_from(["drop", "add", "retype", "number", "nest", "repeat",
                                   "truncate", "not UTF-8"]))
    value = None
    if defect == "drop" and parent is not None:
        del parent[key]
    elif defect == "add" and isinstance(node, dict):
        node[draw(st.text(max_size=6))] = draw(_ANY_JSON)
    elif defect == "repeat" and isinstance(node, dict) and node:
        k = draw(st.sampled_from(list(node)))
        value = _Raw(_json_text(node)[:-1] + f", {json.dumps(k)}: {_json_text(node[k])}}}")
    elif defect == "repeat" and isinstance(node, list) and node:
        node.append(json.loads(json.dumps(draw(st.sampled_from(node)))))
    elif defect == "number" and key not in _EPOCH_KEYS:
        value = draw(st.sampled_from(_BAD_NUMBERS))
    elif defect == "nest":
        depth = draw(st.sampled_from([2, 60, 100_000]))
        value = _Raw("[" * depth + "]" * depth)
    elif defect in ("drop", "add", "retype", "number", "repeat"):
        value = draw(_ANY_JSON)
    if value is not None:
        if parent is None:
            doc = value
        else:
            parent[key] = value
    blob = _json_text(doc).encode()
    if defect == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if defect == "not UTF-8":
        at = draw(st.integers(0, len(blob)))
        return blob[:at] + b"\xff" + blob[at:]
    return blob


def _no_nan(text: str):
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in {text!r}"))


class TestFuzzedInputFiles:
    """`ingest`, `eval --gt-as-pred`, `eval --checkpoint`, `train` and `report
    [--csv]` on one valid scene, features, train-config or report file with
    one defect either run, or end as one `error:` line that names a file, a
    field, a flag, a record or the epoch and batch at fault; `ingest` gives
    one `rejected: records[<i>]` line per record it refuses instead. Never a
    traceback or a warning, and every config written is JSON without NaN."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("fuzz")
        data = base / "data"
        assert run_cli("synth", "--count", 4, "--seed", 23, "--out", data,
                       "--d-v", 8, "--d-t", 8) == 0
        model = {"d_v": 8, "d_t": 8, "d_model": 8, "n_layers": 1, "n_heads": 2, "lora_rank": 2}
        save_checkpoint(FusionModel(ModelConfig(**model)), base / "model.bin")
        assert run_cli("eval", "--data", data, "--out", base / "eval", "--gt-as-pred") == 0
        docs = {name: json.loads((data / name).read_text())
                for name in ("scenes.json", "features.json")}
        docs["config.json"] = {"seed": 3, "data": str(data), "batch_size": 2, "model": model,
                               "schedule": {"transition_epoch": 1, "total_epochs": 2}}
        docs["report.json"] = json.loads((base / "eval" / "report.json").read_text())
        return base, docs

    COMMANDS = {"scenes.json": ["ingest", "eval --gt-as-pred", "eval --checkpoint", "train"],
                "features.json": ["eval --gt-as-pred", "eval --checkpoint", "train"],
                "config.json": ["train"], "report.json": ["report", "report --csv"]}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exits_0_or_with_one_line_naming_what_is_at_fault(self, valid, data):
        base, docs = valid
        name = data.draw(st.sampled_from(sorted(docs)))
        command = data.draw(st.sampled_from(self.COMMANDS[name]))
        run = Path(tempfile.mkdtemp(dir=base))
        (run / "data").mkdir()
        for n, doc in docs.items():
            target = run / "data" / n if n in ("scenes.json", "features.json") else run / n
            if n == "config.json":
                doc = {**doc, "data": str(run / "data")}
            target.write_bytes(_mutated_json(doc, data.draw) if n == name else
                               json.dumps(doc).encode())
        out = run / "out"
        argv = {"ingest": ("ingest", run / "data" / "scenes.json", "--out", out),
                "eval --gt-as-pred": ("eval", "--data", run / "data", "--out", out,
                                      "--gt-as-pred"),
                "eval --checkpoint": ("eval", "--data", run / "data", "--out", out,
                                      "--checkpoint", base / "model.bin"),
                "train": ("train", "--config", run / "config.json", "--out", out),
                "report": ("report", run / "report.json"),
                "report --csv": ("report", run / "report.json", "--csv")}[command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = run_cli(*argv)
        err = stderr.getvalue()
        assert caught == []
        assert code in (0, 1), err
        lines = err.splitlines()
        # ingest names each record it refuses first; its summary goes to stdout
        rejected = [line for line in lines if re.match(r"rejected: records\[\d+\]", line)]
        assert lines[:len(rejected)] == rejected, err
        lines = lines[len(rejected):]
        if code == 0:
            assert lines == rejected == [], err
        elif lines or not rejected:
            assert len(lines) == 1, err
            named = "|".join(map(re.escape, (str(run), "config", "report", "--", "checkpoint ",
                                                  "record ")))
            assert re.match(rf"error: ({named}|non-finite|overflow|a predicted box)",
                            lines[0]), err
        for written in [*out.parent.glob("out*.config.json"), *out.glob("resolved_config.json")]:
            _no_nan(written.read_text())
        if command == "ingest" and out.exists():
            for line in out.read_text().splitlines():
                _no_nan(line)
