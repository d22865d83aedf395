import json
import math

import numpy as np
import pytest

from minidet3d.data import (
    Annotation,
    CameraBlock,
    SceneRecord,
    SynthConfig,
    category_embedding,
    decode_visual,
    emit,
    encode_visual,
    filter_visible,
    global_to_lidar_pose,
    ingest,
    ingest_lenient,
    load_features,
    process_record,
    processed_to_json,
    save_features,
    synth_scenes,
    to_lidar_frame,
)
from minidet3d.errors import ParseError, SchemaVersionMismatch
from minidet3d.geom import Box7, CameraIntrinsics, Pose, quat_from_matrix, quat_from_yaw

# camera axes (x right, y down, z forward) of a camera looking along ego +x
FRONT_CAM_ROTATION = quat_from_matrix(
    np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
)


def front_camera(width=1600, height=900):
    return CameraBlock(
        name="front",
        intrinsics=CameraIntrinsics(fx=1000.0, fy=1000.0, cx=800.0, cy=450.0,
                                    width=width, height=height),
        sensor_to_ego=Pose((0.0, 0.0, 0.0), FRONT_CAM_ROTATION),
    )


def make_record(annotations=(), ego=Pose.identity(), lidar=Pose.identity(), cameras=None):
    return SceneRecord(
        sample_id="fixture-0",
        ego_to_global=ego,
        lidar_to_ego=lidar,
        cameras=cameras if cameras is not None else (front_camera(),),
        annotations=tuple(annotations),
    )


class TestIngest:
    def test_roundtrip(self, tmp_path):
        records, _ = synth_scenes(25, {"adult": 0.5, "car": 0.5}, seed=3)
        path = tmp_path / "scenes.json"
        emit(records, path)
        assert ingest(path) == records

    def test_empty_annotations_valid(self, tmp_path):
        rec = make_record(annotations=())
        path = tmp_path / "scenes.json"
        emit([rec], path)
        (loaded,) = ingest(path)
        assert loaded.annotations == ()

    def test_non_unit_quaternion_names_field(self, tmp_path):
        rec = make_record(annotations=(Annotation("car", Box7(1, 0, 0, 4, 2, 2, 0)),))
        doc = json.loads((_emitted(tmp_path, [rec])).read_text())
        doc["records"][0]["ego_to_global"]["rotation"] = [0.9, 0.1, 0.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as err:
            ingest(bad)
        assert "records[0].ego_to_global.rotation" in str(err.value)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps({"schema_version": 99, "records": []}))
        with pytest.raises(SchemaVersionMismatch):
            ingest(path)

    def test_unknown_keys_rejected(self, tmp_path):
        rec = make_record()
        doc = json.loads(_emitted(tmp_path, [rec]).read_text())
        doc["records"][0]["extra_field"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="extra_field"):
            ingest(bad)

    def test_lenient_mode_is_total(self, tmp_path):
        records, _ = synth_scenes(4, {"car": 1.0}, seed=9)
        doc = {"schema_version": 1, "records": [r for r in json.loads(_emitted(tmp_path, records).read_text())["records"]]}
        doc["records"][1]["lidar_to_ego"]["rotation"] = [2.0, 0.0, 0.0, 0.0]
        doc["records"][3]["annotations"] = [{"category": "", "box": [0, 0, 0, 1, 1, 1, 0]}]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        accepted, diagnostics = ingest_lenient(path)
        assert len(accepted) + len(diagnostics) == 4
        assert len(diagnostics) == 2
        assert "records[1].lidar_to_ego.rotation" in str(diagnostics[0])

    def test_duplicate_camera_rejected(self, tmp_path):
        rec = make_record()
        doc = json.loads(_emitted(tmp_path, [rec]).read_text())
        doc["records"][0]["cameras"].append(doc["records"][0]["cameras"][0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="duplicate camera"):
            ingest(bad)


def _emitted(tmp_path, records):
    path = tmp_path / "emitted.json"
    emit(records, path)
    return path


class TestToLidarFrame:
    def test_identity_poses_leave_box(self):
        box = Box7(3, 4, 0.5, 4, 2, 1.5, 0.3)
        rec = make_record(annotations=(Annotation("car", box),))
        (ann,) = to_lidar_frame(rec)
        assert ann.box == box

    def test_pure_translation(self):
        rec = make_record(
            annotations=(Annotation("car", Box7(101, 0, 0, 4, 2, 2, 0)),),
            ego=Pose((100.0, 0.0, 0.0)),
        )
        (ann,) = to_lidar_frame(rec)
        assert np.allclose([ann.box.x, ann.box.y, ann.box.z], [1, 0, 0], atol=1e-12)

    def test_yawed_ego_corner_oracle(self):
        from minidet3d.geom import box_corners

        ego = Pose((10.0, -4.0, 0.0), quat_from_yaw(math.pi / 2))
        lidar = Pose((0.9, 0.0, 1.8))
        box_global = Box7(12, 3, 1, 4, 2, 1.5, 1.1)
        rec = make_record(annotations=(Annotation("car", box_global),), ego=ego, lidar=lidar)
        (ann,) = to_lidar_frame(rec)
        onto_lidar = global_to_lidar_pose(rec)
        assert np.allclose(
            box_corners(ann.box), onto_lidar.apply(box_corners(box_global)), atol=1e-9
        )

    def test_roundtrip_and_volume(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            box = Box7(*rng.uniform(-50, 50, 3), *rng.uniform(0.5, 4, 3), rng.uniform(-3, 3))
            ego = Pose(tuple(rng.uniform(-100, 100, 3)), quat_from_yaw(rng.uniform(-3, 3)))
            lidar = Pose(tuple(rng.uniform(-2, 2, 3)), quat_from_yaw(rng.uniform(-3, 3)))
            rec = make_record(annotations=(Annotation("car", box),), ego=ego, lidar=lidar)
            (ann,) = to_lidar_frame(rec)
            back = global_to_lidar_pose(rec).inverse()
            from minidet3d.geom import transform_box

            recovered = transform_box(ann.box, back)
            assert np.allclose(recovered.params(), box.params(), atol=1e-9)
            assert ann.box.volume == pytest.approx(box.volume, abs=1e-9)


class TestFilterVisible:
    def test_box_ahead_fully_visible(self):
        box = Box7(10, 0, 0, 1, 1, 1, 0)
        rec = make_record(annotations=(Annotation("car", box),))
        sample = filter_visible(to_lidar_frame(rec), rec)
        (ann,) = sample.annotations
        assert ann.retained
        assert sum(c.visible for c in ann.projections["front"]) == 8

    def test_box_behind_camera_dropped(self):
        box = Box7(-10, 0, 0, 1, 1, 1, 0)
        rec = make_record(annotations=(Annotation("car", box),))
        sample = filter_visible(to_lidar_frame(rec), rec)
        (ann,) = sample.annotations
        assert not ann.retained
        assert all(not c.visible for c in ann.projections["front"])

    def test_box_straddling_image_edge_partially_visible(self):
        # lateral offset near the 8 m field edge at 10 m depth
        box = Box7(10, 7.8, 0, 1, 1, 1, 0)
        rec = make_record(annotations=(Annotation("car", box),))
        sample = filter_visible(to_lidar_frame(rec), rec)
        (ann,) = sample.annotations
        visible = sum(c.visible for c in ann.projections["front"])
        assert ann.retained
        assert 0 < visible < 8

    def test_geometry_never_mutated(self):
        box = Box7(10, 0, 0, 1, 1, 1, 0.4)
        rec = make_record(annotations=(Annotation("car", box),))
        anns = to_lidar_frame(rec)
        sample = filter_visible(anns, rec)
        assert sample.annotations[0].box == anns[0].box

    def test_processed_json_shape(self):
        rec = make_record(annotations=(Annotation("car", Box7(10, 0, 0, 1, 1, 1, 0)),))
        payload = processed_to_json(process_record(rec))
        assert payload["sample_id"] == "fixture-0"
        (ann,) = payload["annotations"]
        assert ann["retained"] is True
        assert len(ann["projections"]["front"]) == 8
        u, v, visible = ann["projections"]["front"][0]
        assert isinstance(u, float) and isinstance(visible, bool)
        json.dumps(payload)  # serializable


class TestSynth:
    MIX = {"adult": 0.5, "car": 0.5}

    def test_deterministic(self):
        r1, f1 = synth_scenes(20, self.MIX, seed=77)
        r2, f2 = synth_scenes(20, self.MIX, seed=77)
        assert r1 == r2
        for a, b in zip(f1, f2):
            assert a.sample_id == b.sample_id
            assert np.array_equal(a.visual, b.visual)
            assert np.array_equal(a.text, b.text)

    def test_zero_noise_features_invert_to_box(self):
        records, features = synth_scenes(30, self.MIX, seed=5)
        for rec, feat in zip(records, features):
            (ann,) = to_lidar_frame(rec)
            recovered = decode_visual(feat.visual)
            assert np.allclose(recovered, ann.box.params(), atol=1e-9)

    def test_noise_breaks_exact_inversion(self):
        _, clean = synth_scenes(5, self.MIX, seed=6)
        _, noisy = synth_scenes(5, self.MIX, seed=6, config=SynthConfig(noise_std=0.1))
        assert not np.allclose(clean[0].visual, noisy[0].visual)

    def test_category_frequencies(self):
        records, _ = synth_scenes(1000, self.MIX, seed=8)
        adult = sum(1 for r in records if r.annotations[0].category == "adult")
        assert abs(adult / 1000 - 0.5) < 0.05

    def test_text_embedding_is_category_indexed(self):
        _, features = synth_scenes(50, self.MIX, seed=9)
        records, _ = synth_scenes(50, self.MIX, seed=9)
        by_cat = {}
        for rec, feat in zip(records, features):
            cat = rec.annotations[0].category
            if cat in by_cat:
                assert np.array_equal(by_cat[cat], feat.text)
            by_cat[cat] = feat.text
        assert len(by_cat) == 2

    def test_embeddings_shared_across_seeds(self):
        assert np.array_equal(category_embedding("car", 32), category_embedding("car", 32))
        _, f1 = synth_scenes(5, {"car": 1.0}, seed=1)
        _, f2 = synth_scenes(5, {"car": 1.0}, seed=2)
        assert np.array_equal(f1[0].text, f2[0].text)

    def test_boxes_mostly_retained_by_ring(self):
        records, _ = synth_scenes(100, self.MIX, seed=10)
        retained = 0
        for rec in records:
            (ann,) = process_record(rec).annotations
            if ann.retained:
                retained += 1
                # retention implies a visible corner somewhere
                assert any(c.visible for corners in ann.projections.values() for c in corners)
        assert retained >= 95

    def test_features_file_roundtrip(self, tmp_path):
        _, features = synth_scenes(8, self.MIX, seed=11)
        path = tmp_path / "features.json"
        save_features(features, path)
        loaded = load_features(path)
        for f in features:
            assert np.array_equal(loaded[f.sample_id].visual, f.visual)
            assert np.array_equal(loaded[f.sample_id].text, f.text)

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda doc: doc.pop("features"), "features"),
            (lambda doc: doc.update(features=[]), "features"),
            (lambda doc: doc["features"].update(s1=[1.0]), 'features["s1"]'),
            (lambda doc: doc["features"]["s1"].pop("visual"), 'features["s1"].visual'),
            (lambda doc: doc["features"]["s1"].update(text="x"), 'features["s1"].text'),
            (lambda doc: doc["features"]["s1"].update(text=["1.5", "2"]), 'features["s1"].text'),
            (lambda doc: doc["features"]["s1"].update(text=[True, False]), 'features["s1"].text'),
            (lambda doc: doc["features"]["s1"].update(text=[[1.0], [2.0]]), 'features["s1"].text'),
            (lambda doc: doc["features"]["s1"].update(text=[[1.0], 2.0]), 'features["s1"].text'),
            (lambda doc: doc["features"]["s1"].update(visual=[1.0, float("nan")]),
             'features["s1"].visual'),
            (lambda doc: doc["features"]["s1"].update(text=[float("inf"), 0.0, 0.0]),
             'features["s1"].text'),
            (lambda doc: doc["features"]["s1"].update(visual=[1.0]), 'features["s1"].visual'),
        ],
        ids=["no-features", "features-not-object", "entry-not-object", "missing-key",
             "string", "string-elements", "bool-elements", "2-d", "ragged", "nan", "inf",
             "other-width"],
    )
    def test_malformed_features_file_names_the_field(self, tmp_path, mutate, field):
        doc = {
            "schema_version": 1,
            "features": {
                "s0": {"visual": [0.0, 1.0], "text": [2.0, 3.0, 4.0]},
                "s1": {"visual": [5.0, 6.0], "text": [7.0, 8.0, 9.0]},
            },
        }
        path = tmp_path / "features.json"
        path.write_text(json.dumps(doc))
        assert load_features(path)["s1"].text.tolist() == [7.0, 8.0, 9.0]
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            load_features(path)
        assert exc.value.field == field

    def test_features_file_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "features.json"
        for text in ("[1, 2]", "{not json"):
            path.write_text(text)
            with pytest.raises(ParseError) as exc:
                load_features(path)
            assert exc.value.field == "<file>"

    def test_encode_requires_room_for_params(self):
        with pytest.raises(ValueError):
            encode_visual(np.zeros(7), d_v=5)
