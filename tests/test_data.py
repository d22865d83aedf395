import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from minidet3d.data import (
    CAMERA_NAMES,
    Annotation,
    CameraBlock,
    FeaturePair,
    SceneRecord,
    SynthConfig,
    _CAMERA_AXES,
    _ENCODER_SEED,
    _encoder_matrix,
    _ring_cameras,
    category_embedding,
    emit,
    encode_visual,
    filter_visible,
    for_record,
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
from minidet3d.errors import GimbalRisk, MiniDetError, ParseError, check_json_value
from minidet3d.geom import (
    Box7,
    CameraIntrinsics,
    Pose,
    project_corners,
    quat_from_yaw,
    quat_to_matrix,
)
from minidet3d.train import build_training_samples
from oracles import (
    ReferencePose,
    decode_visual,
    record_to_json,
    reference_emit,
    reference_process_record,
    reference_project_corners,
    reference_synth_scenes,
    volume,
)


def front_camera(width=1600, height=900):
    return CameraBlock(
        name="front",
        intrinsics=CameraIntrinsics(fx=1000.0, fy=1000.0, cx=800.0, cy=450.0,
                                    width=width, height=height),
        sensor_to_ego=Pose((0.0, 0.0, 0.0), _CAMERA_AXES),
    )


IDENTITY = Pose((0.0, 0.0, 0.0))


def make_record(annotations=(), ego=IDENTITY, lidar=IDENTITY, cameras=None):
    return SceneRecord(
        sample_id="fixture-0",
        ego_to_global=ego,
        lidar_to_ego=lidar,
        cameras=cameras if cameras is not None else (front_camera(),),
        annotations=tuple(annotations),
    )


HUGE = 10**400  # json.dumps writes every digit; no float holds it
TOO_LARGE = "must be a finite number, got an integer of 401 digits"
# (path inside a record, value put there, the field named, the message)
BAD_NUMBERS = [
    (("annotations", 0, "box", 2), HUGE, "annotations[0].box[2]", TOO_LARGE),
    (("ego_to_global", "translation", 1), HUGE, "ego_to_global.translation[1]", TOO_LARGE),
    (("cameras", 0, "intrinsics", "fx"), HUGE, "cameras[0].intrinsics.fx", TOO_LARGE),
    (("lidar_to_ego", "rotation", 0), HUGE, "lidar_to_ego.rotation[0]", TOO_LARGE),
    (("lidar_to_ego", "translation", 0), float("nan"), "lidar_to_ego.translation[0]",
     "must be a finite number, got NaN"),
    (("cameras", 0, "intrinsics", "fy"), float("inf"), "cameras[0].intrinsics.fy",
     "must be a finite number, got Infinity"),
    # values that float() and int() accept but that are not JSON numbers
    (("annotations", 0, "box", 1), "1.5", "annotations[0].box[1]", 'must be a number, got "1.5"'),
    (("annotations", 0, "box", 4), True, "annotations[0].box[4]", "must be a number, got true"),
    (("cameras", 0, "intrinsics", "fx"), "1000", "cameras[0].intrinsics.fx",
     'must be a number, got "1000"'),
    (("cameras", 0, "intrinsics", "width"), 1600.9, "cameras[0].intrinsics.width",
     "must be an integer, got 1600.9"),
    (("ego_to_global", "translation", 0), "12", "ego_to_global.translation[0]",
     'must be a number, got "12"'),
]


def with_value(doc, path, value):
    """`doc` with the element at `path` (a key/index sequence) set to `value`."""
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


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

    @pytest.mark.parametrize("load, body", [(ingest, {"records": []}),
                                            (load_features, {"features": {}})],
                             ids=["scenes", "features"])
    @pytest.mark.parametrize("version, shown", [(99, "99"), ("1", '"1"'), (None, "null"),
                                                (True, "true"), (1.0, "1.0")])
    def test_schema_version_mismatch_names_file_and_field(self, tmp_path, load, body,
                                                           version, shown):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"schema_version": version, **body}))
        with pytest.raises(ParseError) as exc:
            load(path)
        assert exc.value.field == f"{path}.schema_version"
        assert str(exc.value) == f"{path}.schema_version: must be 1, got {shown}"

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

    @pytest.mark.parametrize("path, value, field, message", BAD_NUMBERS,
                             ids=[f"{field}={type(value).__name__}"
                                  for _, value, field, _ in BAD_NUMBERS])
    def test_bad_number_rejects_exactly_its_record(self, tmp_path, path, value, field, message):
        records, _ = synth_scenes(3, {"car": 1.0}, seed=9)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_value(json.loads(_emitted(tmp_path, records).read_text()),
                                             ("records", 1) + path, value)))
        accepted, diagnostics = ingest_lenient(bad)
        assert accepted == [records[0], records[2]]
        assert [(d.field, str(d)) for d in diagnostics] == [
            (f"records[1].{field}", f"records[1].{field}: {message}")]


    @pytest.mark.parametrize("size", [1e-110, 1e110])
    def test_box_whose_volume_underflows_or_overflows_rejects_exactly_its_record(self, tmp_path,
                                                                                  size):
        records, _ = synth_scenes(3, {"car": 1.0}, seed=9)
        doc = json.loads(_emitted(tmp_path, records).read_text())
        doc["records"][1]["annotations"][0]["box"][3:6] = [size] * 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        accepted, diagnostics = ingest_lenient(bad)
        assert accepted == [records[0], records[2]]
        assert [(d.field, str(d)) for d in diagnostics] == [(
            "records[1].annotations[0].box",
            "records[1].annotations[0].box: Box7 sizes must give a positive, finite volume, "
            f"got l={size}, w={size}, h={size}")]

    @pytest.mark.parametrize("path, value, field, message", [
        (("ego_to_global", "translation"), [1.0, 2.0], "ego_to_global.translation",
         "must be a 3-list"),
        (("lidar_to_ego", "rotation"), [1.0, 0.0, 0.0], "lidar_to_ego.rotation",
         "must be a 4-list [w,x,y,z]"),
        (("sample_id",), "", "sample_id", "must be a non-empty string"),
        (("cameras", 0, "name"), "top", "cameras[0].name", "unknown camera 'top'"),
        (("annotations", 0, "box"), [0.0] * 6, "annotations[0].box",
         "must be a 7-list [x,y,z,l,w,h,yaw]"),
    ], ids=["translation", "rotation", "sample_id", "camera", "box"])
    def test_malformed_record_field_names_it(self, tmp_path, path, value, field, message):
        records, _ = synth_scenes(1, {"car": 1.0}, seed=9)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_value(json.loads(_emitted(tmp_path, records).read_text()),
                                             ("records", 0) + path, value)))
        accepted, diagnostics = ingest_lenient(bad)
        assert accepted == []
        assert [(d.field, str(d)) for d in diagnostics] == [
            (f"records[0].{field}", f"records[0].{field}: {message}")]

    def test_records_that_is_not_a_list_names_the_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "records": 5}))
        with pytest.raises(ParseError) as exc:
            ingest_lenient(bad)
        assert str(exc.value) == f"{bad}.records: must be a list"

    @pytest.mark.parametrize("key", ["cameras", "annotations"])
    @pytest.mark.parametrize("value", [5, None, 1.5])
    def test_record_list_that_is_not_a_list_names_its_field(self, tmp_path, key, value):
        records, _ = synth_scenes(3, {"car": 1.0}, seed=9)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_value(json.loads(_emitted(tmp_path, records).read_text()),
                                             ("records", 1, key), value)))
        accepted, diagnostics = ingest_lenient(bad)
        assert accepted == [records[0], records[2]]
        assert [str(d) for d in diagnostics] == [f"records[1].{key}: must be a list"]


def _emitted(tmp_path, records):
    path = tmp_path / "emitted.json"
    emit(records, path)
    return path


def _numeric_leaves(value, path, field):
    """(key path, field name) of every JSON number inside `value`."""
    if isinstance(value, dict):
        children = [(key, f"{field}.{key}") for key in value]
    elif isinstance(value, list):
        children = [(i, f"{field}[{i}]") for i in range(len(value))]
    else:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return [(path, field)] if number else []
    return [leaf for key, name in children
            for leaf in _numeric_leaves(value[key], path + (key,), name)]


HUGE_INTEGERS = st.integers(10**399, 10**400 - 1) | st.integers(-(10**400 - 1), -(10**399))
NOT_A_NUMBER = st.one_of(
    st.text(max_size=4), st.floats().map(repr), st.booleans(), st.none(), st.just({}),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=2),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]), HUGE_INTEGERS,
)
NOT_AN_INTEGER = NOT_A_NUMBER | st.floats(1.0, 1e4).filter(lambda v: not v.is_integer())


class TestParserFuzz:
    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        """Three synth records, their scene document, and every numeric leaf in it."""
        records, _ = synth_scenes(3, {"adult": 0.5, "car": 0.5}, seed=31)
        doc = json.loads(_emitted(tmp_path_factory.mktemp("fuzz"), records).read_text())
        leaves = _numeric_leaves(doc["records"], ("records",), "records")
        assert len(leaves) == 3 * (7 + 2 * 7 + 6 * (6 + 7))
        return records, doc, leaves, tmp_path_factory.mktemp("fuzzed") / "scenes.json"

    @settings(derandomize=True, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_a_leaf_that_is_not_a_json_number_rejects_exactly_its_record(self, valid, data):
        records, doc, leaves, path = valid
        leaf, field = data.draw(st.sampled_from(leaves))
        integer = field.endswith((".width", ".height"))
        value = data.draw(NOT_AN_INTEGER if integer else NOT_A_NUMBER)
        path.write_text(json.dumps(with_value(json.loads(json.dumps(doc)), leaf, value)))
        accepted, diagnostics = ingest_lenient(path)
        bad = leaf[1]
        assert accepted == records[:bad] + records[bad + 1:]
        assert [(type(d), d.field) for d in diagnostics] == [(ParseError, field)]
        assert str(diagnostics[0]).startswith(
            f"{field}: must be {'an integer' if integer else 'a'}")


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
            assert volume(ann.box) == pytest.approx(volume(box), abs=1e-9)


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


class TestConstructorsRefuse:
    def test_synth_without_records_or_categories(self):
        with pytest.raises(ValueError, match=r"^count must be >= 1, got 0$"):
            synth_scenes(0, {"car": 1.0}, seed=0)
        with pytest.raises(ValueError, match="^category_mix must name at least one category$"):
            synth_scenes(5, {}, 0)

    def test_empty_category(self):
        with pytest.raises(ValueError, match="^category must be non-empty$"):
            Annotation("", Box7(0, 0, 0, 1, 1, 1, 0))

    def test_unknown_camera_name(self):
        with pytest.raises(ValueError, match="^unknown camera name 'top'$"):
            dataclasses.replace(front_camera(), name="top")

    def test_repeated_camera_name(self):
        with pytest.raises(ValueError, match=r"^duplicate camera names: \['front', 'front'\]$"):
            make_record(cameras=(front_camera(), front_camera(width=800)))


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

    @pytest.mark.parametrize("config", [
        SynthConfig(),
        SynthConfig(d_v=16, d_t=8, noise_std=0.05),
        SynthConfig(d_v=7, d_t=3, noise_std=3.0),
    ], ids=["default", "noise-0.05", "noise-3"])
    @pytest.mark.parametrize("mix", [
        {"adult": 0.5, "car": 0.5},
        {"adult": 0.0, "car": 1.0, "truck": 0.0, "bicycle": 2.0},  # zero weights first and last
        {"car": 1e-9, "adult": 1.0, "bicycle": 1.0},
        {"trafficcone": 1.0},
        {"adult": 3, "car": 7, "truck": 11, "bicycle": 5, "pram": 2},  # unnormalized, unsized
    ], ids=["even", "zero-weights", "tiny-weight", "one-category", "unnormalized"])
    def test_one_draw_per_record_equals_the_per_field_calls(self, mix, config):
        # one Generator.random(11) block per record must give the values and
        # stream of one choice and one uniform call per field
        for seed in (0, 5):
            records, features = synth_scenes(100, mix, seed, config)
            ref_records, ref_features = reference_synth_scenes(100, mix, seed, config)
            assert records == ref_records
            for f, ref in zip(features, ref_features, strict=True):
                assert f.sample_id == ref.sample_id
                assert f.visual.tobytes() == ref.visual.tobytes()
                assert f.text.tobytes() == ref.text.tobytes()

    def test_ring_cameras_look_out_level_along_their_mounts(self):
        # a nuScenes-like ring: each camera looks out along its mount's yaw,
        # image rows running down, 1.5 m from the ego origin at 1.6 m height
        mounts = {"front": 0, "front-right": -55, "front-left": 55,
                  "back": 180, "back-left": 110, "back-right": -110}
        cams = _ring_cameras()
        assert tuple(cam.name for cam in cams) == CAMERA_NAMES == tuple(mounts)
        for cam in cams:
            yaw = math.radians(mounts[cam.name])
            c, s = math.cos(yaw), math.sin(yaw)
            pose = cam.sensor_to_ego
            R = quat_to_matrix(pose.rotation)
            for got, want in ((R[:, 2], (c, s, 0.0)), (R[:, 1], (0.0, 0.0, -1.0)),
                              (pose.translation, (1.5 * c, 1.5 * s, 1.6))):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=cam.name)

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
            (lambda doc: doc.pop("features"), "{path}.features"),
            (lambda doc: doc.update(features=[]), "{path}.features"),
            (lambda doc: doc["features"].update(s1=[1.0]), 'features["s1"]'),
            (lambda doc: doc["features"]["s1"].pop("visual"), 'features["s1"].visual'),
            (lambda doc: doc["features"]["s1"].update(text="x"), 'features["s1"].text'),
            (lambda doc: doc["features"]["s1"].update(text=["1.5", "2"]), 'features["s1"].text[0]'),
            (lambda doc: doc["features"]["s1"].update(text=[True, False]), 'features["s1"].text[0]'),
            (lambda doc: doc["features"]["s1"].update(text=[7.0, True, 0.25]),
             'features["s1"].text[1]'),
            (lambda doc: doc["features"]["s1"].update(visual=[5.0, False]),
             'features["s1"].visual[1]'),
            (lambda doc: doc["features"]["s1"].update(text=[7, 8, True]), 'features["s1"].text[2]'),
            (lambda doc: doc["features"]["s1"].update(text=[[1.0], [2.0]]), 'features["s1"].text[0]'),
            (lambda doc: doc["features"]["s1"].update(text=[[1.0], 2.0]), 'features["s1"].text[0]'),
            (lambda doc: doc["features"]["s1"].update(visual=[1.0, float("nan")]),
             'features["s1"].visual[1]'),
            (lambda doc: doc["features"]["s1"].update(text=[float("inf"), 0.0, 0.0]),
             'features["s1"].text[0]'),
            (lambda doc: doc["features"]["s1"].update(text=[1.0, 10**400, 0.0]),
             'features["s1"].text[1]'),
            (lambda doc: doc["features"]["s1"].update(visual=[1.0]), 'features["s1"].visual'),
        ],
        ids=["no-features", "features-not-object", "entry-not-object", "missing-key",
             "string", "string-elements", "bool-elements", "true-among-floats",
             "false-among-floats", "true-among-ints", "2-d", "ragged", "nan", "inf",
             "int-beyond-float-range", "other-width"],
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
        assert exc.value.field == field.format(path=path)

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"schema_version": 1, "schema_version": 1, "features": {}}', "{path}.schema_version"),
            ('{"schema_version": 1, "features": {}, "features": {}}', "{path}.features"),
            ('{"schema_version": 1, "features": {"s0": {S0}, "s0": {S0}}}', 'features["s0"]'),
            ('{"schema_version": 1, "features": {"s0": {S0}, "s1": {S0}, "s0": {S1}}}',
             'features["s0"]'),
            ('{"schema_version": 1, "features": {"s0": {"visual": [0.0], "visual": [1.0], '
             '"text": [2.0]}}}', 'features["s0"].visual'),
            ('{"schema_version": 1, "features": {"s0": {S0}, "s1": {"visual": [0.0], '
             '"text": [1.0], "text": [2.0]}}}', 'features["s1"].text'),
        ],
        ids=["schema-version", "features", "sample-id", "sample-id-apart", "visual", "text"],
    )
    def test_a_repeated_key_names_its_object(self, tmp_path, text, field):
        # json.loads alone keeps a repeated key's last value: such a file must not load
        path = tmp_path / "features.json"
        path.write_text(text.replace("{S0}", '{"visual": [0.0], "text": [1.0]}')
                        .replace("{S1}", '{"visual": [2.0], "text": [3.0]}'))
        with pytest.raises(ParseError) as exc:
            load_features(path)
        assert exc.value.field == field.format(path=path)
        assert str(exc.value).endswith("is given more than once")

    def test_features_file_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "features.json"
        for text in ("[1, 2]", "{not json"):
            path.write_text(text)
            with pytest.raises(ParseError) as exc:
                load_features(path)
            assert exc.value.field == str(path)

    def test_encode_requires_room_for_params(self):
        with pytest.raises(ValueError):
            encode_visual(np.zeros(7), d_v=5)

    @pytest.mark.parametrize("d", [7, 8, 32, 64])
    def test_encoder_matrix_is_one_read_only_draw_per_width(self, d):
        M = _encoder_matrix(d)
        assert _encoder_matrix(d) is M and not M.flags.writeable
        fresh = np.random.default_rng(_ENCODER_SEED).normal(0.0, 1.0, size=(max(d - 7, 0), 7))
        assert M.shape == fresh.shape and M.tobytes() == fresh.tobytes()

    def test_synth_at_two_widths_in_one_process_uses_each_widths_encoding(self):
        mix = {"adult": 1.0, "car": 1.0, "trafficcone": 1.0, "bicycle": 1.0}
        for d_v, d_t in ((32, 32), (16, 8)):
            records, features = synth_scenes(40, mix, seed=33, config=SynthConfig(d_v, d_t))
            M = np.random.default_rng(_ENCODER_SEED).normal(0.0, 1.0, size=(d_v - 7, 7))
            for rec, f in zip(records, features):
                assert f.visual.shape == (d_v,)
                assert f.visual[7:].tobytes() == np.tanh(M @ f.visual[:7]).tobytes()
                fresh = category_embedding(rec.annotations[0].category, d_t)
                assert f.text.tobytes() == fresh.tobytes()

    def test_records_of_one_category_hold_their_own_text(self):
        _, (a, b) = synth_scenes(2, {"car": 1.0}, seed=3)
        assert a.text.flags.writeable and b.text.flags.writeable
        assert not np.shares_memory(a.text, b.text)
        a.text[0] += 1.0
        assert b.text.tobytes() == category_embedding("car", 32).tobytes()

    @pytest.mark.parametrize("field, value", [
        ("d_v", 6), ("d_t", 0), ("noise_std", math.nan), ("noise_std", math.inf),
        ("noise_std", -0.1),
    ])
    def test_config_out_of_range_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_mix_weight_names_its_category(self, weight):
        with pytest.raises(ValueError, match="category weight of 'car' must be finite"):
            synth_scenes(4, {"adult": 1.0, "car": weight}, seed=1)

    def test_empty_category_name_rejected_before_drawing(self):
        with pytest.raises(ValueError, match="^category names must be non-empty$"):
            synth_scenes(4, {"": 1.0, "car": 1.0}, seed=1)


def _perturbed(q, rng):
    """q scaled so that its norm lies 1e-12 to 1e-9 from 1, either side."""
    scale = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.9, -9.1)
    return tuple(c * scale for c in q)


def _random_quat(rng):
    q = rng.normal(size=4)
    return tuple((q / np.linalg.norm(q)).tolist())


def _raw_records(count, rng):
    """Raw pose inputs of random records: camera rigs of random size and
    orientation, boxes within 15 m of the ego (so corners fall behind
    cameras and outside images), and half of the quaternions off unit norm
    by 1e-12 to 1e-9. One ego in fifty tilts, which transform_box rejects."""
    raws = []
    for i in range(count):
        yaw_q = quat_from_yaw(rng.uniform(-math.pi, math.pi))
        if rng.random() < 0.02:
            ego_q = _random_quat(rng)
        else:
            ego_q = _perturbed(yaw_q, rng) if rng.random() < 0.5 else yaw_q
        ego_t = tuple(rng.uniform(-1000, 1000, size=3).tolist())
        lidar_q = quat_from_yaw(rng.uniform(-0.3, 0.3))
        lidar_q = _perturbed(lidar_q, rng) if rng.random() < 0.5 else lidar_q
        lidar_t = tuple(rng.uniform(-2, 2, size=3).tolist())
        names = rng.choice(CAMERA_NAMES, size=int(rng.integers(1, 7)), replace=False)
        cameras = []
        for name in names:
            q = _random_quat(rng)
            width, height = (int(v) for v in rng.integers(100, 2000, size=2))
            intr = CameraIntrinsics(fx=rng.uniform(200, 2000), fy=rng.uniform(200, 2000),
                                    cx=rng.uniform(0, width), cy=rng.uniform(0, height),
                                    width=width, height=height)
            cameras.append((str(name), intr, tuple(rng.uniform(-2, 2, size=3).tolist()),
                            _perturbed(q, rng) if rng.random() < 0.5 else q))
        boxes = []
        for _ in range(int(rng.integers(1, 5))):
            offset = rng.uniform(-15, 15, size=3)
            offset[2] = rng.uniform(-2, 2)
            boxes.append(Box7(*(np.array(ego_t) + offset), *rng.uniform(0.3, 5, size=3),
                              rng.uniform(-math.pi, math.pi)))
        raws.append((f"rand-{i}", (ego_t, ego_q), (lidar_t, lidar_q), cameras, boxes))
    return raws


def _record(raw, pose_type):
    sample_id, ego, lidar, cameras, boxes = raw
    return SceneRecord(
        sample_id, pose_type(*ego), pose_type(*lidar),
        tuple(CameraBlock(name, intr, pose_type(t, q)) for name, intr, t, q in cameras),
        tuple(Annotation("car", b) for b in boxes),
    )


def _processed_line(process, rec):
    try:
        return json.dumps(processed_to_json(process(rec)))
    except GimbalRisk as e:
        return f"GimbalRisk: {e}"


def _one_box_records(count, rng):
    """_raw_records with each record's first box only; one ego in fifty tilts."""
    return [_record((sid, ego, lidar, cameras, boxes[:1]), Pose)
            for sid, ego, lidar, cameras, boxes in _raw_records(count, rng)]


class TestStackedSamplePath:
    """build_training_samples moves all boxes to the LiDAR frame in one
    stacked pass, yet gives the bits of to_lidar_frame record by record and
    raises at the first record at fault what the per-record loop raises."""

    @staticmethod
    def features(records):
        return {r.sample_id: FeaturePair(r.sample_id, np.zeros(7), np.zeros(2)) for r in records}

    @staticmethod
    def per_record_error(rec):
        with pytest.raises(MiniDetError) as info:
            for_record(to_lidar_frame, rec)
        return str(info.value)

    def test_boxes_equal_per_record_transform_to_the_bit(self):
        records = _one_box_records(600, np.random.default_rng(35))
        untilted = [r for r in records if r.ego_to_global.tilt_angle() <= 1e-6]
        assert 0 < len(untilted) < len(records)
        samples = build_training_samples(untilted, self.features(records))
        expected = [to_lidar_frame(r)[0].box for r in untilted]
        assert [repr(tuple(s.gt_box)) for s in samples] == [repr(tuple(b)) for b in expected]

    def test_first_tilted_record_is_named(self):
        records = _one_box_records(600, np.random.default_rng(35))
        first = next(r for r in records if r.ego_to_global.tilt_angle() > 1e-6)
        message = self.per_record_error(first)
        assert re.fullmatch(rf"record {first.sample_id!r}: pose tilts the vertical axis by "
                            r"\S+ rad; boxes here carry yaw only", message)
        with pytest.raises(MiniDetError) as info:
            build_training_samples(records, self.features(records), scenes_file="s.json")
        assert str(info.value) == f"s.json: {message}"

    @pytest.mark.parametrize("fault", ["two annotations", "no features", "overflow"])
    def test_a_fault_before_the_first_tilted_record_is_named_instead(self, fault):
        records = _one_box_records(600, np.random.default_rng(35))
        features = self.features(records)
        i = next(i for i, r in enumerate(records) if r.ego_to_global.tilt_angle() > 1e-6)
        rec = records[i - 1]
        if fault == "two annotations":
            records[i - 1] = dataclasses.replace(rec, annotations=rec.annotations * 2)
            message = (f"record {rec.sample_id!r} has 2 annotations; "
                       "training expects exactly one box per sample")
        elif fault == "no features":
            del features[rec.sample_id]
            message = f"no features for sample {rec.sample_id!r}"
        else:
            records[i - 1] = dataclasses.replace(rec, ego_to_global=Pose(
                (1.7e308, 1.7e308, 0.0), quat_from_yaw(math.pi / 4)))
            message = self.per_record_error(records[i - 1])
            assert message.endswith(": pose components must be finite")
        with pytest.raises(MiniDetError) as info:
            build_training_samples(records, features)
        assert str(info.value) == message


class TestIngestMatchesReference:
    """The ingest path gives the bits of its implementation before poses
    cached their rotation matrix (tests/oracles.py)."""

    def test_processed_lines_equal_on_random_rigs_and_synth_records(self):
        rng = np.random.default_rng(20261018)
        raws = _raw_records(1600, rng)
        pairs = [(_record(r, Pose), _record(r, ReferencePose)) for r in raws]
        synth, _ = synth_scenes(400, {"adult": 0.4, "car": 0.4, "trafficcone": 0.2}, seed=5)
        as_reference = lambda p: ReferencePose(p.translation, p.rotation)  # noqa: E731
        pairs += [(rec, dataclasses.replace(
            rec, ego_to_global=as_reference(rec.ego_to_global),
            lidar_to_ego=as_reference(rec.lidar_to_ego),
            cameras=tuple(dataclasses.replace(c, sensor_to_ego=as_reference(c.sensor_to_ego))
                          for c in rec.cameras))) for rec in synth]

        renormalized = behind = outside = visible = tilted = 0
        for (rec, ref), raw in zip(pairs, raws + [None] * len(synth)):
            for pose, ref_pose in [(rec.ego_to_global, ref.ego_to_global),
                                   (rec.lidar_to_ego, ref.lidar_to_ego)] + [
                    (c.sensor_to_ego, r.sensor_to_ego) for c, r in zip(rec.cameras, ref.cameras)]:
                assert repr(pose.translation + pose.rotation) == repr(
                    ref_pose.translation + ref_pose.rotation)
                # camera rotations are not yaw-only, so compose sees every term
                composed = rec.ego_to_global.compose(pose).inverse()
                ref_composed = ref.ego_to_global.compose(ref_pose).inverse()
                assert repr(composed.translation + composed.rotation) == repr(
                    ref_composed.translation + ref_composed.rotation)
            if raw is not None:
                renormalized += rec.ego_to_global.rotation != raw[1][1]
            line = _processed_line(process_record, rec)
            assert line == _processed_line(reference_process_record, ref)
            if line.startswith("GimbalRisk"):
                tilted += 1
                continue
            for ann in json.loads(line)["annotations"]:
                for corners in ann["projections"].values():
                    for u, _, vis in corners:
                        behind += u is None
                        outside += u is not None and not vis
                        visible += vis
        assert min(renormalized, behind, outside, visible, tilted) > 0

    def test_projection_equal_on_corners_behind_on_and_off_the_image(self):
        rng = np.random.default_rng(7)
        cam = CameraIntrinsics(fx=900.0, fy=1100, cx=640.5, cy=360, width=1280, height=720)
        for scale in (1e-300, 1e-3, 1.0, 1e3, 1e300):
            pts = rng.normal(size=(500, 3)) * scale
            pts[:20, 2] = 0.0
            pts[20:40, 2] = -0.0
            pts[40:60, 2] = 5e-324
            with np.errstate(over="ignore"):  # numpy warns where Python floats overflow silently
                expected = repr(reference_project_corners(pts, cam))
            assert repr(project_corners(pts, cam)) == expected

    @pytest.mark.parametrize("translation, rotation", [
        (["a", 0, 0], [1, 0, 0, 0]),
        ([None, 0, 0], [1, 0, 0, 0]),
        ([[1.0], 0, 0], [1, 0, 0, 0]),
        ([True, 0, 0], [1, 0, 0, 0]),
        ([0, 0, 0], [1, 0, 0, "x"]),
        ([0, 0, 0], [2, 0, 0, 0]),
        ([0, 0, 0], [1 + 5e-10, 0, 0, 0]),
    ])
    def test_pose_diagnostics_equal_the_reference(self, tmp_path, translation, rotation):
        doc = json.loads(_emitted(tmp_path, [make_record()]).read_text())
        doc["records"][0]["ego_to_global"] = {"translation": translation, "rotation": rotation}
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps(doc))
        ref, expected = None, []
        try:  # every value must be a JSON number before the pose is built
            for key, values in (("translation", translation), ("rotation", rotation)):
                for i, v in enumerate(values):
                    check_json_value(v, 0.0, f"records[0].ego_to_global.{key}[{i}]", ParseError)
            ref = ReferencePose(tuple(translation), tuple(rotation))
        except ParseError as e:
            expected = [str(e)]
        except ValueError as e:
            expected = [f"records[0].ego_to_global.rotation: {e}"]
        records, diagnostics = ingest_lenient(path)
        assert [str(d) for d in diagnostics] == expected
        if ref is not None:
            assert repr(records[0].ego_to_global.rotation) == repr(ref.rotation)

    EXTREMES = (5e-324, -0.0, 1e308, 0.30000000000000004, 1.2345678901234567, -9.87654321098765e-5)

    def _extreme_records(self):
        records = []
        for i, v in enumerate(self.EXTREMES):
            # a subnormal size needs a huge one beside it to keep the volume positive and finite
            h = 5e-324 if abs(v) >= 1.0 else 1e308
            box = Box7(v, -v, v, abs(v) or 5e-324, 1.2345678901234567, h, v % 3.0)
            cam = CameraBlock("front", CameraIntrinsics(fx=abs(v) or 1.0, fy=1.0000000000000002,
                                                        cx=v, cy=-v, width=1600, height=900),
                              Pose((v, 0.0, -0.0), (1.0, -0.0, 0.0, -0.0)))
            records.append(SceneRecord(f"extreme-{i}", Pose((v, v, -0.0), (1.0, 5e-324, -0.0, 0.0)),
                                       Pose((-0.0, v, 1e308), quat_from_yaw(v % 3.0)), (cam,),
                                       (Annotation("car", box),)))
        return records

    def test_emit_roundtrips_extreme_floats_bit_for_bit(self, tmp_path):
        records = self._extreme_records()
        path = tmp_path / "scenes.json"
        emit(records, path)
        loaded = ingest(path)
        assert loaded == records
        assert repr(loaded) == repr(records)  # -0.0 and 0.0 compare equal; reprs do not

    def test_emit_writes_the_reference_document_on_one_line(self, tmp_path):
        records = self._extreme_records() + synth_scenes(30, {"car": 1.0}, seed=2)[0]
        emit(records, tmp_path / "new.json")
        reference_emit(records, tmp_path / "ref.json")
        text = (tmp_path / "new.json").read_text(encoding="utf-8")
        assert "\n" not in text
        assert text == json.dumps(json.loads((tmp_path / "ref.json").read_text(encoding="utf-8")))


def _as_reference(rec):
    """`rec` with every pose a ReferencePose of the same fields."""
    ref = lambda p: ReferencePose(p.translation, p.rotation)  # noqa: E731
    return dataclasses.replace(
        rec, ego_to_global=ref(rec.ego_to_global), lidar_to_ego=ref(rec.lidar_to_ego),
        cameras=tuple(dataclasses.replace(c, sensor_to_ego=ref(c.sensor_to_ego))
                      for c in rec.cameras))


class TestPoseInterning:
    """Records of one scene file that repeat a pose share one Pose object, and
    the shared pose's cached inverse changes no output bit."""

    def test_shared_rig_file_equals_the_reference_line_for_line(self, tmp_path):
        synth, _ = synth_scenes(200, {"adult": 0.4, "car": 0.4, "trafficcone": 0.2}, seed=8)
        doc = json.loads(_emitted(tmp_path, synth).read_text())
        # half of the records get a rig of their own, a quarter of them tilted
        rng = np.random.default_rng(11)
        for raw in doc["records"][::2]:
            raw["lidar_to_ego"]["translation"] = rng.uniform(-2, 2, size=3).tolist()
            cam = raw["cameras"][int(rng.integers(6))]
            cam["sensor_to_ego"]["rotation"] = list(_random_quat(rng))
            if rng.random() < 0.25:
                raw["ego_to_global"]["rotation"] = list(_random_quat(rng))
        path = tmp_path / "rigs.json"
        path.write_text(json.dumps(doc))

        records, diagnostics = ingest_lenient(path)
        assert diagnostics == [] and len(records) == 200
        shared = records[1].cameras[0].sensor_to_ego
        assert all(r.cameras[0].sensor_to_ego is shared for r in records[1::2])
        assert records[1].lidar_to_ego is records[3].lidar_to_ego
        tilted = 0
        for rec in records:
            line = _processed_line(process_record, rec)
            assert line == _processed_line(reference_process_record, _as_reference(rec))
            tilted += line.startswith("GimbalRisk")
        assert tilted > 0
        # a second pass reads every shared inverse from its cache
        assert "_inverse" in vars(shared)
        for rec in records[1::2]:
            assert _processed_line(process_record, rec) == _processed_line(
                reference_process_record, _as_reference(rec))

    @pytest.mark.parametrize("key, index", [("translation", 0), ("rotation", 1)])
    def test_negative_zero_after_zero_keeps_its_bits(self, tmp_path, key, index):
        rec = make_record(annotations=(Annotation("car", Box7(5, 1, 0, 4, 2, 2, 0.3)),),
                          lidar=Pose((0.0, 0.0, 1.8)))
        doc = json.loads(_emitted(tmp_path, [rec, dataclasses.replace(rec, sample_id="b")]).read_text())
        doc["records"][1]["lidar_to_ego"][key][index] = -0.0
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps(doc))

        first, second = ingest(path)
        assert math.copysign(1.0, getattr(first.lidar_to_ego, key)[index]) == 1.0
        assert math.copysign(1.0, getattr(second.lidar_to_ego, key)[index]) == -1.0
        assert first.lidar_to_ego is not second.lidar_to_ego
        assert first.ego_to_global is second.ego_to_global
        for loaded in (first, second):
            assert _processed_line(process_record, loaded) == _processed_line(
                reference_process_record, _as_reference(loaded))
        emit([first, second], tmp_path / "again.json")
        assert json.loads((tmp_path / "again.json").read_text()) == doc
        assert repr(ingest(tmp_path / "again.json")) == repr([first, second])

    def test_repeated_sample_id_rejects_the_later_record(self, tmp_path):
        records, _ = synth_scenes(4, {"car": 1.0}, seed=9)
        doc = json.loads(_emitted(tmp_path, records).read_text())
        doc["records"][3]["sample_id"] = doc["records"][1]["sample_id"]
        doc["records"].append(json.loads(json.dumps(doc["records"][0])))
        doc["records"][2]["annotations"][0]["box"][3] = -1.0  # rejected: its id stays free
        doc["records"].append(json.loads(json.dumps(doc["records"][2])))
        doc["records"][5]["annotations"][0]["box"][3] = 2.0
        path = tmp_path / "dups.json"
        path.write_text(json.dumps(doc))
        accepted, diagnostics = ingest_lenient(path)
        assert [r.sample_id for r in accepted] == [records[i].sample_id for i in (0, 1, 2)]
        assert [str(d) for d in diagnostics] == [
            "records[2].annotations[0].box: Box7 sizes must be positive, got l=-1.0, w="
            f"{records[2].annotations[0].box.w}, h={records[2].annotations[0].box.h}",
            f"records[3].sample_id: duplicate sample_id {records[1].sample_id!r}, first at records[1]",
            f"records[4].sample_id: duplicate sample_id {records[0].sample_id!r}, first at records[0]",
        ]
        assert diagnostics[1].field == "records[3].sample_id"


def _scene_document(records) -> str:
    return json.dumps({"schema_version": 1, "records": [record_to_json(r) for r in records]})


def _features_document(features) -> str:
    return json.dumps({"schema_version": 1, "features": {
        f.sample_id: {"visual": f.visual.tolist(), "text": f.text.tolist()} for f in features}})


def _other_rig(rec):
    """`rec` on a rig of its own: every camera shifted, with other intrinsics."""
    return dataclasses.replace(rec, cameras=tuple(
        CameraBlock(c.name, dataclasses.replace(c.intrinsics, fx=c.intrinsics.fx + 1.0),
                    Pose(np.add(c.sensor_to_ego.translation, 0.25), c.sensor_to_ego.rotation))
        for c in rec.cameras))


def _zero_rig_records():
    """Two records whose cameras differ only in the sign of a zero cx and of a
    zero sensor translation."""
    signed = []
    for zero in (0.0, -0.0):
        cam = CameraBlock("front", CameraIntrinsics(1000.0, 1000.0, zero, 450.0, 1600, 900),
                          Pose((zero, 0.0, 1.5), _CAMERA_AXES))
        signed.append(make_record((Annotation("car", Box7(5, 1, 0, 4, 2, 2, 0.3)),),
                                  cameras=(cam,)))
    return [signed[0], dataclasses.replace(signed[1], sample_id="fixture-1"), signed[0]]


def _fresh_records(count):
    """Records built on the fly, each on a rig of its own that the generator
    frees after use, so a later record's objects can take a freed id."""
    for i in range(count):
        cam = CameraBlock("front", CameraIntrinsics(1000.0 + i, 1000.0, 800.0, 450.0, 1600, 900),
                          Pose((0.1 * i, 0.0, 1.5), _CAMERA_AXES))
        yield SceneRecord(f"fresh-{i}", Pose((float(i), 0.0, 0.0)), Pose((0.9, 0.0, 1.8 + i)),
                          (cam,), (Annotation("car", Box7(5, 1, 0, 4, 2, 2, 0.3)),))


SYNTH_MIX = {"adult": 0.4, "car": 0.4, "trafficcone": 0.2}


class TestWritersEqualJsonDumps:
    """`emit` and `save_features` write each repeated rig block and text vector
    once per call, and their bytes equal json.dumps of the dict document."""

    @pytest.fixture(scope="class")
    def synth(self):
        return synth_scenes(40, SYNTH_MIX, seed=13)

    @pytest.mark.parametrize("case", ["synth", "ingested", "two-rigs", "signed-zeros", "empty"])
    def test_emit(self, tmp_path, synth, case):
        records = synth[0]
        if case == "ingested":
            records = ingest(_emitted(tmp_path, records))
            assert len({id(r.cameras) for r in records}) == len(records)
            assert len({id(r.lidar_to_ego) for r in records}) == 1
        elif case == "two-rigs":
            records = [r if i % 3 else _other_rig(r) for i, r in enumerate(records)]
        elif case == "signed-zeros":
            records = _zero_rig_records()
        elif case == "empty":
            records = []
        assert _emitted(tmp_path, records).read_text(encoding="utf-8") == _scene_document(records)

    def test_emit_of_a_generator_freeing_each_record(self, tmp_path):
        path = tmp_path / "fresh.json"
        emit(_fresh_records(50), path)
        assert path.read_text(encoding="utf-8") == _scene_document(list(_fresh_records(50)))

    def test_emit_of_ingested_records_reproduces_the_synth_file(self, tmp_path, synth):
        records, _ = synth
        path = _emitted(tmp_path, records)
        emit(ingest(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("case", ["synth", "loaded", "two-widths", "signed-zeros", "empty"])
    def test_save_features(self, tmp_path, synth, case):
        features = synth[1]
        if case == "loaded":
            save_features(features, tmp_path / "synth.json")
            features = list(load_features(tmp_path / "synth.json").values())
        elif case == "two-widths":
            _, narrow = synth_scenes(20, SYNTH_MIX, seed=14, config=SynthConfig(d_v=9, d_t=4))
            features = [f for pair in zip(features, narrow) for f in pair]
        elif case == "signed-zeros":
            vec = np.array([0.0, 1.5])
            features = [FeaturePair("a", vec, np.array([0.0, 1.0])),
                        FeaturePair("b", -vec, np.array([-0.0, 1.0])),
                        FeaturePair("c", vec, np.array([0, 1])),
                        FeaturePair("d", vec, np.array([0.0, 1.0], dtype=np.float32)),
                        FeaturePair("é", vec, np.array([[0.0, 1.0]])),
                        FeaturePair("f", vec, np.array([0.0, 1.0]))]
        elif case == "empty":
            features = []
        path = tmp_path / "features.json"
        save_features(features, path)
        assert path.read_text(encoding="utf-8") == _features_document(features)

    def test_save_features_of_a_generator_freeing_each_entry(self, tmp_path):
        def fresh(count):
            for i in range(count):
                yield FeaturePair(f"fresh-{i}", np.arange(3.0) * i, np.arange(2.0) + i % 3)

        path = tmp_path / "fresh.json"
        save_features(fresh(30), path)
        assert path.read_text(encoding="utf-8") == _features_document(list(fresh(30)))

    def test_save_features_refuses_a_repeated_sample_id(self, tmp_path):
        vec = np.array([1.0, 2.0])
        features = [FeaturePair("a", vec, vec), FeaturePair("b", vec, vec),
                    FeaturePair("a", -vec, vec)]
        path = tmp_path / "features.json"
        with pytest.raises(ValueError, match="^repeated sample_id 'a' in the features$"):
            save_features(features, path)
        assert not path.exists()

    def test_save_features_refuses_a_sample_id_that_is_not_a_string(self, tmp_path):
        vec = np.array([1.0, 2.0])
        path = tmp_path / "features.json"
        with pytest.raises(TypeError, match="^sample_id must be a string, got 7$"):
            save_features([FeaturePair("a", vec, vec), FeaturePair(7, vec, vec)], path)
        assert not path.exists()

    @pytest.mark.parametrize("key", ["visual", "text"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_save_features_refuses_a_value_that_is_not_finite(self, tmp_path, key, value):
        # load_features refuses NaN and Infinity, so no file may hold them
        vec = np.array([1.0, 2.0])
        bad = dataclasses.replace(FeaturePair("b", vec, vec), **{key: np.array([1.0, value])})
        path = tmp_path / "features.json"
        with pytest.raises(ValueError, match="^sample 'b': features must be finite numbers$"):
            save_features([FeaturePair("a", vec, vec), bad, FeaturePair("c", vec, vec)], path)
        assert not path.exists()


class TestRigInterning:
    """Records of one scene file that repeat a rig share its poses and
    intrinsics; every check still runs per record."""

    def test_records_of_one_rig_share_its_poses_and_intrinsics(self, tmp_path):
        records, _ = synth_scenes(30, SYNTH_MIX, seed=15)
        loaded = ingest(_emitted(tmp_path, records))
        assert loaded == records
        assert len({id(c.intrinsics) for r in loaded for c in r.cameras}) == 1
        for j, cam in enumerate(loaded[0].cameras):
            assert all(r.cameras[j].sensor_to_ego is cam.sensor_to_ego for r in loaded)

    def test_negative_zero_cx_after_zero_keeps_its_sign(self, tmp_path):
        records = _zero_rig_records()[:2]
        path = _emitted(tmp_path, records)
        first, second = ingest(path)
        signs = [math.copysign(1.0, r.cameras[0].intrinsics.cx) for r in (first, second)]
        assert signs == [1.0, -1.0]
        assert math.copysign(1.0, second.cameras[0].sensor_to_ego.translation[0]) == -1.0
        assert first.cameras[0].intrinsics is not second.cameras[0].intrinsics
        emit([first, second], tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_float_width_after_an_accepted_integer_is_rejected(self, tmp_path):
        records, _ = synth_scenes(3, {"car": 1.0}, seed=9)
        doc = json.loads(_emitted(tmp_path, records).read_text())
        doc["records"][1]["cameras"][2]["intrinsics"]["width"] = 1600.0
        path = tmp_path / "widths.json"
        path.write_text(json.dumps(doc))
        accepted, diagnostics = ingest_lenient(path)
        assert accepted == [records[0], records[2]]
        assert [str(d) for d in diagnostics] == [
            "records[1].cameras[2].intrinsics.width: must be an integer, got 1600.0"]

    def test_invalid_intrinsics_in_two_records_give_two_diagnostics(self, tmp_path):
        records, _ = synth_scenes(3, {"car": 1.0}, seed=9)
        doc = json.loads(_emitted(tmp_path, records).read_text())
        for i in (0, 2):
            doc["records"][i]["cameras"][1]["intrinsics"]["fx"] = -1000.0
        path = tmp_path / "focal.json"
        path.write_text(json.dumps(doc))
        accepted, diagnostics = ingest_lenient(path)
        assert accepted == [records[1]]
        assert [str(d) for d in diagnostics] == [
            f"records[{i}].cameras[1].intrinsics: focal lengths must be positive, "
            "got fx=-1000.0, fy=1000.0" for i in (0, 2)]
