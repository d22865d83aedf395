"""Scene ingestion, frame preprocessing, and a synthetic scene generator.

Scene file format (UTF-8 JSON, "scenes-lite"; `emit` writes it as compact
one-line JSON, which `python -m json.tool` pretty-prints):

    {
      "schema_version": 1,
      "records": [
        {
          "sample_id": "str",
          "ego_to_global":  {"translation": [x,y,z], "rotation": [w,x,y,z]},
          "lidar_to_ego":   {"translation": [x,y,z], "rotation": [w,x,y,z]},
          "cameras": [
            {
              "name": "front",          # one of the six ring cameras
              "intrinsics": {"fx","fy","cx","cy","width","height"},
              "sensor_to_ego": {"translation": ..., "rotation": ...}
            }, ...
          ],
          "annotations": [
            {"category": "car", "box": [x,y,z,l,w,h,yaw]}   # global frame
          ]
        }, ...
      ]
    }

Every object holds just the keys shown (errors.check_keys), and an error
about the top level starts with the file's path. Every box value,
translation, rotation and fx/fy/cx/cy is a finite JSON number, and
width/height are JSON integers (errors.check_json_value).
Quaternions are [w,x,y,z] and must be unit within 1e-9; lengths are meters,
angles radians. Annotation boxes live in the global frame and are brought
into the LiDAR frame by inverting the ego and LiDAR calibration poses.
Records of one file that repeat a pose, bit for bit, share one `Pose`, so
each calibration pose is checked and inverted once per file.
Corner visibility follows the camera rule: a corner counts as visible when
its camera-frame depth is positive and its projection lands inside the
image; an annotation is retained when at least one corner is visible in at
least one camera, and dropped otherwise.

The synthetic generator produces scene records plus paired feature vectors
whose visual part is a fixed smooth, invertible function of the LiDAR-frame
box parameters (plus optional noise) and whose text part indexes the
category, so a learnable mapping from features to boxes exists by
construction. Encoder constants are derived from a fixed internal seed so
that datasets generated with different user seeds share one feature space;
the matrix is drawn once per width, each text embedding once per call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
import sys
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import MiniDetError, ParseError, check_json_value, check_keys
from .geom import (
    Box7,
    CameraIntrinsics,
    Pose,
    ProjectedCorner,
    _quat_normalize,
    box_corners,
    project_corners,
    quat_from_matrix,
    quat_from_yaw,
    transform_box,
)

SCHEMA_VERSION = 1
CAMERA_NAMES = ("front", "front-right", "front-left", "back", "back-left", "back-right")


@dataclass(frozen=True)
class Annotation:
    category: str
    box: Box7

    def __post_init__(self):
        if not self.category:
            raise ValueError("category must be non-empty")


@dataclass(frozen=True)
class CameraBlock:
    name: str
    intrinsics: CameraIntrinsics
    sensor_to_ego: Pose

    def __post_init__(self):
        if self.name not in CAMERA_NAMES:
            raise ValueError(f"unknown camera name {self.name!r}")


@dataclass(frozen=True)
class SceneRecord:
    sample_id: str
    ego_to_global: Pose
    lidar_to_ego: Pose
    cameras: tuple[CameraBlock, ...]
    annotations: tuple[Annotation, ...]

    def __post_init__(self):
        names = [c.name for c in self.cameras]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate camera names: {names}")
        vars(self).update(cameras=tuple(self.cameras), annotations=tuple(self.annotations))


@dataclass(frozen=True)
class ProcessedAnnotation:
    category: str
    box: Box7  # LiDAR frame
    projections: dict[str, list[ProjectedCorner]]
    retained: bool


@dataclass(frozen=True)
class ProcessedSample:
    sample_id: str
    annotations: tuple[ProcessedAnnotation, ...]


# ---- parsing ---------------------------------------------------------------

_FLOAT = {float}
_pose_key = struct.Struct("<7d").pack  # a pose's 7 values as bits: -0.0 is not 0.0


def _check_floats(values: list, where: str, key: str) -> None:
    """Raise ParseError naming `where.key[i]`, in the words of
    errors.check_json_value, at the first of `values` that is not a finite
    JSON number. One pass over the types and one sum accept a list of finite
    floats; only another list is checked value by value."""
    if set(map(type, values)) != _FLOAT or not math.isfinite(sum(values)):
        for i, v in enumerate(values):
            check_json_value(v, 0.0, f"{where}.{key}[{i}]", ParseError)


def _parse_pose(obj, where: str, poses: dict) -> Pose:
    check_keys(obj, ("translation", "rotation"), where, ParseError)
    t, q = obj["translation"], obj["rotation"]
    if not (isinstance(t, list) and len(t) == 3):
        raise ParseError(f"{where}.translation", "must be a 3-list")
    if not (isinstance(q, list) and len(q) == 4):
        raise ParseError(f"{where}.rotation", "must be a 4-list [w,x,y,z]")
    _check_floats(t, where, "translation")
    _check_floats(q, where, "rotation")
    key = _pose_key(*t, *q)
    if key not in poses:
        try:
            poses[key] = Pose._of_floats(tuple(map(float, t)), _quat_normalize(tuple(map(float, q))))
        except ValueError as e:
            raise ParseError(f"{where}.rotation", str(e)) from e
    return poses[key]


# The intrinsics fields, each with a default of the JSON type it must have.
_INTRINSICS = {"fx": 0.0, "fy": 0.0, "cx": 0.0, "cy": 0.0, "width": 0, "height": 0}
_intrinsic_values = itemgetter(*_INTRINSICS)


def _parse_intrinsics(obj, where: str) -> CameraIntrinsics:
    check_keys(obj, _INTRINSICS, where, ParseError)
    fx, fy, cx, cy, width, height = _intrinsic_values(obj)
    if not (type(fx) is type(fy) is type(cx) is type(cy) is float
            and math.isfinite(fx + fy + cx + cy)
            and type(width) is type(height) is int
            and max(abs(width), abs(height)) <= sys.float_info.max):
        for key, default in _INTRINSICS.items():
            check_json_value(obj[key], default, f"{where}.{key}", ParseError)
        fx, fy, cx, cy = float(fx), float(fy), float(cx), float(cy)
    try:
        return CameraIntrinsics(fx, fy, cx, cy, width, height)
    except ValueError as e:
        raise ParseError(where, str(e)) from e


def _parse_record(obj, where: str, poses: dict) -> SceneRecord:
    check_keys(obj, ("sample_id", "ego_to_global", "lidar_to_ego", "cameras", "annotations"),
               where, ParseError)
    sample_id = obj["sample_id"]
    if not isinstance(sample_id, str) or not sample_id:
        raise ParseError(f"{where}.sample_id", "must be a non-empty string")

    ego = _parse_pose(obj["ego_to_global"], f"{where}.ego_to_global", poses)
    lidar = _parse_pose(obj["lidar_to_ego"], f"{where}.lidar_to_ego", poses)
    for key in ("cameras", "annotations"):
        if not isinstance(obj[key], list):
            raise ParseError(f"{where}.{key}", "must be a list")

    cameras = []
    seen = set()
    for j, cam in enumerate(obj["cameras"]):
        cw = f"{where}.cameras[{j}]"
        check_keys(cam, ("name", "intrinsics", "sensor_to_ego"), cw, ParseError)
        name = cam["name"]
        if name not in CAMERA_NAMES:
            raise ParseError(f"{cw}.name", f"unknown camera {name!r}")
        if name in seen:
            raise ParseError(f"{cw}.name", f"duplicate camera {name!r}")
        seen.add(name)
        cameras.append(
            CameraBlock(
                name=name,
                intrinsics=_parse_intrinsics(cam["intrinsics"], f"{cw}.intrinsics"),
                sensor_to_ego=_parse_pose(cam["sensor_to_ego"], f"{cw}.sensor_to_ego", poses),
            )
        )

    annotations = []
    for j, ann in enumerate(obj["annotations"]):
        aw = f"{where}.annotations[{j}]"
        check_keys(ann, ("category", "box"), aw, ParseError)
        if not isinstance(ann["category"], str) or not ann["category"]:
            raise ParseError(f"{aw}.category", "must be a non-empty string")
        box = ann["box"]
        if not (isinstance(box, list) and len(box) == 7):
            raise ParseError(f"{aw}.box", "must be a 7-list [x,y,z,l,w,h,yaw]")
        _check_floats(box, aw, "box")
        try:
            annotations.append(Annotation(ann["category"], Box7(*box)))
        except ValueError as e:
            raise ParseError(f"{aw}.box", str(e)) from e

    return SceneRecord(sample_id, ego, lidar, tuple(cameras), tuple(annotations))


def ingest(path: str | Path) -> list[SceneRecord]:
    """Parse and validate a scene file; raises on the first malformed record."""
    records, diagnostics = ingest_lenient(path)
    if diagnostics:
        # popped, not indexed: its traceback holds this frame, so a list that
        # still held it would be a reference cycle
        raise diagnostics.pop(0)
    return records


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the file at `path`, which `what` names in errors.

    A file that is not UTF-8, not JSON, nested too deeply to parse, or whose
    top level is not an object raises ParseError whose field is the path.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # ValueError: JSON or UTF-8 decoding
        raise ParseError(str(path), f"not a JSON {what}: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(str(path), "top level must be an object")
    return doc


def _read_body(path: str | Path, what: str, key: str):
    """The `key` entry of a scene or features file, whose top level must hold
    exactly schema_version and `key`; a field path here starts with the path."""
    doc = read_json(path, what)
    check_keys(doc, ("schema_version", key), str(path), ParseError)
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:  # not true, not 1.0
        raise ParseError(f"{path}.schema_version",
                         f"must be {SCHEMA_VERSION}, got {json.dumps(version)}")
    return doc[key]


def ingest_lenient(path: str | Path) -> tuple[list[SceneRecord], list[ParseError]]:
    """Parse a scene file, collecting per-record diagnostics instead of failing.

    Every input record ends up either in the accepted list or as exactly one
    diagnostic naming the offending field; a record whose sample_id an
    accepted one already has is rejected. A file that cannot be read as a
    scene file at all, or one of another schema version, raises ParseError
    naming the path.

    Records that repeat a pose, bit for bit, share one Pose and its inverse.
    The diagnostics hold no traceback frames, so the parsed document is freed
    when this function returns, rejected records or not.
    """
    body = _read_body(path, "scene file", "records")
    if not isinstance(body, list):
        raise ParseError(f"{path}.records", "must be a list")

    records, diagnostics, poses, first = [], [], {}, {}
    for i, obj in enumerate(body):
        try:
            rec = _parse_record(obj, f"records[{i}]", poses)
            if (j := first.setdefault(rec.sample_id, i)) != i:
                raise ParseError(f"records[{i}].sample_id",
                                 f"duplicate sample_id {rec.sample_id!r}, first at records[{j}]")
            records.append(rec)
        except ParseError as e:
            diagnostics.append(_frameless(e))
    return records, diagnostics


def _frameless(error: Exception) -> Exception:
    """`error`, with no traceback left on it or on the errors it was raised
    from. A stored traceback would hold the frame of ingest_lenient, whose
    diagnostics list holds the error: a reference cycle that keeps the parsed
    document and the caller's frame alive until a full garbage collection."""
    e = error
    while e is not None:
        e.__traceback__ = None
        e = e.__cause__ or e.__context__
    return error


def _pose_to_json(p: Pose) -> dict:
    return {"translation": list(p.translation), "rotation": list(p.rotation)}


def _record_to_json(rec: SceneRecord) -> dict:
    return {
        "sample_id": rec.sample_id,
        "ego_to_global": _pose_to_json(rec.ego_to_global),
        "lidar_to_ego": _pose_to_json(rec.lidar_to_ego),
        "cameras": [
            {
                "name": c.name,
                "intrinsics": vars(c.intrinsics),  # the six fields, in order
                "sensor_to_ego": _pose_to_json(c.sensor_to_ego),
            }
            for c in rec.cameras
        ],
        "annotations": [
            {"category": a.category, "box": list(a.box)} for a in rec.annotations
        ],
    }


def emit(records, path: str | Path) -> None:
    """Serialize records to the scene file format as compact one-line JSON
    (`python -m json.tool` pretty-prints it); ingest(emit(r)) == r."""
    doc = {"schema_version": SCHEMA_VERSION, "records": [_record_to_json(r) for r in records]}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


# ---- preprocessing ----------------------------------------------------------


def global_to_lidar_pose(rec: SceneRecord) -> Pose:
    """Composite transform taking global-frame points to the LiDAR frame."""
    return rec.lidar_to_ego.inverse().compose(rec.ego_to_global.inverse())


def to_lidar_frame(rec: SceneRecord) -> list[Annotation]:
    """Annotations re-expressed in the LiDAR frame; sizes are untouched."""
    onto_lidar = global_to_lidar_pose(rec)
    return [Annotation(a.category, transform_box(a.box, onto_lidar)) for a in rec.annotations]


def filter_visible(annotations: list[Annotation], rec: SceneRecord) -> ProcessedSample:
    """Project LiDAR-frame boxes into every camera and tag corner visibility.

    Geometry is never modified; each annotation is retained iff at least one
    corner is visible in at least one camera.
    """
    processed = []
    for ann in annotations:
        corners_ego = rec.lidar_to_ego.apply(box_corners(ann.box))
        projections = {cam.name: project_corners(cam.sensor_to_ego.inverse().apply(corners_ego),
                                                 cam.intrinsics) for cam in rec.cameras}
        retained = any(c.visible for proj in projections.values() for c in proj)
        processed.append(ProcessedAnnotation(ann.category, ann.box, projections, retained))
    return ProcessedSample(rec.sample_id, tuple(processed))


def process_record(rec: SceneRecord) -> ProcessedSample:
    """Full per-record pipeline: global -> LiDAR -> projection/visibility."""
    return filter_visible(to_lidar_frame(rec), rec)


@np.errstate(over="ignore")  # a pose that overflows fails its finiteness check
def for_record(step, rec: SceneRecord):
    """step(rec), whose failure is a MiniDetError naming the record."""
    try:
        return step(rec)
    except (MiniDetError, ValueError) as e:
        raise MiniDetError(f"record {rec.sample_id!r}: {e}") from None


def processed_to_json(sample: ProcessedSample) -> dict:
    return {
        "sample_id": sample.sample_id,
        "annotations": [
            {
                "category": a.category,
                "box": list(a.box),
                "retained": a.retained,
                "projections": {
                    name: [list(c) for c in corners]
                    for name, corners in sorted(a.projections.items())
                },
            }
            for a in sample.annotations
        ],
    }


# ---- synthetic scenes --------------------------------------------------------

# Feature-encoder constants come from this fixed seed, never the dataset seed,
# so train and validation sets generated with different seeds share a feature
# space.
_ENCODER_SEED = 0x3D5CE11E

_CATEGORY_SIZES = {
    "adult": (0.6, 0.6, 1.75),
    "child": (0.5, 0.5, 1.2),
    "car": (4.5, 1.9, 1.6),
    "truck": (8.0, 2.5, 3.0),
    "trafficcone": (0.4, 0.4, 0.8),
    "barrier": (2.0, 0.5, 1.0),
    "motorcycle": (2.0, 0.8, 1.4),
    "bicycle": (1.7, 0.6, 1.3),
}
_DEFAULT_SIZE = (1.5, 1.0, 1.5)
_SIZE_JITTER = 0.15  # each size is scaled by a factor drawn in 1 +- this
_RANGE_RADIUS = (4.0, 18.0)  # m, the LiDAR-frame distance of a box's center

# Normalization constants for the box-parameter feature block.
_PARAM_SHIFT = np.array([0.0, 0.0, 0.0, 2.0, 1.0, 1.5, 0.0])
_PARAM_SCALE = np.array([20.0, 20.0, 2.0, 4.0, 2.0, 1.5, math.pi])


@dataclass(frozen=True)
class FeaturePair:
    sample_id: str
    visual: np.ndarray
    text: np.ndarray


@dataclass(frozen=True)
class SynthConfig:
    d_v: int = 32
    d_t: int = 32
    noise_std: float = 0.0

    def __post_init__(self):
        if self.d_v < 7:
            raise ValueError(f"d_v must be >= 7 to keep the encoding invertible, got {self.d_v}")
        if self.d_t < 1:
            raise ValueError(f"d_t must be >= 1, got {self.d_t}")
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")


def _normalize_params(params: np.ndarray) -> np.ndarray:
    return (np.asarray(params, dtype=np.float64) - _PARAM_SHIFT) / _PARAM_SCALE


@functools.cache
def _encoder_matrix(d_v: int) -> np.ndarray:
    """The fixed (d_v - 7, 7) tanh-mixing matrix: one read-only array per width."""
    M = np.random.default_rng(_ENCODER_SEED).normal(0.0, 1.0, size=(max(d_v - 7, 0), 7))
    M.flags.writeable = False
    return M


def category_embedding(category: str, d_t: int) -> np.ndarray:
    """Deterministic per-category text embedding, independent of dataset seed."""
    digest = hashlib.sha256(category.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return rng.normal(0.0, 1.0, size=d_t)


def encode_visual(box_params_lidar: np.ndarray, d_v: int) -> np.ndarray:
    """Fixed smooth encoding of LiDAR-frame box parameters.

    The first 7 channels are the normalized parameters themselves (so the map
    is invertible by construction); the rest are a fixed tanh mixing for
    texture. Requires d_v >= 7.
    """
    if d_v < 7:
        raise ValueError(f"d_v must be >= 7 to keep the encoding invertible, got {d_v}")
    p = _normalize_params(box_params_lidar)
    mix = np.tanh(_encoder_matrix(d_v) @ p)
    return np.concatenate([p, mix])


def _ring_cameras() -> tuple[CameraBlock, ...]:
    # Camera axes: x right, y down, z forward; mounted on the ego ring.
    base = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    intr = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=800.0, cy=450.0, width=1600, height=900)
    mounts = {
        "front": 0.0,
        "front-left": math.radians(55.0),
        "front-right": math.radians(-55.0),
        "back-left": math.radians(110.0),
        "back-right": math.radians(-110.0),
        "back": math.pi,
    }
    cams = []
    for name in CAMERA_NAMES:
        yaw = mounts[name]
        c, s = math.cos(yaw), math.sin(yaw)
        Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        q = quat_from_matrix(Rz @ base)
        t = (1.5 * math.cos(yaw), 1.5 * math.sin(yaw), 1.6)
        cams.append(CameraBlock(name, intr, Pose(t, q)))
    return tuple(cams)


def synth_scenes(
    count: int,
    category_mix: dict[str, float],
    seed: int,
    config: SynthConfig = SynthConfig(),
) -> tuple[list[SceneRecord], list[FeaturePair]]:
    """Deterministic synthetic scenes with paired feature vectors.

    Boxes are sampled in the LiDAR frame, pushed out to the global frame for
    the scene record, and encoded into features from their LiDAR-frame
    parameters. With noise_std = 0 the features determine the box exactly.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not category_mix:
        raise ValueError("category_mix must name at least one category")
    if "" in category_mix:
        raise ValueError("category names must be non-empty")
    names = sorted(category_mix)
    weights = np.array([category_mix[n] for n in names], dtype=np.float64)
    for n, w in zip(names, weights):
        if not math.isfinite(w):
            raise ValueError(f"category weight of {n!r} must be finite, got {w}")
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        total = weights.sum()
    if (weights < 0).any() or total <= 0:
        raise ValueError("category weights must be non-negative and sum to > 0")
    if not math.isfinite(total):
        raise ValueError(f"category weights sum to {total}, not a finite number")
    weights = weights / total

    rng = np.random.default_rng(seed)
    cameras = _ring_cameras()
    lidar_to_ego = Pose((0.9, 0.0, 1.8))
    texts = {n: category_embedding(n, config.d_t) for n in names}

    records, features = [], []
    for i in range(count):
        category = names[int(rng.choice(len(names), p=weights))]
        nominal = _CATEGORY_SIZES.get(category, _DEFAULT_SIZE)
        jitter = 1.0 + rng.uniform(-_SIZE_JITTER, _SIZE_JITTER, size=3)
        l, w, h = (max(0.1, n * j) for n, j in zip(nominal, jitter))

        radius = rng.uniform(*_RANGE_RADIUS)
        bearing = rng.uniform(-math.pi, math.pi)
        box_lidar = Box7(
            x=radius * math.cos(bearing),
            y=radius * math.sin(bearing),
            z=float(rng.uniform(-0.5, 0.5)),
            l=l,
            w=w,
            h=h,
            yaw=float(rng.uniform(-math.pi, math.pi)),
        )

        ego_to_global = Pose(
            (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)), 0.0),
            quat_from_yaw(float(rng.uniform(-math.pi, math.pi))),
        )
        lidar_to_global = ego_to_global.compose(lidar_to_ego)
        box_global = transform_box(box_lidar, lidar_to_global)

        sample_id = f"synth-{seed}-{i:06d}"
        records.append(
            SceneRecord(
                sample_id=sample_id,
                ego_to_global=ego_to_global,
                lidar_to_ego=lidar_to_ego,
                cameras=cameras,
                annotations=(Annotation(category, box_global),),
            )
        )
        visual = encode_visual(box_lidar.params(), config.d_v)
        if config.noise_std > 0:
            visual = visual + rng.normal(0.0, config.noise_std, size=visual.shape)
        features.append(FeaturePair(sample_id, visual, texts[category].copy()))
    return records, features


def save_features(features: list[FeaturePair], path: str | Path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "features": {
            f.sample_id: {"visual": f.visual.tolist(), "text": f.text.tolist()}
            for f in features
        },
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _feature_vector(value, field: str, width: int | None) -> np.ndarray:
    try:
        vec = np.array(value)
    except ValueError as e:  # ragged nesting
        raise ParseError(field, "must be a list of numbers") from e
    if vec.dtype.kind not in "iuf":
        raise ParseError(field, "must be a list of numbers")
    if vec.ndim != 1:
        raise ParseError(field, f"must be a 1-D list, got {vec.ndim}-D")
    if width is not None and len(vec) != width:
        raise ParseError(field, f"width {len(vec)} differs from the first entry's {width}")
    if not np.isfinite(vec).all():
        raise ParseError(field, "values must be finite")
    return vec.astype(np.float64, copy=False)


def load_features(path: str | Path) -> dict[str, FeaturePair]:
    """Read a features file; every entry must hold finite 1-D visual and text
    vectors of the first entry's widths, and no other key. Malformed content
    raises ParseError naming the field, e.g. 'features["synth-1-000003"].text',
    or, for the file's top level, starting with the path."""
    entries = _read_body(path, "features file", "features")
    if not isinstance(entries, dict):  # a map keyed by sample id, not a record
        raise ParseError(f"{path}.features", "must be an object")
    out = {}
    visual_width = text_width = None
    for sid, payload in entries.items():
        where = f"features[{json.dumps(sid)}]"
        check_keys(payload, ("visual", "text"), where, ParseError)
        visual = _feature_vector(payload["visual"], f"{where}.visual", visual_width)
        text = _feature_vector(payload["text"], f"{where}.text", text_width)
        visual_width, text_width = len(visual), len(text)
        out[sid] = FeaturePair(sid, visual, text)
    return out
