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
width/height are JSON integers (errors.check_json_value). A rejected
record's diagnostic is a new ParseError, never raised, that holds no frame.
Quaternions are [w,x,y,z] and must be unit within 1e-9; lengths are meters,
angles radians. Annotation boxes live in the global frame and are brought
into the LiDAR frame by inverting the ego and LiDAR calibration poses.
Records of one file share their rig: a pose or intrinsics repeated bit for
bit is one object, so each calibration pose is checked and inverted, and each
camera's intrinsics built, once per file. `emit` and `save_features` write
the JSON text of each repeated rig block and text vector once per call.
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
Every synthetic record shares one rig, a nuScenes-like ring of six cameras;
a camera's rotation is its mount's yaw quaternion times `_CAMERA_AXES`.
Each record's draws come from one `Generator.random(11)` call (category,
three size jitters, radius, bearing, z, yaw, ego x, y and yaw), through the
Generator's own uniform and choice formulas; the noise draw follows it.
Transforms and encodings then run as one gemv per record, stacked in numpy.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import struct
import sys
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import (MiniDetError, ParseError, RepeatedKey, check_json_value, check_keys,
                     unique_keys)
from .geom import (
    Box7,
    CameraIntrinsics,
    Pose,
    ProjectedCorner,
    _quat_normalize,
    box_corners,
    project_corners,
    quat_from_yaw,
    quat_multiply,
    transform_box,
    transform_boxes,
)

SCHEMA_VERSION = 1
CAMERA_NAMES = ("front", "front-right", "front-left", "back", "back-left", "back-right")
# The camera axes (x right, y down, z forward) of a camera that looks along
# ego +x: the rotation whose columns are ego -y, -z and +x.
_CAMERA_AXES = (-0.5, 0.5, -0.5, 0.5)


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


def _parse_pose(obj, where: str, rig: dict) -> Pose:
    check_keys(obj, ("translation", "rotation"), where, ParseError)
    t, q = obj["translation"], obj["rotation"]
    if not (isinstance(t, list) and len(t) == 3):
        raise ParseError(f"{where}.translation", "must be a 3-list")
    if not (isinstance(q, list) and len(q) == 4):
        raise ParseError(f"{where}.rotation", "must be a 4-list [w,x,y,z]")
    _check_floats(t, where, "translation")
    _check_floats(q, where, "rotation")
    key = _pose_key(*t, *q)
    if key not in rig:
        try:
            rig[key] = Pose._of_floats(tuple(map(float, t)), _quat_normalize(tuple(map(float, q))))
        except ValueError as e:
            raise ParseError(f"{where}.rotation", str(e)) from e
    return rig[key]


# The intrinsics fields, each with a default of the JSON type it must have.
_INTRINSICS = {"fx": 0.0, "fy": 0.0, "cx": 0.0, "cy": 0.0, "width": 0, "height": 0}
_intrinsic_values = itemgetter(*_INTRINSICS)
_focal_key = struct.Struct("<4d").pack  # fx, fy, cx, cy as bits, as _pose_key


def _parse_intrinsics(obj, where: str, rig: dict) -> CameraIntrinsics:
    check_keys(obj, _INTRINSICS, where, ParseError)
    fx, fy, cx, cy, width, height = _intrinsic_values(obj)
    if not (type(fx) is type(fy) is type(cx) is type(cy) is float
            and math.isfinite(fx + fy + cx + cy)
            and type(width) is type(height) is int
            and max(abs(width), abs(height)) <= sys.float_info.max):
        for key, default in _INTRINSICS.items():
            check_json_value(obj[key], default, f"{where}.{key}", ParseError)
        fx, fy, cx, cy = float(fx), float(fy), float(cx), float(cy)
    key = (_focal_key(fx, fy, cx, cy), width, height)
    if (intrinsics := rig.get(key)) is None:
        try:
            intrinsics = rig[key] = CameraIntrinsics(fx, fy, cx, cy, width, height)
        except ValueError as e:
            raise ParseError(where, str(e)) from e
    return intrinsics


def _parse_record(obj, where: str, rig: dict) -> SceneRecord:
    check_keys(obj, ("sample_id", "ego_to_global", "lidar_to_ego", "cameras", "annotations"),
               where, ParseError)
    sample_id = obj["sample_id"]
    if not isinstance(sample_id, str) or not sample_id:
        raise ParseError(f"{where}.sample_id", "must be a non-empty string")

    ego = _parse_pose(obj["ego_to_global"], f"{where}.ego_to_global", rig)
    lidar = _parse_pose(obj["lidar_to_ego"], f"{where}.lidar_to_ego", rig)
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
        intrinsics = _parse_intrinsics(cam["intrinsics"], f"{cw}.intrinsics", rig)
        pose = _parse_pose(cam["sensor_to_ego"], f"{cw}.sensor_to_ego", rig)
        cameras.append(CameraBlock(name, intrinsics, pose))

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


def read_json(path: str | Path, what: str, pairs_hook=None) -> dict:
    """The JSON object in the file at `path`, which `what` names in errors.

    A file that is not UTF-8, not JSON, nested too deeply to parse, or whose
    top level is not an object raises ParseError whose field is the path.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=pairs_hook)
    except (ValueError, RecursionError) as e:  # ValueError: JSON or UTF-8 decoding
        raise ParseError(str(path), f"not a JSON {what}: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(str(path), "top level must be an object")
    return doc


def _read_body(path: str | Path, what: str, key: str, pairs_hook=None):
    """The `key` entry of a scene or features file, whose top level must hold
    exactly schema_version and `key`; a field path here starts with the path."""
    doc = read_json(path, what, pairs_hook)
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

    Records of one rig share it: a pose or intrinsics repeated bit for bit is
    one object (a pose with its inverse). One dict interns both kinds for
    the call; their keys never collide (a pose's bits; the intrinsics' bits,
    width and height). Camera blocks and `cameras` tuples are built per
    record: interning them too cost more on a file whose rigs do not repeat
    than it saved on a shared rig (ROADMAP, measured and not worth doing).
    Each diagnostic is a new ParseError that was never raised, so it holds no
    frame and the parsed document is freed when this function returns.
    """
    body = _read_body(path, "scene file", "records")
    if not isinstance(body, list):
        raise ParseError(f"{path}.records", "must be a list")

    records, diagnostics, rig, first = [], [], {}, {}
    for i, obj in enumerate(body):
        try:
            rec = _parse_record(obj, f"records[{i}]", rig)
            if (j := first.setdefault(rec.sample_id, i)) != i:
                raise ParseError(f"records[{i}].sample_id",
                                 f"duplicate sample_id {rec.sample_id!r}, first at records[{j}]")
            records.append(rec)
        except ParseError as e:
            diagnostics.append(ParseError(e.field, e.message))
    return records, diagnostics


def _pose_to_json(p: Pose) -> dict:
    return {"translation": list(p.translation), "rotation": list(p.rotation)}


def _cameras_to_json(cameras: tuple[CameraBlock, ...]) -> list:
    return [{"name": c.name,
             "intrinsics": vars(c.intrinsics),  # the six fields, in order
             "sensor_to_ego": _pose_to_json(c.sensor_to_ego)} for c in cameras]


def emit(records, path: str | Path) -> None:
    """Serialize records to the scene file format as compact one-line JSON
    (`python -m json.tool` pretty-prints it); ingest(emit(r)) == r.

    The bytes are those of json.dumps of the document, built from the JSON
    text of each distinct pose and `cameras` tuple, made once per call. The
    memo is keyed by id and holds the object itself, so no id is reused
    while the call runs, even when `records` frees each record after use.
    """
    memo = {}

    def text(obj, to_json) -> str:
        if (hit := memo.get(id(obj))) is None:
            hit = memo[id(obj)] = (obj, json.dumps(to_json(obj)))
        return hit[1]

    body = ", ".join(
        f'{{"sample_id": {json.dumps(r.sample_id)}, '
        f'"ego_to_global": {text(r.ego_to_global, _pose_to_json)}, '
        f'"lidar_to_ego": {text(r.lidar_to_ego, _pose_to_json)}, '
        f'"cameras": {text(r.cameras, _cameras_to_json)}, "annotations": '
        f'{json.dumps([{"category": a.category, "box": list(a.box)} for a in r.annotations])}}}'
        for r in records)
    Path(path).write_text(f'{{"schema_version": {SCHEMA_VERSION}, "records": [{body}]}}',
                          encoding="utf-8")


# ---- preprocessing ----------------------------------------------------------


def global_to_lidar_pose(rec: SceneRecord) -> Pose:
    """Composite transform taking global-frame points to the LiDAR frame."""
    return rec.lidar_to_ego.inverse().compose(rec.ego_to_global.inverse())


def to_lidar_frame(rec: SceneRecord) -> list[Annotation]:
    """Annotations re-expressed in the LiDAR frame; sizes are untouched."""
    onto_lidar = global_to_lidar_pose(rec)
    return [Annotation(a.category, transform_box(a.box, onto_lidar)) for a in rec.annotations]


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails where its record is reached
def lidar_frame_boxes(records: list[SceneRecord]):
    """Yield to_lidar_frame(rec)[0].box for each record, or raise what it raises, with
    each rotation product done once for all: global_to_lidar_pose chains pose stacks."""
    stacks = SimpleNamespace(lidar_to_ego=Pose._stack([r.lidar_to_ego for r in records]),
                             ego_to_global=Pose._stack([r.ego_to_global for r in records]))
    return transform_boxes([r.annotations[0].box for r in records], global_to_lidar_pose(stacks))


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
        pixels = [c[0] + c[1] for proj in projections.values() for c in proj if c[0] is not None]
        if not math.isfinite(sum(pixels)):  # one sum; each value only if it fails
            for name, proj in projections.items():
                for k, (u, v, _) in enumerate(proj):
                    if u is not None and not (math.isfinite(u) and math.isfinite(v)):
                        raise ValueError(f"camera {name!r}: corner {k} projects to the "
                                         f"non-finite pixel ({u}, {v})")
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
    """Fixed smooth encoding of LiDAR-frame box parameters, a (7,) row or (N, 7).

    The first 7 channels are the normalized parameters themselves (so the map
    is invertible by construction); the rest are a fixed tanh mixing for
    texture, one gemv per row: a row has the same bits alone or stacked. Requires d_v >= 7.
    """
    if d_v < 7:
        raise ValueError(f"d_v must be >= 7 to keep the encoding invertible, got {d_v}")
    p = (np.asarray(box_params_lidar, dtype=np.float64) - _PARAM_SHIFT) / _PARAM_SCALE
    mix = np.tanh(np.matmul(_encoder_matrix(d_v), p[..., None])[..., 0])
    return np.concatenate([p, mix], axis=-1)


def _ring_cameras() -> tuple[CameraBlock, ...]:
    """The six cameras of the synthetic ring: each turns `_CAMERA_AXES` by its
    mount's yaw and sits 1.5 m out along that yaw, 1.6 m above the ego origin."""
    intr = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=800.0, cy=450.0, width=1600, height=900)
    # each camera's mount yaw in degrees left of ego +x, in CAMERA_NAMES order
    mounts = {"front": 0.0, "front-right": -55.0, "front-left": 55.0,
              "back": 180.0, "back-left": 110.0, "back-right": -110.0}
    cams = []
    for name, degrees in mounts.items():
        yaw = math.radians(degrees)
        q = quat_multiply(quat_from_yaw(yaw), _CAMERA_AXES)
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

    Each record takes its eleven values from one `rng.random(11)` call, in
    the order category, size jitters (l, w, h), radius, bearing, z, yaw, ego
    x, ego y, ego yaw. A uniform in [lo, hi) is `lo + (hi - lo) * u`, as
    `Generator.uniform` computes it, and the category is the first whose
    cumulative weight (`weights.cumsum()` over its last entry) exceeds u, as
    `Generator.choice` picks with `p`; a record's noise is drawn after its
    block. The stream, every value, box and feature equal a per-field, per-record loop's.
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

    cdf = weights.cumsum()  # Generator.choice's rule for p
    cdf = (cdf / cdf[-1]).tolist()
    jitter, reach, turn = 2 * _SIZE_JITTER, _RANGE_RADIUS[1] - _RANGE_RADIUS[0], 2 * math.pi

    categories, boxes, egos, noise = [], [], [], []
    for _ in range(count):
        u = rng.random(11).tolist()
        categories.append(category := names[bisect.bisect_right(cdf, u[0])])
        nominal = _CATEGORY_SIZES.get(category, _DEFAULT_SIZE)
        l, w, h = (max(0.1, n * (1.0 + (-_SIZE_JITTER + jitter * j)))
                   for n, j in zip(nominal, u[1:4]))

        radius, bearing = _RANGE_RADIUS[0] + reach * u[4], -math.pi + turn * u[5]
        boxes.append(Box7(x=radius * math.cos(bearing), y=radius * math.sin(bearing),
                          z=-0.5 + u[6], l=l, w=w, h=h, yaw=-math.pi + turn * u[7]))
        egos.append(Pose((-500 + 1000 * u[8], -500 + 1000 * u[9], 0.0),
                         quat_from_yaw(-math.pi + turn * u[10])))
        if config.noise_std > 0:
            noise.append(rng.normal(0.0, config.noise_std, size=config.d_v))

    on_global = transform_boxes(boxes, Pose._stack(egos).compose(Pose._stack([lidar_to_ego])))
    visual = encode_visual(np.array(boxes), config.d_v)
    if noise:
        visual = visual + np.array(noise)
    ids = [f"synth-{seed}-{i:06d}" for i in range(count)]
    records = [SceneRecord(sid, ego, lidar_to_ego, cameras, (Annotation(category, box),))
               for sid, category, ego, box in zip(ids, categories, egos, on_global)]
    features = [FeaturePair(sid, v, texts[c].copy()) for sid, c, v in zip(ids, categories, visual)]
    return records, features


def save_features(features: list[FeaturePair], path: str | Path) -> None:
    """Write a features file: json.dumps of the document, with the JSON text of
    each distinct text vector (same dtype, shape and bytes) made once. A
    sample_id that is not a string raises TypeError, and one given twice or
    with a NaN or infinite value ValueError, before anything is written."""
    texts, entries = {}, {}
    for f in features:
        if not isinstance(f.sample_id, str):  # its JSON text would be no object key
            raise TypeError(f"sample_id must be a string, got {f.sample_id!r}")
        if f.sample_id in entries:
            raise ValueError(f"repeated sample_id {f.sample_id!r} in the features")
        key = (f.text.dtype.str, f.text.shape, f.text.tobytes())
        try:  # load_features refuses NaN and Infinity: write neither
            if (text := texts.get(key)) is None:
                text = texts[key] = json.dumps(f.text.tolist(), allow_nan=False)
            visual = json.dumps(f.visual.tolist(), allow_nan=False)
        except ValueError:
            raise ValueError(f"sample {f.sample_id!r}: features must be finite numbers") from None
        entries[f.sample_id] = f'{json.dumps(f.sample_id)}: {{"visual": {visual}, "text": {text}}}'
    body = ", ".join(entries.values())
    Path(path).write_text(f'{{"schema_version": {SCHEMA_VERSION}, "features": {{{body}}}}}',
                          encoding="utf-8")


def load_features(path: str | Path) -> dict[str, FeaturePair]:
    """Read a features file; every entry must hold finite visual and text
    vectors of the first entry's widths and no other key, and no object may
    repeat a key. Malformed content raises ParseError naming the field, e.g.
    'features["synth-1-000003"].text[2]', or for the top level the path."""
    entries = _read_body(path, "features file", "features", unique_keys)
    if not isinstance(entries, dict):  # a map keyed by sample id, not a record
        raise ParseError(f"{path}.features", "must be an object")
    if type(entries) is RepeatedKey:
        raise ParseError(f"features[{json.dumps(entries.key)}]", "is given more than once")
    out, widths = {}, {}
    for sid, payload in entries.items():
        where = f"features[{json.dumps(sid)}]"
        check_keys(payload, ("visual", "text"), where, ParseError)
        for key in ("visual", "text"):
            value = payload[key]
            if not isinstance(value, list):
                raise ParseError(f"{where}.{key}", "must be a list of numbers")
            _check_floats(value, where, key)  # the scene file's number rule
            if (width := widths.setdefault(key, len(value))) != len(value):
                raise ParseError(f"{where}.{key}",
                                 f"width {len(value)} differs from the first entry's {width}")
        out[sid] = FeaturePair(sid, np.array(payload["visual"], dtype=np.float64),
                               np.array(payload["text"], dtype=np.float64))
    return out
