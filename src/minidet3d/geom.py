"""Oriented 3D boxes, rigid transforms, and pinhole camera projection.

Conventions used throughout the package:

- A box is parameterized by its center (x, y, z), size (l, w, h) and a yaw
  angle about the vertical (+z) axis, with yaw normalized into (-pi, pi].
  Length runs along the box's local x axis at yaw 0. Its volume is positive
  and at most half the float maximum, so two volumes sum to a finite union.
- Rigid transforms are stored as translation + unit quaternion (w, x, y, z).
  A pose builds its rotation matrix (read-only), translation array and inverse
  once, on first use, and keeps them out of its value (==, hash, repr, pickle). The
  scene parser, `inverse` and `compose` build poses of checked values with
  `Pose._of_floats`, which checks only that the translation is finite.
- Corner order is fixed: bottom face counter-clockwise viewed from above,
  starting at local (+l/2, -w/2), then the top face in the same x-y order.
  This makes corner-set comparisons element-wise. `bev_footprint` gives the
  four (x, y) of that order, which the IoU clips and `box_corners` lifts to
  the bottom and top faces, so the two agree bit for bit.
- Camera frames are x-right, y-down, z-forward. The projection of a point
  with positive depth is (u, v) = (fx*x/z + cx, fy*y/z + cy). Points behind
  the camera or outside [0, width) x [0, height) are tagged invisible. A
  projected corner is a `ProjectedCorner` named tuple (u, v, visible).

Everything here is pure functions over frozen values; all geometry is
64-bit floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GimbalRisk


def wrap_angle(theta: float) -> float:
    """Normalize an angle into (-pi, pi]."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    wrapped = math.pi - (math.pi - theta) % (2.0 * math.pi)
    return wrapped if wrapped > -math.pi else math.pi  # pi + 1 ulp: the remainder rounds to 2 pi


class _Box7Fields(NamedTuple):
    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    yaw: float


class Box7(_Box7Fields):
    """Oriented 3D bounding box: center (m), size (m), yaw (rad) about +z.

    A box is its row, the 7-tuple (x, y, z, l, w, h, yaw) of finite floats.
    Sizes must be strictly positive and their product, the volume, positive
    and at most half the float maximum, so that an IoU of two Box7s has a
    positive, finite union; yaw is normalized into (-pi, pi] by the
    constructor, which `_make`, `_replace` and unpickling go through, so two
    parameterizations of the same box compare equal.
    """

    __slots__ = ()

    def __new__(cls, x, y, z, l, w, h, yaw):
        row = []
        for name, v in zip(cls._fields, (x, y, z, l, w, h, yaw)):
            if not math.isfinite(v := float(v)):
                raise ValueError(f"Box7.{name} must be finite, got {v}")
            row.append(v)
        x, y, z, l, w, h, yaw = row
        if l <= 0 or w <= 0 or h <= 0:
            raise ValueError(f"Box7 sizes must be positive, got l={l}, w={w}, h={h}")
        if not 0.0 < (volume := l * w * h) < math.inf:
            raise ValueError(
                f"Box7 sizes must give a positive, finite volume, got l={l}, w={w}, h={h}")
        if volume > sys.float_info.max / 2:  # else two volumes may sum past the maximum
            raise ValueError(f"Box7 sizes must give a volume of at most {sys.float_info.max / 2} "
                             f"(half the float maximum), got l={l}, w={w}, h={h}")
        return tuple.__new__(cls, (x, y, z, l, w, h, wrap_angle(yaw)))

    @classmethod
    def _make(cls, iterable) -> "Box7":
        return cls(*iterable)

    @property
    def center(self) -> np.ndarray:
        return np.array(self[:3], dtype=np.float64)

    def params(self) -> np.ndarray:
        """The 7-vector (x, y, z, l, w, h, yaw)."""
        return np.array(self, dtype=np.float64)


def _quat_normalize(q: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    w, x, y, z = q
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"quaternion norm {norm!r} deviates from 1 by more than 1e-9")
    if abs(norm - 1.0) <= 1e-12:
        # Already unit to working precision; keep bits stable so that
        # normalization is idempotent and serialization round-trips exactly.
        return q
    return (q[0] / norm, q[1] / norm, q[2] / norm, q[3] / norm)


def quat_multiply(a, b) -> tuple[float, float, float, float]:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_to_matrix(q) -> np.ndarray:
    """Convert quaternion (w, x, y, z) to a 3x3 rotation matrix; four (N,) arrays to (N, 3, 3)."""
    w, x, y, z = q
    m = (1 - 2 * y * y - 2 * z * z, 2 * x * y - 2 * w * z, 2 * x * z + 2 * w * y,
         2 * x * y + 2 * w * z, 1 - 2 * x * x - 2 * z * z, 2 * y * z - 2 * w * x,
         2 * x * z - 2 * w * y, 2 * y * z + 2 * w * x, 1 - 2 * x * x - 2 * y * y)
    if isinstance(w, np.ndarray):
        return np.stack(m, axis=-1).reshape(-1, 3, 3)
    return np.array(m, dtype=np.float64).reshape(3, 3)


def quat_from_yaw(yaw: float) -> tuple[float, float, float, float]:
    half = 0.5 * float(yaw)
    return (math.cos(half), 0.0, 0.0, math.sin(half))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotate by `rotation` (unit quaternion w,x,y,z), then translate.

    Stored as plain float tuples so poses are hashable values that compare
    and serialize exactly. `Pose._stack(poses)` is N poses in one, unchecked: (N, 1, 3)
    translation, four (N,) rotation arrays. Its apply, compose and inverse take one gemv
    per pose, each pose's own bits (a 2-D GEMM's differ); tilt_angle/heading take one.
    """

    translation: tuple[float, float, float]
    rotation: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        t = tuple(map(float, self.translation))
        q = tuple(map(float, self.rotation))
        if len(t) != 3:
            raise ValueError(f"translation must have 3 components, got {len(t)}")
        if len(q) != 4:
            raise ValueError(f"rotation must have 4 components, got {len(q)}")
        if not all(map(math.isfinite, t + q)):
            raise ValueError("pose components must be finite")
        vars(self).update(translation=t, rotation=_quat_normalize(q))

    @classmethod
    def _of_floats(cls, t, q: tuple, m: np.ndarray | None = None) -> "Pose":
        """Pose(t, q) for a float tuple or (3,) array `t`, checked again as it can overflow,
        and a checked `q` that _quat_normalize keeps; `m` is its matrix. A stack's t is kept."""
        if isinstance(t, np.ndarray) and t.ndim == 1:
            t = tuple(t.tolist())
        if type(t) is tuple and not math.isfinite(sum(t)) and not all(map(math.isfinite, t)):
            raise ValueError("pose components must be finite")
        pose = object.__new__(cls)
        vars(pose).update(translation=t, rotation=q)
        if m is not None:
            m.flags.writeable = False
            vars(pose)["_matrix"] = m
        return pose

    @classmethod
    def _stack(cls, poses: list["Pose"]) -> "Pose":
        return cls._of_floats(np.array([p.translation for p in poses]).reshape(-1, 1, 3),
                              tuple(np.array([p.rotation for p in poses]).reshape(-1, 4).T))

    def __getstate__(self):
        # The fields only: a pickle never carries the cached matrix or inverse.
        return {"translation": self.translation, "rotation": self.rotation}

    @cached_property
    def _matrix(self) -> np.ndarray:
        """quat_to_matrix(rotation), built on first use; read-only."""
        m = quat_to_matrix(self.rotation)
        m.flags.writeable = False
        return m

    @cached_property
    def _t(self) -> np.ndarray:
        return np.asarray(self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to one (3,) point or an (N, 3) array of points."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self._matrix.swapaxes(-1, -2) + self._t

    def compose(self, other: "Pose") -> "Pose":
        """Transform that applies `other` first, then self."""
        t = self.apply(other._t)
        w, x, y, z = quat_multiply(self.rotation, other.rotation)
        norm = (np.sqrt if isinstance(w, np.ndarray) else math.sqrt)(w * w + x * x + y * y + z * z)
        return Pose._of_floats(t, (w / norm, x / norm, y / norm, z / norm))

    def inverse(self) -> "Pose":
        """The inverse transform, built with its matrix on first use and kept."""
        if "_inverse" not in vars(self):
            w, x, y, z = self.rotation
            conj = (w, -x, -y, -z)  # unit within 1e-12, so _quat_normalize keeps it
            m = quat_to_matrix(conj)
            t_inv = -(self._t @ m.swapaxes(-1, -2))
            vars(self)["_inverse"] = Pose._of_floats(t_inv, conj, m)
        return vars(self)["_inverse"]

    def tilt_angle(self) -> float:
        """Angle (rad) by which this rotation tips the vertical axis."""
        return math.acos(min(1.0, max(-1.0, float(self._matrix[2, 2]))))

    def heading(self) -> float:
        """Yaw component: direction the rotated x axis points in the x-y plane."""
        m = self._matrix
        return math.atan2(float(m[1, 0]), float(m[0, 0]))


# Corner k of bev_footprint sits at (sx * l/2, sy * w/2) in the box frame.
_FOOTPRINT_SIGNS = ((1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0))


def bev_footprint(box) -> list[tuple[float, float]]:
    """Bird's-eye-view footprint of a box (a Box7 or its row): 4 CCW (x, y) vertices."""
    x, y, _, l, w, _, yaw = box
    c, s = math.cos(yaw), math.sin(yaw)
    hl, hw = l / 2.0, w / 2.0
    # Corner (sx hl, sy hw) is (x + c sx hl - s sy hw, ...); sign flips are exact.
    chl, shl, chw, shw = c * hl, s * hl, c * hw, s * hw
    xf, xb, yf, yb = x + chl, x - chl, y + shl, y - shl
    return [(xf + shw, yf - chw), (xf - shw, yf + chw), (xb - shw, yb + chw), (xb + shw, yb - chw)]


def box_corners(box: Box7) -> np.ndarray:
    """The 8 corners of a box, (8, 3), in the documented canonical order: the
    footprint at the bottom face, then at the top."""
    foot, bottom, top = bev_footprint(box), box.z - box.h / 2.0, box.z + box.h / 2.0
    return np.array([(x, y, bottom) for x, y in foot] + [(x, y, top) for x, y in foot])


_TILT_TOLERANCE = 1e-6  # rad


def _placed(box: Box7, pose: Pose, center: list) -> Box7:
    """transform_box(box, pose), whose center `pose` moves to `center`."""
    if (tilt := pose.tilt_angle()) > _TILT_TOLERANCE:
        raise GimbalRisk(f"pose tilts the vertical axis by {tilt:.3e} rad; "
                         "boxes here carry yaw only")
    return Box7(*center, box.l, box.w, box.h, box.yaw + pose.heading())  # Box7 wraps


def transform_box(box: Box7, pose: Pose) -> Box7:
    """Map a box through a rigid transform, keeping the yaw-only parameterization.

    Sizes are preserved; yaw picks up the pose's heading. Raises GimbalRisk
    if the pose tips the vertical axis by more than 1e-6 rad, because a
    tilted box has no faithful yaw-only representation.
    """
    return _placed(box, pose, pose.apply(box.center).tolist())


def transform_boxes(boxes: list[Box7], poses: Pose):
    """Yield transform_box(boxes[i], pose i) for a stack of poses, every center moved
    in one call; box i raises, once reached, what transform_box or Pose raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        centers = poses.apply(np.array(boxes).reshape(-1, 1, 7)[..., :3])[:, 0].tolist()
    rotations = zip(*(c.tolist() for c in poses.rotation))
    for box, t, q, m, c in zip(boxes, poses.translation[:, 0], rotations, poses._matrix, centers):
        yield _placed(box, Pose._of_floats(t, q, m), c)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model: focal lengths and principal point in pixels, image bounds."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image bounds must be positive, got {self.width}x{self.height}")


class ProjectedCorner(NamedTuple):
    """One corner's projection. u/v are None for points at or behind the camera."""

    u: float | None
    v: float | None
    visible: bool


_BEHIND = ProjectedCorner(None, None, False)


def project_corners(corners: np.ndarray, cam: CameraIntrinsics) -> list[ProjectedCorner]:
    """Project camera-frame points and tag each visible or invisible.

    A corner is visible iff its depth z > 0 and its pixel lands inside
    [0, width) x [0, height). Out-of-bounds corners keep their pixel
    coordinates; behind-camera corners have no meaningful projection.
    """
    pts = np.asarray(corners, dtype=np.float64).reshape(-1, 3)
    fx, fy, cx, cy, width, height = cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height
    out = []
    for x, y, z in pts.tolist():
        if z <= 0.0:
            out.append(_BEHIND)
        else:
            u, v = fx * x / z + cx, fy * y / z + cy
            out.append(ProjectedCorner(u, v, 0.0 <= u < width and 0.0 <= v < height))
    return out
