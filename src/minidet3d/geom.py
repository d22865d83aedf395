"""Oriented 3D boxes, rigid transforms, and pinhole camera projection.

Conventions used throughout the package:

- A box is parameterized by its center (x, y, z), size (l, w, h) and a yaw
  angle about the vertical (+z) axis, with yaw normalized into (-pi, pi].
  Length runs along the box's local x axis at yaw 0.
- Rigid transforms are stored as translation + unit quaternion (w, x, y, z).
  A pose builds its rotation matrix (read-only) and its inverse once, on
  first use, and keeps both out of its value (==, hash, repr, pickle). The
  scene parser, `inverse` and `compose` build poses of checked values with
  `Pose._of_floats`, which checks only that the translation is finite.
- Corner order is fixed: bottom face counter-clockwise viewed from above,
  starting at local (+l/2, -w/2), then the top face in the same x-y order.
  This makes corner-set comparisons element-wise.
- Camera frames are x-right, y-down, z-forward. The projection of a point
  with positive depth is (u, v) = (fx*x/z + cx, fy*y/z + cy). Points behind
  the camera or outside [0, width) x [0, height) are tagged invisible. A
  projected corner is a `ProjectedCorner` named tuple (u, v, visible).

Everything here is pure functions over frozen values; all geometry is
64-bit floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GimbalRisk

# Unit corner offsets in the box frame: bottom face CCW from above, then top.
_CORNER_SIGNS = np.array(
    [
        [+1, -1, -1],
        [+1, +1, -1],
        [-1, +1, -1],
        [-1, -1, -1],
        [+1, -1, +1],
        [+1, +1, +1],
        [-1, +1, +1],
        [-1, -1, +1],
    ],
    dtype=np.float64,
)


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
    Sizes must be strictly positive; yaw is normalized into (-pi, pi] by the
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
    """Convert quaternion (w, x, y, z) to a 3x3 rotation matrix."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * y * y - 2 * z * z, 2 * x * y - 2 * w * z, 2 * x * z + 2 * w * y],
            [2 * x * y + 2 * w * z, 1 - 2 * x * x - 2 * z * z, 2 * y * z - 2 * w * x],
            [2 * x * z - 2 * w * y, 2 * y * z + 2 * w * x, 1 - 2 * x * x - 2 * y * y],
        ],
        dtype=np.float64,
    )


def quat_from_matrix(R: np.ndarray) -> tuple[float, float, float, float]:
    """Convert a 3x3 rotation matrix to quaternion (w, x, y, z)."""
    R = np.asarray(R, dtype=np.float64)
    trace = R[0, 0] + R[1, 1] + R[2, 2]
    if trace > 0:
        s = 0.5 / math.sqrt(trace + 1.0)
        w = 0.25 / s
        x = (R[2, 1] - R[1, 2]) * s
        y = (R[0, 2] - R[2, 0]) * s
        z = (R[1, 0] - R[0, 1]) * s
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = 2.0 * math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2])
        w = (R[2, 1] - R[1, 2]) / s
        x = 0.25 * s
        y = (R[0, 1] + R[1, 0]) / s
        z = (R[0, 2] + R[2, 0]) / s
    elif R[1, 1] > R[2, 2]:
        s = 2.0 * math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2])
        w = (R[0, 2] - R[2, 0]) / s
        x = (R[0, 1] + R[1, 0]) / s
        y = 0.25 * s
        z = (R[1, 2] + R[2, 1]) / s
    else:
        s = 2.0 * math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1])
        w = (R[1, 0] - R[0, 1]) / s
        x = (R[0, 2] + R[2, 0]) / s
        y = (R[1, 2] + R[2, 1]) / s
        z = 0.25 * s
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / norm, x / norm, y / norm, z / norm)


def quat_from_yaw(yaw: float) -> tuple[float, float, float, float]:
    half = 0.5 * float(yaw)
    return (math.cos(half), 0.0, 0.0, math.sin(half))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotate by `rotation` (unit quaternion w,x,y,z), then translate.

    Stored as plain float tuples so poses are hashable values that compare
    and serialize exactly.
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
    def _of_floats(cls, t: tuple, q: tuple) -> "Pose":
        """Pose(t, q) for float tuples that pass its checks, `q` one that
        _quat_normalize keeps; only `t` is checked again, as it can overflow."""
        if not math.isfinite(sum(t)) and not all(map(math.isfinite, t)):
            raise ValueError("pose components must be finite")
        pose = object.__new__(cls)
        vars(pose).update(translation=t, rotation=q)
        return pose

    def __getstate__(self):
        # The fields only: a pickle never carries the cached matrix or inverse.
        return {"translation": self.translation, "rotation": self.rotation}

    @cached_property
    def _matrix(self) -> np.ndarray:
        """quat_to_matrix(rotation), built on first use; read-only."""
        m = quat_to_matrix(self.rotation)
        m.flags.writeable = False
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to one (3,) point or an (N, 3) array of points."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self._matrix.T + np.asarray(self.translation)

    def compose(self, other: "Pose") -> "Pose":
        """Transform that applies `other` first, then self."""
        t = self.apply(np.asarray(other.translation))
        w, x, y, z = quat_multiply(self.rotation, other.rotation)
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        return Pose._of_floats(tuple(t.tolist()), (w / norm, x / norm, y / norm, z / norm))

    def inverse(self) -> "Pose":
        """The inverse transform, built with its matrix on first use and kept."""
        if "_inverse" not in vars(self):
            w, x, y, z = self.rotation
            conj = (w, -x, -y, -z)  # unit within 1e-12, so _quat_normalize keeps it
            m = quat_to_matrix(conj)
            m.flags.writeable = False
            t_inv = -(np.asarray(self.translation) @ m.T)
            inv = vars(self)["_inverse"] = Pose._of_floats(tuple(t_inv.tolist()), conj)
            vars(inv)["_matrix"] = m
        return vars(self)["_inverse"]

    def tilt_angle(self) -> float:
        """Angle (rad) by which this rotation tips the vertical axis."""
        return math.acos(min(1.0, max(-1.0, float(self._matrix[2, 2]))))

    def heading(self) -> float:
        """Yaw component: direction the rotated x axis points in the x-y plane."""
        m = self._matrix
        return math.atan2(float(m[1, 0]), float(m[0, 0]))


def box_corners(box: Box7) -> np.ndarray:
    """The 8 corners of a box, (8, 3), in the documented canonical order."""
    half = np.array([box.l / 2.0, box.w / 2.0, box.h / 2.0])
    local = _CORNER_SIGNS * half
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return local @ Rz.T + box.center


_TILT_TOLERANCE = 1e-6  # rad


def transform_box(box: Box7, pose: Pose) -> Box7:
    """Map a box through a rigid transform, keeping the yaw-only parameterization.

    Sizes are preserved; yaw picks up the pose's heading. Raises GimbalRisk
    if the pose tips the vertical axis by more than 1e-6 rad, because a
    tilted box has no faithful yaw-only representation.
    """
    if pose.tilt_angle() > _TILT_TOLERANCE:
        raise GimbalRisk(
            f"pose tilts the vertical axis by {pose.tilt_angle():.3e} rad; "
            "boxes here carry yaw only"
        )
    x, y, z = pose.apply(box.center).tolist()
    return Box7(x, y, z, box.l, box.w, box.h, wrap_angle(box.yaw + pose.heading()))


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
