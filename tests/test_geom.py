import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from minidet3d.errors import GimbalRisk
from minidet3d.geom import (
    Box7,
    CameraIntrinsics,
    Pose,
    bev_footprint,
    box_corners,
    project_corners,
    quat_from_yaw,
    quat_to_matrix,
    transform_box,
    wrap_angle,
)
from oracles import ReferencePose, volume

IDENTITY = Pose((0.0, 0.0, 0.0))


def rotz(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_yaw_pose(rng):
    t = tuple(rng.uniform(-20, 20, size=3).tolist())
    return Pose(t, quat_from_yaw(rng.uniform(-math.pi, math.pi)))


class TestBox7:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Box7(0, 0, 0, 0.0, 1, 1, 0)
        with pytest.raises(ValueError):
            Box7(0, 0, 0, 1, -1, 1, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box7(float("nan"), 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            Box7(0, 0, 0, 1, 1, float("inf"), 0)

    def test_yaw_normalized_at_construction(self):
        assert Box7(0, 0, 0, 1, 1, 1, 3 * math.pi).yaw == pytest.approx(math.pi)
        # adding 2*pi yields an identical box
        assert Box7(1, 2, 3, 4, 2, 2, 0.3) == Box7(1, 2, 3, 4, 2, 2, 0.3 + 2 * math.pi)

    @given(st.floats(-50, 50))
    def test_wrap_angle_range_and_period(self, theta):
        wrapped = wrap_angle(theta)
        assert -math.pi < wrapped <= math.pi
        assert wrap_angle(theta + 2 * math.pi) == pytest.approx(wrapped, abs=1e-9)

    def test_wrap_angle_refuses_nan(self):
        with pytest.raises(ValueError, match="^angle must be finite, got nan$"):
            wrap_angle(float("nan"))

    def test_wrap_angle_boundary(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(math.nextafter(math.pi, 4.0)) == math.pi  # not -pi

    # transform_box leaves the wrap of a placed box's yaw to Box7, which relies on this
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(math.pi)
    @example(-math.pi)
    @example(math.nextafter(math.pi, 4.0))
    @example(math.nextafter(math.pi, 0.0))
    @example(math.nextafter(-math.pi, -4.0))
    @example(math.nextafter(-math.pi, 0.0))
    @example(0.0)
    @example(-0.0)
    def test_wrap_angle_is_idempotent_bit_for_bit(self, theta):
        assert wrap_angle(wrap_angle(theta)).hex() == wrap_angle(theta).hex()


def bits(row) -> list[str]:
    return [float(v).hex() for v in row]


RAW_ROWS = st.tuples(
    *[st.floats(-1e4, 1e4)] * 3, *[st.floats(1e-3, 1e3)] * 3, st.floats(-1e3, 1e3))


class TestBox7IsItsRow:
    """A Box7 is the checked tuple of its fields: the constructor's floats with
    yaw wrapped, rebuilt from itself, by `_make`, `_replace` or a pickle, with
    the same bits; and no way of building one skips the checks."""

    @given(raw=RAW_ROWS)
    @example(raw=(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, math.nextafter(math.pi, 4.0)))
    def test_row_is_the_fields_with_yaw_wrapped(self, raw):
        box = Box7(*raw)
        assert isinstance(box, tuple) and len(box) == 7
        assert bits(box) == bits((*raw[:6], wrap_angle(raw[6])))
        assert bits(Box7(*box)) == bits(box) == bits(Box7._make(box)) == bits(box._replace())
        assert bits(box.params()) == bits(box) and bits(box.center) == bits(box[:3])

    @given(raw=RAW_ROWS)
    @example(raw=(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, math.nextafter(math.pi, 4.0)))
    def test_pickle_round_trip_keeps_type_and_bits(self, raw):
        box = Box7(*raw)
        back = pickle.loads(pickle.dumps(box))
        assert type(back) is Box7 and bits(back) == bits(box)

    def test_replace_checks_and_wraps(self):
        box = Box7(1, 2, 3, 4, 5, 6, 0.5)
        assert box._replace(yaw=0.5 + 2 * math.pi) == box
        assert bits(box._replace(x=7)) == bits((7.0, *box[1:]))

    @pytest.mark.parametrize("field, value, message", [
        ("l", -1.0, "Box7 sizes must be positive, got l=-1.0, w=5.0, h=6.0"),
        ("h", 0.0, "Box7 sizes must be positive, got l=4.0, w=5.0, h=0.0"),
        ("x", math.nan, "Box7.x must be finite, got nan"),
        ("yaw", math.inf, "Box7.yaw must be finite, got inf"),
    ])
    def test_make_and_replace_reject_with_the_constructors_message(self, field, value, message):
        box = Box7(1, 2, 3, 4, 5, 6, 0.5)
        row = [value if name == field else v for name, v in zip(Box7._fields, box)]
        for build in (lambda: Box7(*row), lambda: Box7._make(row),
                      lambda: box._replace(**{field: value})):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    def test_volume_above_half_the_float_maximum_is_rejected(self):
        # 4.6e102 ** 3 is finite, but two such volumes sum past the float maximum
        size = 4.6e102
        message = ("Box7 sizes must give a volume of at most 8.988465674311579e+307 (half the "
                   f"float maximum), got l={size}, w={size}, h={size}")
        box = Box7(1, 2, 3, 4, 5, 6, 0.5)
        row = (*box[:3], size, size, size, box.yaw)
        for build in (lambda: Box7(*row), lambda: Box7._make(row),
                      lambda: box._replace(l=size, w=size, h=size)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()
        assert Box7(*row[:3], 4.4e102, 4.4e102, 4.4e102, 0.0).l == 4.4e102  # 8.5e307: kept


    @pytest.mark.parametrize("size", [1e-110, 1e110])
    def test_sizes_whose_volume_underflows_or_overflows_are_rejected(self, size):
        # each size is positive and finite, but l * w * h is 0 or inf
        message = f"Box7 sizes must give a positive, finite volume, got l={size}, w={size}, h={size}"
        box = Box7(1, 2, 3, 4, 5, 6, 0.5)
        row = (*box[:3], size, size, size, box.yaw)
        for build in (lambda: Box7(*row), lambda: Box7._make(row),
                      lambda: box._replace(l=size, w=size, h=size)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()


class TestCorners:
    def test_unit_cube_axis_aligned(self):
        corners = box_corners(Box7(0, 0, 0, 1, 1, 1, 0))
        expected = {(sx * 0.5, sy * 0.5, sz * 0.5) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        assert {tuple(np.round(c, 12)) for c in corners} == expected

    def test_quarter_turn_swaps_extents(self):
        corners = box_corners(Box7(0, 0, 0, 2, 1, 1, math.pi / 2))
        bottom = corners[:4]
        assert np.allclose(sorted(np.abs(bottom[:, 0])), [0.5] * 4)
        assert np.allclose(sorted(np.abs(bottom[:, 1])), [1.0] * 4)
        assert np.allclose(bottom[:, 2], -0.5)

    def test_rotated_box_matches_rotation_matrix_oracle(self):
        # independent oracle: center + Rz(yaw) @ (+-l/2, +-w/2, 0) + (0, 0, +-h/2)
        box = Box7(1, 2, 3, 4, 2, 2, 0.3)
        corners = box_corners(box)
        R = rotz(0.3)
        for corner in corners:
            local = R.T @ (corner - box.center)
            assert abs(abs(local[0]) - 2.0) < 1e-12
            assert abs(abs(local[1]) - 1.0) < 1e-12
            assert abs(abs(local[2]) - 1.0) < 1e-12

    def test_corner_order_bottom_ccw_then_top(self):
        corners = box_corners(Box7(0, 0, 0, 2, 1, 4, 0))
        bottom, top = corners[:4], corners[4:]
        assert np.allclose(bottom[:, 2], -2.0)
        assert np.allclose(top[:, 2], 2.0)
        # bottom CCW viewed from above: positive shoelace sum
        x, y = bottom[:, 0], bottom[:, 1]
        assert np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)) > 0
        # top face matches bottom in x-y
        assert np.allclose(bottom[:, :2], top[:, :2])

    def test_face_centroids_and_center(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            box = Box7(*rng.uniform(-5, 5, 3), *rng.uniform(0.5, 4, 3), rng.uniform(-4, 4))
            corners = box_corners(box)
            assert np.allclose(corners.mean(axis=0), box.center, atol=1e-9)
            delta = corners[4:].mean(axis=0) - corners[:4].mean(axis=0)
            assert np.allclose(delta, [0, 0, box.h], atol=1e-9)

    def test_faces_are_the_iou_footprint_bit_for_bit(self):
        # Ingest's camera corners and the IoU's footprint come from one corner
        # formula, so each face is bev_footprint's (x, y) exactly.
        rng = np.random.default_rng(29)
        boxes = [Box7(*rng.uniform(-20, 20, 3), *rng.uniform(0.1, 5, 3), rng.uniform(-4, 4))
                 for _ in range(300)]
        boxes += [b._replace(x=b.x + 5e4 * math.cos(b.yaw), y=b.y + 5e4 * math.sin(b.yaw))
                  for b in boxes[:100]]
        boxes += [b._replace(yaw=math.pi) for b in boxes[:100]]
        for box in boxes:
            corners = box_corners(box).tolist()
            footprint = [list(xy) for xy in bev_footprint(box)]
            assert [c[:2] for c in corners[:4]] == [c[:2] for c in corners[4:]] == footprint, box
            assert [c[2] for c in corners] == [box.z - box.h / 2] * 4 + [box.z + box.h / 2] * 4


class TestPose:
    def test_rejects_non_unit_quaternion(self):
        with pytest.raises(ValueError):
            Pose((0, 0, 0), (0.9, 0.1, 0.0, 0.0))

    def test_identity_compose(self):
        p = Pose((1, 2, 3), quat_from_yaw(0.7))
        assert IDENTITY.compose(p) == p

    def test_inverse_of_identity(self):
        assert IDENTITY.inverse() == IDENTITY

    def test_compose_is_associative(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a, b, c = (random_yaw_pose(rng) for _ in range(3))
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            assert np.allclose(left.translation, right.translation, atol=1e-9)
            assert np.allclose(quat_to_matrix(left.rotation), quat_to_matrix(right.rotation), atol=1e-9)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            p = Pose(tuple(rng.uniform(-10, 10, 3).tolist()), tuple(q.tolist()))
            ident = p.compose(p.inverse())
            assert np.allclose(ident.translation, 0, atol=1e-9)
            assert np.allclose(quat_to_matrix(ident.rotation), np.eye(3), atol=1e-9)

    def test_translation_then_rotation_hand_case(self):
        # rotate (1,0,0) by 90 degrees about z, then translate by (1,0,0)
        combined = Pose((1, 0, 0)).compose(Pose((0, 0, 0), quat_from_yaw(math.pi / 2)))
        assert np.allclose(combined.apply(np.array([1.0, 0.0, 0.0])), [1, 1, 0], atol=1e-12)

    def test_inverse_of_translation(self):
        p = Pose((3.0, -2.0, 1.0))
        assert np.allclose(p.inverse().translation, (-3.0, 2.0, -1.0))

    def test_inverse_roundtrip_on_points(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        p = Pose(tuple(rng.uniform(-10, 10, 3).tolist()), tuple(q.tolist()))
        pts = rng.uniform(-50, 50, size=(100, 3))
        assert np.allclose(p.inverse().apply(p.apply(pts)), pts, atol=1e-9)

    def test_matrix_export_matches_apply(self):
        rng = np.random.default_rng(3)
        p = random_yaw_pose(rng)
        pts = rng.uniform(-5, 5, size=(10, 3))
        T = np.eye(4)
        T[:3, :3] = quat_to_matrix(p.rotation)
        T[:3, 3] = p.translation
        hom = np.hstack([pts, np.ones((10, 1))])
        assert np.allclose((T @ hom.T).T[:, :3], p.apply(pts), atol=1e-12)


class TestPoseMatrixCache:
    def _pose(self, seed=4):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=4)
        return Pose(tuple(rng.uniform(-10, 10, 3).tolist()), tuple((q / np.linalg.norm(q)).tolist()))

    def test_cached_matrix_is_read_only_and_bit_equal(self):
        p = self._pose()
        assert p._matrix is p._matrix
        assert not p._matrix.flags.writeable
        with pytest.raises(ValueError):
            p._matrix[0, 0] = 2.0
        assert p._matrix.tobytes() == quat_to_matrix(p.rotation).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 5e-10, 1.0 - 5e-10])
    def test_inverse_comes_with_its_matrix(self, scale):
        # the inverse's cache holds the matrix that rotated its translation;
        # it must be the one quat_to_matrix builds for the inverse's own
        # rotation, also when the input quaternion was renormalised
        rng = np.random.default_rng(6)
        q = rng.normal(size=4)
        q *= scale / np.linalg.norm(q)
        inv = Pose(tuple(rng.uniform(-10, 10, 3).tolist()), tuple(q.tolist())).inverse()
        assert "_matrix" in vars(inv) and not inv._matrix.flags.writeable
        assert inv._matrix.tobytes() == quat_to_matrix(inv.rotation).tobytes()

    def test_value_semantics_do_not_see_the_cache(self):
        filled, empty = self._pose(), self._pose()
        filled.apply(np.zeros(3))
        assert "_matrix" in vars(filled) and "_matrix" not in vars(empty)
        assert filled == empty and hash(filled) == hash(empty) and repr(filled) == repr(empty)
        assert pickle.dumps(filled) == pickle.dumps(empty)
        back = pickle.loads(pickle.dumps(filled))
        assert back == filled and "_matrix" not in vars(back)
        assert back._matrix.tobytes() == filled._matrix.tobytes()

    def test_inverse_is_kept_outside_the_value(self):
        filled, empty = self._pose(), self._pose()
        inv = filled.inverse()
        assert filled.inverse() is inv and vars(filled)["_inverse"] is inv
        assert "_inverse" not in vars(empty)
        assert filled == empty and hash(filled) == hash(empty) and repr(filled) == repr(empty)
        assert pickle.dumps(filled) == pickle.dumps(empty)
        back = pickle.loads(pickle.dumps(filled))
        assert back == filled and "_inverse" not in vars(back) and "_matrix" not in vars(back)
        assert repr(back.inverse()) == repr(inv) == repr(empty.inverse())
        ref = ReferencePose(filled.translation, filled.rotation).inverse()
        assert repr(inv.translation + inv.rotation) == repr(ref.translation + ref.rotation)

    @pytest.mark.parametrize("make", [
        lambda P: P((1.7e308, 1.7e308, 0.0), quat_from_yaw(math.pi / 4)).inverse(),
        lambda P: P((1.7e308, 0.0, 0.0)).compose(P((1.7e308, 0.0, 0.0))),
    ], ids=["inverse", "compose"])
    def test_derived_translation_that_overflows_is_rejected(self, make):
        with pytest.raises(ValueError) as ref, np.errstate(over="ignore"):
            make(ReferencePose)
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"), \
                np.errstate(over="ignore"):
            make(Pose)

    @pytest.mark.parametrize("translation, rotation", [
        ((0, 0), (1, 0, 0, 0)),
        ((0, 0, 0), (1, 0, 0)),
        ((0, 0, float("nan")), (1, 0, 0, 0)),
        ((0, 0, 0), (1, float("inf"), 0, 0)),
        ((0, 0, 0), (0.9, 0.1, 0.0, 0.0)),
        ((0, 0, 0), (1 + 2e-9, 0, 0, 0)),
        (("a", 0, 0), (1, 0, 0, 0)),
        (5, (1, 0, 0, 0)),
    ])
    def test_rejects_what_the_reference_rejects_with_its_message(self, translation, rotation):
        with pytest.raises((TypeError, ValueError)) as ref:
            ReferencePose(translation, rotation)
        with pytest.raises(ref.type, match=f"^{re.escape(str(ref.value))}$"):
            Pose(translation, rotation)


class TestTransformBox:
    def test_identity(self):
        box = Box7(1, 2, 3, 4, 2, 2, 0.3)
        assert transform_box(box, IDENTITY) == box

    def test_pure_translation(self):
        box = Box7(1, 2, 3, 4, 2, 2, 0.3)
        moved = transform_box(box, Pose((10, 0, 0)))
        assert moved == Box7(11, 2, 3, 4, 2, 2, 0.3)

    def test_quarter_turn(self):
        moved = transform_box(Box7(1, 0, 0, 2, 1, 1, 0), Pose((0, 0, 0), quat_from_yaw(math.pi / 2)))
        assert np.allclose([moved.x, moved.y, moved.z], [0, 1, 0], atol=1e-12)
        assert moved.yaw == pytest.approx(math.pi / 2)

    def test_corner_commutation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            box = Box7(*rng.uniform(-5, 5, 3), *rng.uniform(0.5, 4, 3), rng.uniform(-4, 4))
            pose = random_yaw_pose(rng)
            direct = pose.apply(box_corners(box))
            via_box = box_corners(transform_box(box, pose))
            assert np.allclose(direct, via_box, atol=1e-9)

    def test_roundtrip_and_volume_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            box = Box7(*rng.uniform(-5, 5, 3), *rng.uniform(0.5, 4, 3), rng.uniform(-4, 4))
            pose = random_yaw_pose(rng)
            back = transform_box(transform_box(box, pose), pose.inverse())
            assert np.allclose(back.params(), box.params(), atol=1e-9)
            assert volume(transform_box(box, pose)) == pytest.approx(volume(box), abs=1e-12)

    def test_yaw_past_pi_is_wrapped_once_by_box7(self):
        box = Box7(1.5, -2.0, 0.5, 4.0, 2.0, 1.5, 2.9)
        pose = Pose((3.0, -1.0, 0.25), quat_from_yaw(2.5))
        assert box.yaw + pose.heading() > math.pi
        expected = Box7(*pose.apply(box.center).tolist(), box.l, box.w, box.h,
                        wrap_angle(box.yaw + pose.heading()))
        assert bits(transform_box(box, pose)) == bits(expected)

    def test_tilting_pose_raises(self):
        tilt = Pose((0, 0, 0), (math.cos(0.05), math.sin(0.05), 0.0, 0.0))  # 0.1 rad roll
        with pytest.raises(GimbalRisk):
            transform_box(Box7(0, 0, 0, 1, 1, 1, 0), tilt)

    def test_negligible_tilt_allowed(self):
        eps = 2.5e-7  # half-angle for a 5e-7 rad tilt, below the 1e-6 gate
        pose = Pose((0, 0, 0), _normalized((math.cos(eps), math.sin(eps), 0.0, 0.0)))
        transform_box(Box7(0, 0, 0, 1, 1, 1, 0), pose)


def _normalized(q):
    n = math.sqrt(sum(c * c for c in q))
    return tuple(c / n for c in q)


class TestProjection:
    CAM = CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)

    def test_optical_axis(self):
        (p,) = project_corners(np.array([[0.0, 0.0, 1.0]]), self.CAM)
        assert (p.u, p.v, p.visible) == (50.0, 50.0, True)

    def test_behind_camera_invisible(self):
        (p,) = project_corners(np.array([[0.0, 0.0, -1.0]]), self.CAM)
        assert not p.visible
        assert p.u is None and p.v is None

    def test_zero_depth_invisible(self):
        (p,) = project_corners(np.array([[1.0, 1.0, 0.0]]), self.CAM)
        assert not p.visible

    def test_out_of_bounds_keeps_pixel(self):
        (p,) = project_corners(np.array([[10.0, 0.0, 1.0]]), self.CAM)
        assert p.u == pytest.approx(1050.0)
        assert not p.visible

    def test_visibility_implication(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-3, 3, size=(500, 3))
        for pt, proj in zip(pts, project_corners(pts, self.CAM)):
            if proj.visible:
                assert pt[2] > 0
                assert 0 <= proj.u < self.CAM.width
                assert 0 <= proj.v < self.CAM.height

    def test_projected_corner_is_a_plain_named_tuple(self):
        behind, ahead = project_corners(np.array([[0.0, 0.0, -1.0], [0.0, 10.0, 1.0]]), self.CAM)
        assert repr(behind) == "ProjectedCorner(u=None, v=None, visible=False)"
        assert repr(ahead) == "ProjectedCorner(u=50.0, v=1050.0, visible=False)"
        assert list(ahead) == [50.0, 1050.0, False]
        assert pickle.loads(pickle.dumps(ahead)) == ahead

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1, fy=1, cx=0, cy=0, width=10, height=10)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=0, height=10)


def test_stacked_numpy_calls_give_each_row_its_own_bits():
    """The numpy identities that stacked synthesis and sample building rely
    on: a stack of single points through (3, 3) or (N, 3, 3) matrices, one
    matrix through a stack of columns, and tanh over many rows give each row
    the bits it gets alone. A 2-D (N, 3) @ (3, 3) is one GEMM, which does not."""
    rng = np.random.default_rng(35)
    bits = np.ndarray.tobytes
    for n in (1, 2, 7, 384):
        v = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        r, rs = rng.normal(size=(3, 3)), rng.normal(size=(n, 3, 3))
        assert bits(np.matmul(v[:, None, :], r.swapaxes(-1, -2))[:, 0]) == bits(
            np.array([p @ r.T for p in v]))
        assert bits(np.matmul(v[:, None, :], rs.swapaxes(-1, -2))[:, 0]) == bits(
            np.array([p @ m.T for p, m in zip(v, rs)]))
        mix, params = rng.normal(size=(25, 7)), rng.normal(size=(n, 7))
        assert bits(np.matmul(mix, params[..., None])[..., 0]) == bits(
            np.array([mix @ p for p in params]))
        x = rng.normal(size=(n, 25)) * 3.0
        assert bits(np.tanh(x)) == bits(np.array([np.tanh(row) for row in x]))
