import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minidet3d.errors import DegenerateOverlap, EmptyBatch, NonSmoothPoint
from minidet3d.geom import Box7, Pose, quat_from_yaw, transform_box
from minidet3d.geom import wrap_angle
from minidet3d.iou import (
    _MC_CHUNK,
    _TIE_EPS,
    IoUResult,
    bev_footprint,
    iou_3d,
    iou_loss_grad,
    monte_carlo_iou,
    polygon_area,
    rectangle_clip,
)
from oracles import batch_iou_loss, fd_iou_loss_grad, grad_outcome, grads_agree, iou_loss
from oracles import reference_iou_3d, reference_monte_carlo_iou, volume
from oracles import polygon_clip, reference_frame_iou_3d, reference_polygon_clip, world_frame_iou
from oracles import reference_bev_footprint, world_frame_iou_loss_grad

UNIT_SQUARE = [(0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5)]


def random_box(rng):
    return Box7(*rng.uniform(-5, 5, 3), *rng.uniform(0.5, 4, 3), rng.uniform(-math.pi, math.pi))


class TestPolygonClip:
    def test_self_clip_is_identity(self):
        out = polygon_clip(UNIT_SQUARE, UNIT_SQUARE)
        assert abs(polygon_area(out) - 1.0) <= 1e-12

    def test_disjoint_squares_empty(self):
        shifted = [(x + 5.0, y) for x, y in UNIT_SQUARE]
        assert polygon_clip(UNIT_SQUARE, shifted) == []

    def test_half_overlapping_squares(self):
        shifted = [(x + 0.5, y) for x, y in UNIT_SQUARE]
        out = polygon_clip(UNIT_SQUARE, shifted)
        assert abs(polygon_area(out) - 0.5) <= 1e-12

    def test_result_is_convex_ccw(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = bev_footprint(random_box(rng))
            b = bev_footprint(random_box(rng))
            out = polygon_clip(a, b)
            n = len(out)
            for i in range(n):
                ox, oy = out[i]
                ax, ay = out[(i + 1) % n]
                bx, by = out[(i + 2) % n]
                cross = (ax - ox) * (by - ay) - (ay - oy) * (bx - ax)
                assert cross >= -1e-12

    def test_empty_inputs(self):
        assert polygon_clip([], UNIT_SQUARE) == []
        assert polygon_clip(UNIT_SQUARE, []) == []


class TestRectangleClip:
    def test_self_clip_is_identity(self):
        assert rectangle_clip(UNIT_SQUARE, 0.5, 0.5) == UNIT_SQUARE

    def test_disjoint_square_empty(self):
        assert rectangle_clip([(x + 5.0, y) for x, y in UNIT_SQUARE], 0.5, 0.5) == []

    def test_half_overlapping_squares(self):
        out = rectangle_clip([(x + 0.5, y) for x, y in UNIT_SQUARE], 0.5, 0.5)
        assert polygon_area(out) == 0.5

    def test_equals_the_world_frame_clip_and_stays_on_the_subject_edges(self):
        # footprints turned into g's frame: the clip is g's axis-aligned rectangle
        rng = np.random.default_rng(0)
        for _ in range(500):
            p, g = random_box(rng), jittered(rng, random_box(rng), 0.5)
            P = bev_footprint((*rng.uniform(-2, 2, 2), 0.0, p.l, p.w, 0.0, p.yaw))
            out = rectangle_clip(P, g.l / 2.0, g.w / 2.0)
            G = bev_footprint((0.0, 0.0, 0.0, g.l, g.w, 0.0, 0.0))
            assert abs(polygon_area(out) - polygon_area(polygon_clip(P, G))) <= 1e-12
            for x, y in out:
                assert abs(x) <= g.l / 2.0 and abs(y) <= g.w / 2.0
                # on or inside each of P's edges, within rounding
                for (ax, ay), (bx, by) in zip(P[-1:] + P[:-1], P):
                    assert (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= -1e-12

    def test_empty_input(self):
        assert rectangle_clip([], 0.5, 0.5) == []


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area(UNIT_SQUARE) == 1.0

    def test_empty(self):
        assert polygon_area([]) == 0.0

    def test_triangle(self):
        assert polygon_area([(0, 0), (2, 0), (0, 2)]) == 2.0


class TestIoU3D:
    def test_identical_boxes(self):
        box = Box7(1, 2, 3, 4, 2, 2, 0.3)
        res = iou_3d(box, box)
        assert res.iou == 1.0
        assert res.intersection_volume == pytest.approx(volume(box))
        assert res.union_volume == pytest.approx(volume(box))

    @pytest.mark.parametrize("other, expected", [
        (Box7(1, 2, 3, 4, 2, 2, 0.0), (1.0, 16.0, 16.0)),  # identical: no clip
        (Box7(50, 2, 3, 4, 2, 2, 0.0), (0.0, 0.0, 32.0)),  # footprints apart: no clip
        (Box7(3, 2, 3, 4, 2, 2, 0.0), (1.0 / 3.0, 8.0, 24.0)),  # clipped
    ], ids=["identical", "separated", "clipped"])
    def test_every_exit_returns_an_iou_result(self, other, expected):
        res = iou_3d(Box7(1, 2, 3, 4, 2, 2, 0.0), other)
        assert type(res) is IoUResult and len(res) == 3
        assert (res.iou, res.intersection_volume, res.union_volume) == pytest.approx(expected)
        assert res == tuple(res) and res._asdict()["iou"] == res[0]
        iou, inter, union = res
        assert res._replace(iou=0.5) == (0.5, inter, union)

    def test_far_apart(self):
        a = Box7(0, 0, 0, 1, 1, 1, 0)
        b = Box7(100, 0, 0, 1, 1, 1, 0.4)
        assert iou_3d(a, b).iou == 0.0

    def test_rotated_45_degrees_analytic(self):
        # BEV intersection of a unit square with its 45-degree rotation is a
        # regular octagon of area 2*(sqrt(2)-1); with full height overlap the
        # IoU comes to 1/sqrt(2).
        a = Box7(0, 0, 0, 1, 1, 1, 0)
        b = Box7(0, 0, 0, 1, 1, 1, math.pi / 4)
        res = iou_3d(a, b)
        octagon = 2.0 * (math.sqrt(2.0) - 1.0)
        assert res.intersection_volume == pytest.approx(octagon, abs=1e-9)
        assert res.iou == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_rotated_45_degrees_monte_carlo(self):
        a = Box7(0, 0, 0, 1, 1, 1, 0)
        b = Box7(0, 0, 0, 1, 1, 1, math.pi / 4)
        mc = monte_carlo_iou(a, b, 1_000_000, seed=99)
        assert abs(mc.iou - 1.0 / math.sqrt(2.0)) <= 4 * mc.standard_error

    def test_axis_aligned_offset(self):
        a = Box7(0, 0, 0, 1, 1, 1, 0)
        b = Box7(0.5, 0, 0, 1, 1, 1, 0)
        assert iou_3d(a, b).iou == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            ra, rb = iou_3d(a, b), iou_3d(b, a)
            assert ra.iou == rb.iou
            assert ra.intersection_volume == rb.intersection_volume
            assert ra.union_volume == rb.union_volume

    def test_frame_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b = random_box(rng), random_box(rng)
            pose = Pose(
                tuple(rng.uniform(-20, 20, 3).tolist()),
                quat_from_yaw(rng.uniform(-math.pi, math.pi)),
            )
            before = iou_3d(a, b).iou
            after = iou_3d(transform_box(a, pose), transform_box(b, pose)).iou
            assert after == pytest.approx(before, abs=1e-9)

    def test_yaw_periodicity_square_footprint(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.uniform(0.5, 3)
            a = Box7(*rng.uniform(-2, 2, 3), s, s, rng.uniform(0.5, 3), rng.uniform(-3, 3))
            b = Box7(*rng.uniform(-2, 2, 3), s, s, rng.uniform(0.5, 3), rng.uniform(-3, 3))
            base = iou_3d(a, b).iou
            shifted = iou_3d(
                Box7(a.x, a.y, a.z, a.l, a.w, a.h, a.yaw + math.pi),
                Box7(b.x, b.y, b.z, b.l, b.w, b.h, b.yaw + math.pi),
            ).iou
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_result_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            res = iou_3d(a, b)
            assert 0.0 <= res.iou <= 1.0
            assert 0.0 <= res.intersection_volume <= res.union_volume
            assert res.intersection_volume <= min(volume(a), volume(b)) + 1e-12
            if res.union_volume > 0:
                assert res.iou * res.union_volume == pytest.approx(
                    res.intersection_volume, abs=1e-12
                )


class TestIoULoss:
    def test_identical(self):
        box = Box7(0, 0, 0, 1, 1, 1, 0)
        assert iou_loss(box, box) == 0.0

    def test_disjoint(self):
        assert iou_loss(Box7(0, 0, 0, 1, 1, 1, 0), Box7(50, 0, 0, 1, 1, 1, 0)) == 1.0

    def test_rotated_pair(self):
        a = Box7(0, 0, 0, 1, 1, 1, 0)
        b = Box7(0, 0, 0, 1, 1, 1, math.pi / 4)
        assert iou_loss(a, b) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-9)

    def test_batch_identical_pairs(self):
        box = Box7(0, 0, 0, 1, 1, 1, 0)
        assert batch_iou_loss([(box, box)] * 5) == 0.0

    def test_batch_mixed(self):
        a = Box7(0, 0, 0, 1, 1, 1, 0)
        far = Box7(50, 0, 0, 1, 1, 1, 0)
        assert batch_iou_loss([(a, a), (a, far)]) == pytest.approx(0.5)

    def test_batch_three_known_ious(self):
        a = Box7(0, 0, 0, 1, 1, 1, 0)
        third = Box7(0.5, 0, 0, 1, 1, 1, 0)  # IoU 1/3
        far = Box7(50, 0, 0, 1, 1, 1, 0)  # IoU 0
        expected = (0.0 + 2.0 / 3.0 + 1.0) / 3.0
        assert batch_iou_loss([(a, a), (third, a), (far, a)]) == pytest.approx(expected, abs=1e-12)

    def test_batch_empty(self):
        with pytest.raises(EmptyBatch):
            batch_iou_loss([])


class TestIoULossGrad:
    def test_degenerate_identical(self):
        box = Box7(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(DegenerateOverlap):
            iou_loss_grad(box, box)

    def test_degenerate_disjoint(self):
        with pytest.raises(DegenerateOverlap):
            iou_loss_grad(Box7(0, 0, 0, 1, 1, 1, 0), Box7(50, 0, 0, 1, 1, 1, 0))

    def test_offset_x_slope_sign_by_direct_evaluation(self):
        # moving the prediction further from the target must increase the loss
        g = Box7(0, 0, 0, 1, 1, 1, 0)
        h = 1e-4
        up = iou_loss(Box7(0.5 + h, 0, 0, 1, 1, 1, 0), g)
        down = iou_loss(Box7(0.5 - h, 0, 0, 1, 1, 1, 0), g)
        assert (up - down) / (2 * h) > 0

    def test_offset_x_gradient_sign(self):
        # same-size cubes at offset 0.5 have flush w/h faces (a kink), so the
        # gradient check uses a nearby configuration with distinct sizes
        p = Box7(0.5, 0, 0, 1.0, 0.9, 1.1, 0)
        g = Box7(0, 0, 0, 1.2, 1.1, 0.9, 0)
        grad = iou_loss_grad(p, g)
        assert grad[0] > 0
        h = 1e-4
        up = iou_loss(Box7(0.5 + h, 0, 0, 1.0, 0.9, 1.1, 0), g)
        down = iou_loss(Box7(0.5 - h, 0, 0, 1.0, 0.9, 1.1, 0), g)
        assert grad[0] == pytest.approx((up - down) / (2 * h), rel=0.02)

    def test_symmetric_configuration_zero_y_gradient(self):
        # mirror-symmetric about the x axis: the y derivative vanishes
        p = Box7(0.5, 0, 0, 1.0, 0.9, 1.1, 0)
        g = Box7(0, 0, 0, 1.2, 1.1, 0.9, 0)
        grad = iou_loss_grad(p, g)
        assert abs(grad[1]) < 1e-9

    def test_flush_faces_are_a_nonsmooth_point(self):
        # equal-size cubes offset only in x: IoU peaks with a kink in w and h
        # where the faces are flush, which the step-halving check must catch
        p = Box7(0.5, 0, 0, 1, 1, 1, 0)
        g = Box7(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(NonSmoothPoint):
            iou_loss_grad(p, g)

    def test_nonsmooth_or_degenerate_at_touching_faces(self):
        p = Box7(1.0, 0, 0, 1, 1, 1, 0)
        g = Box7(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises((NonSmoothPoint, DegenerateOverlap)):
            iou_loss_grad(p, g)


def closed_form_containment_grad(p, g):
    """IoU-loss gradient when one box contains the other in 3D: IoU is the
    ratio of the volumes, so only p's sizes matter."""
    lwh = np.array([p.w * p.h, p.l * p.h, p.l * p.w])
    grad = np.zeros(7)
    if volume(p) < volume(g):  # IoU = vol_p / vol_g
        grad[3:6] = -lwh / volume(g)
    else:  # IoU = vol_g / vol_p
        grad[3:6] = volume(g) * lwh / volume(p)**2
    return grad


class TestAnalyticIoULossGrad:
    def test_matches_finite_differences_on_jittered_pairs(self):
        # Predictions jittered about a ground truth, as in stage-2 training.
        # Half the ground truths sit near yaw = +-pi so that jittered yaws wrap.
        rng = np.random.default_rng(2718)
        accepted = oracle_skips = wraps = 0
        orders = set()
        for n in range(600):
            yaw = rng.uniform(-math.pi, math.pi) if n % 2 else math.pi - rng.uniform(-0.3, 0.3)
            g = Box7(*rng.uniform(-20, 20, 2), rng.uniform(-1, 1), *rng.uniform(0.3, 5, 3), yaw)
            jitter = rng.normal(0, 1, 7) * np.array([0.3, 0.3, 0.2, 0.2 * g.l, 0.2 * g.w, 0.2 * g.h, 0.4])
            params = g.params() + jitter
            params[3:6] = np.abs(params[3:6]) + 0.05
            p = Box7(*params)
            try:
                expected = fd_iou_loss_grad(p, g)
            except DegenerateOverlap:
                with pytest.raises(DegenerateOverlap):
                    iou_loss_grad(p, g)
                oracle_skips += 1
                continue
            except NonSmoothPoint:
                oracle_skips += 1
                continue
            got = iou_loss_grad(p, g)  # raises nothing where the oracle accepts
            for i in range(7):
                assert grads_agree(got[i], expected[i]), (n, i, got, expected)
            accepted += 1
            orders.add(tuple(p.params().tolist()) < tuple(g.params().tolist()))
            wraps += abs(p.yaw - g.yaw) > math.pi
        assert accepted >= 500 and oracle_skips < 100
        assert orders == {True, False}
        assert wraps >= 20

    @pytest.mark.parametrize(
        "p, g",
        [
            (Box7(0.1, -0.2, 0.05, 1.0, 0.6, 0.8, 0.3), Box7(0, 0, 0, 3, 2, 1.5, 0.1)),
            (Box7(0, 0, 0, 3, 2, 1.5, 0.1), Box7(0.1, -0.2, 0.05, 1.0, 0.6, 0.8, 0.3)),
        ],
        ids=["p-inside-g", "g-inside-p"],
    )
    def test_containment_closed_form(self, p, g):
        got = iou_loss_grad(p, g)
        assert np.allclose(got, closed_form_containment_grad(p, g), rtol=1e-12, atol=1e-14)
        assert np.allclose(got, fd_iou_loss_grad(p, g), rtol=1e-3, atol=1e-7)

    def test_exact_next_to_a_tie_where_differences_fail(self):
        # p's right face is 1e-5 inside g's: the finite-difference steps
        # straddle the tie, while the exact gradient is the containment one
        g = Box7(0, 0, 0, 2, 2, 1, 0)
        p = Box7(0.5 - 1e-5, 0, 0, 1, 0.6, 0.5, 0)
        got = iou_loss_grad(p, g)
        assert np.allclose(got, closed_form_containment_grad(p, g), rtol=1e-12, atol=1e-14)
        with pytest.raises(NonSmoothPoint):
            fd_iou_loss_grad(p, g)

    def test_corner_on_edge_is_a_nonsmooth_point(self):
        g = Box7(0, 0, 0, 2, 2, 1, 0)
        p = Box7(0.5, 0, 0, 1, 0.6, 0.5, 0)  # right face flush with g's
        with pytest.raises(NonSmoothPoint):
            iou_loss_grad(p, g)

    def test_yaw_wrap_pair(self):
        # yaws on both sides of +-pi; turning the scene by pi about the z axis
        # gives a pair away from the wrap whose gradient differs only in the
        # sign of its x and y components
        g = Box7(1.0, -0.5, 0.2, 2.0, 1.0, 1.5, math.pi - 0.05)
        p = Box7(1.2, -0.4, 0.3, 1.8, 1.1, 1.4, -math.pi + 0.07)
        got = iou_loss_grad(p, g)
        assert np.allclose(got, fd_iou_loss_grad(p, g), rtol=1e-2, atol=1e-6)
        turned = iou_loss_grad(
            Box7(-p.x, -p.y, p.z, p.l, p.w, p.h, p.yaw - math.pi),
            Box7(-g.x, -g.y, g.z, g.l, g.w, g.h, g.yaw - math.pi),
        )
        assert np.allclose(turned * [-1, -1, 1, 1, 1, 1, 1], got, rtol=1e-9, atol=1e-12)


def stage2_like_pair(rng, n):
    """A prediction jittered about a ground truth, as in stage-2 training; at
    even n the ground truth's yaw is near +-pi, so the jittered yaw can wrap."""
    yaw = rng.uniform(-math.pi, math.pi) if n % 2 else math.pi - rng.uniform(-0.3, 0.3)
    g = Box7(*rng.uniform(-20, 20, 2), rng.uniform(-1, 1), *rng.uniform(0.3, 5, 3), yaw)
    jitter = rng.normal(0, 1, 7) * np.array([0.3, 0.3, 0.2, 0.2 * g.l, 0.2 * g.w, 0.2 * g.h, 0.4])
    params = g.params() + jitter
    params[3:6] = np.abs(params[3:6]) + 0.05
    return Box7(*params), g


def grad_or_skip(p, g):
    """iou_loss_grad's gradient, or the class of the exception it raises."""
    try:
        return iou_loss_grad(p, g)
    except (DegenerateOverlap, NonSmoothPoint) as e:
        return type(e)


def assert_close_or_same_skip(got, expected, rel, context):
    """Both skipped alike, or gradients within `rel` of the largest component."""
    if isinstance(expected, type) or isinstance(got, type):
        assert got is expected, context
    else:
        assert np.abs(got - expected).max() <= rel * np.abs(expected).max(), context


def rigid_move(box, turn, tx, ty):
    """`box` turned by `turn` about the z axis, then moved by (tx, ty)."""
    c, s = math.cos(turn), math.sin(turn)
    return Box7(c * box.x - s * box.y + tx, s * box.x + c * box.y + ty, box.z, box.l, box.w,
                box.h, box.yaw + turn)


# Near-tie pairs. g is axis-aligned at the origin, its top-right corner at
# (2, 1). p is turned by NEAR_YAW, so that its corner 2 (-l/2, w/2) is its
# uppermost and its edge from corner 1 to corner 2 has the outward normal
# NEAR_NORMAL, up and to the right. Distances are in tie tolerances.
NEAR_G = Box7(0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0)
NEAR_YAW, NEAR_L, NEAR_W = -0.6, 1.6, 1.2
NEAR_TOL = _TIE_EPS * NEAR_G.l  # g's length is the largest size of either box
NEAR_NORMAL = (-math.sin(NEAR_YAW), math.cos(NEAR_YAW))


def near_p_with_corner_2_at(x, y):
    c, s = math.cos(NEAR_YAW), math.sin(NEAR_YAW)
    ox, oy = -NEAR_L / 2, NEAR_W / 2
    return Box7(x - (c * ox - s * oy), y - (s * ox + c * oy), 0.1, NEAR_L, NEAR_W, 1.0, NEAR_YAW)


def near_p_with_edge_middle_at(x, y):
    """p whose edge from corner 1 to corner 2 has its middle at (x, y)."""
    nx, ny = NEAR_NORMAL
    return Box7(x - nx * NEAR_W / 2, y - ny * NEAR_W / 2, 0.1, NEAR_L, NEAR_W, 1.0, NEAR_YAW)


def near_tie_cases():
    """(p, g, is a tie) at and beside each of the three kinds of tie."""
    nx, ny = NEAR_NORMAL
    c, s = math.cos(NEAR_YAW), math.sin(NEAR_YAW)
    cases = []
    for d in (0.0, 0.5, -0.5, 2.0, -2.0):  # + outside the other box, - inside
        cases.append(pytest.param(near_p_with_corner_2_at(0.5, 1.0 + d * NEAR_TOL), NEAR_G,
                                  abs(d) <= 1.0, id=f"p-corner-{d:+}"))
        cases.append(pytest.param(near_p_with_edge_middle_at(2.0 - d * NEAR_TOL * nx,
                                                             1.0 - d * NEAR_TOL * ny),
                                  NEAR_G, abs(d) <= 1.0, id=f"g-corner-{d:+}"))
    # p's edge crosses g's top side tol/2 from g's corner; then at (0.5, 1),
    # tol/2 from its own corner 2, which lies along (-cos, -sin) from there
    cases.append(pytest.param(near_p_with_edge_middle_at(2.0 - NEAR_TOL / 2, 1.0), NEAR_G, True,
                              id="crossing-at-g-corner"))
    cases.append(pytest.param(near_p_with_corner_2_at(0.5 - c * NEAR_TOL / 2,
                                                      1.0 - s * NEAR_TOL / 2),
                              NEAR_G, True, id="crossing-at-p-corner"))
    cases.append(pytest.param(Box7(0.3, -0.2, 0.1, 1.0, 0.6, 0.8, 0.4), NEAR_G, False,
                              id="p-inside-g"))
    cases.append(pytest.param(Box7(0.1, 0.1, 0.05, 5.0, 3.4, 1.2, -0.2), NEAR_G, False,
                              id="g-inside-p"))
    return cases


class TestGradInTheClipBoxFrame:
    """The gradient works in g's frame, so a pair far from the origin loses to
    rounding only what placing it there loses, and near the origin it is the
    world-frame gradient it replaced."""

    def test_matches_the_world_frame_reference_near_the_origin(self):
        rng = np.random.default_rng(2718)
        accepted = 0
        for n in range(600):
            p, g = stage2_like_pair(rng, n)
            try:
                expected = world_frame_iou_loss_grad(p, g)
            except (DegenerateOverlap, NonSmoothPoint) as e:
                expected = type(e)
            assert_close_or_same_skip(grad_or_skip(p, g), expected, 1e-12, (n, p, g))
            accepted += not isinstance(expected, type)
        assert accepted >= 550

    @pytest.mark.parametrize("p, g, tie", near_tie_cases())
    def test_matches_the_world_frame_reference_at_near_ties(self, p, g, tie):
        # the near-origin comparison on pairs a tie tolerance or two from a
        # corner on an edge, an edge crossing at an edge end, or containment
        try:
            expected = world_frame_iou_loss_grad(p, g)
        except (DegenerateOverlap, NonSmoothPoint) as e:
            expected = type(e)
        assert (expected is NonSmoothPoint) if tie else not isinstance(expected, type)
        assert_close_or_same_skip(grad_or_skip(p, g), expected, 1e-12, (p, g))

    @pytest.mark.parametrize("offset", [1e3, 5e3, 5e4], ids=["1 km", "5 km", "50 km"])
    def test_pairs_moved_away_match_the_pairs_at_the_origin(self, offset):
        rng = np.random.default_rng(2718)
        accepted = 0
        for n in range(600):
            p, g = stage2_like_pair(rng, n)
            angle = 0.7 + n
            ox, oy = offset * math.cos(angle), offset * math.sin(angle)
            far_p, far_g = (b._replace(x=b.x + ox, y=b.y + oy) for b in (p, g))
            base = grad_or_skip(p, g)
            assert_close_or_same_skip(grad_or_skip(far_p, far_g), base, 1e-9, (n, p, g))
            accepted += not isinstance(base, type)
        assert accepted >= 550

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), turn=st.floats(-math.pi, math.pi),
           tx=st.floats(-5e4, 5e4), ty=st.floats(-5e4, 5e4))
    def test_a_rigidly_moved_pair_turns_its_xy_gradient(self, seed, turn, tx, ty):
        # generalizes test_yaw_wrap_pair's turned pair to any turn and offset
        p, g = stage2_like_pair(np.random.default_rng(seed), seed)
        base = grad_or_skip(p, g)
        moved = grad_or_skip(rigid_move(p, turn, tx, ty), rigid_move(g, turn, tx, ty))
        if not isinstance(base, type):
            c, s = math.cos(turn), math.sin(turn)
            base = np.array([c * base[0] - s * base[1], s * base[0] + c * base[1], *base[2:]])
        assert_close_or_same_skip(moved, base, 1e-9, (p, g))


class TestMonteCarlo:
    def test_identical_exact_one(self):
        box = Box7(0, 0, 0, 2, 1, 1, 0.7)
        mc = monte_carlo_iou(box, box, 10_000, seed=0)
        assert mc.iou == 1.0
        assert mc.standard_error == 0.0

    def test_disjoint_exact_zero(self):
        mc = monte_carlo_iou(
            Box7(0, 0, 0, 1, 1, 1, 0), Box7(10, 0, 0, 1, 1, 1, 0), 10_000, seed=0
        )
        assert mc.iou == 0.0

    def test_deterministic_for_seed(self):
        a = Box7(0, 0, 0, 1, 1, 1, 0)
        b = Box7(0.3, 0.1, 0, 1.2, 1, 1, 0.3)
        m1 = monte_carlo_iou(a, b, 100_000, seed=5)
        m2 = monte_carlo_iou(a, b, 100_000, seed=5)
        assert m1 == m2

    def test_convergence_with_sample_count(self):
        a = Box7(0, 0, 0, 1, 1, 1, 0)
        b = Box7(0, 0, 0, 1, 1, 1, math.pi / 4)
        exact = 1.0 / math.sqrt(2.0)
        for samples in (250_000, 500_000, 1_000_000):
            mc = monte_carlo_iou(a, b, samples, seed=17)
            assert abs(mc.iou - exact) <= 4 * mc.standard_error

    @pytest.mark.parametrize("samples", [1, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 1_000_000])
    def test_chunked_draw_equals_one_draw(self, samples):
        # the generator fills row by row, so drawing _MC_CHUNK rows at a time
        # gives the points, counts and estimate of one (samples, 3) draw
        rng = np.random.default_rng(23)
        for _ in range(4):
            a = random_box(rng)
            b = Box7(*(a.params() + rng.uniform(-0.3, 0.3, 7)))
            seed = int(rng.integers(2**31))
            assert monte_carlo_iou(a, b, samples, seed) == reference_monte_carlo_iou(a, b, samples, seed)

    def test_memory_stays_bounded_at_a_million_points(self):
        a, b = Box7(0, 0, 0, 1, 1, 1, 0), Box7(0.2, 0.1, 0, 1, 1, 1, 0.4)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            monte_carlo_iou(a, b, 1_000_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 10e6, peak  # the one-draw reference holds about 75 MB

    def test_oracle_agreement_sample(self):
        # Smaller seeded version of the acceptance check.
        rng = np.random.default_rng(21)
        disagreements = 0
        for _ in range(30):
            a, b = random_box(rng), random_box(rng)
            exact = iou_3d(a, b).iou
            mc = monte_carlo_iou(a, b, 200_000, seed=int(rng.integers(2**31)))
            if abs(exact - mc.iou) > 4 * max(mc.standard_error, 1e-12):
                disagreements += 1
        assert disagreements <= 1


# Category sizes (l, w, h) of the synthetic scenes, each jittered per box.
SCENE_SIZES = ((0.6, 0.6, 1.75), (4.5, 1.9, 1.6), (0.4, 0.4, 0.8))


def scene_box(rng, half_width, z=0.0):
    l, w, h = np.array(SCENE_SIZES[rng.integers(len(SCENE_SIZES))]) * rng.uniform(0.85, 1.15, 3)
    return Box7(*rng.uniform(-half_width, half_width, 2), z + rng.normal(0, 0.1), l, w, h,
                rng.uniform(-math.pi, math.pi))


def jittered(rng, b, shift_m):
    dx, dy, dz = rng.normal(0.0, shift_m, size=3)
    sl, sw, sh = rng.uniform(0.9, 1.1, size=3)
    return Box7(b.x + dx, b.y + dy, b.z + dz, b.l * sl, b.w * sw, b.h * sh,
                b.yaw + rng.normal(0.0, 0.1))


def reference_pairs(seed):
    """Seeded pairs from the criterion-1 draw, validation-like jittered pairs
    and crowded frames, with identical and vertically apart pairs mixed in."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(8000):  # criterion 1's distribution
        pairs.append((random_box(rng), random_box(rng)))
    for _ in range(6000):  # predictions about a ground truth, some far off
        g = scene_box(rng, 20.0)
        pairs.append((jittered(rng, g, rng.choice([0.1, 0.5, 2.0])), g))
    while len(pairs) < 22000:  # crowded frames: 8 boxes within 3 m, all pairs
        gts = [scene_box(rng, 3.0) for _ in range(8)]
        preds = [jittered(rng, b, 0.1) for b in gts] + [jittered(rng, gts[0], 0.5)]
        pairs += [(p, g) for p in preds for g in gts]
    for _ in range(500):
        b = random_box(rng)
        pairs.append((b, Box7(*b.params().tolist())))
        pairs.append((b, Box7(b.x, b.y, b.z + b.h + rng.uniform(0.0, 1.0), b.l, b.w, b.h, b.yaw)))
    return pairs


def footprints_apart(p, g):
    """The footprints' circumscribed circles are apart."""
    return math.hypot(g.x - p.x, g.y - p.y) > 0.5 * (math.hypot(p.l, p.w) + math.hypot(g.l, g.w))


class TestFastPathMatchesReference:
    def test_equal_results_on_generic_pairs(self):
        pairs = reference_pairs(606)
        assert len(pairs) >= 20000
        apart = vertical = identical = overlapping = 0
        for p, g in pairs:
            got, expected = iou_3d(p, g), reference_frame_iou_3d(p, g)
            assert (got.iou, got.intersection_volume, got.union_volume) == (
                expected.iou, expected.intersection_volume, expected.union_volume), (p, g)
            identical += p == g
            vertical += abs(p.z - g.z) >= (p.h + g.h) / 2.0
            apart += footprints_apart(p, g)
            overlapping += 0.0 < got.iou < 1.0
        assert apart >= 10000 and vertical >= 5000 and identical == 500 and overlapping >= 5000

    def test_world_frame_clip_agrees(self):
        # an independent oracle: the general clip in world coordinates
        worst = max(abs(iou_3d(p, g).iou - world_frame_iou(p, g)) for p, g in reference_pairs(606))
        assert worst <= 1e-12

    def test_clip_equal_on_generic_footprints(self):
        rng = np.random.default_rng(607)
        for _ in range(2000):
            p, g = random_box(rng), jittered(rng, random_box(rng), 0.5)
            P, G = bev_footprint(p), bev_footprint(g)
            assert polygon_clip(P, G) == reference_polygon_clip(P, G)


def collinear_pair(rng, kind, gap, reach=20.0):
    """Two boxes of one yaw placed end to end (same width) or side by side
    (same length) at a random yaw, `gap` apart along the placing axis (a
    negative gap overlaps), the first centred within `reach` of the origin
    on each axis; with the closed-form IoU."""
    yaw = rng.uniform(-math.pi, math.pi)
    l1, l2, w1, w2 = rng.uniform(0.3, 5.0, 4)
    h, z = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    x, y = rng.uniform(-reach, reach, 2)
    if kind == "end-to-end":
        w1 = w2
        along, across, size1, size2 = (math.cos(yaw), math.sin(yaw)), w1, l1, l2
    else:
        l1 = l2
        along, across, size1, size2 = (-math.sin(yaw), math.cos(yaw)), l1, w1, w2
    gap = max(gap, -min(size1, size2))
    dist = (size1 + size2) / 2.0 + gap
    a = Box7(x, y, z, l1, w1, h, yaw)
    b = Box7(x + dist * along[0], y + dist * along[1], z, l2, w2, h, yaw)
    overlap = max(0.0, min(size1 / 2.0, dist + size2 / 2.0) - max(-size1 / 2.0, dist - size2 / 2.0))
    inter = overlap * across * h
    return a, b, inter / (volume(a) + volume(b) - inter)


class TestCollinearEdges:
    # A fixed gap (0.0 is exact touching), or an overlap drawn down to a
    # bound: overlaps under 1 cm leave short clipped edges along the shared
    # line, whose direction is all rounding.
    CASES = {"touching": 0.0, "gap 1e-9": 1e-9, "gap 1e-3": 1e-3, "gap 0.1": 0.1,
             "overlap": -5.0, "overlap under 1 cm": -1e-2}

    @pytest.mark.parametrize("kind", ["end-to-end", "side-by-side"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_closed_form_and_never_raises(self, kind, case):
        rng = np.random.default_rng([list(self.CASES).index(case), len(kind)])
        bound = self.CASES[case]
        reference_failures = 0
        for _ in range(400):
            gap = rng.uniform(bound, 0.0) if bound < 0.0 else bound
            a, b, expected = collinear_pair(rng, kind, gap)
            assert abs(iou_3d(a, b).iou - expected) <= 1e-9, (a, b, expected)
            assert abs(iou_3d(b, a).iou - expected) <= 1e-9, (a, b, expected)
            try:
                reference_failures += abs(reference_iou_3d(a, b).iou - expected) > 1e-6
            except ZeroDivisionError:
                reference_failures += 1
        if case in ("touching", "overlap", "overlap under 1 cm"):
            # The clip before the collinear-edge rule got these wrong.
            assert reference_failures > 0


class TestExactFarFromOrigin:
    """The clip works in the clip box's own frame, so a pair far from the
    origin loses to rounding only what placing it there loses."""

    @pytest.mark.parametrize("offset", [1e3, 5e3, 5e4], ids=["1 km", "5 km", "50 km"])
    def test_overlapping_pairs_moved_away_match_the_pairs_at_the_origin(self, offset):
        rng = np.random.default_rng(808)
        overlapping = 0
        for _ in range(2000):
            g = scene_box(rng, 3.0)
            p = jittered(rng, g, 0.2)
            angle = rng.uniform(-math.pi, math.pi)
            ox, oy = offset * math.cos(angle), offset * math.sin(angle)
            far_p, far_g = (b._replace(x=b.x + ox, y=b.y + oy) for b in (p, g))
            base, far = iou_3d(p, g).iou, iou_3d(far_p, far_g)
            assert abs(far.iou - base) <= 1e-10, (p, g, offset)
            assert far == iou_3d(far_g, far_p)
            overlapping += 0.0 < base < 1.0
        assert overlapping >= 1500

    @pytest.mark.parametrize("kind", ["end-to-end", "side-by-side"])
    def test_collinear_pairs_out_to_5_km_match_the_closed_form(self, kind):
        rng = np.random.default_rng([5000, len(kind)])
        bounds = list(TestCollinearEdges.CASES.values())
        for n in range(4000):
            bound = bounds[n % len(bounds)]
            gap = rng.uniform(bound, 0.0) if bound < 0.0 else bound
            a, b, expected = collinear_pair(rng, kind, gap, reach=5000.0)
            got = iou_3d(a, b)
            assert abs(got.iou - expected) <= 1e-9, (a, b, expected)
            assert got == iou_3d(b, a)

    @pytest.mark.parametrize("yaw", [0.0, 0.7, -2.9])
    def test_half_overlapping_boxes_at_a_tiny_scale(self, yaw):
        # no absolute tolerance stands in for a size: 1e-100 m boxes keep their IoU
        size = 1e-100
        a = Box7(0.0, 0.0, 0.0, size, size, size, yaw)
        b = Box7(size / 2.0 * math.cos(yaw), size / 2.0 * math.sin(yaw), 0.0, size, size, size, yaw)
        res = iou_3d(a, b)
        assert abs(res.iou - 1.0 / 3.0) <= 1e-12
        assert res == iou_3d(b, a)


def raw_row_near(g: Box7, kind: str, draw) -> tuple:
    """A raw (x, y, z, l, w, h, yaw) row placed against `g` as `kind` says;
    its yaw is drawn outside (-pi, pi] as the model's raw output can be."""
    size = st.floats(0.2, 5.0)
    shift = st.floats(-1.0, 1.0)
    turns = draw(st.integers(-3, 3).filter(bool))
    yaw = draw(st.floats(-math.pi, math.pi)) + 2.0 * math.pi * turns
    if kind == "identical":
        return tuple(g.params().tolist())
    if kind == "apart":
        reach = 0.5 * (math.hypot(g.l, g.w) + math.hypot(5.0, 5.0)) + draw(st.floats(0.1, 50.0))
        angle = draw(st.floats(-math.pi, math.pi))
        return (g.x + reach * math.cos(angle), g.y + reach * math.sin(angle), g.z,
                draw(size), draw(size), draw(size), yaw)
    if kind == "vertically-apart":
        h = draw(size)
        dz = (g.h + h) / 2.0 + draw(st.floats(0.01, 3.0))
        return (g.x + draw(shift), g.y + draw(shift), g.z + draw(st.sampled_from([dz, -dz])),
                draw(size), draw(size), h, yaw)
    # overlapping: a jittered copy of g, the yaw a few turns away
    return (g.x + draw(shift), g.y + draw(shift), g.z + draw(shift) / 4.0,
            g.l * draw(st.floats(0.7, 1.3)), g.w * draw(st.floats(0.7, 1.3)),
            g.h * draw(st.floats(0.7, 1.3)),
            g.yaw + draw(st.floats(-0.3, 0.3)) + 2.0 * math.pi * turns)


class TestIoU3DOnRowsMatchesBoxes:
    """`iou_3d` on plain rows, as training, validation, evaluation and
    matching hand them in, returns its IoU on Box7s bit for bit: a row built
    as the trainer builds one (yaw through `wrap_angle`) and a Box7's plain
    tuple against the Box7s built from the same raw rows, in both argument
    orders. The row's footprint, which the gradient takes, is the Box7's."""

    @staticmethod
    def check(raw, g):
        row = (*raw[:6], wrap_angle(raw[6]))
        box = Box7(*raw)
        assert bev_footprint(row) == bev_footprint(box) == reference_bev_footprint(box)
        grow = tuple(g)
        for got, expected in (
            (iou_3d(row, grow).iou, iou_3d(box, g).iou),
            (iou_3d(grow, row).iou, iou_3d(g, box).iou),
        ):
            assert got.hex() == expected.hex(), (raw, g)
        loss = 1.0 - iou_3d(row, grow).iou
        assert loss.hex() == iou_loss(box, g).hex() == iou_loss(row, g).hex()
        return iou_3d(box, g)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("kind", ["identical", "apart", "vertically-apart", "overlapping"])
    def test_placed_pairs(self, kind, data):
        g = Box7(*data.draw(st.tuples(st.floats(-20, 20), st.floats(-20, 20), st.floats(-2, 2),
                                      st.floats(0.2, 5), st.floats(0.2, 5), st.floats(0.2, 5),
                                      st.floats(-math.pi, math.pi))))
        raw = raw_row_near(g, kind, data.draw)
        res = self.check(raw, g)
        if kind == "identical":
            assert res.iou == 1.0
        elif kind == "apart":
            assert res.iou == 0.0 and footprints_apart(Box7(*raw), g)
        elif kind == "vertically-apart":
            assert res.iou == 0.0 and abs(raw[2] - g.z) >= (raw[5] + g.h) / 2.0
        else:
            assert not -math.pi < raw[6] <= math.pi

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["end-to-end", "side-by-side"]),
           gap=st.sampled_from([0.0, 1e-9, 1e-3, 0.1, -1e-2, -5.0]), turns=st.integers(-3, 3))
    def test_collinear_pairs(self, seed, kind, gap, turns):
        a, b, _ = collinear_pair(np.random.default_rng(seed), kind, gap)
        raw = (a.x, a.y, a.z, a.l, a.w, a.h, a.yaw + 2.0 * math.pi * turns)
        self.check(raw, b)
        self.check(tuple(b.params().tolist()), a)


def row_with_corner_on_edge(g: Box7, draw) -> tuple:
    """A raw row whose footprint has a corner on one of g's footprint edges,
    within rounding; its yaw is drawn outside (-pi, pi] as in raw_row_near."""
    size = st.floats(0.2, 5.0)
    l, w, h = draw(size), draw(size), draw(size)
    yaw = draw(st.floats(-math.pi, math.pi))
    G = bev_footprint(g)
    edge, t = draw(st.integers(0, 3)), draw(st.floats(0.05, 0.95))
    (ax, ay), (bx, by) = G[edge - 1], G[edge]
    sx, sy = draw(st.sampled_from([(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)]))
    c, s = math.cos(yaw), math.sin(yaw)
    # centre = the point on the edge minus the corner's offset (sx l/2, sy w/2) turned by yaw
    ox, oy = sx * l / 2.0, sy * w / 2.0
    x, y = ax + t * (bx - ax) - (c * ox - s * oy), ay + t * (by - ay) - (s * ox + c * oy)
    turns = draw(st.integers(-3, 3))
    return (x, y, g.z + draw(st.floats(-0.3, 0.3)), l, w, h, yaw + 2.0 * math.pi * turns)


def row_with_flush_face(g: Box7, draw) -> tuple:
    """An overlapping raw row (as raw_row_near draws one) moved up or down so
    that its top or bottom face is flush with g's."""
    x, y, _, l, w, h, yaw = raw_row_near(g, "overlapping", draw)
    face = draw(st.sampled_from([1.0, -1.0]))
    return (x, y, g.z + face * (g.h - h) / 2.0, l, w, h, yaw)


class TestGradFromCachedPartsMatchesBoxes:
    """`iou_loss_grad` on rows with the IoU handed in, as the trainer calls it, returns the bits `iou_loss_grad` returns on the Box7s
    built from the same raw rows, or raises the same exception class."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("kind", ["identical", "apart", "vertically-apart", "overlapping",
                                      "corner-on-edge", "flush-face"])
    def test_placed_pairs(self, kind, data):
        g = Box7(*data.draw(st.tuples(st.floats(-20, 20), st.floats(-20, 20), st.floats(-2, 2),
                                      st.floats(0.2, 5), st.floats(0.2, 5), st.floats(0.2, 5),
                                      st.floats(-math.pi, math.pi))))
        if kind == "corner-on-edge":
            raw = row_with_corner_on_edge(g, data.draw)
        elif kind == "flush-face":
            raw = row_with_flush_face(g, data.draw)
        else:
            raw = raw_row_near(g, kind, data.draw)
        row, grow = (*raw[:6], wrap_angle(raw[6])), tuple(g)
        iou = iou_3d(row, grow).iou
        expected = grad_outcome(Box7(*raw), g)
        assert grad_outcome(row, grow, iou) == expected, (raw, g)
        assert grad_outcome(row, grow) == expected, (raw, g)
        if kind in ("identical", "apart", "vertically-apart"):
            assert expected is DegenerateOverlap and iou in (0.0, 1.0)
        elif kind != "overlapping" and 0.0 < iou < 1.0:
            assert expected is NonSmoothPoint

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["end-to-end", "side-by-side"]),
           gap=st.sampled_from([0.0, 1e-9, 1e-3, 0.1, -1e-2, -5.0]))
    def test_collinear_pairs(self, seed, kind, gap):
        a, b, _ = collinear_pair(np.random.default_rng(seed), kind, gap)
        ra, rb = tuple(a), tuple(b)
        got = grad_outcome(ra, rb, iou_3d(ra, rb).iou)
        assert got == grad_outcome(a, b), (a, b)
