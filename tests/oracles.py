"""Reference implementations that tests compare the package against."""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from minidet3d.data import (
    _CATEGORY_SIZES,
    _DEFAULT_SIZE,
    _PARAM_SCALE,
    _PARAM_SHIFT,
    _RANGE_RADIUS,
    _SIZE_JITTER,
    SCHEMA_VERSION,
    Annotation,
    FeaturePair,
    ProcessedAnnotation,
    ProcessedSample,
    SceneRecord,
    SynthConfig,
    _ring_cameras,
    category_embedding,
    encode_visual,
)
from minidet3d.errors import DegenerateOverlap, EmptyBatch, NonSmoothPoint, ShapeMismatch
from minidet3d.geom import (
    _FOOTPRINT_SIGNS,
    Box7,
    CameraIntrinsics,
    Pose,
    ProjectedCorner,
    bev_footprint,
    box_corners,
    quat_from_yaw,
    quat_multiply,
    quat_to_matrix,
    transform_box,
)
from minidet3d.iou import _TIE_EPS, IoUResult, MonteCarloIoU, iou_3d, iou_loss_grad, polygon_area
from minidet3d.lora import LoRAAdapter
from minidet3d.metrics import ConfusionCounts

FD_STEP = 1e-4  # meters for x,y,z,l,w,h; radians for yaw


def volume(box: Box7) -> float:
    return box.l * box.w * box.h


def iou_loss(p, g) -> float:
    """1 - IoU, in [0, 1], of two boxes, each a Box7 or its row."""
    return 1.0 - iou_3d(p, g).iou


def fd_iou_loss_grad(p: Box7, g: Box7, step: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient of iou_loss w.r.t. p's 7 parameters.

    Each component is estimated at steps h and h/2; the two must agree within
    1% relative or 1e-6 absolute, otherwise the configuration sits near a
    clipping-topology boundary and NonSmoothPoint is raised. Requires IoU
    strictly inside (0, 1); DegenerateOverlap otherwise.
    """
    base = iou_3d(p, g).iou
    if base <= 0.0 or base >= 1.0:
        raise DegenerateOverlap(f"IoU {base} has no usable gradient")

    params = p.params()
    # Size perturbations must keep sizes positive.
    steps = np.full(7, float(step))
    for i in (3, 4, 5):
        steps[i] = min(steps[i], params[i] / 4.0)

    grad = np.empty(7)
    for i in range(7):
        estimates = []
        for h in (steps[i], steps[i] / 2.0):
            plus, minus = params.copy(), params.copy()
            plus[i] += h
            minus[i] -= h
            estimates.append(
                (iou_loss(Box7(*plus), g) - iou_loss(Box7(*minus), g))
                / (2.0 * h)
            )
        g1, g2 = estimates
        if not grads_agree(g1, g2):
            raise NonSmoothPoint(
                f"component {i}: step-halving estimates {g1:.6e} and {g2:.6e} disagree"
            )
        grad[i] = g2
    return grad


def batch_iou_loss(pairs) -> float:
    """Mean of per-pair IoU losses over a non-empty batch of (Box7 or row) pairs:
    the value the trainer logs as a batch's IoU loss."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyBatch("batch_iou_loss requires at least one pair")
    return sum(iou_loss(p, g) for p, g in pairs) / len(pairs)


def grad_outcome(*args):
    """iou_loss_grad's bits, or the class of the exception it raises."""
    try:
        return iou_loss_grad(*args).tobytes()
    except (DegenerateOverlap, NonSmoothPoint) as e:
        return type(e)


def grads_agree(a, b) -> bool:
    """The oracle's own acceptance rule: within 1% relative or 1e-6 absolute."""
    return abs(a - b) <= max(1e-6, 0.01 * max(abs(a), abs(b)))


def denormalize_params(p_norm: np.ndarray) -> np.ndarray:
    """Undo the synthetic encoder's normalization of box parameters."""
    return np.asarray(p_norm, dtype=np.float64) * _PARAM_SCALE + _PARAM_SHIFT


def decode_visual(visual: np.ndarray) -> np.ndarray:
    """The invertibility oracle: box parameters from a zero-noise visual
    feature, whose first 7 channels are the normalized parameters."""
    return denormalize_params(np.asarray(visual, dtype=np.float64)[:7])


class DictAdamW:
    """The per-tensor AdamW over a dict of arrays, in the folded form and the
    operation order of the flat chunked `train.AdamW`: both must give
    bit-identical parameters. `textbook=True` gives the unfolded update
    (decay as `p -= lr*wd*p`, bias corrections divided into m and v), which
    the folded form must match up to rounding."""

    def __init__(self, params: dict[str, np.ndarray], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.01,
                 textbook: bool = False):
        self.beta1, self.beta2, self.eps, self.weight_decay = beta1, beta2, eps, weight_decay
        self.textbook = textbook
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for key, p in params.items():
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            if self.textbook:
                p -= lr * self.weight_decay * p
                p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            else:
                p *= 1.0 - lr * self.weight_decay
                p -= m / (np.sqrt(v) * (1.0 / math.sqrt(bc2)) + self.eps) * (lr / bc1)


# ---- the world-frame clip ------------------------------------------------------
# `polygon_clip` is the general clip `iou_3d` used before it clipped in the
# clip box's own frame: two convex polygons in world coordinates, crossings
# from cross products of absolute coordinates, a collinear-edge rule and a
# 1e-12 deduplication. Its rounding grows with the distance from the origin,
# so it serves as an independent oracle near the origin.

_DEDUP_EPS = 1e-12
# A crossing's denominator is the clip edge's length times the summed
# distances of the subject edge's ends to the clip edge's line. At most this
# fraction of length x (length + size of the clip edge's coordinates), both
# ends lie on the line within rounding, and the crossing is lost to it.
_COLLINEAR_EPS = 1e-12


def polygon_clip(subject, clip):
    """Intersection of two convex CCW polygons (Sutherland-Hodgman).

    Ref: https://rosettacode.org/wiki/Sutherland-Hodgman_polygon_clipping
    Points exactly on a clip edge count as inside, so clipping a polygon
    against itself returns it unchanged. A subject edge whose ends both lie
    on the clip edge's line within rounding (_COLLINEAR_EPS) can have them
    classified on opposite sides, and the crossing of two lines that close
    to parallel is lost to rounding: the edge's end stands in for it. Output
    vertices are deduplicated within 1e-12.
    """
    if not subject or not clip:
        return []

    output = list(subject)
    c1x, c1y = clip[-1]
    for c2x, c2y in clip:
        if not output:
            return []
        ex, ey = c2x - c1x, c2y - c1y
        dcx, dcy = c1x - c2x, c1y - c2y
        n1 = c1x * c2y - c1y * c2x
        span = abs(ex) + abs(ey)
        on_line = _COLLINEAR_EPS * span * (span + abs(c1x) + abs(c1y))
        clipped = []
        sx, sy = output[-1]
        s_in = ex * (sy - c1y) - ey * (sx - c1x) >= 0.0
        for e in output:
            px, py = e
            e_in = ex * (py - c1y) - ey * (px - c1x) >= 0.0
            if e_in != s_in:
                dpx, dpy = sx - px, sy - py
                d = dcx * dpy - dcy * dpx
                if abs(d) <= on_line:
                    clipped.append(e)
                else:
                    n2 = sx * py - sy * px
                    clipped.append(((n1 * dpx - n2 * dcx) / d, (n1 * dpy - n2 * dcy) / d))
            if e_in:
                clipped.append(e)
            sx, sy, s_in = px, py, e_in
        output = clipped
        c1x, c1y = c2x, c2y

    return _dedup(output)


def _dedup(poly):
    if not poly:
        return []
    out = []
    for p in poly:
        if out and abs(p[0] - out[-1][0]) <= _DEDUP_EPS and abs(p[1] - out[-1][1]) <= _DEDUP_EPS:
            continue
        out.append(p)
    while len(out) > 1 and abs(out[0][0] - out[-1][0]) <= _DEDUP_EPS and abs(out[0][1] - out[-1][1]) <= _DEDUP_EPS:
        out.pop()
    return out if len(out) >= 3 else []


def world_frame_iou(p, g) -> float:
    """IoU from the world-frame `polygon_clip` of the two footprints."""
    z_overlap = min(p[2] + p[5] / 2.0, g[2] + g[5] / 2.0) - max(p[2] - p[5] / 2.0, g[2] - g[5] / 2.0)
    if z_overlap <= 0.0:
        return 0.0
    vol_p, vol_g = p[3] * p[4] * p[5], g[3] * g[4] * g[5]
    inter = min(polygon_area(polygon_clip(bev_footprint(p), bev_footprint(g))) * z_overlap,
                vol_p, vol_g)
    return inter / (vol_p + vol_g - inter)


# ---- the IoU gradient in the world frame ---------------------------------------
# `world_frame_iou_loss_grad` is `iou_loss_grad` as it stood before it worked
# in g's frame: both footprints in world coordinates, g's edges made like
# p's, corner distances and crossings from world coordinates. Its rounding
# grows with the distance from the origin, so it serves as the reference
# near the origin, where the frame gradient must match it and skip alike.


def _edges(poly, lengths):
    """(start x, start y, inward unit normal x, y) of each edge k of a CCW
    polygon, where edge k runs from vertex k-1 to vertex k."""
    out = []
    ax, ay = poly[-1]
    for (bx, by), length in zip(poly, lengths):
        out.append((ax, ay, (ay - by) / length, (bx - ax) / length))
        ax, ay = bx, by
    return out


def _world_frame_overlap_grad(p, g, P, G, tol):
    """Footprint-intersection area and its gradient w.r.t. (x, y, l, w, yaw) of
    row p, given P and G, the footprints of rows p and g.

    The intersection's vertices are p's corners strictly inside g, g's
    corners strictly inside p, and the transversal crossings of p's edges
    with g's edges. Sorted by angle about their mean, they give the area by
    the shoelace formula; the reverse pass runs the same graph backwards.
    """
    p_len, g_len = (p[3], p[4], p[3], p[4]), (g[3], g[4], g[3], g[4])
    p_edges, g_edges = _edges(P, p_len), _edges(G, g_len)
    # dist_p[k][j]: signed distance of p's corner k to g's edge j; dist_g alike.
    dist_p = [[(x - ex) * nx + (y - ey) * ny for ex, ey, nx, ny in g_edges] for x, y in P]
    dist_g = [[(x - ex) * nx + (y - ey) * ny for ex, ey, nx, ny in p_edges] for x, y in G]

    # A vertex is (x, y, source): source is p's corner index, None for a
    # corner of g, or (i, j, t, sa, sb) for p's edge i crossing g's edge j at
    # fraction t, where sa, sb are the distances of p's edge ends to g's edge.
    verts = []
    for corners, dists, own in ((P, dist_p, True), (G, dist_g, False)):
        for k, row in enumerate(dists):
            inner = min(row)
            if abs(inner) <= tol:
                raise NonSmoothPoint(f"a corner lies on the other box's edge (distance {inner:.3e})")
            if inner > 0.0:
                verts.append((*corners[k], k if own else None))
    for i in range(4):
        for j in range(4):
            sa, sb = dist_p[i - 1][j], dist_p[i][j]
            sc, sd = dist_g[j - 1][i], dist_g[j][i]
            if ((sa > tol and sb > tol) or (sa < -tol and sb < -tol)
                    or (sc > tol and sd > tol) or (sc < -tol and sd < -tol)
                    or sa == sb or sc == sd):
                continue
            t, u = sa / (sa - sb), sc / (sc - sd)
            along_p, along_g = t * p_len[i], u * g_len[j]
            if tol < along_p < p_len[i] - tol and tol < along_g < g_len[j] - tol:
                (ax, ay), (bx, by) = P[i - 1], P[i]
                verts.append((ax + t * (bx - ax), ay + t * (by - ay), (i, j, t, sa, sb)))
            elif -tol <= along_p <= p_len[i] + tol and -tol <= along_g <= g_len[j] + tol:
                raise NonSmoothPoint("an edge crossing lies at an edge end")

    n = len(verts)
    cx = sum(v[0] for v in verts) / n
    cy = sum(v[1] for v in verts) / n
    verts.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))

    twice_area = 0.0
    d_corner = [[0.0, 0.0] for _ in range(4)]
    for k in range(n):
        x0, y0, _ = verts[k - 1]
        x1, y1, src = verts[k]
        x2, y2, _ = verts[(k + 1) % n]
        twice_area += x0 * y1 - x1 * y0
        if src is None:
            continue
        gx, gy = 0.5 * (y2 - y0), 0.5 * (x0 - x2)
        if isinstance(src, int):
            d_corner[src][0] += gx
            d_corner[src][1] += gy
            continue
        # Crossing X = A + t (B - A), t = sa / (sa - sb), sa and sb affine in A, B.
        i, j, t, sa, sb = src
        (ax, ay), (bx, by) = P[i - 1], P[i]
        _, _, nx, ny = g_edges[j]
        k_n = (gx * (bx - ax) + gy * (by - ay)) / (sa - sb) ** 2
        da, db = d_corner[i - 1], d_corner[i]
        da[0] += (1.0 - t) * gx - k_n * sb * nx
        da[1] += (1.0 - t) * gy - k_n * sb * ny
        db[0] += t * gx + k_n * sa * nx
        db[1] += t * gy + k_n * sa * ny

    x, y, c, s = p[0], p[1], math.cos(p[6]), math.sin(p[6])
    grad = [0.0] * 5
    for (gx, gy), (px, py), (sx, sy) in zip(d_corner, P, _FOOTPRINT_SIGNS):
        grad[0] += gx
        grad[1] += gy
        grad[2] += 0.5 * sx * (c * gx + s * gy)
        grad[3] += 0.5 * sy * (c * gy - s * gx)
        grad[4] += (px - x) * gy - (py - y) * gx
    return 0.5 * twice_area, grad


def world_frame_iou_loss_grad(p, g) -> np.ndarray:
    """`iou_loss_grad` on world-frame footprints, its vertices found by testing
    every corner and edge pair and sorted by angle instead of clipped: the
    same graph, and a test for each of the three kinds of tie."""
    iou = iou_3d(p, g).iou
    if iou <= 0.0 or iou >= 1.0:
        raise DegenerateOverlap(f"IoU {iou} has no usable gradient")
    (_, _, pz, pl, pw, ph, _), (_, _, gz, gl, gw, gh, _) = p, g
    tol = _TIE_EPS * max(pl, pw, ph, gl, gw, gh)

    p_top, p_bottom = pz + ph / 2.0, pz - ph / 2.0
    g_top, g_bottom = gz + gh / 2.0, gz - gh / 2.0
    if abs(p_top - g_top) <= tol or abs(p_bottom - g_bottom) <= tol:
        raise NonSmoothPoint("top or bottom faces are flush")
    top_is_p, bottom_is_p = p_top < g_top, p_bottom > g_bottom
    z_overlap = min(p_top, g_top) - max(p_bottom, g_bottom)

    P, G = bev_footprint(p), bev_footprint(g)
    area, (da_x, da_y, da_l, da_w, da_yaw) = _world_frame_overlap_grad(p, g, P, G, tol)
    inter = area * z_overlap
    union = pl * pw * ph + gl * gw * gh - inter
    # loss = 1 - inter / union with union = vol_p + vol_g - inter
    d_inter = -(union + inter) / (union * union)
    d_vol = inter / (union * union)
    d_area, d_zo = d_inter * z_overlap, d_inter * area
    return np.array([
        d_area * da_x,
        d_area * da_y,
        d_zo * (top_is_p - bottom_is_p),
        d_area * da_l + d_vol * pw * ph,
        d_area * da_w + d_vol * pl * ph,
        d_zo * 0.5 * (top_is_p + bottom_is_p) + d_vol * pl * pw,
        d_area * da_yaw,
    ])


# ---- the frame clip without its fast exit -------------------------------------
# `reference_frame_iou_3d` is `iou_3d` without the separated-footprint exit
# and without the quarter turns: p's footprint in g's frame, clipped against
# x <= l/2, y <= w/2, x >= -l/2 and y >= -w/2 in turn, each side named.
# Its crossings and corners round as the package's do (a turn only swaps
# and negates), so the fast path must return an equal IoUResult on every
# pair.


def _half_plane_clip(poly, axis, sign, limit):
    """Part of `poly` where sign * v[axis] <= limit."""
    out = []
    s = poly[-1]
    for e in poly:
        s_in, e_in = sign * s[axis] <= limit, sign * e[axis] <= limit
        if s_in != e_in:
            t = (limit - sign * s[axis]) / (sign * e[axis] - sign * s[axis])
            cross = [0.0, 0.0]
            cross[axis] = sign * limit
            cross[1 - axis] = s[1 - axis] + t * (e[1 - axis] - s[1 - axis])
            out.append(tuple(cross))
        if e_in:
            out.append(e)
        s = e
    return out


def reference_frame_iou_3d(p, g) -> IoUResult:
    if p == g:
        vol = p[3] * p[4] * p[5]
        return IoUResult(1.0, vol, vol)
    if tuple(g) < tuple(p):
        p, g = g, p
    px, py, pz, pl, pw, ph, pyaw = p
    gx, gy, gz, gl, gw, gh, gyaw = g
    z_overlap = min(pz + ph / 2.0, gz + gh / 2.0) - max(pz - ph / 2.0, gz - gh / 2.0)
    vol_p, vol_g = pl * pw * ph, gl * gw * gh
    if z_overlap <= 0.0:
        return IoUResult(0.0, 0.0, vol_p + vol_g)

    c, s = math.cos(gyaw), math.sin(gyaw)
    dx, dy = px - gx, py - gy
    x, y = c * dx + s * dy, c * dy - s * dx
    cr, sr = math.cos(pyaw - gyaw), math.sin(pyaw - gyaw)
    hl, hw = pl / 2.0, pw / 2.0
    poly = [(x + cr * ox - sr * oy, y + sr * ox + cr * oy)
            for ox, oy in ((hl, -hw), (hl, hw), (-hl, hw), (-hl, -hw))]
    for axis, sign, limit in ((0, 1.0, gl / 2.0), (1, 1.0, gw / 2.0),
                              (0, -1.0, gl / 2.0), (1, -1.0, gw / 2.0)):
        poly = _half_plane_clip(poly, axis, sign, limit) if poly else []
    inter = min(polygon_area(poly) * z_overlap, vol_p, vol_g)
    union = vol_p + vol_g - inter
    return IoUResult(inter / union, inter, union)


# ---- the IoU value path before its fast path ---------------------------------
# `reference_polygon_clip` and `reference_iou_3d` are `polygon_clip` and
# `iou_3d` as they stood before the separated-footprint exit, the
# closure-free clipper and the collinear-edge rule: `polygon_clip` must
# return an equal polygon wherever no subject edge runs along a clip edge's
# line. On such collinear edges these references are wrong (a near-parallel
# crossing lands far away) or divide by zero, which `iou_3d` must not be.


def reference_polygon_clip(subject, clip):
    if not subject or not clip:
        return []

    output = list(subject)
    cp1 = clip[-1]
    for cp2 in clip:
        if not output:
            return []
        ex, ey = cp2[0] - cp1[0], cp2[1] - cp1[1]

        def inside(p):
            return ex * (p[1] - cp1[1]) - ey * (p[0] - cp1[0]) >= 0.0

        def edge_intersection(s, e):
            dcx, dcy = cp1[0] - cp2[0], cp1[1] - cp2[1]
            dpx, dpy = s[0] - e[0], s[1] - e[1]
            n1 = cp1[0] * cp2[1] - cp1[1] * cp2[0]
            n2 = s[0] * e[1] - s[1] * e[0]
            d = dcx * dpy - dcy * dpx
            return ((n1 * dpx - n2 * dcx) / d, (n1 * dpy - n2 * dcy) / d)

        clipped = []
        s = output[-1]
        s_in = inside(s)
        for e in output:
            e_in = inside(e)
            if e_in:
                if not s_in:
                    clipped.append(edge_intersection(s, e))
                clipped.append(e)
            elif s_in:
                clipped.append(edge_intersection(s, e))
            s, s_in = e, e_in
        output = clipped
        cp1 = cp2

    return _dedup(output)


def reference_iou_3d(p: Box7, g: Box7) -> IoUResult:
    if p == g:
        vol = volume(p)
        return IoUResult(1.0, vol, vol)
    # Clip order is fixed by a canonical operand ordering so that
    # iou_3d(a, b) and iou_3d(b, a) run the identical computation.
    if (g.x, g.y, g.z, g.l, g.w, g.h, g.yaw) < (p.x, p.y, p.z, p.l, p.w, p.h, p.yaw):
        p, g = g, p

    z_overlap = min(p.z + p.h / 2.0, g.z + g.h / 2.0) - max(p.z - p.h / 2.0, g.z - g.h / 2.0)
    vol_p, vol_g = volume(p), volume(g)
    if z_overlap <= 0.0:
        return IoUResult(0.0, 0.0, vol_p + vol_g)

    inter_area = polygon_area(reference_polygon_clip(bev_footprint(p), bev_footprint(g)))
    # Guard the bound intersection <= min(vol) against last-ulp clipping noise.
    inter = min(inter_area * z_overlap, vol_p, vol_g)
    union = vol_p + vol_g - inter
    return IoUResult(inter / union, inter, union)


# ---- the scene-ingest path before it was made to do its work once --------------
# `ReferencePose`, `reference_project_corners`, `reference_emit` and
# `reference_process_record` are `Pose`, `project_corners`, `emit` and
# `process_record` as they stood before the pose cached its rotation matrix,
# the projection iterated Python floats, the cameras' inverse poses were
# taken once per record and the scene file became compact JSON. The package
# must give bit-identical poses, projections and processed samples, and a
# scene file that parses to the same document. `sum` adds left to right here
# (Python 3.11), so it has the bits of the package's explicit sum of squares.


def _reference_quat_normalize(q: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    norm = math.sqrt(sum(c * c for c in q))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"quaternion norm {norm!r} deviates from 1 by more than 1e-9")
    if abs(norm - 1.0) <= 1e-12:
        # Already unit to working precision; keep bits stable so that
        # normalization is idempotent and serialization round-trips exactly.
        return q
    return (q[0] / norm, q[1] / norm, q[2] / norm, q[3] / norm)


@dataclass(frozen=True)
class ReferencePose:
    translation: tuple[float, float, float]
    rotation: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        t = tuple(float(v) for v in self.translation)
        q = tuple(float(v) for v in self.rotation)
        if len(t) != 3:
            raise ValueError(f"translation must have 3 components, got {len(t)}")
        if len(q) != 4:
            raise ValueError(f"rotation must have 4 components, got {len(q)}")
        if not all(math.isfinite(v) for v in t + q):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", _reference_quat_normalize(q))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to one (3,) point or an (N, 3) array of points."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation_matrix().T + np.asarray(self.translation)

    def compose(self, other: "ReferencePose") -> "ReferencePose":
        """Transform that applies `other` first, then self."""
        t = self.apply(np.asarray(other.translation))
        q = quat_multiply(self.rotation, other.rotation)
        norm = math.sqrt(sum(c * c for c in q))
        q = tuple(c / norm for c in q)
        return ReferencePose(tuple(t.tolist()), q)

    def inverse(self) -> "ReferencePose":
        w, x, y, z = self.rotation
        conj = (w, -x, -y, -z)
        t_inv = -(np.asarray(self.translation) @ quat_to_matrix(conj).T)
        return ReferencePose(tuple(t_inv.tolist()), conj)

    def tilt_angle(self) -> float:
        """Angle (rad) by which this rotation tips the vertical axis."""
        rotated_z = self.rotation_matrix()[:, 2]
        return math.acos(min(1.0, max(-1.0, float(rotated_z[2]))))

    def heading(self) -> float:
        """Yaw component: direction the rotated x axis points in the x-y plane."""
        rotated_x = self.rotation_matrix()[:, 0]
        return math.atan2(float(rotated_x[1]), float(rotated_x[0]))


def reference_project_corners(corners: np.ndarray, cam: CameraIntrinsics) -> list[ProjectedCorner]:
    pts = np.asarray(corners, dtype=np.float64).reshape(-1, 3)
    out = []
    for x, y, z in pts:
        if z <= 0.0:
            out.append(ProjectedCorner(None, None, False))
            continue
        u = float(cam.fx * x / z + cam.cx)
        v = float(cam.fy * y / z + cam.cy)
        visible = (0.0 <= u < cam.width) and (0.0 <= v < cam.height)
        out.append(ProjectedCorner(u, v, visible))
    return out


def _pose_to_json(p) -> dict:
    return {"translation": list(p.translation), "rotation": list(p.rotation)}


def record_to_json(rec: SceneRecord) -> dict:
    """One record as the dict `emit` writes the JSON text of."""
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


def reference_emit(records, path) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "records": [record_to_json(r) for r in records]}
    Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def reference_process_record(rec: SceneRecord) -> ProcessedSample:
    """The package's pipeline before the change, on a record whose poses are
    `ReferencePose`s."""
    onto_lidar = rec.lidar_to_ego.inverse().compose(rec.ego_to_global.inverse())
    annotations = [Annotation(a.category, transform_box(a.box, onto_lidar))
                   for a in rec.annotations]
    processed = []
    ego_from_lidar = rec.lidar_to_ego
    for ann in annotations:
        corners_lidar = box_corners(ann.box)
        corners_ego = ego_from_lidar.apply(corners_lidar)
        projections: dict[str, list[ProjectedCorner]] = {}
        retained = False
        for cam in rec.cameras:
            corners_cam = cam.sensor_to_ego.inverse().apply(corners_ego)
            proj = reference_project_corners(corners_cam, cam.intrinsics)
            projections[cam.name] = proj
            if any(c.visible for c in proj):
                retained = True
        processed.append(ProcessedAnnotation(ann.category, ann.box, projections, retained))
    return ProcessedSample(rec.sample_id, tuple(processed))


def reference_synth_scenes(count: int, category_mix: dict[str, float], seed: int,
                           config: SynthConfig = SynthConfig()):
    """`synth_scenes` as it stood with one Generator call per field: `choice`
    for the category, `uniform` for the three size jitters and for each other
    value. Takes a valid mix only; the package's checks are not repeated."""
    names = sorted(category_mix)
    weights = np.array([category_mix[n] for n in names], dtype=np.float64)
    weights = weights / weights.sum()
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
        box_lidar = Box7(radius * math.cos(bearing), radius * math.sin(bearing),
                         float(rng.uniform(-0.5, 0.5)), l, w, h,
                         float(rng.uniform(-math.pi, math.pi)))
        ego_to_global = Pose(
            (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)), 0.0),
            quat_from_yaw(float(rng.uniform(-math.pi, math.pi))),
        )
        box_global = transform_box(box_lidar, ego_to_global.compose(lidar_to_ego))
        sample_id = f"synth-{seed}-{i:06d}"
        records.append(SceneRecord(sample_id, ego_to_global, lidar_to_ego, cameras,
                                   (Annotation(category, box_global),)))
        visual = encode_visual(box_lidar.params(), config.d_v)
        if config.noise_std > 0:
            visual = visual + rng.normal(0.0, config.noise_std, size=visual.shape)
        features.append(FeaturePair(sample_id, visual, texts[category].copy()))
    return records, features


# ---- the IoU value path before it took plain rows ------------------------------
# `reference_bev_footprint` and `reference_match_predictions` are
# `bev_footprint` and `match_predictions` as they stood while every IoU value
# went through `iou_3d` on two Box7s: one footprint corner per comprehension
# step, and one `iou_3d` per same-category pair with both footprints made
# again for each pair. `iou_3d` on rows must return the same bits, and
# `bev_footprint`, which the gradient still uses, the same footprints.


def reference_bev_footprint(box: Box7):
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.l / 2.0, box.w / 2.0
    return [
        (box.x + c * dx - s * dy, box.y + s * dx + c * dy)
        for dx, dy in ((hl, -hw), (hl, hw), (-hl, hw), (-hl, -hw))
    ]


def reference_match_predictions(preds, gts, iou_threshold):
    candidates = []
    for i, (pbox, pcat) in enumerate(preds):
        for j, (gbox, gcat) in enumerate(gts):
            if pcat != gcat:
                continue
            iou = iou_3d(pbox, gbox).iou
            if iou >= iou_threshold:
                candidates.append((iou, i, j))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    used_p, used_g = set(), set()
    matched = []
    for iou, i, j in candidates:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        matched.append(iou)
    tp = len(matched)
    return ConfusionCounts(tp=tp, tn=0, fp=len(preds) - tp, fn=len(gts) - tp), matched


# ---- optimal matching by exhaustive search ------------------------------------


def match_optimal_bruteforce(
    preds: list[tuple[Box7, str]],
    gts: list[tuple[Box7, str]],
    iou_threshold: float,
) -> tuple[ConfusionCounts, list[float]]:
    """Exhaustive one-to-one matching oracle for small instances.

    Enumerates every injective assignment of predictions to ground truths
    over eligible pairs and keeps the one maximizing (match count, IoU sum).
    Exponential; only sensible for a handful of boxes per side.
    """
    eligible: dict[int, list[tuple[int, float]]] = {}
    for i, (pbox, pcat) in enumerate(preds):
        for j, (gbox, gcat) in enumerate(gts):
            if pcat != gcat:
                continue
            iou = iou_3d(pbox, gbox).iou
            if iou >= iou_threshold:
                eligible.setdefault(i, []).append((j, iou))

    best: tuple[int, float, list[float]] = (0, 0.0, [])

    def extend(pred_ids: list[int], k: int, used: set[int], ious: list[float]):
        nonlocal best
        if k == len(pred_ids):
            score = (len(ious), sum(ious))
            if score > (best[0], best[1]):
                best = (len(ious), sum(ious), list(ious))
            return
        extend(pred_ids, k + 1, used, ious)  # leave this prediction unmatched
        for j, iou in eligible.get(pred_ids[k], []):
            if j in used:
                continue
            used.add(j)
            ious.append(iou)
            extend(pred_ids, k + 1, used, ious)
            ious.pop()
            used.remove(j)

    extend(sorted(eligible), 0, set(), [])
    tp = best[0]
    counts = ConfusionCounts(tp=tp, tn=0, fp=len(preds) - tp, fn=len(gts) - tp)
    return counts, sorted(best[2], reverse=True)


def reference_report(instances, iou_threshold: float) -> dict:
    """The eval report of (category, IoU) pairs, built the general way: the
    counts as a `ConfusionCounts`, each rate from its definition over any
    counts (TN included, 0.0 on a zero denominator), and the category table
    as per-category (category, mean, count) rows, then their unweighted mean."""
    instances = list(instances)
    if not instances:
        raise EmptyBatch("reference_report requires at least one sample")
    tp = sum(iou >= iou_threshold for _, iou in instances)
    n = len(instances)
    c = ConfusionCounts(tp=tp, tn=0, fp=n - tp, fn=n - tp)

    def ratio(num, den):
        return num / den if den else 0.0

    p, r = ratio(c.tp, c.tp + c.fp), ratio(c.tp, c.tp + c.fn)
    by_category: dict[str, list[float]] = {}
    for category, iou in instances:
        by_category.setdefault(category, []).append(iou)
    rows = [(cat, sum(v) / len(v), len(v)) for cat, v in sorted(by_category.items())]
    return {
        "iou_threshold": iou_threshold,
        "counts": {"tp": c.tp, "tn": c.tn, "fp": c.fp, "fn": c.fn},
        "accuracy": ratio(c.tp + c.tn, c.tp + c.tn + c.fp + c.fn),
        "precision": p,
        "recall": r,
        "f1": 0.0 if p + r == 0 else 2.0 * p * r / (p + r),
        "miou_samples": sum(iou for _, iou in instances) / n,
        "miou_categories": sum(v for _, v, _ in rows) / len(rows),
        "categories": [{"category": cat, "iou": v, "count": k} for cat, v, k in rows],
    }


# ---- the fusion model's gradients by parameter name -----------------------------


def named_grads(model, upstream) -> dict[str, np.ndarray]:
    """`model.backward_batch(upstream)` for the cached forward batch, split in
    `trainable_parameters()` order (the arena's layout) into a dict of copies
    by parameter name."""
    grad = model.backward_batch(upstream)
    out, start = {}, 0
    for name, p in model.trainable_parameters().items():
        out[name] = grad[start : start + p.size].reshape(p.shape).copy()
        start += p.size
    return out


# ---- the Monte-Carlo IoU before it drew in chunks ------------------------------
# `reference_monte_carlo_iou` is `monte_carlo_iou` as it stood while it drew
# every point in one (samples, 3) call and held them all at once, each in its
# box's frame as a (samples, 3) array too (about 75 bytes per point). The
# chunked draw must return an equal `MonteCarloIoU`.


def _reference_in_box_mask(pts: np.ndarray, box: Box7) -> np.ndarray:
    local = pts - box.center
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    x = c * local[:, 0] + s * local[:, 1]
    y = -s * local[:, 0] + c * local[:, 1]
    return (
        (np.abs(x) <= box.l / 2.0)
        & (np.abs(y) <= box.w / 2.0)
        & (np.abs(local[:, 2]) <= box.h / 2.0)
    )


def reference_monte_carlo_iou(p: Box7, g: Box7, samples: int, seed: int) -> MonteCarloIoU:
    all_corners = np.vstack([box_corners(p), box_corners(g)])
    lo, hi = all_corners.min(axis=0), all_corners.max(axis=0)
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(int(samples), 3))
    in_p = _reference_in_box_mask(pts, p)
    in_g = _reference_in_box_mask(pts, g)
    union_hits = int(np.count_nonzero(in_p | in_g))
    both_hits = int(np.count_nonzero(in_p & in_g))
    if union_hits == 0:
        return MonteCarloIoU(0.0, 0.0, 0, int(samples))
    est = both_hits / union_hits
    se = math.sqrt(est * (1.0 - est) / union_hits)
    return MonteCarloIoU(est, se, union_hits, int(samples))


# ---- the fusion model before its merged weights --------------------------------
# `reference_forward` and `reference_backward` are `FusionModel.forward_batch`
# and `backward_batch` as they stood while each attention projection ran its
# adapter factored: y = x @ W.T + alpha * ((x @ A.T) @ B.T) (`apply_adapted`),
# one GEMM per q/k/v/o, and in the backward dx = dy @ W + alpha * ((dy @ B) @ A).
# The merged path rounds differently, so it must agree to about 1e-12 relative.
# `reference_backward` also returns the gradient w.r.t. the fused input, which
# the product no longer forms: the tests' input Jacobian comes from it.


def apply_adapted(w: np.ndarray, a: LoRAAdapter, x: np.ndarray) -> np.ndarray:
    """x @ (W + alpha*B@A).T for any x of shape (..., d_in) and one factor
    pair, never merging the matrix: x @ W.T, then alpha * ((x @ A.T) @ B.T)
    added in place."""
    w, x = np.asarray(w, dtype=np.float64), np.asarray(x, dtype=np.float64)
    if w.shape != (a.d_out, a.d_in) or x.shape[-1] != a.d_in:
        raise ShapeMismatch(f"base {w.shape} and input {x.shape} do not fit the adapter")
    y = x @ w.T
    y += a.alpha * ((x @ a.A.T) @ a.B.T)
    return y


def _reference_projections(model, layer: int):
    """{target: (base weight, LoRAAdapter)} over the model's parameters."""
    p, cfg = model.params, model.config
    out = {}
    for t in ("q", "k", "v", "o"):
        key = f"layers.{layer}.attn.{t}"
        adapter = LoRAAdapter(p[key + ".A"], p[key + ".B"], cfg.lora_rank, cfg.lora_alpha)
        out[t] = (p[key + ".base"], adapter)
    return out


def reference_forward(model, F):
    """(raw (B, 7), cache) of the factored forward."""
    cfg, p = model.config, model.params
    F = np.asarray(F, dtype=np.float64)
    B, T, d, H = F.shape[0], 2, cfg.d_model, cfg.n_heads
    dh = d // H
    X = np.empty((B, T, d))
    X[:, 0] = F[:, : cfg.d_v] @ p["proj_v.W"].T + p["proj_v.b"]
    X[:, 1] = F[:, cfg.d_v :] @ p["proj_t.W"].T + p["proj_t.b"]
    X = X.reshape(B * T, d)
    cache = {"F": F, "layers": []}

    def heads(Y):
        return Y.reshape(B, T, H, dh).transpose(0, 2, 1, 3)

    for i in range(cfg.n_layers):
        proj = _reference_projections(model, i)

        def lin(x, t):
            return apply_adapted(*proj[t], x)

        Qh, Kh, Vh = (heads(lin(X, t)) for t in "qkv")
        scores = (Qh @ Kh.swapaxes(-1, -2)) / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        S = e / e.sum(axis=-1, keepdims=True)
        O = (S @ Vh).transpose(0, 2, 1, 3).reshape(B * T, d)
        X1 = X + lin(O, "o")
        Hpre = X1 @ p[f"layers.{i}.ffn.W1"].T + p[f"layers.{i}.ffn.b1"]
        cache["layers"].append(dict(X_in=X, Qh=Qh, Kh=Kh, Vh=Vh, S=S, O=O, Hpre=Hpre))
        X = X1 + np.maximum(Hpre, 0.0) @ p[f"layers.{i}.ffn.W2"].T + p[f"layers.{i}.ffn.b2"]

    z = X.reshape(B, T, d).mean(axis=1)
    cache["pooled"] = z
    for j in ("0", "1", "2"):
        a = z @ p[f"head.{j}.W"].T + p[f"head.{j}.b"]
        z = np.maximum(a, 0.0)
        cache[f"a{j}"], cache[f"z{j}"] = a, z
    return z @ p["head.out.W"].T + p["head.out.b"], cache


def reference_backward(model, cache, upstream):
    """(gradient vector in the arena's layout, input gradient) of
    sum_b upstream[b] . raw[b] for a `reference_forward` cache."""
    cfg, p = model.config, model.params
    up = np.asarray(upstream, dtype=np.float64)
    B, T, d, H = up.shape[0], 2, cfg.d_model, cfg.n_heads
    dh = d // H
    g = {"head.out.W": up.T @ cache["z2"], "head.out.b": up.sum(axis=0)}
    dz = up @ p["head.out.W"]
    for j, below in (("2", "z1"), ("1", "z0"), ("0", "pooled")):
        da = dz * (cache[f"a{j}"] > 0)
        g[f"head.{j}.W"] = da.T @ cache[below]
        g[f"head.{j}.b"] = da.sum(axis=0)
        dz = da @ p[f"head.{j}.W"]
    dX = np.repeat(dz[:, None, :] / T, T, axis=1).reshape(B * T, d)

    for i in reversed(range(cfg.n_layers)):
        lc, proj = cache["layers"][i], _reference_projections(model, i)

        def lin_backward(x, dy, t):
            w, a = proj[t]
            dyB = dy @ a.B
            g[f"layers.{i}.attn.{t}.A"] = a.alpha * (dyB.T @ x)
            g[f"layers.{i}.attn.{t}.B"] = a.alpha * (dy.T @ (x @ a.A.T))
            return dy @ w + a.alpha * (dyB @ a.A)

        dHpre = (dX @ p[f"layers.{i}.ffn.W2"]) * (lc["Hpre"] > 0)
        dX1 = dX + dHpre @ p[f"layers.{i}.ffn.W1"]
        dOh = lin_backward(lc["O"], dX1, "o").reshape(B, T, H, dh).transpose(0, 2, 1, 3)
        S, Qh, Kh, Vh = lc["S"], lc["Qh"], lc["Kh"], lc["Vh"]
        dS = dOh @ Vh.swapaxes(-1, -2)
        dscores = S * (dS - (dS * S).sum(axis=-1, keepdims=True))
        d_heads = {"q": (dscores @ Kh) / math.sqrt(dh),
                   "k": (dscores.swapaxes(-1, -2) @ Qh) / math.sqrt(dh),
                   "v": S.swapaxes(-1, -2) @ dOh}
        dX = dX1 + sum(
            lin_backward(lc["X_in"], d_heads[t].transpose(0, 2, 1, 3).reshape(B * T, d), t)
            for t in "qkv"
        )

    dxv, dxt = dX[0::T], dX[1::T]
    F = cache["F"]
    g["proj_v.W"], g["proj_v.b"] = dxv.T @ F[:, : cfg.d_v], dxv.sum(axis=0)
    g["proj_t.W"], g["proj_t.b"] = dxt.T @ F[:, cfg.d_v :], dxt.sum(axis=0)
    flat = np.concatenate([g[name].reshape(-1) for name in model.trainable_parameters()])
    return flat, np.concatenate([dxv @ p["proj_v.W"], dxt @ p["proj_t.W"]], axis=1)
