"""Exact rotated-box 3D IoU and the exact gradient of the IoU loss 1 - IoU.

Boxes carry yaw only, so a 3D intersection decomposes into the intersection
of the two bird's-eye-view footprints (convex quadrilaterals) times the
overlap of the two vertical extents. IoU values come from one function,
`iou_3d`, on two Box7s or plain rows (x, y, z, l, w, h, yaw), a Box7 being
one. It turns one footprint into the other box's frame, where that box is
an axis-aligned rectangle about the origin, clips it there (Sutherland-
Hodgman, one comparison per vertex and side) and takes the shoelace area.
The clip sees coordinates the size of the boxes, so the IoU keeps its
digits far from the origin, and its crossings are taken only between ends
on opposite sides of a side, so boxes placed end to end or side by side
need no special rule. Two exits skip the clip and return exactly what it
would: boxes apart vertically, and footprints whose circumscribed circles
are apart by a relative margin.

The IoU-loss gradient is analytic. It takes the two rows and the IoU, works
in g's frame as `iou_3d` does, and builds the footprint intersection with
the same four clip passes, each vertex tagged with its source (a corner of
either box, or an edge crossing, as in Zhou et al., arXiv:1908.03851); the
clip yields the vertices in order, so nothing is sorted, and one reverse
pass differentiates their shoelace area. The loss is piecewise smooth: at
a topology tie, where the vertex set changes, no gradient is returned. A
seeded Monte-Carlo estimator provides an independent cross-check of the
exact IoU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateOverlap, NonSmoothPoint
from .geom import Box7, box_corners

# A convex polygon is an ordered CCW list of (x, y) vertices; [] is empty.
ConvexPolygon2D = list[tuple[float, float]]

# Footprints whose centres lie further apart than this many times the sum of
# their circumscribed radii cannot touch, whatever the rounding of the clip.
_SEPARATION_MARGIN = 1.0 + 1e-6


def rectangle_clip(poly: ConvexPolygon2D, hl: float, hw: float) -> ConvexPolygon2D:
    """Part of a convex CCW polygon inside the rectangle |x| <= hl, |y| <= hw
    (Sutherland-Hodgman, one half-plane per pass).

    Each pass clips against x <= limit, then turns the output a quarter turn
    clockwise, (x, y) -> (y, -x), so the four passes meet the four sides and
    the last turn restores the frame; a turn only swaps and negates, so it
    is exact. Points on the boundary count as inside. A crossing is taken
    only between ends on opposite sides, where rounding keeps its fraction
    t in [0, 1], so it lies on the subject edge. Vertices may repeat, which
    adds nothing to the shoelace area.
    """
    for limit in (hl, hw, hl, hw):
        if not poly:
            return []
        clipped = []
        sx, sy = poly[-1]
        s_in = sx <= limit
        for ex, ey in poly:
            e_in = ex <= limit
            if e_in != s_in:
                clipped.append((sy + (limit - sx) / (ex - sx) * (ey - sy), -limit))
            if e_in:
                clipped.append((ey, -ex))
            sx, sy, s_in = ex, ey, e_in
        poly = clipped
    return poly


def polygon_area(poly: ConvexPolygon2D) -> float:
    """Shoelace area; empty polygons have area zero."""
    if len(poly) < 3:
        return 0.0
    acc = 0.0
    x0, y0 = poly[-1]
    for x1, y1 in poly:
        acc += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return abs(acc) / 2.0


# Corner k of bev_footprint sits at (sx * l/2, sy * w/2) in the box frame.
_FOOTPRINT_SIGNS = ((1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0))


def bev_footprint(box) -> ConvexPolygon2D:
    """Bird's-eye-view footprint of a box (a Box7 or its row): 4 CCW (x, y) vertices."""
    x, y, _, l, w, _, yaw = box
    c, s = math.cos(yaw), math.sin(yaw)
    hl, hw = l / 2.0, w / 2.0
    # Corner (sx hl, sy hw) is (x + c sx hl - s sy hw, ...); sign flips are exact.
    chl, shl, chw, shw = c * hl, s * hl, c * hw, s * hw
    xf, xb, yf, yb = x + chl, x - chl, y + shl, y - shl
    return [(xf + shw, yf - chw), (xf - shw, yf + chw), (xb - shw, yb + chw), (xb + shw, yb - chw)]


class IoUResult(NamedTuple):
    iou: float
    intersection_volume: float
    union_volume: float


def _result(iou: float, inter: float, union: float) -> IoUResult:
    """IoUResult(iou, inter, union), without the NamedTuple's Python-level __new__."""
    return tuple.__new__(IoUResult, (iou, inter, union))


def _relative_row(p, g) -> tuple:
    """Row p in g's frame, where g's centre is the origin and its length runs
    along x: (x, y, 0, l, w, 0, yaw) with p's sizes and p's yaw less g's."""
    c, s = math.cos(g[6]), math.sin(g[6])
    dx, dy = p[0] - g[0], p[1] - g[1]
    return (c * dx + s * dy, c * dy - s * dx, 0.0, p[3], p[4], 0.0, p[6] - g[6])


def iou_3d(p: Box7, g: Box7) -> IoUResult:
    """Exact IoU of two yaw-only boxes: intersection volume over union volume.

    p and g are Box7s or rows with yaw in (-pi, pi]. Once the operands are
    in a canonical order, p's footprint is built in g's frame, where g's
    footprint is the rectangle |x| <= l/2, |y| <= w/2, and clipped against
    it: the clip works on coordinates the size of the boxes wherever they
    lie. The computation is symmetric in its arguments through that order.
    """
    if p == g:
        vol = p[3] * p[4] * p[5]
        return _result(1.0, vol, vol)
    # Clip order is fixed by a canonical operand ordering so that
    # iou_3d(a, b) and iou_3d(b, a) run the identical computation.
    if g < p:
        p, g = g, p
    px, py, pz, pl, pw, ph, _ = p
    gx, gy, gz, gl, gw, gh, _ = g

    z_overlap = min(pz + ph / 2.0, gz + gh / 2.0) - max(pz - ph / 2.0, gz - gh / 2.0)
    vol_p, vol_g = pl * pw * ph, gl * gw * gh
    dx, dy = px - gx, py - gy
    if z_overlap <= 0.0 or (
        math.hypot(dx, dy) > _SEPARATION_MARGIN * 0.5 * (math.hypot(pl, pw) + math.hypot(gl, gw))
    ):
        # Apart vertically, or footprints too far apart to touch: exactly
        # what the clip path returns for an empty intersection.
        return _result(0.0, 0.0, vol_p + vol_g)

    rel = _relative_row(p, g)
    inter_area = polygon_area(rectangle_clip(bev_footprint(rel), gl / 2.0, gw / 2.0))
    # Guard the bound intersection <= min(vol) against last-ulp clipping noise.
    inter = min(inter_area * z_overlap, vol_p, vol_g)
    union = vol_p + vol_g - inter
    return _result(inter / union, inter, union)


# Topology ties are decided within this fraction of the largest box size: a
# corner this close to the other footprint's boundary, an edge crossing this
# close to an edge end, or top or bottom faces this close to flush. The set
# of intersection vertices, and with it the gradient formula, changes there.
_TIE_EPS = 1e-9


# Inward unit normal of g's side j, which runs from corner j-1 to corner j of
# the rectangle; rectangle_clip's passes meet sides 1, 2, 3 and 0 in turn.
_SIDE_NORMALS = ((0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0))


def _footprint_overlap_grad(p: tuple, g: tuple, tol: float) -> tuple[float, list[float]]:
    """Footprint-intersection area and its gradient w.r.t. (x, y, l, w, yaw) of
    row p. In g's frame, p's footprint P is clipped against G, the rectangle
    |x| <= l/2, |y| <= w/2, by `rectangle_clip`'s four passes (the same
    quarter turns and crossing formula), each vertex tagged with the edge
    that ends at it, so that it is known as p's corner k, p's edge i (corner
    i-1 to i) crossing g's side j, or a corner of g. The clip leaves the
    intersection in CCW order, with no sort, and the reverse pass walks it as
    it stands: the shoelace area to its vertices, each crossing through its p
    edge and g side to p's corners, and those to the row; the (x, y) part is
    turned back by g's yaw."""
    rel = _relative_row(p, g)
    x, y, c, s = rel[0], rel[1], math.cos(rel[6]), math.sin(rel[6])
    hl, hw, phl, phw = g[3] / 2.0, g[4] / 2.0, p[3] / 2.0, p[4] / 2.0
    P = bev_footprint(rel)
    # A corner's signed distance to the other box's boundary, g's corner taken
    # into p's frame. An edge crossing at an edge end puts that end, a corner,
    # on the other box's edge, so this one test finds both kinds of tie.
    for u, v in P:
        inner = min(hl - abs(u), hw - abs(v))
        if abs(inner) <= tol:
            raise NonSmoothPoint(f"a corner lies on the other box's edge (distance {inner:.3e})")
    for sx, sy in _FOOTPRINT_SIGNS:
        a, b = sx * hl - x, sy * hw - y
        inner = min(phl - abs(c * a + s * b), phw - abs(c * b - s * a))
        if abs(inner) <= tol:
            raise NonSmoothPoint(f"a corner lies on the other box's edge (distance {inner:.3e})")

    # A vertex is (x, y, edge), edge naming the polygon edge that ends at it:
    # p's edge i as i, g's side j as 4 + j. The edges into and out of a vertex
    # say what it is: two of p's edges meet at p's corner, an edge of each box
    # at a crossing, and two of g's sides at g's corner.
    poly = [(u, v, k) for k, (u, v) in enumerate(P)]
    for j, limit in ((1, hl), (2, hw), (3, hl), (0, hw)):
        clipped = []
        sx, sy, _ = poly[-1]
        s_in = sx <= limit
        for ex, ey, edge in poly:
            e_in = ex <= limit
            if e_in != s_in:
                clipped.append((sy + (limit - sx) / (ex - sx) * (ey - sy), -limit,
                                edge if s_in else 4 + j))
            if e_in:
                clipped.append((ey, -ex, edge))
            sx, sy, s_in = ex, ey, e_in
        poly = clipped

    twice_area = 0.0
    d_corner = [[0.0, 0.0] for _ in range(4)]
    (x0, y0, _), (x1, y1, e1) = poly[-2], poly[-1]
    for x2, y2, e2 in poly:
        twice_area += x0 * y1 - x1 * y0
        if e1 < 4 and e2 < 4:
            d_corner[e1][0] += 0.5 * (y2 - y0)
            d_corner[e1][1] += 0.5 * (x0 - x2)
        elif e1 < 4 or e2 < 4:
            # Crossing X = A + t (B - A), t = sa / (sa - sb), where sa and sb,
            # the distances of A and B to g's side j, are affine in A and B.
            i, j = (e1, e2 - 4) if e1 < 4 else (e2, e1 - 4)
            gx, gy = 0.5 * (y2 - y0), 0.5 * (x0 - x2)
            (ax, ay), (bx, by) = P[i - 1], P[i]
            nx, ny = _SIDE_NORMALS[j]
            half = hl if j % 2 else hw
            sa, sb = half + nx * ax + ny * ay, half + nx * bx + ny * by
            t = sa / (sa - sb)
            k_n = (gx * (bx - ax) + gy * (by - ay)) / (sa - sb) ** 2
            da, db = d_corner[i - 1], d_corner[i]
            da[0] += (1.0 - t) * gx - k_n * sb * nx
            da[1] += (1.0 - t) * gy - k_n * sb * ny
            db[0] += t * gx + k_n * sa * nx
            db[1] += t * gy + k_n * sa * ny
        x0, y0, x1, y1, e1 = x1, y1, x2, y2, e2

    grad = [0.0] * 5
    for (gx, gy), (px, py), (sx, sy) in zip(d_corner, P, _FOOTPRINT_SIGNS):
        grad[0] += gx
        grad[1] += gy
        grad[2] += 0.5 * sx * (c * gx + s * gy)
        grad[3] += 0.5 * sy * (c * gy - s * gx)
        grad[4] += (px - x) * gy - (py - y) * gx
    c, s = math.cos(g[6]), math.sin(g[6])
    grad[0], grad[1] = c * grad[0] - s * grad[1], s * grad[0] + c * grad[1]
    return 0.5 * twice_area, grad


def iou_loss_grad(p, g, iou=None) -> np.ndarray:
    """Exact gradient of 1 - IoU w.r.t. p's 7 parameters (x, y, z, l, w, h, yaw).

    p and g are Box7s or rows; the IoU is taken here unless given. The
    intersection volume, footprint-intersection area x vertical overlap, is
    differentiated in one reverse pass: the shoelace area to its vertices,
    edge crossings to the ends of p's edges, p's corners to (x, y, l, w,
    yaw), and the vertical overlap and volumes to (z, l, w, h). IoU must lie
    strictly inside (0, 1), otherwise DegenerateOverlap. NonSmoothPoint marks
    a topology tie (`_TIE_EPS`): a corner on the other box's edge, an edge
    crossing at an edge end, or flush top or bottom faces.
    """
    iou = iou_3d(p, g).iou if iou is None else iou
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

    area, (da_x, da_y, da_l, da_w, da_yaw) = _footprint_overlap_grad(p, g, tol)
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


# rows of Monte-Carlo points drawn and tested at once: about 5 MB of temporaries
_MC_CHUNK = 65_536


@dataclass(frozen=True)
class MonteCarloIoU:
    iou: float
    standard_error: float
    union_hits: int
    samples: int


def _in_box_mask(pts: np.ndarray, box: Box7) -> np.ndarray:
    """Which rows of (n, 3) points lie in `box`. Only the offsets read are
    formed, not an (n, 3) copy, which keeps a chunk's temporaries small."""
    dx, dy = pts[:, 0] - box.x, pts[:, 1] - box.y
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return (
        (np.abs(c * dx + s * dy) <= box.l / 2.0)
        & (np.abs(-s * dx + c * dy) <= box.w / 2.0)
        & (np.abs(pts[:, 2] - box.z) <= box.h / 2.0)
    )


def monte_carlo_iou(p: Box7, g: Box7, samples: int, seed: int) -> MonteCarloIoU:
    """Seeded rejection-sampling IoU estimate over the union's bounding volume.

    Points are drawn uniformly in the axis-aligned box covering both inputs;
    points in neither box are rejected. The standard error is the binomial
    estimate over points that landed in the union. Points are drawn and
    tested `_MC_CHUNK` rows at a time: the generator fills row by row, so the
    draws are those of one (samples, 3) call, and memory stays bounded
    whatever the sample count.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    samples = int(samples)
    all_corners = np.vstack([box_corners(p), box_corners(g)])
    lo, hi = all_corners.min(axis=0), all_corners.max(axis=0)

    rng = np.random.default_rng(seed)
    union_hits = both_hits = 0
    for start in range(0, samples, _MC_CHUNK):
        pts = rng.uniform(lo, hi, size=(min(_MC_CHUNK, samples - start), 3))
        in_p = _in_box_mask(pts, p)
        in_g = _in_box_mask(pts, g)
        union_hits += int(np.count_nonzero(in_p | in_g))
        both_hits += int(np.count_nonzero(in_p & in_g))
    if union_hits == 0:
        return MonteCarloIoU(0.0, 0.0, 0, samples)
    est = both_hits / union_hits
    se = math.sqrt(est * (1.0 - est) / union_hits)
    return MonteCarloIoU(est, se, union_hits, samples)
