"""Exact rotated-box 3D IoU and the exact gradient of the IoU loss 1 - IoU.

Boxes carry yaw only, so a 3D intersection decomposes into the intersection
of the two bird's-eye-view footprints (convex quadrilaterals) times the
overlap of the two vertical extents. IoU values come from one function,
`iou_3d`, on two Box7s or plain rows (x, y, z, l, w, h, yaw), a Box7 being
one: Sutherland-Hodgman clipping, then the shoelace area. Two exits skip the
clip and return exactly what it would: boxes apart vertically, and
footprints whose circumscribed circles are apart by a relative margin. A
subject edge whose ends both lie on a clip edge's line within rounding, as
the edges of boxes placed end to end or side by side do, has its end taken
as the crossing: the crossing of two lines that close to parallel is lost
to rounding.

The IoU-loss gradient is analytic. The footprint intersection is rebuilt
from its vertices (corners inside the other box plus edge crossings, as in
Zhou et al., "IoU Loss for 2D/3D Object Detection", arXiv:1908.03851),
whose shoelace area is differentiated in one reverse pass. The loss is
piecewise smooth: at a topology tie, where the vertex set changes, no
gradient is returned. A seeded Monte-Carlo estimator provides an
independent cross-check of the exact IoU.
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

_DEDUP_EPS = 1e-12
# A crossing's denominator is the clip edge's length times the summed
# distances of the subject edge's ends to the clip edge's line. At most this
# fraction of length x (length + size of the clip edge's coordinates), both
# ends lie on the line within rounding, and the crossing is lost to it.
_COLLINEAR_EPS = 1e-12
# Footprints whose centres lie further apart than this many times the sum of
# their circumscribed radii cannot touch, whatever the rounding of the clip.
_SEPARATION_MARGIN = 1.0 + 1e-6


def polygon_clip(subject: ConvexPolygon2D, clip: ConvexPolygon2D) -> ConvexPolygon2D:
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


def _dedup(poly: ConvexPolygon2D) -> ConvexPolygon2D:
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


def iou_3d(p: Box7, g: Box7, fp=None, fg=None) -> IoUResult:
    """Exact IoU of two yaw-only boxes: intersection volume over union volume.

    p and g are Box7s or rows with yaw in (-pi, pi]; their footprints fp, fg
    are made here unless given, so that callers can cache them. The
    computation is symmetric in its arguments by construction (operands are
    put in a canonical order before clipping).
    """
    if p == g:
        vol = p[3] * p[4] * p[5]
        return _result(1.0, vol, vol)
    # Clip order is fixed by a canonical operand ordering so that
    # iou_3d(a, b) and iou_3d(b, a) run the identical computation.
    if g < p:
        p, g, fp, fg = g, p, fg, fp
    px, py, pz, pl, pw, ph, _ = p
    gx, gy, gz, gl, gw, gh, _ = g

    z_overlap = min(pz + ph / 2.0, gz + gh / 2.0) - max(pz - ph / 2.0, gz - gh / 2.0)
    vol_p, vol_g = pl * pw * ph, gl * gw * gh
    if z_overlap <= 0.0 or (
        math.hypot(gx - px, gy - py)
        > _SEPARATION_MARGIN * 0.5 * (math.hypot(pl, pw) + math.hypot(gl, gw))
    ):
        # Apart vertically, or footprints too far apart to touch: exactly
        # what the clip path returns for an empty intersection.
        return _result(0.0, 0.0, vol_p + vol_g)

    inter_area = polygon_area(polygon_clip(fp or bev_footprint(p), fg or bev_footprint(g)))
    # Guard the bound intersection <= min(vol) against last-ulp clipping noise.
    inter = min(inter_area * z_overlap, vol_p, vol_g)
    union = vol_p + vol_g - inter
    return _result(inter / union, inter, union)


# Topology ties are decided within this fraction of the largest box size: a
# corner this close to the other footprint's boundary, an edge crossing this
# close to an edge end, or top or bottom faces this close to flush. The set
# of intersection vertices, and with it the gradient formula, changes there.
_TIE_EPS = 1e-9


def _edges(poly: ConvexPolygon2D, lengths) -> list[tuple[float, float, float, float]]:
    """(start x, start y, inward unit normal x, y) of each edge k of a CCW
    polygon, where edge k runs from vertex k-1 to vertex k."""
    out = []
    ax, ay = poly[-1]
    for (bx, by), length in zip(poly, lengths):
        out.append((ax, ay, (ay - by) / length, (bx - ax) / length))
        ax, ay = bx, by
    return out


def _footprint_overlap_grad(p: tuple, g: tuple, P, G, tol: float) -> tuple[float, list[float]]:
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


def iou_loss_grad(p, g, fp=None, fg=None, iou=None) -> np.ndarray:
    """Exact gradient of 1 - IoU w.r.t. p's 7 parameters (x, y, z, l, w, h, yaw).

    p and g are Box7s or rows; their footprints fp, fg and IoU are made here unless given.
    Intersection volume = footprint-intersection area x vertical overlap,
    differentiated in one reverse pass: the shoelace area to its vertices,
    edge crossings to the ends of p's edges, p's corners to (x, y, l, w,
    yaw), and the vertical overlap and volumes to (z, l, w, h). IoU must lie
    strictly inside (0, 1), otherwise DegenerateOverlap. The loss is
    piecewise smooth; NonSmoothPoint is raised only at a topology tie, where a
    corner lies on the other box's edge, an edge crossing lies at an edge end,
    or top or bottom faces are flush (within _TIE_EPS times the largest size).
    """
    fp, fg = fp or bev_footprint(p), fg or bev_footprint(g)
    iou = iou_3d(p, g, fp, fg).iou if iou is None else iou
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

    area, (da_x, da_y, da_l, da_w, da_yaw) = _footprint_overlap_grad(p, g, fp, fg, tol)
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
