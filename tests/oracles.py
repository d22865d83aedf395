"""Reference implementations that tests compare the package against."""

import numpy as np

from minidet3d.errors import DegenerateOverlap, NonSmoothPoint
from minidet3d.geom import Box7
from minidet3d.iou import IoUResult, _dedup, bev_footprint, iou_3d, iou_loss, polygon_area

FD_STEP = 1e-4  # meters for x,y,z,l,w,h; radians for yaw


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
                (iou_loss(Box7.from_params(plus), g) - iou_loss(Box7.from_params(minus), g))
                / (2.0 * h)
            )
        g1, g2 = estimates
        if not grads_agree(g1, g2):
            raise NonSmoothPoint(
                f"component {i}: step-halving estimates {g1:.6e} and {g2:.6e} disagree"
            )
        grad[i] = g2
    return grad


def grads_agree(a, b) -> bool:
    """The oracle's own acceptance rule: within 1% relative or 1e-6 absolute."""
    return abs(a - b) <= max(1e-6, 0.01 * max(abs(a), abs(b)))


class DictAdamW:
    """The per-tensor AdamW over a dict of arrays, the reference for the flat
    chunked `train.AdamW`: both must give bit-identical parameters."""

    def __init__(self, params: dict[str, np.ndarray], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.01):
        self.beta1, self.beta2, self.eps, self.weight_decay = beta1, beta2, eps, weight_decay
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
            p -= lr * self.weight_decay * p
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# ---- the IoU value path before its fast path ---------------------------------
# `reference_polygon_clip` and `reference_iou_3d` are `polygon_clip` and
# `iou_3d` as they stood before the separated-footprint exit, the
# closure-free clipper and the collinear-edge rule: the fast path must return
# an equal IoUResult wherever no subject edge runs along a clip edge's line.
# On such collinear edges these references are wrong (a near-parallel
# crossing lands far away) or divide by zero.


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
        vol = p.volume
        return IoUResult(1.0, vol, vol)
    # Clip order is fixed by a canonical operand ordering so that
    # iou_3d(a, b) and iou_3d(b, a) run the identical computation.
    if (g.x, g.y, g.z, g.l, g.w, g.h, g.yaw) < (p.x, p.y, p.z, p.l, p.w, p.h, p.yaw):
        p, g = g, p

    z_overlap = min(p.z + p.h / 2.0, g.z + g.h / 2.0) - max(p.z - p.h / 2.0, g.z - g.h / 2.0)
    vol_p, vol_g = p.volume, g.volume
    if z_overlap <= 0.0:
        return IoUResult(0.0, 0.0, vol_p + vol_g)

    inter_area = polygon_area(reference_polygon_clip(bev_footprint(p), bev_footprint(g)))
    # Guard the bound intersection <= min(vol) against last-ulp clipping noise.
    inter = min(inter_area * z_overlap, vol_p, vol_g)
    union = vol_p + vol_g - inter
    return IoUResult(inter / union, inter, union)
