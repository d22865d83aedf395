"""Reference implementations that tests compare the package against."""

import numpy as np

from minidet3d.errors import DegenerateOverlap, NonSmoothPoint
from minidet3d.geom import Box7
from minidet3d.iou import iou_3d, iou_loss

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
