"""Low-rank adapter algebra for frozen weight matrices.

An adapter attaches a rank-r update to a base weight W (d_out x d_in):

    W' = W + alpha * B @ A        A: (r, d_in), B: (d_out, r)

Only A and B train, so the trainable count is r * (d_in + d_out) instead of
d_out * d_in (2*d*r for square W). A starts as a small seeded Gaussian and B
starts at zero, which makes the initial update exactly zero: an adapted
model is bit-identical to its base until the first optimizer step. alpha is
applied as a plain multiplier on B @ A, with no implicit rescaling by r.

A and B may carry the same leading stack axes, one pair per matrix of a
(..., d_out, d_in) stack of bases. `merge_adapter` forms every W' of a stack
in one call (optionally into a preallocated buffer), the same bits as one
call per matrix, and the fusion model runs its attention as plain GEMMs on
the merged weights: the input gradient of x @ W'.T is dy @ W'. Its backward
writes the factor gradients, alpha * (dy @ B).T @ x and alpha * dy.T @ (x @ A.T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

_INIT_STD = 0.02


@dataclass
class LoRAAdapter:
    """Rank-r factor pair attached to a (d_out x d_in) base weight, or a stack
    of them along shared leading axes."""

    A: np.ndarray  # (..., r, d_in)
    B: np.ndarray  # (..., d_out, r)
    r: int
    alpha: float

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        if self.r < 1:
            raise ValueError(f"rank must be >= 1, got {self.r}")
        if (self.A.ndim != self.B.ndim or self.A.shape[:-2] != self.B.shape[:-2]
                or self.A.shape[-2:-1] != (self.r,) or self.B.shape[-1:] != (self.r,)):
            raise ShapeMismatch(f"factor shapes {self.A.shape}, {self.B.shape} are not a rank-"
                                f"{self.r} pair (..., r, d_in), (..., d_out, r)")
        if self.r > min(self.d_in, self.d_out):
            raise ShapeMismatch(f"rank {self.r} exceeds min({self.d_in}, {self.d_out})")
        if not all(np.isfinite(v).all() for v in (self.A, self.B, self.alpha)):
            raise ValueError("adapter factors and alpha must be finite")

    @property
    def d_in(self) -> int:
        return self.A.shape[-1]

    @property
    def d_out(self) -> int:
        return self.B.shape[-2]

    @property
    def param_count(self) -> int:
        return self.A.size + self.B.size


def adapter_init(d_in: int, d_out: int, r: int, alpha: float, seed: int) -> LoRAAdapter:
    """Fresh adapter: A ~ N(0, 0.02) from the seed, B = 0; LoRAAdapter checks r."""
    rng = np.random.default_rng(seed)
    return LoRAAdapter(
        A=rng.normal(0.0, _INIT_STD, size=(r, d_in)),
        B=np.zeros((d_out, r)),
        r=r,
        alpha=float(alpha),
    )


def merge_adapter(w: np.ndarray, a: LoRAAdapter, out: np.ndarray | None = None) -> np.ndarray:
    """Dense merged weight W + alpha*B@A, or the stack of them, written into
    `out` (a fresh array if None), which must not overlap w. Both forms give
    the same bits."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (shape := a.A.shape[:-2] + (a.d_out, a.d_in)):
        raise ShapeMismatch(f"base weight {w.shape} does not match adapter {shape}")
    merged = np.matmul(a.B, a.A, out=out)
    merged *= a.alpha
    merged += w
    return merged
