"""Low-rank adapter algebra for frozen weight matrices.

An adapter attaches a rank-r update to a base weight W (d_out x d_in):

    W' = W + alpha * B @ A        A: (r, d_in), B: (d_out, r)

Only A and B train, so the trainable count is r * (d_in + d_out) instead of
d_out * d_in (2*d*r for square W). A starts as a small seeded Gaussian and B
starts at zero, which makes the initial update exactly zero: an adapted
model is bit-identical to its base until the first optimizer step. alpha is
applied as a plain multiplier on B @ A, with no implicit rescaling by r.

`merge_adapter` forms W' once (optionally into a preallocated buffer), and
the fusion model runs its attention as plain GEMMs on the merged weights:
the input gradient of x @ W'.T is dy @ W'. `adapter_grads` is the one
implementation of the factor gradients. `apply_adapted` is the factored map,
which never forms W'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankTooLarge, ShapeMismatch

_INIT_STD = 0.02


@dataclass
class LoRAAdapter:
    """Rank-r factor pair attached to a (d_out x d_in) base weight."""

    A: np.ndarray  # (r, d_in)
    B: np.ndarray  # (d_out, r)
    r: int
    alpha: float

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        if self.A.ndim != 2 or self.B.ndim != 2:
            raise ShapeMismatch("adapter factors must be 2-D")
        if self.A.shape[0] != self.r or self.B.shape[1] != self.r:
            raise ShapeMismatch(
                f"factor shapes {self.A.shape}, {self.B.shape} do not carry rank {self.r}"
            )
        if self.r > min(self.d_in, self.d_out):
            raise RankTooLarge(f"rank {self.r} exceeds min({self.d_in}, {self.d_out})")
        if not (np.isfinite(self.A).all() and np.isfinite(self.B).all()):
            raise ValueError("adapter factors must be finite")

    @property
    def d_in(self) -> int:
        return self.A.shape[1]

    @property
    def d_out(self) -> int:
        return self.B.shape[0]

    @property
    def param_count(self) -> int:
        return self.r * (self.d_in + self.d_out)


def adapter_init(d_in: int, d_out: int, r: int, alpha: float, seed: int) -> LoRAAdapter:
    """Fresh adapter: A ~ N(0, 0.02) from the seed, B = 0."""
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if r > min(d_in, d_out):
        raise RankTooLarge(f"rank {r} exceeds min({d_in}, {d_out})")
    rng = np.random.default_rng(seed)
    return LoRAAdapter(
        A=rng.normal(0.0, _INIT_STD, size=(r, d_in)),
        B=np.zeros((d_out, r)),
        r=r,
        alpha=float(alpha),
    )


def _check_base(w: np.ndarray, a: LoRAAdapter) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeMismatch(f"base weight must be a matrix, got ndim={w.ndim}")
    if w.shape != (a.d_out, a.d_in):
        raise ShapeMismatch(f"base weight {w.shape} does not match adapter ({a.d_out}, {a.d_in})")
    return w


def apply_adapted(w: np.ndarray, a: LoRAAdapter, x: np.ndarray) -> np.ndarray:
    """x @ (W + alpha*B@A).T for any x of shape (..., d_in), never merging the
    matrix: x @ W.T, then alpha * ((x @ A.T) @ B.T) added in place."""
    w = _check_base(w, a)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != a.d_in:
        raise ShapeMismatch(f"input of length {x.shape[-1]} does not match d_in={a.d_in}")
    y = x @ w.T
    y += a.alpha * ((x @ a.A.T) @ a.B.T)
    return y


def adapter_grads(a: LoRAAdapter, x: np.ndarray, dy: np.ndarray, out=(None, None)):
    """(dA, dB) of sum(dy * (x @ merge_adapter(w, a).T)), summed over the
    leading axes: alpha * (dy @ B).T @ x and alpha * dy.T @ (x @ A.T).

    They do not depend on W. `out` is a pair of arrays (or Nones) to write
    them into. The input gradient, dy @ merge_adapter(w, a), is one GEMM on
    the merged weight and is left to the caller.
    """
    x, dy = np.asarray(x, dtype=np.float64), np.asarray(dy, dtype=np.float64)
    if x.shape[-1] != a.d_in or dy.shape != x.shape[:-1] + (a.d_out,):
        raise ShapeMismatch(f"input {x.shape} and gradient {dy.shape} do not fit the adapter "
                            f"({a.d_out}, {a.d_in})")
    xf, dyf = x.reshape(-1, a.d_in), dy.reshape(-1, a.d_out)
    dA = np.matmul((dyf @ a.B).T, xf, out=out[0])
    dA *= a.alpha
    dB = np.matmul(dyf.T, xf @ a.A.T, out=out[1])
    dB *= a.alpha
    return dA, dB


def merge_adapter(w: np.ndarray, a: LoRAAdapter, out: np.ndarray | None = None) -> np.ndarray:
    """Dense merged weight W + alpha*B@A, written into `out` (a fresh array if
    None), which must not overlap w. Both forms give the same bits."""
    w = _check_base(w, a)
    merged = np.matmul(a.B, a.A, out=out)
    merged *= a.alpha
    merged += w
    return merged


def adapter_param_fraction(model_param_count: int, adapters) -> float:
    """Fraction of a model's parameters held in the given adapters."""
    if model_param_count <= 0:
        raise ValueError(f"model_param_count must be positive, got {model_param_count}")
    return sum(a.param_count for a in adapters) / model_param_count

