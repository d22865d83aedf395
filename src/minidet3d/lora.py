"""Low-rank adapter algebra for frozen weight matrices.

An adapter attaches a rank-r update to a base weight W (d_out x d_in):

    W' = W + alpha * B @ A        A: (r, d_in), B: (d_out, r)

Only A and B train, so the trainable count is r * (d_in + d_out) instead of
d_out * d_in (2*d*r for square W). A starts as a small seeded Gaussian and B
starts at zero, which makes the initial update exactly zero: an adapted
model is bit-identical to its base until the first optimizer step. alpha is
applied as a plain multiplier on B @ A, with no implicit rescaling by r.

`apply_adapted` and `adapted_backward` are the one implementation of the
adapted map and its gradients; the fusion model's attention runs through them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

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

    def delta(self) -> np.ndarray:
        """The dense update alpha * B @ A."""
        return self.alpha * (self.B @ self.A)


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
    """x @ (W + alpha*B@A).T for any x of shape (..., d_in), never merging the matrix."""
    w = _check_base(w, a)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != a.d_in:
        raise ShapeMismatch(f"input of length {x.shape[-1]} does not match d_in={a.d_in}")
    return x @ w.T + a.alpha * ((x @ a.A.T) @ a.B.T)


def adapted_backward(w: np.ndarray, a: LoRAAdapter, x: np.ndarray, dy: np.ndarray):
    """(dx, dA, dB) of sum(dy * apply_adapted(w, a, x)); dA, dB sum over leading axes."""
    w = _check_base(w, a)
    x, dy = np.asarray(x, dtype=np.float64), np.asarray(dy, dtype=np.float64)
    if x.shape[-1] != a.d_in or dy.shape != x.shape[:-1] + (a.d_out,):
        raise ShapeMismatch(f"input {x.shape} and gradient {dy.shape} do not fit {w.shape}")
    xf, dyf = x.reshape(-1, a.d_in), dy.reshape(-1, a.d_out)
    dx = dy @ w + a.alpha * ((dy @ a.B) @ a.A)
    return dx, a.alpha * ((dyf @ a.B).T @ xf), a.alpha * (dyf.T @ (xf @ a.A.T))


def merge_adapter(w: np.ndarray, a: LoRAAdapter) -> np.ndarray:
    """Dense merged weight W + alpha*B@A."""
    return _check_base(w, a) + a.delta()


def adapter_param_fraction(model_param_count: int, adapters) -> float:
    """Fraction of a model's parameters held in the given adapters."""
    if model_param_count <= 0:
        raise ValueError(f"model_param_count must be positive, got {model_param_count}")
    return sum(a.param_count for a in adapters) / model_param_count


def save_adapter(path: str | Path, a: LoRAAdapter) -> None:
    """Write an adapter checkpoint: JSON with row-major flat A then B."""
    payload = {
        "d_in": a.d_in,
        "d_out": a.d_out,
        "r": a.r,
        "alpha": a.alpha,
        "a": a.A.reshape(-1).tolist(),
        "b": a.B.reshape(-1).tolist(),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_adapter(path: str | Path) -> LoRAAdapter:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    d_in, d_out, r = payload["d_in"], payload["d_out"], payload["r"]
    return LoRAAdapter(
        A=np.array(payload["a"], dtype=np.float64).reshape(r, d_in),
        B=np.array(payload["b"], dtype=np.float64).reshape(d_out, r),
        r=r,
        alpha=float(payload["alpha"]),
    )
