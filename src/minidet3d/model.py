"""Desk-scale multimodal fusion model with low-rank-adapted self-attention.

The model stands in for a large vision-language backbone while keeping the
mechanisms intact: a visual feature and a text feature are projected to a
2-token sequence, run through a small transformer whose attention
projections carry rank-r adapters, mean-pooled, and regressed to a raw
7-vector (x, y, z, l, w, h, yaw) by an MLP head with ReLU activations and
hidden widths fixed at `MLP_HIDDEN` = 512/256/128 (not a config field).

Trainable parameters: the two input projections, the adapter factors, and
the MLP head. The transformer base weights are frozen at their seeded
initialization, as is the semantic projection head (a linear map from box
parameters to a 128-dim feature space). Freezing the semantic head keeps the
feature-space MSE a fixed positive-definite quadratic in the box-parameter
error; a trainable head would collapse the objective by shrinking to zero.

Forward passes cache activations; `backward_batch` / `backward_head` replay
them in reverse for exact gradients. All math is float64 numpy, so identical
(config, seed, input) triples produce bit-identical outputs.

Size channels of the raw output go through softplus when a geometric box is
built, since boxes require strictly positive sizes; yaw is wrapped into
(-pi, pi] at the same point. The trainer calls `box_params_from_raw`,
`box_params_grad_chain` and the semantic head from here, and predicts
boxes with `box_from_raw`, the one raw-to-box map.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ModalityMismatch, ShapeMismatch, StaleActivation
from .geom import Box7
from .lora import LoRAAdapter, adapter_init, adapter_param_fraction

MLP_HIDDEN = (512, 256, 128)
SEMANTIC_DIM = 128
ATTENTION_TARGETS = ("q", "k", "v", "o")

_CHECKPOINT_MAGIC = b"MD3D"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class FeatureVector:
    """A feature vector tagged with its modality: visual, text, or fused."""

    values: np.ndarray
    modality: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ShapeMismatch(f"feature vector must be 1-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("feature vector entries must be finite")
        if self.modality not in ("visual", "text", "fused"):
            raise ModalityMismatch(f"unknown modality {self.modality!r}")
        object.__setattr__(self, "values", v)


def concat_features(fv: FeatureVector, ft: FeatureVector) -> FeatureVector:
    """Fuse a visual and a text feature; the visual part leads."""
    if fv.modality != "visual":
        raise ModalityMismatch(f"first argument must be visual, got {fv.modality!r}")
    if ft.modality != "text":
        raise ModalityMismatch(f"second argument must be text, got {ft.modality!r}")
    return FeatureVector(np.concatenate([fv.values, ft.values]), "fused")


@dataclass(frozen=True)
class ModelConfig:
    d_v: int = 32
    d_t: int = 32
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    lora_rank: int = 16
    lora_alpha: float = 32.0
    lora_targets: tuple[str, ...] = ATTENTION_TARGETS
    seed: int = 0

    def __post_init__(self):
        for name in ("d_v", "d_t", "d_model", "n_layers", "n_heads", "lora_rank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.lora_rank > self.d_model:
            raise ValueError(f"lora_rank {self.lora_rank} exceeds d_model {self.d_model}")
        targets = tuple(self.lora_targets)
        if not targets or any(t not in ATTENTION_TARGETS for t in targets):
            raise ValueError(f"lora_targets must be a non-empty subset of {ATTENTION_TARGETS}")
        object.__setattr__(self, "lora_targets", targets)


def softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def box_params_from_raw(raw: np.ndarray) -> np.ndarray:
    """Map raw model output to box parameters: softplus on the size channels."""
    raw = np.asarray(raw, dtype=np.float64)
    params = raw.copy()
    params[..., 3:6] = softplus(raw[..., 3:6])
    return params


def box_params_grad_chain(raw: np.ndarray, grad_params: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. box parameters back to the raw output."""
    raw = np.asarray(raw, dtype=np.float64)
    grad = np.asarray(grad_params, dtype=np.float64).copy()
    grad[..., 3:6] *= _sigmoid(raw[..., 3:6])
    return grad


def box_from_raw(raw: np.ndarray) -> Box7:
    return Box7.from_params(box_params_from_raw(raw))


def semantic_project(params: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Linear embedding of 7-vectors into the semantic feature space."""
    params = np.asarray(params, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape[1] != params.shape[-1]:
        raise ShapeMismatch(f"head {weight.shape} does not accept {params.shape[-1]}-vectors")
    return params @ weight.T


class FusionModel:
    """Two-token fusion transformer with adapter-only fine-tuning."""

    def __init__(self, config: ModelConfig):
        self.config = config
        d, dv, dt = config.d_model, config.d_v, config.d_t
        d_ff = 2 * d
        self.d_head = d // config.n_heads

        rng = np.random.default_rng(config.seed)
        p: dict[str, np.ndarray] = {}
        p["proj_v.W"] = rng.normal(0.0, 1.0 / math.sqrt(dv), size=(d, dv))
        p["proj_v.b"] = np.zeros(d)
        p["proj_t.W"] = rng.normal(0.0, 1.0 / math.sqrt(dt), size=(d, dt))
        p["proj_t.b"] = np.zeros(d)
        for i in range(config.n_layers):
            for t in ATTENTION_TARGETS:
                p[f"layers.{i}.attn.{t}.base"] = rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, d))
                if t in config.lora_targets:
                    seed = int(rng.integers(0, 2**31))
                    adapter = adapter_init(d, d, config.lora_rank, config.lora_alpha, seed)
                    p[f"layers.{i}.attn.{t}.A"] = adapter.A
                    p[f"layers.{i}.attn.{t}.B"] = adapter.B
            p[f"layers.{i}.ffn.W1"] = rng.normal(0.0, math.sqrt(2.0 / d), size=(d_ff, d))
            p[f"layers.{i}.ffn.b1"] = np.zeros(d_ff)
            p[f"layers.{i}.ffn.W2"] = rng.normal(0.0, 1.0 / math.sqrt(d_ff), size=(d, d_ff))
            p[f"layers.{i}.ffn.b2"] = np.zeros(d)
        widths = (d,) + MLP_HIDDEN
        for j in range(3):
            p[f"head.{j}.W"] = rng.normal(0.0, math.sqrt(2.0 / widths[j]), size=(widths[j + 1], widths[j]))
            p[f"head.{j}.b"] = np.zeros(widths[j + 1])
        p["head.out.W"] = rng.normal(0.0, 0.02, size=(7, MLP_HIDDEN[-1]))
        p["head.out.b"] = np.zeros(7)
        p["semantic.W"] = rng.normal(0.0, 1.0 / math.sqrt(SEMANTIC_DIM), size=(SEMANTIC_DIM, 7))
        self.params = p

        trainable = ["proj_v.W", "proj_v.b", "proj_t.W", "proj_t.b"]
        for i in range(config.n_layers):
            for t in config.lora_targets:
                trainable += [f"layers.{i}.attn.{t}.A", f"layers.{i}.attn.{t}.B"]
        trainable += [f"head.{j}.{s}" for j in ("0", "1", "2", "out") for s in ("W", "b")]
        self._trainable = tuple(trainable)
        self._cache = None
        logging.getLogger(__name__).info(
            "built fusion model: %d params total, trainable fraction %.6f",
            self.total_param_count(),
            self.trainable_fraction(),
        )

    # ---- parameter accounting -------------------------------------------

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        return {name: self.params[name] for name in self._trainable}

    def adapters(self) -> list[LoRAAdapter]:
        out = []
        for i in range(self.config.n_layers):
            for t in self.config.lora_targets:
                out.append(
                    LoRAAdapter(
                        A=self.params[f"layers.{i}.attn.{t}.A"],
                        B=self.params[f"layers.{i}.attn.{t}.B"],
                        r=self.config.lora_rank,
                        alpha=self.config.lora_alpha,
                    )
                )
        return out

    def total_param_count(self) -> int:
        return sum(v.size for v in self.params.values())

    def trainable_fraction(self) -> float:
        total = self.total_param_count()
        adapter_fraction = adapter_param_fraction(total, self.adapters())
        dense = sum(
            self.params[name].size
            for name in self._trainable
            if not name.endswith(".A") and not name.endswith(".B")
        )
        return adapter_fraction + dense / total

    # ---- linear maps with optional adapters ------------------------------

    def _lin(self, X: np.ndarray, layer: int, t: str) -> np.ndarray:
        base = self.params[f"layers.{layer}.attn.{t}.base"]
        Y = X @ base.T
        if t in self.config.lora_targets:
            A = self.params[f"layers.{layer}.attn.{t}.A"]
            B = self.params[f"layers.{layer}.attn.{t}.B"]
            Y = Y + self.config.lora_alpha * ((X @ A.T) @ B.T)
        return Y

    def _lin_input_grad(self, dY: np.ndarray, layer: int, t: str) -> np.ndarray:
        base = self.params[f"layers.{layer}.attn.{t}.base"]
        dX = dY @ base
        if t in self.config.lora_targets:
            A = self.params[f"layers.{layer}.attn.{t}.A"]
            B = self.params[f"layers.{layer}.attn.{t}.B"]
            dX = dX + self.config.lora_alpha * ((dY @ B) @ A)
        return dX

    def _lin_adapter_grads(self, X: np.ndarray, dY: np.ndarray, layer: int, t: str, out: dict):
        if t not in self.config.lora_targets:
            return
        A = self.params[f"layers.{layer}.attn.{t}.A"]
        B = self.params[f"layers.{layer}.attn.{t}.B"]
        d = X.shape[-1]
        Xf = X.reshape(-1, d)
        dYf = dY.reshape(-1, d)
        alpha = self.config.lora_alpha
        out[f"layers.{layer}.attn.{t}.A"] = alpha * ((dYf @ B).T @ Xf)
        out[f"layers.{layer}.attn.{t}.B"] = alpha * (dYf.T @ (Xf @ A.T))

    # ---- forward ---------------------------------------------------------

    def forward_batch(self, F: np.ndarray) -> np.ndarray:
        """Run a (B, d_v + d_t) batch of fused features to raw (B, 7) outputs."""
        cfg = self.config
        F = np.asarray(F, dtype=np.float64)
        if F.ndim != 2 or F.shape[1] != cfg.d_v + cfg.d_t:
            raise ShapeMismatch(
                f"expected (B, {cfg.d_v + cfg.d_t}) fused features, got {F.shape}"
            )
        p = self.params
        cache: dict = {"F": F.copy(), "layers": []}
        xv = F[:, : cfg.d_v] @ p["proj_v.W"].T + p["proj_v.b"]
        xt = F[:, cfg.d_v :] @ p["proj_t.W"].T + p["proj_t.b"]
        X = np.stack([xv, xt], axis=1)  # (B, 2, d)

        B, T, d = X.shape
        H, dh = cfg.n_heads, self.d_head
        scale = 1.0 / math.sqrt(dh)
        for i in range(cfg.n_layers):
            lc = {"X_in": X}
            Q = self._lin(X, i, "q")
            K = self._lin(X, i, "k")
            V = self._lin(X, i, "v")
            Qh = Q.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
            Kh = K.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
            Vh = V.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
            scores = (Qh @ Kh.swapaxes(-1, -2)) * scale
            scores -= scores.max(axis=-1, keepdims=True)
            e = np.exp(scores)
            S = e / e.sum(axis=-1, keepdims=True)
            Oh = S @ Vh
            O = Oh.transpose(0, 2, 1, 3).reshape(B, T, d)
            attn_out = self._lin(O, i, "o")
            X1 = X + attn_out
            Hpre = X1 @ p[f"layers.{i}.ffn.W1"].T + p[f"layers.{i}.ffn.b1"]
            Hact = np.maximum(Hpre, 0.0)
            X = X1 + Hact @ p[f"layers.{i}.ffn.W2"].T + p[f"layers.{i}.ffn.b2"]
            lc.update(Qh=Qh, Kh=Kh, Vh=Vh, S=S, O=O, X1=X1, Hpre=Hpre, Hact=Hact)
            cache["layers"].append(lc)

        pooled = X.mean(axis=1)
        a1 = pooled @ p["head.0.W"].T + p["head.0.b"]
        z1 = np.maximum(a1, 0.0)
        a2 = z1 @ p["head.1.W"].T + p["head.1.b"]
        z2 = np.maximum(a2, 0.0)
        a3 = z2 @ p["head.2.W"].T + p["head.2.b"]
        z3 = np.maximum(a3, 0.0)
        raw = z3 @ p["head.out.W"].T + p["head.out.b"]
        cache.update(pooled=pooled, a1=a1, z1=z1, a2=a2, z2=z2, a3=a3, z3=z3)
        self._cache = cache
        return raw

    def forward(self, fused) -> np.ndarray:
        """Raw 7-vector for a single fused feature (FeatureVector or array)."""
        if isinstance(fused, FeatureVector):
            if fused.modality != "fused":
                raise ModalityMismatch(f"forward expects a fused feature, got {fused.modality!r}")
            fused = fused.values
        return self.forward_batch(np.asarray(fused, dtype=np.float64)[None, :])[0]

    # ---- backward --------------------------------------------------------

    def backward_batch(self, upstream: np.ndarray):
        """Gradients of sum_b upstream[b] . raw[b] for the cached forward batch.

        Returns (grads, input_grad): a dict over trainable parameter names
        (gradients summed over the batch) and the gradient w.r.t. the fused
        input features, shape (B, d_v + d_t).
        """
        cache = self._cache
        if cache is None:
            raise StaleActivation("backward requested before any forward pass")
        up = np.asarray(upstream, dtype=np.float64)
        Bsz = cache["F"].shape[0]
        if up.shape != (Bsz, 7):
            raise StaleActivation(
                f"upstream gradient {up.shape} does not match cached batch ({Bsz}, 7)"
            )
        p = self.params
        cfg = self.config
        g: dict[str, np.ndarray] = {}

        z3, z2, z1 = cache["z3"], cache["z2"], cache["z1"]
        g["head.out.W"] = up.T @ z3
        g["head.out.b"] = up.sum(axis=0)
        dz3 = up @ p["head.out.W"]
        da3 = dz3 * (cache["a3"] > 0)
        g["head.2.W"] = da3.T @ z2
        g["head.2.b"] = da3.sum(axis=0)
        dz2 = da3 @ p["head.2.W"]
        da2 = dz2 * (cache["a2"] > 0)
        g["head.1.W"] = da2.T @ z1
        g["head.1.b"] = da2.sum(axis=0)
        dz1 = da2 @ p["head.1.W"]
        da1 = dz1 * (cache["a1"] > 0)
        g["head.0.W"] = da1.T @ cache["pooled"]
        g["head.0.b"] = da1.sum(axis=0)
        dpooled = da1 @ p["head.0.W"]

        B, T = Bsz, 2
        d, H, dh = cfg.d_model, cfg.n_heads, self.d_head
        scale = 1.0 / math.sqrt(dh)
        dX = np.repeat(dpooled[:, None, :] / T, T, axis=1)

        for i in reversed(range(cfg.n_layers)):
            lc = cache["layers"][i]
            # FFN with residual: X_out = X1 + W2 relu(W1 X1 + b1) + b2
            dHact = dX @ p[f"layers.{i}.ffn.W2"]
            dHpre = dHact * (lc["Hpre"] > 0)
            dX1 = dX + dHpre @ p[f"layers.{i}.ffn.W1"]
            # attention with residual: X1 = X_in + lin_o(O)
            dO = self._lin_input_grad(dX1, i, "o")
            self._lin_adapter_grads(lc["O"], dX1, i, "o", g)
            dOh = dO.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
            S, Vh, Qh, Kh = lc["S"], lc["Vh"], lc["Qh"], lc["Kh"]
            dS = dOh @ Vh.swapaxes(-1, -2)
            dVh = S.swapaxes(-1, -2) @ dOh
            dscores = S * (dS - (dS * S).sum(axis=-1, keepdims=True))
            dQh = (dscores @ Kh) * scale
            dKh = (dscores.swapaxes(-1, -2) @ Qh) * scale
            dQ = dQh.transpose(0, 2, 1, 3).reshape(B, T, d)
            dK = dKh.transpose(0, 2, 1, 3).reshape(B, T, d)
            dV = dVh.transpose(0, 2, 1, 3).reshape(B, T, d)
            X_in = lc["X_in"]
            self._lin_adapter_grads(X_in, dQ, i, "q", g)
            self._lin_adapter_grads(X_in, dK, i, "k", g)
            self._lin_adapter_grads(X_in, dV, i, "v", g)
            dX = (
                dX1
                + self._lin_input_grad(dQ, i, "q")
                + self._lin_input_grad(dK, i, "k")
                + self._lin_input_grad(dV, i, "v")
            )

        dxv, dxt = dX[:, 0, :], dX[:, 1, :]
        F = cache["F"]
        g["proj_v.W"] = dxv.T @ F[:, : cfg.d_v]
        g["proj_v.b"] = dxv.sum(axis=0)
        g["proj_t.W"] = dxt.T @ F[:, cfg.d_v :]
        g["proj_t.b"] = dxt.sum(axis=0)
        input_grad = np.concatenate([dxv @ p["proj_v.W"], dxt @ p["proj_t.W"]], axis=1)
        return g, input_grad

    def backward_head(self, fused, upstream7: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients for a single input previously run through `forward`."""
        if isinstance(fused, FeatureVector):
            fused = fused.values
        fused = np.asarray(fused, dtype=np.float64)
        if self._cache is None or self._cache["F"].shape[0] != 1 or not np.array_equal(
            self._cache["F"][0], fused
        ):
            raise StaleActivation("no cached forward pass matches this input")
        grads, _ = self.backward_batch(np.asarray(upstream7, dtype=np.float64)[None, :])
        return grads

    # ---- semantic head ----------------------------------------------------

    def semantic_features(self, params7: np.ndarray) -> np.ndarray:
        """Frozen linear embedding of box parameters into the 128-dim space."""
        return semantic_project(params7, self.params["semantic.W"])

    def semantic_input_grad(self, feature_grad: np.ndarray) -> np.ndarray:
        """Pull a semantic-space gradient back to box-parameter space."""
        return np.asarray(feature_grad, dtype=np.float64) @ self.params["semantic.W"]


def save_checkpoint(model: FusionModel, path: str | Path) -> None:
    """Binary checkpoint: magic, version byte, config JSON, weight blobs.

    Weights are float64 little-endian, concatenated in sorted parameter-name
    order; the config header fixes every shape. It also records the fixed
    head widths, so that a checkpoint for other widths is refused at load.
    """
    cfg = asdict(model.config)
    cfg["mlp_hidden"] = MLP_HIDDEN
    header = json.dumps(cfg, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CHECKPOINT_MAGIC)
        f.write(bytes([_CHECKPOINT_VERSION]))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for name in sorted(model.params):
            f.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> FusionModel:
    blob = Path(path).read_bytes()
    if blob[:4] != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint")
    version = blob[4]
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<I", blob[5:9])
    cfg_dict = json.loads(blob[9 : 9 + hlen].decode("utf-8"))
    if cfg_dict.pop("mlp_hidden", None) != list(MLP_HIDDEN):
        raise ValueError(f"{path}: checkpoint head widths are not the fixed {MLP_HIDDEN}")
    model = FusionModel(ModelConfig(**cfg_dict))
    offset = 9 + hlen
    for name in sorted(model.params):
        arr = model.params[name]
        nbytes = arr.size * 8
        model.params[name] = (
            np.frombuffer(blob[offset : offset + nbytes], dtype="<f8").reshape(arr.shape).copy()
        )
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    return model
