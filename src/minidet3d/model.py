"""Desk-scale multimodal fusion model with low-rank-adapted self-attention.

The model stands in for a large vision-language backbone while keeping the
mechanisms intact: a visual feature and a text feature are projected to a
2-token sequence, run through a small transformer whose attention
projections (q, k, v and o of every layer) carry rank-r adapters,
mean-pooled, and regressed to a raw 7-vector (x, y, z, l, w, h, yaw) by an
MLP head with ReLU activations and hidden widths fixed at `MLP_HIDDEN` =
512/256/128. Neither is a config field; checkpoint headers record both.

Trainable parameters: the two input projections, the adapter factors, and
the MLP head. They live in one contiguous float64 vector, `arena`, laid out
in `trainable_parameters()` order; each of their `params` entries is a
reshaped view into it, so the optimizer runs over the arena as one vector.
The factors are also one stacked `LoRAAdapter` (A: (n_layers, 4, r, d), B:
(n_layers, 4, d, r)) on views of the arena, and the frozen q/k/v/o bases
one (n_layers, 4, d, d) array whose views are their `params` entries.
`params` entries are therefore updated in place (the optimizer,
`load_checkpoint`) and never rebound. Each forward merges all the q, k, v, o
weights W + alpha*B@A from the parameters as they stand with one
`lora.merge_adapter` call into one buffer allocated at construction, so no
write to the arena can leave a stale merge behind. Q, K and V then come
from one GEMM on the stacked (3d, d) weight and O from one more; the
backward takes each layer's input gradient through the same merged weights
and writes each projection's factor gradients itself. One function,
`_param_shapes`, gives every shape; the constructor lays out the arena from
it, and `param_bytes` counts from it the bytes that `load_checkpoint` checks
a file's size against, and `train_bytes` those that `train` checks the
machine's memory against, before either builds a model. The transformer
base weights are frozen at their seeded initialization, as is the semantic
projection head (a linear map W from box parameters to a 128-dim feature
space). Its stage-1 loss is therefore no feature-space loss but a weighted
L2 drawn with the seed: d^T G d, G = W^T W, on the box-parameter error d
in (x, y, z, l, w, h, yaw), yaw not wrapped (G's eigenvalues span 0.649-1.499
at seed 0). A trainable head would collapse the objective by shrinking to zero.

A batch of B samples runs as the (2B, d) matrix of its token rows (sample
b's visual token in row 2b, its text token in row 2b+1), so each linear map
of the transformer, the fused q/k/v projection, o and both FFN layers, is
one GEMM for the whole batch; only the (B, H, 2, 2) attention products stay
batched per sample. A GEMM rounds with the row count, so a batch's outputs
equal single-sample forwards to about 1e-13 relative, not bit for bit.

A forward writes (numpy `out=`) each activation the backward reads into the
model's workspace, allocated at the first forward's batch size, and the
workspace's dict of views is the cache: `backward_batch` reads it by the
same keys, in reverse, for exact gradients. ReLU runs in place, its output
positive exactly where its input is, and the attention residual sum, which
no gradient reads, is one scratch buffer for all layers.
The workspace only grows: a larger batch allocates it again at the new size,
and a smaller one uses the leading rows of each buffer, which are contiguous
views. A repeat forward therefore allocates only its temporaries, not the
activations (about 6 MB at B=256, which the allocator would otherwise hand
back to the OS and fault in again at the next large forward), and computes
the same bits. The raw output it returns is always a fresh array; the cache
is valid until the next forward, which overwrites it. `backward_batch`
writes every trainable gradient into `grad`, a second flat vector with the
arena's layout (the same cuts of the same shape table), through named views
of it, and returns that vector, so the optimizer steps on it as it stands:
there is no per-batch dict and no gather. All math is float64 numpy, so
identical (config, seed, input) triples produce bit-identical outputs.

Size channels of the raw output go through softplus when a geometric box is
built, since boxes require strictly positive sizes; yaw is wrapped into
(-pi, pi] at the same point. The trainer calls `box_params_from_raw` (the
one raw-to-box-parameter map), `box_params_grad_chain` and `semantic_loss`,
the stage-1 loss and its gradient through the frozen semantic head, from
here.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import (CheckpointError, EmptyBatch, ShapeMismatch, StaleActivation, check_json_value,
                     check_keys, unique_keys)
from .lora import LoRAAdapter, adapter_init, merge_adapter

MLP_HIDDEN = (512, 256, 128)
SEMANTIC_DIM = 128
ATTENTION_TARGETS = ("q", "k", "v", "o")

_CHECKPOINT_MAGIC = b"MD3D"
_CHECKPOINT_VERSION = 1
# header fields that no config sets; a file with another value is refused
_FIXED_HEADER = {"mlp_hidden": list(MLP_HIDDEN), "lora_targets": list(ATTENTION_TARGETS)}


@dataclass(frozen=True)
class ModelConfig:
    d_v: int = 32
    d_t: int = 32
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    lora_rank: int = 16
    lora_alpha: float = 32.0
    seed: int = 0

    def __post_init__(self):
        for name in ("d_v", "d_t", "d_model", "n_layers", "n_heads", "lora_rank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model: {self.d_model} is not divisible by n_heads {self.n_heads}")
        if self.lora_rank > self.d_model:
            raise ValueError(f"lora_rank: {self.lora_rank} exceeds d_model {self.d_model}")
        if not math.isfinite(self.lora_alpha):
            raise ValueError(f"lora_alpha: must be finite, got {self.lora_alpha}")


def softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    """1/(1+e^-x) at or above 0, e^x/(1+e^x) below: exp(-|x|) never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def _param_shapes(config: ModelConfig) -> tuple[dict, dict]:
    """(trainable, frozen) parameter shapes by name, the one shape table. The
    trainable dict's order is the arena layout and `trainable_parameters()`'s."""
    d, dv, dt = config.d_model, config.d_v, config.d_t
    r, layers = config.lora_rank, range(config.n_layers)
    trainable = {"proj_v.W": (d, dv), "proj_v.b": (d,), "proj_t.W": (d, dt), "proj_t.b": (d,)}
    for i in layers:
        for t in ATTENTION_TARGETS:
            trainable[f"layers.{i}.attn.{t}.A"] = (r, d)
            trainable[f"layers.{i}.attn.{t}.B"] = (d, r)
    widths = (d,) + MLP_HIDDEN + (7,)
    for j, name in enumerate(("0", "1", "2", "out")):
        trainable[f"head.{name}.W"] = (widths[j + 1], widths[j])
        trainable[f"head.{name}.b"] = (widths[j + 1],)
    frozen = {}
    for i in layers:
        for t in ATTENTION_TARGETS:
            frozen[f"layers.{i}.attn.{t}.base"] = (d, d)
        frozen[f"layers.{i}.ffn.W1"] = (2 * d, d)
        frozen[f"layers.{i}.ffn.b1"] = (2 * d,)
        frozen[f"layers.{i}.ffn.W2"] = (d, 2 * d)
        frozen[f"layers.{i}.ffn.b2"] = (d,)
    frozen["semantic.W"] = (SEMANTIC_DIM, 7)
    return trainable, frozen


def param_bytes(config: ModelConfig) -> int:
    """Bytes of every parameter as float64, computed from the shape table
    without building a model: a checkpoint's weight size."""
    return 8 * sum(math.prod(s) for group in _param_shapes(config) for s in group.values())


def train_bytes(config: ModelConfig) -> int:
    """Bytes that training holds whatever the batch: the parameters, the
    gradient and AdamW's two moments (each the arena's size), and the merged
    q/k/v/o weights (the bases' size). Activations are not counted."""
    arena = sum(math.prod(s) for s in _param_shapes(config)[0].values())
    bases = config.n_layers * len(ATTENTION_TARGETS) * config.d_model**2
    return param_bytes(config) + 8 * (3 * arena + bases)


class FusionModel:
    """Two-token fusion transformer with adapter-only fine-tuning."""

    def __init__(self, config: ModelConfig):
        self.config = config
        d, dv, dt = config.d_model, config.d_v, config.d_t
        d_ff = 2 * d
        self.d_head = d // config.n_heads

        trainable, frozen = _param_shapes(config)
        sizes = [math.prod(shape) for shape in trainable.values()]
        cuts = np.cumsum(sizes)[:-1]
        self.arena, self.grad = np.zeros(sum(sizes)), np.zeros(sum(sizes))

        def views(flat: np.ndarray) -> dict[str, np.ndarray]:
            return {name: v.reshape(shape)
                    for (name, shape), v in zip(trainable.items(), np.split(flat, cuts))}

        # the arena's adapter factors, after the input projections, as (A, B)
        # stacks over (layer, target): assigning .shape makes a view or raises
        L, n = config.n_layers, len(ATTENTION_TARGETS)
        r, alpha = config.lora_rank, config.lora_alpha
        block = self.arena[cuts[3] : cuts[3] + L * n * 2 * r * d].reshape(L, n, 2 * r * d)
        A, B = block[..., : r * d], block[..., r * d :]
        A.shape, B.shape = (L, n, r, d), (L, n, d, r)
        self._adapter_stack = LoRAAdapter(A, B, r, alpha)
        self._base = np.empty((L, n, d, d))  # the q/k/v/o bases, stacked alike; viewed below

        p = views(self.arena)
        p.update((name, np.zeros(shape)) for name, shape in frozen.items() if "attn" not in name)
        self.params = p
        self._grads = views(self.grad)
        self._trainable = tuple(trainable)

        rng = np.random.default_rng(config.seed)

        def draw(name: str, std: float) -> None:
            p[name][...] = rng.normal(0.0, std, size=p[name].shape)

        draw("proj_v.W", 1.0 / math.sqrt(dv))
        draw("proj_t.W", 1.0 / math.sqrt(dt))
        for i in range(L):
            for j, t in enumerate(ATTENTION_TARGETS):
                key = f"layers.{i}.attn.{t}"
                p[f"{key}.base"] = self._base[i, j]
                draw(f"{key}.base", 1.0 / math.sqrt(d))
                seed = int(rng.integers(0, 2**31))
                A[i, j] = adapter_init(d, d, r, alpha, seed).A  # B stays 0
            draw(f"layers.{i}.ffn.W1", math.sqrt(2.0 / d))
            draw(f"layers.{i}.ffn.W2", 1.0 / math.sqrt(d_ff))
        widths = (d,) + MLP_HIDDEN
        for j in range(3):
            draw(f"head.{j}.W", math.sqrt(2.0 / widths[j]))
        draw("head.out.W", 0.02)
        draw("semantic.W", 1.0 / math.sqrt(SEMANTIC_DIM))

        self._merged = np.empty_like(self._base)
        self._cache = None
        self._ws, self._ws_batch = {}, 0

    # ---- parameter accounting -------------------------------------------

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        return {name: self.params[name] for name in self._trainable}

    def adapters(self) -> list[LoRAAdapter]:
        """Per-projection adapters, built on each call; their A and B are the `params` arrays."""
        cfg, p = self.config, self.params
        return [LoRAAdapter(p[f"layers.{i}.attn.{t}.A"], p[f"layers.{i}.attn.{t}.B"],
                            cfg.lora_rank, cfg.lora_alpha)
                for i in range(cfg.n_layers) for t in ATTENTION_TARGETS]

    def total_param_count(self) -> int:
        return sum(v.size for v in self.params.values())

    def trainable_fraction(self) -> float:
        return self.arena.size / self.total_param_count()

    # ---- forward ---------------------------------------------------------

    def _workspace(self, B: int) -> dict:
        """Views of the leading B samples' rows of every activation buffer:
        token-row buffers as (2B, width), `S` as (B, H, 2, 2), the rest as
        (B, width). A forward keeps this dict as its cache, and the backward
        reads it by the same keys; `X1` is every layer's scratch. The buffers
        are allocated at the first batch's size and again only when a larger
        batch arrives."""
        if B > self._ws_batch:
            cfg, T, d = self.config, 2, self.config.d_model
            rows = {"F": (1, cfg.d_v + cfg.d_t), "pooled": (1, d), "X1": (T, d)}
            for j, width in enumerate(MLP_HIDDEN, start=1):
                rows[f"z{j}"] = (1, width)
            for i in range(cfg.n_layers + 1):
                rows[i, "X"] = (T, d)  # layer i's input; the last one is the final output
            for i in range(cfg.n_layers):
                rows[i, "QKV"], rows[i, "O"] = (T, 3 * d), (T, d)
                rows[i, "S"], rows[i, "H"] = (1, cfg.n_heads, T, T), (T, 2 * d)
            self._ws = {key: (n, np.empty((B * n, *rest))) for key, (n, *rest) in rows.items()}
            self._ws_batch = B
        return {key: buf[: B * n] for key, (n, buf) in self._ws.items()}

    def _heads(self, QKV: np.ndarray, B: int):
        """(Qh, Kh, Vh): views, each (B, H, 2, d_head), of a (2B, 3d) block of token rows."""
        return QKV.reshape(B, 2, 3, self.config.n_heads, self.d_head).transpose(2, 0, 3, 1, 4)

    def forward_batch(self, F: np.ndarray) -> np.ndarray:
        """Run a (B, d_v + d_t) batch of fused features to raw (B, 7) outputs.

        The returned array is fresh; the workspace that holds the activations
        is the cache, overwritten by the next forward (B = 0 raises EmptyBatch)."""
        cfg = self.config
        F = np.asarray(F, dtype=np.float64)
        if F.ndim != 2 or F.shape[1] != cfg.d_v + cfg.d_t:
            raise ShapeMismatch(
                f"expected (B, {cfg.d_v + cfg.d_t}) fused features, got {F.shape}"
            )
        if not F.shape[0]:
            raise EmptyBatch("forward_batch requires at least one row")
        p = self.params
        B, T, d = F.shape[0], 2, cfg.d_model
        self._cache = None  # its buffers are about to be overwritten
        ws = self._workspace(B)
        np.copyto(ws["F"], F)
        # token rows, sample-major: row 2b is sample b's visual token, 2b+1 its text token
        X = ws[0, "X"]
        tokens = X.reshape(B, T, d)
        xv, xt = tokens[:, 0], tokens[:, 1]
        np.matmul(F[:, : cfg.d_v], p["proj_v.W"].T, out=xv)
        xv += p["proj_v.b"]
        np.matmul(F[:, cfg.d_v :], p["proj_t.W"].T, out=xt)
        xt += p["proj_t.b"]

        H, dh = cfg.n_heads, self.d_head
        scale = 1.0 / math.sqrt(dh)
        # every layer's q, k, v, o weights, merged from the parameters as they stand
        merge_adapter(self._base, self._adapter_stack, out=self._merged)
        for i in range(cfg.n_layers):
            X_in, X = X, ws[i + 1, "X"]
            W = self._merged[i]
            QKV = np.matmul(X_in, W[:3].reshape(3 * d, d).T, out=ws[i, "QKV"])
            Qh, Kh, Vh = self._heads(QKV, B)
            scores = (Qh @ Kh.swapaxes(-1, -2)) * scale
            scores -= scores.max(axis=-1, keepdims=True)
            e = np.exp(scores)
            S = np.divide(e, e.sum(axis=-1, keepdims=True), out=ws[i, "S"])
            O = ws[i, "O"]
            np.matmul(S, Vh, out=O.reshape(B, T, H, dh).transpose(0, 2, 1, 3))
            X1 = np.matmul(O, W[3].T, out=ws["X1"])
            X1 += X_in  # X_in + attention output: the sum commutes bit for bit
            Hid = np.matmul(X1, p[f"layers.{i}.ffn.W1"].T, out=ws[i, "H"])
            Hid += p[f"layers.{i}.ffn.b1"]
            np.maximum(Hid, 0.0, out=Hid)
            np.matmul(Hid, p[f"layers.{i}.ffn.W2"].T, out=X)
            X += X1
            X += p[f"layers.{i}.ffn.b2"]

        z = np.mean(X.reshape(B, T, d), axis=1, out=ws["pooled"])
        for j, name in enumerate(("0", "1", "2"), start=1):
            z = np.matmul(z, p[f"head.{name}.W"].T, out=ws[f"z{j}"])
            z += p[f"head.{name}.b"]
            np.maximum(z, 0.0, out=z)
        raw = z @ p["head.out.W"].T + p["head.out.b"]
        self._cache = ws
        return raw

    # ---- backward --------------------------------------------------------

    def backward_batch(self, upstream: np.ndarray) -> np.ndarray:
        """Gradients of sum_b upstream[b] . raw[b] for the cached forward batch.

        Returns `self.grad`: the trainable-parameter gradients, summed over
        the batch, in the arena's layout (every element is written, none
        accumulated). It is the model's own vector: the next backward
        overwrites it. The fused input features are frozen, so no gradient
        with respect to them is formed.
        """
        ws = self._cache
        if ws is None:
            raise StaleActivation("backward requested before any forward pass")
        up = np.asarray(upstream, dtype=np.float64)
        B = ws["F"].shape[0]
        if up.shape != (B, 7):
            raise StaleActivation(
                f"upstream gradient {up.shape} does not match cached batch ({B}, 7)"
            )
        p = self.params
        cfg = self.config
        g = self._grads

        # the MLP head, last layer first: dz is the gradient at a layer's output
        dz = up
        for name, x in (("out", "z3"), ("2", "z2"), ("1", "z1"), ("0", "pooled")):
            np.matmul(dz.T, ws[x], out=g[f"head.{name}.W"])
            dz.sum(axis=0, out=g[f"head.{name}.b"])
            dz = dz @ p[f"head.{name}.W"]
            if x != "pooled":  # a ReLU output, positive exactly where its input is
                dz *= ws[x] > 0

        T, d, H, dh = 2, cfg.d_model, cfg.n_heads, self.d_head
        scale = 1.0 / math.sqrt(dh)
        dX = np.repeat(dz[:, None, :] / T, T, axis=1).reshape(B * T, d)

        for i in reversed(range(cfg.n_layers)):
            # FFN with residual: X_out = X1 + W2 relu(W1 X1 + b1) + b2; relu's
            # output is positive exactly where its input is
            dHpre = (dX @ p[f"layers.{i}.ffn.W2"]) * (ws[i, "H"] > 0)
            dX1 = dX + dHpre @ p[f"layers.{i}.ffn.W1"]
            # attention with residual: X1 = X_in + O @ Wo.T, QKV = X_in @ Wqkv.T,
            # through the forward's merged weights
            W = self._merged[i]
            dOh = (dX1 @ W[3]).reshape(B, T, H, dh).transpose(0, 2, 1, 3)
            S, (Qh, Kh, Vh) = ws[i, "S"], self._heads(ws[i, "QKV"], B)
            dS = dOh @ Vh.swapaxes(-1, -2)
            dscores = S * (dS - (dS * S).sum(axis=-1, keepdims=True))
            dQKV = np.empty((B * T, 3 * d))
            dQh, dKh, dVh = self._heads(dQKV, B)
            np.matmul(dscores, Kh, out=dQh)
            dQh *= scale
            np.matmul(dscores.swapaxes(-1, -2), Qh, out=dKh)
            dKh *= scale
            np.matmul(S.swapaxes(-1, -2), dOh, out=dVh)
            # each factor pair's gradients: alpha * (dy @ B).T @ x and alpha * dy.T @ (x @ A.T)
            for j, t in enumerate(ATTENTION_TARGETS):
                x, dy = ((ws[i, "O"], dX1) if t == "o"
                         else (ws[i, "X"], dQKV[:, j * d : (j + 1) * d]))
                key = f"layers.{i}.attn.{t}"
                gA = np.matmul((dy @ p[f"{key}.B"]).T, x, out=g[f"{key}.A"])
                gA *= cfg.lora_alpha
                gB = np.matmul(dy.T, x @ p[f"{key}.A"].T, out=g[f"{key}.B"])
                gB *= cfg.lora_alpha
            dX = dX1 + dQKV @ W[:3].reshape(3 * d, d)

        dxv, dxt = dX[0::T], dX[1::T]
        F = ws["F"]
        np.matmul(dxv.T, F[:, : cfg.d_v], out=g["proj_v.W"])
        dxv.sum(axis=0, out=g["proj_v.b"])
        np.matmul(dxt.T, F[:, cfg.d_v :], out=g["proj_t.W"])
        dxt.sum(axis=0, out=g["proj_t.b"])
        return self.grad

    # ---- semantic head ----------------------------------------------------

    def semantic_features(self, params7: np.ndarray) -> np.ndarray:
        """Frozen linear embedding of box parameters into the 128-dim space."""
        return np.asarray(params7, dtype=np.float64) @ self.params["semantic.W"].T

    def semantic_loss(self, pred, gt, weight: float) -> tuple[float, np.ndarray]:
        """(loss, gradient of `weight` * loss w.r.t. `pred`) of two equal (B, 7) batches of
        box parameters: the mean over the rows of ||f(pred) - f(gt)||^2, f the frozen
        semantic head, whose gradient is pulled back through the head."""
        pred, gt = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
        if pred.shape[1:] != (7,) or pred.shape != gt.shape:
            raise ShapeMismatch(f"expected equal (B, 7) batches, got {pred.shape} vs {gt.shape}")
        if not len(pred):
            raise EmptyBatch("semantic_loss requires at least one pair")
        d = self.semantic_features(pred) - self.semantic_features(gt)
        loss = float((d * d).sum(axis=1).mean())
        return loss, (2.0 * weight / len(d)) * (d @ self.params["semantic.W"])


def save_checkpoint(model: FusionModel, path: str | Path) -> None:
    """Binary checkpoint: magic, version byte, config JSON, weight blobs.

    Weights are float64 little-endian, concatenated in sorted parameter-name
    order; the config header fixes every shape. It also records the fixed
    head widths and adapted projections (`_FIXED_HEADER`), so that a
    checkpoint for another head or adapter layout is refused at load.
    """
    header = json.dumps({**asdict(model.config), **_FIXED_HEADER}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CHECKPOINT_MAGIC)
        f.write(bytes([_CHECKPOINT_VERSION]))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for name in sorted(model.params):
            f.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def _header_config(cfg, bad) -> ModelConfig:
    """The ModelConfig a checkpoint header describes, every key and JSON type
    checked, and each fixed field equal to its one value."""
    defaults = asdict(ModelConfig())
    check_keys(cfg, (*defaults, *_FIXED_HEADER), "header", bad)
    for key, fixed in _FIXED_HEADER.items():
        if (value := cfg.pop(key)) != fixed:
            raise bad(f"header.{key}", f"must be {json.dumps(fixed)}, got {json.dumps(value)}")
    for key, default in defaults.items():
        check_json_value(cfg[key], default, f"header.{key}", bad)
    try:
        return ModelConfig(**cfg)
    except ValueError as e:
        raise bad("header", str(e)) from None


def _read_at_most(f, n: int) -> bytearray:
    """The next `n` bytes of `f` (fewer at its end), in 64 KiB reads: `n` is never allocated."""
    out = bytearray()
    while len(out) < n and (part := f.read(min(n - len(out), 1 << 16))):
        out += part
    return out


def load_checkpoint(path: str | Path) -> FusionModel:
    """Read a `save_checkpoint` file into a new model: in order, each part once the ones before
    passed (magic, version, header length, header, then at most one byte past the weights the
    header needs), so a malformed file raises CheckpointError naming the file and the bad part."""

    def bad(part: str, message: str) -> CheckpointError:
        return CheckpointError(f"{path}: {part}: {message}")

    with open(path, "rb") as f:
        if f.read(4) != _CHECKPOINT_MAGIC:
            raise bad("magic", f"not a model checkpoint (no {_CHECKPOINT_MAGIC!r})")
        if not (version := f.read(1)):
            raise bad("version", "missing: the file ends after the magic")
        if version[0] != _CHECKPOINT_VERSION:
            raise bad("version", f"unsupported checkpoint version {version[0]}")
        if len(length := f.read(4)) < 4:
            raise bad("header length",
                      f"file ends at byte {5 + len(length)}, inside the 4-byte length")
        (hlen,) = struct.unpack("<I", length)
        if len(header := _read_at_most(f, hlen)) < hlen:
            raise bad("header length", f"{hlen} bytes, but only {len(header)} follow")
        try:
            cfg = json.loads(header.decode("utf-8"), object_pairs_hook=unique_keys)
        except (ValueError, RecursionError) as e:  # ValueError: JSON or UTF-8 decoding
            raise bad("header", f"invalid JSON: {e}") from None
        config = _header_config(cfg, bad)
        needed = param_bytes(config)
        if len(weights := _read_at_most(f, needed + 1)) != needed:
            have = max(len(weights), os.fstat(f.fileno()).st_size - 9 - hlen)  # 0 for a pipe
            raise bad("weights", f"{have} bytes, but the header's shapes need {needed}")
    model = FusionModel(config)
    offset = 0
    for name in sorted(model.params):
        arr = model.params[name]
        arr[...] = np.frombuffer(weights, "<f8", arr.size, offset).reshape(arr.shape)
        offset += arr.size * 8
    return model
