import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from minidet3d.errors import CheckpointError, EmptyBatch, ShapeMismatch, StaleActivation
from minidet3d.geom import Box7
from minidet3d import model as model_mod
from minidet3d.model import (
    ATTENTION_TARGETS,
    FusionModel,
    ModelConfig,
    box_params_from_raw,
    box_params_grad_chain,
    load_checkpoint,
    param_bytes,
    save_checkpoint,
    train_bytes,
)
from minidet3d.train import AdamW
from oracles import named_grads, reference_backward, reference_forward

SMALL = ModelConfig(d_v=8, d_t=8, d_model=16, n_layers=2, n_heads=4, lora_rank=4, seed=3)


def randomized_model(cfg=SMALL, seed=7, scale=0.05):
    """Model with non-zero adapter factors so every gradient path is live."""
    m = FusionModel(cfg)
    rng = np.random.default_rng(seed)
    for p in m.trainable_parameters().values():
        p += rng.normal(0, scale, size=p.shape)
    return m


def same_memory(a, b):
    """Whether two arrays are the same view: one address, shape and strides."""
    return (a.ctypes.data, a.shape, a.strides) == (b.ctypes.data, b.shape, b.strides)


def saved_and_loaded(model, tmp_path):
    save_checkpoint(model, tmp_path / "model.bin")
    return load_checkpoint(tmp_path / "model.bin")


def max_relative_gap(a, b):
    """Largest |a - b| relative to the largest |b|."""
    return np.abs(a - b).max() / np.abs(b).max()


def input_jacobian(model, x):
    """Exact (7, d_v + d_t) Jacobian of the raw output at `x`, row by row, from
    the reference forward and backward (the product forms no input gradient)."""
    cache = reference_forward(model, np.asarray(x)[None, :])[1]
    return np.stack([reference_backward(model, cache, up[None, :])[1][0] for up in np.eye(7)])


class TestForward:
    def test_deterministic_across_fresh_models(self):
        x = np.random.default_rng(0).normal(size=16)
        raw1 = FusionModel(SMALL).forward_batch(x[None])[0]
        raw2 = FusionModel(SMALL).forward_batch(x[None])[0]
        assert np.array_equal(raw1, raw2)

    def test_shape_and_finiteness_bulk(self):
        model = FusionModel(SMALL)
        F = np.random.default_rng(1).normal(size=(1000, 16))
        raw = model.forward_batch(F)
        assert raw.shape == (1000, 7)
        assert np.isfinite(raw).all()

    def test_batch_matches_single(self):
        model = FusionModel(SMALL)
        F = np.random.default_rng(2).normal(size=(5, 16))
        batched = model.forward_batch(F)
        for i in range(5):
            assert np.allclose(model.forward_batch(F[i][None])[0], batched[i], atol=1e-12)

    def test_batch_matches_single_at_real_sizes(self):
        # the default widths at B=256 put 512 token rows through each GEMM,
        # past OpenBLAS's small-matrix path, while a single sample has 2
        model = randomized_model(ModelConfig())
        F = np.random.default_rng(3).normal(size=(256, 64))
        batched = model.forward_batch(F)
        single = np.stack([model.forward_batch(f[None])[0] for f in F])
        assert max_relative_gap(batched, single) <= 1e-12

    def test_shape_mismatch(self):
        model = FusionModel(SMALL)
        with pytest.raises(ShapeMismatch):
            model.forward_batch(np.zeros(15)[None])

    def test_empty_batch_refused_before_and_after_a_forward(self):
        # a fresh model has no workspace yet; after a forward, the refused
        # batch leaves that forward's activations for its backward
        model = FusionModel(SMALL)
        with pytest.raises(EmptyBatch):
            model.forward_batch(np.zeros((0, 16)))
        F, up = np.random.default_rng(6).normal(size=(3, 16)), np.ones((3, 7))
        model.forward_batch(F)
        expected = model.backward_batch(up).copy()
        with pytest.raises(EmptyBatch):
            model.forward_batch(np.zeros((0, 16)))
        assert np.array_equal(model.backward_batch(up), expected)

    def test_input_perturbation_bounded_by_jacobian_norm(self):
        # product of layer operator norms upper-bounds the Jacobian norm, so
        # asserting against the exact Jacobian is the stricter check
        model = randomized_model()
        rng = np.random.default_rng(11)
        x = rng.normal(size=16)
        J = input_jacobian(model, x)
        L = np.linalg.svd(J, compute_uv=False)[0]
        base = model.forward_batch(x[None])[0]
        for i in range(16):
            xp = x.copy()
            xp[i] += 1e-6
            delta = np.linalg.norm(model.forward_batch(xp[None])[0] - base)
            assert delta <= L * 1e-6 + 1e-10


class TestWorkspace:
    def test_repeat_forwards_allocate_no_activations(self):
        # a B=256 forward's cached activations take about 6 MB; a repeat
        # forward writes them into the workspace and keeps only its output
        model = FusionModel(ModelConfig())
        rng = np.random.default_rng(17)
        batches = {B: rng.normal(size=(B, 64)) for B in (256, 32)}
        model.forward_batch(batches[256])
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for B, F in batches.items():
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                raw = model.forward_batch(F)
                kept, peak = (m - before for m in tracemalloc.get_traced_memory())
                assert raw.shape == (B, 7)
                assert kept < 0.1e6 and peak < 1e6, (B, kept, peak)
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_workspace_keeps_only_what_the_backward_reads(self):
        # one buffer per activation the backward reads, with the attention
        # residual sum as every layer's one scratch: 6.4 MB at B=256
        model = FusionModel(ModelConfig())
        F = np.random.default_rng(17).normal(size=(256, 64))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model.forward_batch(F)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert kept < 7.0e6, kept

    def test_output_survives_later_forwards(self):
        model = randomized_model(ModelConfig())
        rng = np.random.default_rng(18)
        raw = model.forward_batch(rng.normal(size=(32, 64)))
        before = raw.copy()
        for B in (32, 256):
            model.forward_batch(rng.normal(size=(B, 64)))
        assert raw.tobytes() == before.tobytes()

    def test_gradients_see_only_the_last_forward(self):
        # X at B=32, V at B=256 (the workspace grows), X at B=32 again
        rng = np.random.default_rng(19)
        X, V, up = rng.normal(size=(32, 64)), rng.normal(size=(256, 64)), rng.normal(size=(32, 7))
        model, fresh = randomized_model(ModelConfig()), randomized_model(ModelConfig())
        for F in (X, V, X):
            model.forward_batch(F)
        fresh.forward_batch(X)
        assert model.backward_batch(up).tobytes() == fresh.backward_batch(up).tobytes()

    def test_small_batch_after_a_large_one_equals_a_fresh_model(self):
        rng = np.random.default_rng(20)
        model, fresh = randomized_model(ModelConfig()), randomized_model(ModelConfig())
        model.forward_batch(rng.normal(size=(256, 64)))
        F = rng.normal(size=(7, 64))
        assert model.forward_batch(F).tobytes() == fresh.forward_batch(F).tobytes()


class TestBackward:
    def test_batch_gradient_is_sum_of_single_gradients_at_real_sizes(self):
        # scale 0.02, as in TestMergedWeights: at 0.05 the softmax saturates and
        # one ulp of the frozen base weights moves the reference past 1e-12
        model = randomized_model(ModelConfig(), scale=0.02)
        rng = np.random.default_rng(4)
        F, up = rng.normal(size=(32, 64)), rng.normal(size=(32, 7))
        model.forward_batch(F)
        grad = model.backward_batch(up).copy()
        total = np.zeros_like(grad)
        for b in range(32):
            model.forward_batch(F[b : b + 1])
            total += model.backward_batch(up[b : b + 1])
        assert max_relative_gap(grad, total) <= 1e-12

    def test_zero_upstream_gives_zero_grads(self):
        model = randomized_model()
        x = np.random.default_rng(4).normal(size=16)
        model.forward_batch(x[None])
        grads = named_grads(model, np.zeros((1, 7)))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_stale_activation_without_forward(self):
        model = FusionModel(SMALL)
        with pytest.raises(StaleActivation):
            model.backward_batch(np.zeros((1, 7)))

    def test_stale_activation_on_batch_size_mismatch(self):
        model = FusionModel(SMALL)
        model.forward_batch(np.random.default_rng(5).normal(size=(1, 16)))
        with pytest.raises(StaleActivation):
            model.backward_batch(np.zeros((2, 7)))

    def test_output_layer_gradient_is_outer_product(self):
        # analytic hand check: d(u . raw)/dW_out = outer(u, z3)
        model = randomized_model()
        x = np.random.default_rng(6).normal(size=16)
        model.forward_batch(x[None])
        z3 = model._cache["z3"][0]
        u = np.arange(7.0)
        grads = named_grads(model, u[None])
        assert np.allclose(grads["head.out.W"], np.outer(u, z3), atol=1e-12)
        assert np.allclose(grads["head.out.b"], u, atol=1e-12)

    def test_gradcheck_every_trainable_tensor(self):
        model = randomized_model()
        rng = np.random.default_rng(8)
        x = rng.normal(size=16)
        u = rng.normal(size=7)
        model.forward_batch(x[None])
        grads = named_grads(model, u[None])
        h = 1e-5
        for name, p in model.trainable_parameters().items():
            flat = p.reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(u @ model.forward_batch(x[None])[0])
                flat[i] = orig - h
                fm = float(u @ model.forward_batch(x[None])[0])
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                an = grads[name].reshape(-1)[i]
                denom = max(abs(fd), abs(an))
                if denom > 1e-10:
                    assert abs(fd - an) / denom <= 1e-4, f"{name}[{i}]: {an} vs {fd}"

    def test_input_gradient_matches_fd(self):
        # the reference's input gradient against differences of the product's forward
        model = randomized_model()
        rng = np.random.default_rng(9)
        x = rng.normal(size=16)
        u = rng.normal(size=7)
        din = reference_backward(model, reference_forward(model, x[None, :])[1], u[None, :])[1]
        h = 1e-6
        for i in range(16):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fp, fm = (u @ model.forward_batch(xs[None])[0] for xs in (xp, xm))
            fd = (fp - fm) / (2 * h)
            assert fd == pytest.approx(din[0, i], rel=1e-4, abs=1e-9)


class TestMergedWeights:
    """The attention runs on W + alpha*B@A merged once per forward; the
    factored form of `oracles.reference_forward`/`reference_backward` is the
    reference. Adapter factors are drawn at scale 0.02: at 0.05 the default
    widths saturate the softmax (weights down to 0), and a one-ulp change of
    the base weights moves the reference's own gradient by about 1.3e-12, so
    a bound there would measure the conditioning, not the merge."""

    def test_forward_matches_factored_reference(self):
        model = randomized_model(ModelConfig(), scale=0.02)
        rng = np.random.default_rng(30)
        for B in (1, 32, 256):
            F = rng.normal(size=(B, 64))
            assert max_relative_gap(model.forward_batch(F), reference_forward(model, F)[0]) <= 1e-12

    def test_backward_matches_factored_reference(self):
        model = randomized_model(ModelConfig(), scale=0.02)
        rng = np.random.default_rng(31)
        F, up = rng.normal(size=(32, 64)), rng.normal(size=(32, 7))
        model.forward_batch(F)
        grad = model.backward_batch(up)
        ref_grad, _ = reference_backward(model, reference_forward(model, F)[1], up)
        assert max_relative_gap(grad, ref_grad) <= 1e-12

    def test_arena_write_is_seen_by_the_next_forward(self, tmp_path):
        model = randomized_model(ModelConfig(), scale=0.02)
        rng = np.random.default_rng(32)
        F, up = rng.normal(size=(32, 64)), rng.normal(size=(32, 7))
        model.forward_batch(F)
        AdamW(model.arena).step(model.arena, model.backward_batch(up), lr=1e-2)
        raw = model.forward_batch(F)
        save_checkpoint(model, tmp_path / "model.bin")
        assert raw.tobytes() == load_checkpoint(tmp_path / "model.bin").forward_batch(F).tobytes()

    def test_fresh_adapters_leave_the_base_weights(self):
        # B = 0 makes W + alpha*B@A equal W bit for bit, for every layer and target
        model = FusionModel(ModelConfig())
        model.forward_batch(np.random.default_rng(33).normal(size=(32, 64)))
        bases = [[model.params[f"layers.{i}.attn.{t}.base"] for t in ATTENTION_TARGETS]
                 for i in range(model.config.n_layers)]
        assert model._merged.tobytes() == np.array(bases).tobytes()

    def test_one_merge_per_forward(self, monkeypatch):
        calls, merge = [], model_mod.merge_adapter

        def counted(*args, **kwargs):
            calls.append(args)
            return merge(*args, **kwargs)

        monkeypatch.setattr(model_mod, "merge_adapter", counted)
        model = randomized_model(ModelConfig(), scale=0.02)
        rng = np.random.default_rng(34)
        for B in (1, 32):
            model.forward_batch(rng.normal(size=(B, 64)))
        assert len(calls) == 2


class TestSemanticHead:
    def test_zero_input_zero_feature(self):
        model = FusionModel(SMALL)
        assert np.array_equal(model.semantic_features(np.zeros(7)), np.zeros(128))

    def test_linearity(self):
        model = FusionModel(SMALL)
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=7), rng.normal(size=7)
        assert np.allclose(
            model.semantic_features(a + b),
            model.semantic_features(a) + model.semantic_features(b),
            atol=1e-12,
        )

    def test_identical_boxes_give_zero_mse(self):
        model = FusionModel(SMALL)
        params = np.array([[1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3]])
        loss, grad = model.semantic_loss(params, params.copy(), 1.0)
        assert loss == 0.0 and np.array_equal(grad, np.zeros((1, 7)))

    def test_dimension_is_128(self):
        model = FusionModel(SMALL)
        assert model.semantic_features(np.zeros(7)).shape == (128,)

    def test_frozen_head_is_not_trainable(self):
        model = FusionModel(SMALL)
        assert "semantic.W" not in model.trainable_parameters()


class TestRawToBox:
    def test_sizes_positive_and_yaw_wrapped(self):
        raw = np.array([1.0, -2.0, 0.5, -3.0, 0.0, 5.0, 7.0])
        box = Box7(*box_params_from_raw(raw))
        assert box.l > 0 and box.w > 0 and box.h > 0
        assert -math.pi < box.yaw <= math.pi
        assert box.w == pytest.approx(math.log(2.0))  # softplus(0)

    def test_grad_chain_matches_fd(self):
        rng = np.random.default_rng(12)
        raw = rng.normal(size=7)
        g_params = rng.normal(size=7)
        chained = box_params_grad_chain(raw, g_params)
        h = 1e-6
        for i in range(7):
            rp, rm = raw.copy(), raw.copy()
            rp[i] += h
            rm[i] -= h
            fd = (
                g_params @ (box_params_from_raw(rp) - box_params_from_raw(rm))
            ) / (2 * h)
            assert fd == pytest.approx(chained[i], rel=1e-6, abs=1e-9)


class TestAccounting:
    def test_trainable_fraction_decomposition(self):
        model = FusionModel(SMALL)
        total = model.total_param_count()
        trainable = sum(p.size for p in model.trainable_parameters().values())
        adapters = sum(a.param_count for a in model.adapters())
        d, r = SMALL.d_model, SMALL.lora_rank
        assert adapters == SMALL.n_layers * len(ATTENTION_TARGETS) * 2 * d * r
        assert model.trainable_fraction() == trainable / total == model.arena.size / total
        assert 0 < model.trainable_fraction() < 1

    def test_adapter_count_formula(self):
        # one stack over (layer, target) of rank-r factor pairs for d x d bases
        (stack,) = FusionModel(SMALL).adapters()
        L, n, d, r = SMALL.n_layers, len(ATTENTION_TARGETS), SMALL.d_model, SMALL.lora_rank
        assert stack.A.shape == (L, n, r, d) and stack.B.shape == (L, n, d, r)
        assert stack.param_count == L * n * 2 * d * r

    def test_adapters_are_the_param_arrays(self, tmp_path):
        # training updates `params` in place, so the stack the forward merges
        # from must be those arrays' memory, also after a reload
        def check(model):
            (stack,) = model.adapters()
            assert model.adapters()[0] is stack  # built once, not per call
            for i in range(SMALL.n_layers):
                for j, t in enumerate(ATTENTION_TARGETS):
                    for name, factor in (("A", stack.A[i, j]), ("B", stack.B[i, j])):
                        assert same_memory(factor, model.params[f"layers.{i}.attn.{t}.{name}"])
            return stack

        model = randomized_model()
        stack = check(model)
        loaded = saved_and_loaded(model, tmp_path)
        after = check(loaded)
        assert after.A.tobytes() == stack.A.tobytes() and after.B.tobytes() == stack.B.tobytes()
        A, B = after.A.copy(), after.B.copy()
        AdamW(loaded.arena).step(loaded.arena, np.ones_like(loaded.arena), lr=1e-3)
        assert (after.A != A).all() and (after.B != B).all()

    @pytest.mark.parametrize("n_layers", [1, 2, 3, 4])
    def test_param_bytes_counts_the_built_model(self, n_layers):
        cfg = dataclasses.replace(SMALL, n_layers=n_layers)
        assert param_bytes(cfg) == 8 * FusionModel(cfg).total_param_count()

    def test_layer_count_is_multiplied_not_tabled(self):
        # a config or checkpoint header may say n_layers 2**31: the counts that
        # refuse it must not grow with the layer count
        tracemalloc.start()
        try:
            need = param_bytes(ModelConfig(n_layers=10_000))
            train_bytes(ModelConfig(n_layers=10_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert need == 3_293_788_216
        assert peak < 1 << 20

    def test_config_validation(self):
        with pytest.raises(ValueError, match="^n_layers: must be >= 1, got 0$"):
            ModelConfig(n_layers=0)
        with pytest.raises(ValueError, match="^d_model: 30 is not divisible by n_heads 4$"):
            ModelConfig(d_model=30, n_heads=4)
        with pytest.raises(ValueError, match="^lora_rank: 128 exceeds d_model 64$"):
            ModelConfig(lora_rank=128, d_model=64)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_lora_alpha_is_refused_naming_the_field(self, alpha):
        with pytest.raises(ValueError, match=f"^lora_alpha: must be finite, got {alpha}$"):
            ModelConfig(lora_alpha=alpha)


class TestArena:
    def test_trainable_parameters_tile_the_arena(self):
        model = FusionModel(SMALL)
        arena, trainable = model.arena, model.trainable_parameters()
        assert arena.ndim == 1 and arena.flags.c_contiguous
        start = arena.__array_interface__["data"][0]
        offset = 0
        for name, p in trainable.items():
            assert np.shares_memory(p, arena) and p.flags.c_contiguous, name
            assert p.__array_interface__["data"][0] == start + 8 * offset, name
            offset += p.size
        assert offset == arena.size
        for name, p in model.params.items():
            if name not in trainable:
                assert not np.shares_memory(p, arena), name

    def test_step_shows_through_params_and_adapters(self, tmp_path):
        model = randomized_model()
        save_checkpoint(model, tmp_path / "model.bin")
        loaded = load_checkpoint(tmp_path / "model.bin")
        for m in (model, loaded):
            for a in m.adapters():
                assert np.shares_memory(a.A, m.arena) and np.shares_memory(a.B, m.arena)
        before = {name: p.copy() for name, p in loaded.params.items()}
        adapters_before = [(a.A.copy(), a.B.copy()) for a in loaded.adapters()]
        AdamW(loaded.arena).step(loaded.arena, np.ones_like(loaded.arena), lr=1e-3)
        trainable = loaded.trainable_parameters()
        for name, p in loaded.params.items():
            assert np.array_equal(p, before[name]) == (name not in trainable), name
        for a, (A, B) in zip(loaded.adapters(), adapters_before):
            assert not np.array_equal(a.A, A) and not np.array_equal(a.B, B)

    @pytest.mark.parametrize("reloaded", [False, True])
    def test_frozen_parameters_tile_one_vector(self, tmp_path, reloaded):
        model = randomized_model()
        if reloaded:
            model = saved_and_loaded(model, tmp_path)
        frozen, table = model._frozen, model_mod._param_shapes(SMALL)[1]
        assert frozen.ndim == 1 and frozen.flags.c_contiguous
        assert model.params.keys() == model.trainable_parameters().keys() | table.keys()
        offset = 0
        for name, shape in table.items():
            p = model.params[name]
            assert p.shape == shape and p.flags.c_contiguous, name
            assert p.ctypes.data == frozen.ctypes.data + 8 * offset, name
            assert not np.shares_memory(p, model.arena), name
            assert not np.shares_memory(p, model.grad), name
            offset += p.size
        assert offset == frozen.size

    @pytest.mark.parametrize("reloaded", [False, True])
    def test_bases_are_the_head_of_the_frozen_vector(self, tmp_path, reloaded):
        model = randomized_model()
        if reloaded:
            model = saved_and_loaded(model, tmp_path)
        model.forward_batch(np.random.default_rng(17).normal(size=(3, 16)))
        L, n, d = SMALL.n_layers, len(ATTENTION_TARGETS), SMALL.d_model
        assert same_memory(model._base, model._frozen[: L * n * d * d].reshape(L, n, d, d))
        for i in range(L):
            for j, t in enumerate(ATTENTION_TARGETS):
                assert same_memory(model._base[i, j], model.params[f"layers.{i}.attn.{t}.base"])
        for vector in (model._frozen, model.arena, model.grad):
            assert not np.shares_memory(model._merged, vector)

    def test_gradient_views_tile_the_gradient_arena(self):
        model = FusionModel(SMALL)
        grad = model.grad
        assert grad.shape == model.arena.shape and not np.shares_memory(grad, model.arena)
        assert list(model._grads) == list(model.trainable_parameters())
        start = grad.__array_interface__["data"][0]
        offset = 0
        for (name, g), p in zip(model._grads.items(), model.trainable_parameters().values()):
            assert np.shares_memory(g, grad) and g.shape == p.shape, name
            assert g.__array_interface__["data"][0] == start + 8 * offset, name
            offset += g.size
        assert offset == grad.size

    def test_backward_writes_every_gradient_element(self):
        model = randomized_model()
        rng = np.random.default_rng(14)
        model.forward_batch(rng.normal(size=(5, 16)))
        model.grad[:] = np.nan
        assert model.backward_batch(rng.normal(size=(5, 7))) is model.grad
        assert np.isfinite(model.grad).all()

    def test_second_backward_overwrites_the_first(self):
        rng = np.random.default_rng(15)
        F, up1, up2 = rng.normal(size=(4, 16)), rng.normal(size=(4, 7)), rng.normal(size=(4, 7))
        model, fresh = randomized_model(), randomized_model()
        model.forward_batch(F)
        model.backward_batch(up1)
        model.backward_batch(up2)
        fresh.forward_batch(F)
        fresh.backward_batch(up2)
        assert model.grad.tobytes() == fresh.grad.tobytes()

    def test_named_grads_returns_copies(self):
        model = randomized_model()
        rng = np.random.default_rng(16)
        model.forward_batch(rng.normal(size=(1, 16)))
        grads = named_grads(model, rng.normal(size=(1, 7)))
        before = {name: g.copy() for name, g in grads.items()}
        named_grads(model, rng.normal(size=(1, 7)))
        for name, g in grads.items():
            assert not np.shares_memory(g, model.grad), name
            assert np.array_equal(g, before[name]), name


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        model = randomized_model()
        x = np.random.default_rng(13).normal(size=16)
        raw = model.forward_batch(x[None])[0]
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.forward_batch(x[None])[0], raw)
        for name in model.params:
            assert np.array_equal(model.params[name], loaded.params[name])

    def test_version_byte_checked(self, tmp_path):
        model = FusionModel(SMALL)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_header_bytes_pinned(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(FusionModel(ModelConfig()), path)
        header = (
            b'{"d_model": 64, "d_t": 32, "d_v": 32, "lora_alpha": 32.0, "lora_rank": 16, '
            b'"lora_targets": ["q", "k", "v", "o"], "mlp_hidden": [512, 256, 128], '
            b'"n_heads": 4, "n_layers": 2, "seed": 0}'
        )
        blob = path.read_bytes()
        assert blob[:9] == b"MD3D\x01" + len(header).to_bytes(4, "little")
        assert blob[9 : 9 + len(header)] == header

    @pytest.mark.parametrize("key, value", [
        ("mlp_hidden", [64, 32, 16]), ("mlp_hidden", None),
        ("lora_targets", ["q", "o"]), ("lora_targets", ["q", "k", "v", "o", "o"]),
        ("lora_targets", None),
    ], ids=["other", "missing", "targets-subset", "targets-repeat", "targets-missing"])
    def test_other_head_widths_rejected(self, tmp_path, key, value):
        # the head widths and the adapted projections are fixed header
        # fields: any other value, or none, is refused by name
        path = tmp_path / "model.bin"
        save_checkpoint(FusionModel(SMALL), path)
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[5:9], "little")
        cfg = json.loads(blob[9 : 9 + hlen])
        if value is None:
            del cfg[key]
        else:
            cfg[key] = value
        header = json.dumps(cfg, sort_keys=True).encode()
        path.write_bytes(blob[:5] + len(header).to_bytes(4, "little") + header + blob[9 + hlen :])
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: header.{key}: ")
        assert str(err.value).endswith("missing" if value is None else f"got {json.dumps(value)}")

    def test_weight_count_checked_before_the_model_is_built(self, tmp_path, monkeypatch):
        # a tiny file whose header asks for a wide model must fail on its
        # weight byte count without allocating that model
        cfg = dataclasses.asdict(ModelConfig(d_model=1024))
        cfg.update(mlp_hidden=[512, 256, 128], lora_targets=["q", "k", "v", "o"])
        header = json.dumps(cfg, sort_keys=True).encode()
        path = tmp_path / "wide.bin"
        path.write_bytes(b"MD3D\x01" + len(header).to_bytes(4, "little") + header)

        def build(self, config):
            raise AssertionError("FusionModel built before the weight check")

        monkeypatch.setattr(FusionModel, "__init__", build)
        with pytest.raises(CheckpointError, match="weights"):
            load_checkpoint(path)

    def test_a_large_file_without_the_magic_is_refused_unread(self, tmp_path):
        path = tmp_path / "large.bin"
        with open(path, "wb") as f:
            f.write(b"NOPE")
            f.truncate(64 << 20)  # sparse: 64 MiB that take no disk
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=r": magic: not a model checkpoint"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_trailing_byte_is_refused_with_the_files_weight_count(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(FusionModel(SMALL), path)
        with open(path, "ab") as f:
            f.write(b"\0")
        needed = param_bytes(SMALL)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}: weights: {needed + 1} bytes, but the header's "
                                  f"shapes need {needed}")

    def test_a_header_length_past_the_end_is_not_allocated(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"MD3D\x01" + (2**32 - 1).to_bytes(4, "little") + b"{}")
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError) as err:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{path}: header length: {2**32 - 1} bytes, but only 2 follow"
        assert peak < 1 << 20

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(CheckpointError, match="checkpoint"):
            load_checkpoint(path)
