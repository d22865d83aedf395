import json
import math

import numpy as np
import pytest

from minidet3d.errors import ModalityMismatch, ShapeMismatch, StaleActivation
from minidet3d.geom import Box7
from minidet3d.lora import adapter_param_fraction
from minidet3d.model import (
    FeatureVector,
    FusionModel,
    ModelConfig,
    box_params_from_raw,
    box_params_grad_chain,
    concat_features,
    load_checkpoint,
    save_checkpoint,
    semantic_project,
)

SMALL = ModelConfig(d_v=8, d_t=8, d_model=16, n_layers=2, n_heads=4, lora_rank=4, seed=3)


def randomized_model(cfg=SMALL, seed=7, scale=0.05):
    """Model with non-zero adapter factors so every gradient path is live."""
    m = FusionModel(cfg)
    rng = np.random.default_rng(seed)
    for p in m.trainable_parameters().values():
        p += rng.normal(0, scale, size=p.shape)
    return m


def input_jacobian(model, x):
    """Exact (7, d_v + d_t) Jacobian of the raw output at `x`, row by row."""
    model.forward(x)
    rows = []
    for k in range(7):
        up = np.zeros((1, 7))
        up[0, k] = 1.0
        rows.append(model.backward_batch(up)[1][0])
    return np.array(rows)


class TestFeatureVector:
    def test_concat_basic(self):
        fv = FeatureVector(np.array([1.0, 2.0]), "visual")
        ft = FeatureVector(np.array([3.0, 4.0]), "text")
        fused = concat_features(fv, ft)
        assert fused.modality == "fused"
        assert np.array_equal(fused.values, [1.0, 2.0, 3.0, 4.0])

    def test_concat_zero_visual(self):
        fused = concat_features(
            FeatureVector(np.zeros(3), "visual"), FeatureVector(np.array([5.0, 6.0]), "text")
        )
        assert np.array_equal(fused.values, [0, 0, 0, 5.0, 6.0])

    def test_concat_injective(self):
        pairs = [
            (np.array([1.0, 0.0]), np.array([0.0])),
            (np.array([0.0, 1.0]), np.array([0.0])),
            (np.array([1.0, 0.0]), np.array([1.0])),
        ]
        fused = {
            tuple(concat_features(FeatureVector(v, "visual"), FeatureVector(t, "text")).values)
            for v, t in pairs
        }
        assert len(fused) == len(pairs)

    def test_modality_mismatch(self):
        v = FeatureVector(np.zeros(2), "visual")
        t = FeatureVector(np.zeros(2), "text")
        with pytest.raises(ModalityMismatch):
            concat_features(t, t)
        with pytest.raises(ModalityMismatch):
            concat_features(v, v)
        with pytest.raises(ModalityMismatch):
            FeatureVector(np.zeros(2), "audio")


class TestForward:
    def test_deterministic_across_fresh_models(self):
        x = np.random.default_rng(0).normal(size=16)
        raw1 = FusionModel(SMALL).forward(x)
        raw2 = FusionModel(SMALL).forward(x)
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
            assert np.allclose(model.forward(F[i]), batched[i], atol=1e-12)

    def test_accepts_feature_vector(self):
        model = FusionModel(SMALL)
        rng = np.random.default_rng(3)
        fused = concat_features(
            FeatureVector(rng.normal(size=8), "visual"), FeatureVector(rng.normal(size=8), "text")
        )
        assert model.forward(fused).shape == (7,)
        with pytest.raises(ModalityMismatch):
            model.forward(FeatureVector(np.zeros(16), "visual"))

    def test_shape_mismatch(self):
        model = FusionModel(SMALL)
        with pytest.raises(ShapeMismatch):
            model.forward(np.zeros(15))

    def test_input_perturbation_bounded_by_jacobian_norm(self):
        # product of layer operator norms upper-bounds the Jacobian norm, so
        # asserting against the exact Jacobian is the stricter check
        model = randomized_model()
        rng = np.random.default_rng(11)
        x = rng.normal(size=16)
        J = input_jacobian(model, x)
        L = np.linalg.svd(J, compute_uv=False)[0]
        base = model.forward(x)
        for i in range(16):
            xp = x.copy()
            xp[i] += 1e-6
            delta = np.linalg.norm(model.forward(xp) - base)
            assert delta <= L * 1e-6 + 1e-10


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = randomized_model()
        x = np.random.default_rng(4).normal(size=16)
        model.forward(x)
        grads = model.backward_head(x, np.zeros(7))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_stale_activation_without_forward(self):
        model = FusionModel(SMALL)
        with pytest.raises(StaleActivation):
            model.backward_head(np.zeros(16), np.zeros(7))

    def test_stale_activation_on_input_mismatch(self):
        model = FusionModel(SMALL)
        rng = np.random.default_rng(5)
        model.forward(rng.normal(size=16))
        with pytest.raises(StaleActivation):
            model.backward_head(rng.normal(size=16), np.zeros(7))

    def test_output_layer_gradient_is_outer_product(self):
        # analytic hand check: d(u . raw)/dW_out = outer(u, z3)
        model = randomized_model()
        x = np.random.default_rng(6).normal(size=16)
        model.forward(x)
        z3 = model._cache["z3"][0]
        u = np.arange(7.0)
        grads = model.backward_head(x, u)
        assert np.allclose(grads["head.out.W"], np.outer(u, z3), atol=1e-12)
        assert np.allclose(grads["head.out.b"], u, atol=1e-12)

    def test_gradcheck_every_trainable_tensor(self):
        model = randomized_model()
        rng = np.random.default_rng(8)
        x = rng.normal(size=16)
        u = rng.normal(size=7)
        model.forward(x)
        grads = model.backward_head(x, u)
        h = 1e-5
        for name, p in model.trainable_parameters().items():
            flat = p.reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(u @ model.forward(x))
                flat[i] = orig - h
                fm = float(u @ model.forward(x))
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                an = grads[name].reshape(-1)[i]
                denom = max(abs(fd), abs(an))
                if denom > 1e-10:
                    assert abs(fd - an) / denom <= 1e-4, f"{name}[{i}]: {an} vs {fd}"

    def test_input_gradient_matches_fd(self):
        model = randomized_model()
        rng = np.random.default_rng(9)
        x = rng.normal(size=16)
        u = rng.normal(size=7)
        model.forward(x)
        _, din = model.backward_batch(u[None, :])
        h = 1e-6
        for i in range(16):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (u @ model.forward(xp) - u @ model.forward(xm)) / (2 * h)
            assert fd == pytest.approx(din[0, i], rel=1e-4, abs=1e-9)


class TestSemanticHead:
    def test_zero_input_zero_feature(self):
        model = FusionModel(SMALL)
        assert np.array_equal(model.semantic_features(np.zeros(7)), np.zeros(128))

    def test_linearity(self):
        rng = np.random.default_rng(10)
        W = rng.normal(size=(128, 7))
        a, b = rng.normal(size=7), rng.normal(size=7)
        assert np.allclose(
            semantic_project(a + b, W),
            semantic_project(a, W) + semantic_project(b, W),
            atol=1e-12,
        )

    def test_identical_boxes_give_zero_mse(self):
        from minidet3d.losses import mse_semantic_loss

        model = FusionModel(SMALL)
        params = np.array([1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3])
        f_pred = model.semantic_features(params)
        f_gt = model.semantic_features(params.copy())
        assert mse_semantic_loss([f_pred], [f_gt]) == 0.0

    def test_dimension_is_128(self):
        model = FusionModel(SMALL)
        assert model.semantic_features(np.zeros(7)).shape == (128,)

    def test_frozen_head_is_not_trainable(self):
        model = FusionModel(SMALL)
        assert "semantic.W" not in model.trainable_parameters()


class TestRawToBox:
    def test_sizes_positive_and_yaw_wrapped(self):
        raw = np.array([1.0, -2.0, 0.5, -3.0, 0.0, 5.0, 7.0])
        box = Box7.from_params(box_params_from_raw(raw))
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
        dense = sum(
            p.size
            for name, p in model.trainable_parameters().items()
            if not name.endswith(".A") and not name.endswith(".B")
        )
        expected = adapter_param_fraction(total, model.adapters()) + dense / total
        assert model.trainable_fraction() == pytest.approx(expected)
        assert 0 < model.trainable_fraction() < 1

    def test_adapter_count_formula(self):
        model = FusionModel(SMALL)
        d, r = SMALL.d_model, SMALL.lora_rank
        for a in model.adapters():
            assert a.param_count == 2 * d * r

    def test_adapters_are_the_param_arrays(self, tmp_path):
        # training updates `params` in place, so the adapters the forward pass
        # runs through must be bound to those arrays, also after a reload
        def check(model):
            adapters = model.adapters()
            assert len(adapters) == SMALL.n_layers * len(SMALL.lora_targets)
            names = [
                f"layers.{i}.attn.{t}" for i in range(SMALL.n_layers) for t in SMALL.lora_targets
            ]
            for name, a in zip(names, adapters):
                assert a.A is model.params[f"{name}.A"] and a.B is model.params[f"{name}.B"]

        model = randomized_model()
        check(model)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        check(loaded)
        for a, b in zip(model.adapters(), loaded.adapters()):
            assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)

    def test_fraction_logged_at_build(self, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="minidet3d.model"):
            FusionModel(SMALL)
        assert any("trainable fraction" in r.message for r in caplog.records)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=30, n_heads=4)
        with pytest.raises(ValueError):
            ModelConfig(lora_targets=("q", "z"))
        with pytest.raises(ValueError):
            ModelConfig(lora_rank=128, d_model=64)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        model = randomized_model()
        x = np.random.default_rng(13).normal(size=16)
        raw = model.forward(x)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.forward(x), raw)
        for name in model.params:
            assert np.array_equal(model.params[name], loaded.params[name])

    def test_version_byte_checked(self, tmp_path):
        model = FusionModel(SMALL)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
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

    @pytest.mark.parametrize("widths", [[64, 32, 16], None], ids=["other", "missing"])
    def test_other_head_widths_rejected(self, tmp_path, widths):
        path = tmp_path / "model.bin"
        save_checkpoint(FusionModel(SMALL), path)
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[5:9], "little")
        cfg = json.loads(blob[9 : 9 + hlen])
        if widths is None:
            del cfg["mlp_hidden"]
        else:
            cfg["mlp_hidden"] = widths
        header = json.dumps(cfg, sort_keys=True).encode()
        path.write_bytes(blob[:5] + len(header).to_bytes(4, "little") + header + blob[9 + hlen :])
        with pytest.raises(ValueError, match="head widths"):
            load_checkpoint(path)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)
