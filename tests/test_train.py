import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import minidet3d
from minidet3d.data import synth_scenes
from minidet3d.errors import ConfigError, DivergenceError, EmptyBatch
from minidet3d.geom import Box7
from minidet3d.iou import iou_3d, iou_loss_grad
from minidet3d.losses import LossSchedule, schedule_weights
from minidet3d.metrics import match_predictions
from minidet3d.model import FusionModel, ModelConfig, save_checkpoint
from minidet3d.model import box_params_from_raw
from minidet3d.train import (
    ADAMW_CHUNK,
    AdamW,
    LOG_HEADER,
    build_training_samples,
    evaluate_model,
    format_log_row,
    run_training,
    split_by_hash,
    validation_miou,
)

from oracles import DictAdamW, grad_outcome, reference_report

MIX = {"adult": 0.5, "car": 0.5}


def small_dataset(count, seed):
    records, features = synth_scenes(count, MIX, seed=seed)
    return build_training_samples(records, {f.sample_id: f for f in features})


class TestAdamW:
    def test_converges_on_quadratic(self, monkeypatch):
        # minimize ||x - target||^2, with no weight decay pulling toward zero
        monkeypatch.setattr(minidet3d.train, "ADAMW_WEIGHT_DECAY", 0.0)
        target = np.array([1.0, -2.0, 3.0])
        params = np.zeros(3)
        opt = AdamW(params)
        for _ in range(2000):
            opt.step(params, 2.0 * (params - target), lr=0.01)
        assert np.allclose(params, target, atol=1e-4)

    def test_weight_decay_shrinks_stationary_point(self, monkeypatch):
        # zero gradients: only the decoupled decay acts, scaling by
        # (1 - lr*wd) each step
        monkeypatch.setattr(minidet3d.train, "ADAMW_WEIGHT_DECAY", 0.1)
        params = np.array([10.0])
        opt = AdamW(params)
        for _ in range(500):
            opt.step(params, np.zeros(1), lr=0.05)
        assert params[0] == pytest.approx(10.0 * (1 - 0.05 * 0.1) ** 500, rel=1e-9)

    def test_flat_step_equals_per_tensor_oracle(self):
        # the model's real layout, whose length is not a multiple of the chunk
        model = FusionModel(ModelConfig())
        assert model.arena.size == 219_015 and model.arena.size % ADAMW_CHUNK != 0
        ref_params = {k: v.copy() for k, v in model.trainable_parameters().items()}
        ref, opt = DictAdamW(ref_params), AdamW(model.arena)
        rng = np.random.default_rng(0)
        for step in range(50):
            # per-element gradient scales from 1e-8 to 1e2
            grads = {
                k: rng.normal(size=v.shape) * 10.0 ** rng.uniform(-8, 2, size=v.shape)
                for k, v in ref_params.items()
            }
            lr = 2e-3 if step % 2 == 0 else 5e-5
            ref.step(ref_params, grads, lr)
            opt.step(model.arena, np.concatenate(list(grads.values()), axis=None), lr)
            assert np.array_equal(model.arena, np.concatenate(list(ref_params.values()), axis=None))
        assert np.array_equal(opt.m, np.concatenate(list(ref.m.values()), axis=None))
        assert np.array_equal(opt.v, np.concatenate(list(ref.v.values()), axis=None))

    def test_folded_step_tracks_textbook_update(self):
        # the folded form rounds differently from the textbook update; over
        # 200 steps on the real layout the two stay within 1e-12 of each
        # other, relative to the largest parameter
        model = FusionModel(ModelConfig())
        ref_params = {k: v.copy() for k, v in model.trainable_parameters().items()}
        ref, opt = DictAdamW(ref_params, textbook=True), AdamW(model.arena)
        rng = np.random.default_rng(1)
        for step in range(200):
            grads = {
                k: rng.normal(size=v.shape) * 10.0 ** rng.uniform(-8, 2, size=v.shape)
                for k, v in ref_params.items()
            }
            lr = 2e-3 if step % 2 == 0 else 5e-5
            ref.step(ref_params, grads, lr)
            opt.step(model.arena, np.concatenate(list(grads.values()), axis=None), lr)
        textbook = np.concatenate(list(ref_params.values()), axis=None)
        drift = np.abs(model.arena - textbook).max() / np.abs(textbook).max()
        assert 0.0 < drift <= 1e-12


class TestBuildSamples:
    def test_pairs_features_with_lidar_boxes(self):
        samples = small_dataset(10, seed=1)
        assert len(samples) == 10
        for s in samples:
            assert s.fused.shape == (64,)
            assert s.gt_box.l > 0

    def test_multi_annotation_rejected(self):
        records, features = synth_scenes(2, MIX, seed=2)
        doubled = records[0].__class__(
            sample_id=records[0].sample_id,
            ego_to_global=records[0].ego_to_global,
            lidar_to_ego=records[0].lidar_to_ego,
            cameras=records[0].cameras,
            annotations=records[0].annotations * 2,
        )
        with pytest.raises(ConfigError, match="exactly one"):
            build_training_samples([doubled], {f.sample_id: f for f in features})

    def test_missing_features_rejected(self):
        records, _ = synth_scenes(2, MIX, seed=3)
        with pytest.raises(ConfigError, match="no features"):
            build_training_samples(records, {})


class TestSplit:
    def test_deterministic_and_total(self):
        samples = small_dataset(200, seed=4)
        t1, v1 = split_by_hash(samples, 0.1)
        t2, v2 = split_by_hash(samples, 0.1)
        assert [s.sample_id for s in t1] == [s.sample_id for s in t2]
        assert len(t1) + len(v1) == 200
        assert 5 <= len(v1) <= 40  # about 10%


class TestRunTraining:
    def test_loss_decreases_and_is_deterministic(self):
        samples = small_dataset(64, seed=5)
        sched = LossSchedule(transition_epoch=3, total_epochs=4, stage1_lr=2e-3, stage2_lr=2e-4)

        model_a = FusionModel(ModelConfig(seed=0))
        hist_a = run_training(model_a, samples, sched, seed=9)
        model_b = FusionModel(ModelConfig(seed=0))
        hist_b = run_training(model_b, samples, sched, seed=9)

        assert hist_a[-1].mse_loss < hist_a[0].mse_loss
        assert hist_a == hist_b
        for name in model_a.params:
            assert np.array_equal(model_a.params[name], model_b.params[name])

    def test_log_matches_schedule_weights(self):
        samples = small_dataset(32, seed=6)
        sched = LossSchedule(transition_epoch=2, total_epochs=4)
        model = FusionModel(ModelConfig(seed=1))
        history = run_training(model, samples, sched, seed=0)
        for stats in history:
            lam1, lam2, lr = schedule_weights(sched, stats.epoch)
            assert (stats.lambda1, stats.lambda2, stats.lr) == (lam1, lam2, lr)
            assert stats.combined_loss == lam1 * stats.mse_loss + lam2 * stats.iou_loss

    def test_frozen_base_weights_never_change(self):
        samples = small_dataset(32, seed=7)
        model = FusionModel(ModelConfig(seed=2))
        trainable = set(model.trainable_parameters())
        frozen_before = {
            name: p.copy() for name, p in model.params.items() if name not in trainable
        }
        run_training(
            model,
            samples,
            LossSchedule(transition_epoch=1, total_epochs=2, stage1_lr=2e-3, stage2_lr=2e-4),
            seed=0,
        )
        for name, before in frozen_before.items():
            assert np.array_equal(model.params[name], before), name

    def test_trainable_weights_do_change(self):
        samples = small_dataset(32, seed=8)
        model = FusionModel(ModelConfig(seed=3))
        before = {k: v.copy() for k, v in model.trainable_parameters().items()}
        run_training(
            model,
            samples,
            LossSchedule(transition_epoch=1, total_epochs=2, stage1_lr=1e-3, stage2_lr=1e-4),
            seed=0,
        )
        changed = sum(
            not np.array_equal(before[k], v) for k, v in model.trainable_parameters().items()
        )
        assert changed == len(before)

    def test_divergence_raises(self):
        samples = small_dataset(16, seed=9)
        model = FusionModel(ModelConfig(seed=4))
        bad = LossSchedule(transition_epoch=1, total_epochs=6, stage1_lr=1e12, stage2_lr=1e12)
        with pytest.raises(DivergenceError):
            run_training(model, samples, bad, seed=0)

    @pytest.mark.parametrize("lr", [1e3, 1e6, 1e12])
    def test_divergence_caught_at_its_batch(self, lr):
        # the batch that first goes bad raises before the optimizer writes
        # its values into the parameters
        samples = small_dataset(16, seed=9)
        model = FusionModel(ModelConfig(seed=4))
        bad = LossSchedule(transition_epoch=1, total_epochs=6, stage1_lr=lr, stage2_lr=lr)
        with pytest.raises(DivergenceError, match=r"at epoch \d+, batch \d+"):
            run_training(model, samples, bad, seed=0, batch_size=4)
        for name, p in model.params.items():
            assert np.isfinite(p).all(), name

    @pytest.mark.parametrize("lr", [30, 100, 1e3, 1e4])
    def test_divergence_caught_at_validation(self, lr):
        # a finite step can leave the val predictions with underflowed sizes
        # before any training batch sees them: typed error, no Box7 built
        samples = small_dataset(48, seed=9)
        model = FusionModel(ModelConfig(seed=4))
        bad = LossSchedule(transition_epoch=3, total_epochs=4, stage1_lr=lr)
        with pytest.raises(DivergenceError, match=r"on the validation samples at epoch \d+$"):
            run_training(model, samples[:16], bad, seed=0, val_samples=samples[16:])

    def test_divergence_names_the_first_sample_and_its_raw_size(self):
        # every raw size is near -1000, where softplus underflows to 0: each
        # batch fails at its first row, and that row at its l channel
        samples = small_dataset(16, seed=9)
        model = FusionModel(ModelConfig(seed=4))
        model.params["head.out.b"][3:6] = -1000.0
        first = np.random.default_rng(0).permutation(16)[:4]
        runs = [
            (lambda: run_training(model, samples, LossSchedule(transition_epoch=1, total_epochs=2),
                                  seed=0, batch_size=4), first, " at epoch 1, batch 0"),
            (lambda: validation_miou(model, samples), range(16), ""),
            (lambda: evaluate_model(model, samples, 0.25), range(16), ""),
        ]
        for run, rows, where in runs:
            raw_l = model.forward_batch(np.stack([samples[i].fused for i in rows]))[0, 3]
            message = (f"a predicted box size is not positive{where} "
                       f"(sample {samples[rows[0]].sample_id!r}, raw l {raw_l:.6g})")
            with pytest.raises(DivergenceError) as caught:
                run()
            assert str(caught.value) == message

    def test_overflow_with_a_finite_output_is_divergence(self):
        # attention off, one visual channel copied into every token channel:
        # -1e308 overflows the first FFN to -inf, its ReLU zeroes that, the
        # first head layer overflows and ReLU zeroes it again, so the output
        # is finite and only numpy's error state saw the overflow
        samples = small_dataset(16, seed=9)
        samples[5] = dataclasses.replace(samples[5], fused=samples[5].fused.copy())
        samples[5].fused[0] = -1e308
        model = FusionModel(ModelConfig(seed=4))
        p = model.params
        for name in p:
            if name.endswith(".base"):
                p[name][...] = 0.0
        p["proj_v.W"][...] = 0.0
        p["proj_v.W"][:, 0] = 1.0
        for i in range(model.config.n_layers):
            p[f"layers.{i}.ffn.W1"][...] = 1.0
        p["head.0.W"][...] = 1.0
        with np.errstate(over="ignore"):
            assert np.isfinite(model.forward_batch(np.stack([s.fused for s in samples]))).all()
        runs = [
            (lambda: run_training(model, samples, LossSchedule(transition_epoch=1, total_epochs=2),
                                  seed=0, batch_size=16), " at epoch 1, batch 0"),
            (lambda: validation_miou(model, samples), ""),
            (lambda: evaluate_model(model, samples, 0.25), ""),
        ]
        for run, where in runs:
            with pytest.raises(DivergenceError) as caught:
                run()
            assert str(caught.value) == f"overflow in the model's forward{where}"

    def test_stage2_run_is_bit_reproducible(self, tmp_path):
        train, val = small_dataset(256, seed=101), small_dataset(64, seed=202)
        sched = LossSchedule(transition_epoch=8, total_epochs=14, stage1_lr=2e-3, stage2_lr=5e-5)
        runs = []
        for name in ("a", "b"):
            model = FusionModel(ModelConfig(seed=5))
            history = run_training(model, train, sched, seed=5, val_samples=val)
            save_checkpoint(model, tmp_path / f"{name}.bin")
            runs.append(history)
        assert runs[0] == runs[1]
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        # the run exercises the IoU gradient: most stage-2 pairs get one, and
        # val mIoU keeps rising through stage 2
        stage2 = [s for s in runs[0] if s.lambda2 > 0.0]
        assert len(stage2) == 6
        assert all(s.skipped_iou_grads < len(train) // 2 for s in stage2)
        assert stage2[-1].val_miou > stage2[0].val_miou > runs[0][0].val_miou

    def test_checkpoint_independent_of_blas_threads(self, tmp_path):
        # one training run per process, so that BLAS starts with each thread count
        script = textwrap.dedent(
            """
            import sys
            from minidet3d.data import synth_scenes
            from minidet3d.losses import LossSchedule
            from minidet3d.model import FusionModel, ModelConfig, save_checkpoint
            from minidet3d.train import build_training_samples, run_training

            def samples(count, seed):
                records, features = synth_scenes(count, {"adult": 0.5, "car": 0.5}, seed)
                return build_training_samples(records, {f.sample_id: f for f in features})

            model = FusionModel(ModelConfig(seed=5))
            schedule = LossSchedule(4, 7, stage1_lr=2e-3, stage2_lr=5e-5)
            run_training(model, samples(256, 101), schedule, seed=5,
                         val_samples=samples(64, 202))
            save_checkpoint(model, sys.argv[1])
            """
        )
        src = str(Path(minidet3d.__file__).parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = tmp_path / f"threads{threads}.bin"
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
        assert (tmp_path / "threads1.bin").read_bytes() == (tmp_path / "threads2.bin").read_bytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyBatch):
            run_training(FusionModel(ModelConfig()), [], LossSchedule(), seed=0)
        with pytest.raises(EmptyBatch):
            validation_miou(FusionModel(ModelConfig()), [])

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ConfigError, match=r"^batch_size must be >= 1, got 0$"):
            run_training(FusionModel(ModelConfig()), small_dataset(4, seed=9), LossSchedule(),
                         seed=0, batch_size=0)

    def test_non_finite_gradient_is_divergence(self, monkeypatch):
        model = FusionModel(ModelConfig(seed=4))
        monkeypatch.setattr(model, "backward_batch", lambda upstream: np.full_like(model.grad, np.inf))
        with pytest.raises(DivergenceError, match=r"^non-finite gradient at epoch 1, batch 0$"):
            run_training(model, small_dataset(8, seed=9), LossSchedule(), seed=0)
        assert np.isfinite(model.arena).all()

    def test_gradient_that_overflows_adamw_is_divergence(self, monkeypatch):
        # 1e160 is finite, but its square overflows AdamW's second moment to inf
        model = FusionModel(ModelConfig(seed=4))
        monkeypatch.setattr(model, "backward_batch", lambda upstream: np.full_like(model.grad, 1e160))
        with pytest.raises(DivergenceError,
                           match=r"^overflow in the training step at epoch 1, batch 0$"):
            run_training(model, small_dataset(8, seed=9), LossSchedule(), seed=0)
        assert np.isfinite(model.arena).all()

    def test_epoch_loss_that_overflows_is_divergence(self, monkeypatch):
        # each batch's loss is finite; their sample-weighted sum is not
        monkeypatch.setattr(FusionModel, "semantic_loss",
                            lambda self, pred, gt, weight: (1e308, np.zeros((len(pred), 7))))
        with pytest.raises(DivergenceError, match=r"^non-finite loss at epoch 1: inf$"):
            run_training(FusionModel(ModelConfig(seed=4)), small_dataset(8, seed=9),
                         LossSchedule(), seed=0, batch_size=4)

    def test_epoch_callback_gets_each_epochs_stats(self):
        # perfbench times epochs through this hook; `train` reads the returned history
        seen = []
        history = run_training(FusionModel(ModelConfig(seed=5)), small_dataset(8, seed=10),
                               LossSchedule(transition_epoch=1, total_epochs=2), seed=0,
                               epoch_callback=seen.append)
        assert seen == history and len(history) == 2

    def test_log_row_format(self):
        samples = small_dataset(16, seed=10)
        model = FusionModel(ModelConfig(seed=5))
        history = run_training(
            model,
            samples,
            LossSchedule(transition_epoch=1, total_epochs=2),
            seed=0,
            val_samples=samples[:4],
        )
        header_fields = LOG_HEADER.split(",")
        for stats in history:
            fields = format_log_row(stats).split(",")
            assert len(fields) == len(header_fields)
            assert float(fields[1]) == stats.lambda1
            assert float(fields[3]) == stats.lr
            assert float(fields[7]) == stats.val_miou


class TestTrainingStepGradient:
    """The gradient one training batch hands `backward_batch` is that of the
    objective lambda1 * L_sem + lambda2 * mean(1 - IoU) in the raw output,
    checked by central differences on every row whose IoU gradient the trainer
    kept: a wrong 2/B, a misplaced lambda or a wrong softplus chain fails it."""

    def test_backward_gets_the_objectives_gradient_in_the_raw_output(self, monkeypatch):
        train = small_dataset(64, seed=35)
        model = FusionModel(ModelConfig(seed=5))
        # stage 1 until most predictions overlap their ground truth, not recorded
        pretrain = LossSchedule(transition_epoch=20, total_epochs=21, stage1_lr=2e-3, stage2_lr=5e-5)
        run_training(model, train, pretrain, seed=5)

        calls = {"forward": [], "backward": [], "kept": []}
        forward, backward = model.forward_batch, model.backward_batch

        def recorded_forward(F):
            raw = forward(F)
            calls["forward"].append((F.copy(), raw.copy()))
            return raw

        def recorded_backward(upstream):
            calls["backward"].append(upstream.copy())
            return backward(upstream)

        def recorded_grad(*args):
            calls["kept"].append(False)
            grad = iou_loss_grad(*args)
            calls["kept"][-1] = True
            return grad

        monkeypatch.setattr(model, "forward_batch", recorded_forward)
        monkeypatch.setattr(model, "backward_batch", recorded_backward)
        monkeypatch.setattr(minidet3d.train, "iou_loss_grad", recorded_grad)
        lam1, lam2 = 0.2, 0.8  # both terms live from the first batch
        sched = LossSchedule(transition_epoch=1, total_epochs=2, stage1_weights=(lam1, lam2),
                             stage1_lr=5e-5, stage2_lr=5e-5)
        run_training(model, train, sched, seed=6, batch_size=12)
        monkeypatch.undo()

        (F, raw), upstream = calls["forward"][0], calls["backward"][0]
        B = len(F)
        kept = np.array(calls["kept"][:B])
        by_fused = {s.fused.tobytes(): s for s in train}
        gt_boxes = [by_fused[row.tobytes()].gt_box for row in F]
        gt = np.stack([g.params() for g in gt_boxes])
        W = model.params["semantic.W"]

        def objective(raw):
            p = box_params_from_raw(raw)
            sem = np.mean([np.sum(((pb - gb) @ W.T) ** 2) for pb, gb in zip(p, gt)])
            iou = np.mean([1.0 - iou_3d(Box7(*pb), g).iou for pb, g in zip(p.tolist(), gt_boxes)])
            return lam1 * sem + lam2 * iou

        h, fd = 1e-6, np.empty_like(raw)
        for index in np.ndindex(raw.shape):
            plus, minus = raw.copy(), raw.copy()
            plus[index] += h
            minus[index] -= h
            fd[index] = (objective(plus) - objective(minus)) / (2 * h)

        assert B == 12 and kept.sum() >= B // 2
        np.testing.assert_allclose(upstream[kept], fd[kept], rtol=1e-6, atol=1e-9)


class TestEvaluate:
    def test_ground_truth_as_predictions_is_perfect(self):
        samples = small_dataset(20, seed=11)
        report = evaluate_model(None, samples, 0.25, predictions=[s.gt_box for s in samples])
        assert report["miou_samples"] == 1.0
        assert report["miou_categories"] == 1.0
        assert report["recall"] == 1.0
        assert report["counts"]["fp"] == 0

    def test_model_predictions_reported(self):
        samples = small_dataset(20, seed=12)
        model = FusionModel(ModelConfig(seed=6))
        report = evaluate_model(model, samples, 0.25)
        assert 0.0 <= report["miou_samples"] <= 1.0
        assert report["counts"]["tp"] + report["counts"]["fn"] == 20
        assert set(r["category"] for r in report["categories"]) <= {"adult", "car"}

    def test_validation_miou_matches_eval(self):
        samples = small_dataset(10, seed=13)
        model = FusionModel(ModelConfig(seed=7))
        miou = validation_miou(model, samples)
        report = evaluate_model(model, samples, 0.25)
        assert miou == pytest.approx(report["miou_samples"])

    def test_empty_or_modelless_evaluation_rejected(self):
        samples = small_dataset(3, seed=14)
        with pytest.raises(EmptyBatch):
            evaluate_model(FusionModel(ModelConfig()), [], 0.25)
        with pytest.raises(ConfigError, match="^evaluate_model needs a model or explicit predictions$"):
            evaluate_model(None, samples, 0.25)

    def test_mismatched_predictions_rejected(self):
        samples = small_dataset(3, seed=14)
        with pytest.raises(ConfigError):
            evaluate_model(None, samples, 0.25, predictions=[samples[0].gt_box])

    def test_held_out_categories_evaluate(self):
        # open-set style check: categories absent from training still get
        # features (embeddings are category-hashed) and their own table rows
        records, features = synth_scenes(
            12, {"wheelchair": 0.5, "stroller": 0.5}, seed=15
        )
        samples = build_training_samples(records, {f.sample_id: f for f in features})
        model = FusionModel(ModelConfig(seed=8))
        report = evaluate_model(model, samples, 0.25)
        assert set(r["category"] for r in report["categories"]) <= {"wheelchair", "stroller"}
        assert 0.0 <= report["miou_categories"] <= 1.0

    @staticmethod
    def matched_report(predictions, samples, threshold):
        """`reference_report` of the per-sample IoUs, whose hits must be those
        of one 1x1 `match_predictions` per sample."""
        ious, tp = [], 0
        for pred, s in zip(predictions, samples):
            counts, _ = match_predictions([(pred, s.category)], [(s.gt_box, s.category)], threshold)
            tp += counts.tp
            ious.append(iou_3d(pred, s.gt_box).iou)
        report = reference_report(zip((s.category for s in samples), ious), threshold)
        assert report["counts"]["tp"] == tp
        return report

    def test_report_equals_per_sample_matching(self):
        samples = small_dataset(60, seed=16)
        rng = np.random.default_rng(17)
        predictions = []
        for s in samples:
            params = s.gt_box.params() + rng.normal(0.0, 1.0, 7) * [0.3, 0.3, 0.1, 0.2, 0.1, 0.1, 0.3]
            params[3:6] = np.abs(params[3:6]) + 0.05
            predictions.append(Box7(*params))
        ious = sorted(iou_3d(p, s.gt_box).iou for p, s in zip(predictions, samples))
        tie = ious[len(ious) // 2]  # a threshold some sample's IoU equals exactly
        assert 0.0 < tie < 1.0 and ious.count(0.0) > 0
        for threshold in (0.25, 0.5, tie, math.nextafter(tie, 1.0)):
            got = evaluate_model(None, samples, threshold, predictions=predictions)
            assert got == self.matched_report(predictions, samples, threshold)
        at_tie = evaluate_model(None, samples, tie, predictions=predictions)["counts"]["tp"]
        above = evaluate_model(None, samples, math.nextafter(tie, 1.0), predictions=predictions)
        assert at_tie == above["counts"]["tp"] + ious.count(tie)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        samples = small_dataset(3, seed=18)
        with pytest.raises(ValueError, match=r"iou_threshold must be in \(0, 1\)"):
            evaluate_model(None, samples, threshold, predictions=[s.gt_box for s in samples])


class TestValidationOnRowsEqualsBoxes:
    """`validation_miou` and `evaluate_model` take the model's predictions as
    rows. They must equal the per-sample `iou_3d` of the Box7s built from the
    same outputs, summed in the same order, bit for bit, also where the raw
    yaw lies turns outside (-pi, pi] and is wrapped."""

    @pytest.mark.parametrize("yaw_turns", [0, 3, -2])
    def test_equals_iou_3d_over_predicted_boxes(self, yaw_turns):
        train, val = small_dataset(64, seed=31), small_dataset(48, seed=32)
        model = FusionModel(ModelConfig(seed=3))
        sched = LossSchedule(transition_epoch=20, total_epochs=24, stage1_lr=2e-3, stage2_lr=5e-5)
        run_training(model, train, sched, seed=3)
        model.params["head.out.b"][6] += 2.0 * math.pi * yaw_turns
        raws = model.forward_batch(np.stack([s.fused for s in val]))
        boxes = [Box7(*row) for row in box_params_from_raw(raws).tolist()]
        ious = [iou_3d(box, s.gt_box).iou for box, s in zip(boxes, val)]
        expected = sum(ious) / len(val)

        assert validation_miou(model, val).hex() == expected.hex()
        report = evaluate_model(model, val, 0.25)
        assert report["miou_samples"].hex() == expected.hex()
        assert report == evaluate_model(None, val, 0.25, predictions=boxes)
        assert sum(0.0 < v < 1.0 for v in ious) >= len(val) // 2
        if yaw_turns:
            assert not (np.abs(raws[:, 6]) <= math.pi).any()


class TestOneClipPerPair:
    """Each training pair is clipped at most once per batch (its IoU serves the
    logged loss, the degeneracy check and the gradient) and each validation
    pair at most once per epoch, in both stages; the gradient runs its own
    tagged passes, not `rectangle_clip`.
    Every stage-2 pair reaches iou_loss_grad, whose answer on the trainer's
    rows and IoU is the one it gives on the Box7s."""

    def test_no_pair_is_clipped_twice_per_forward(self, monkeypatch):
        train, val = small_dataset(64, seed=35), small_dataset(24, seed=36)
        model = FusionModel(ModelConfig(seed=5))
        # stage 1 until most predictions overlap their ground truth, not counted
        pretrain = LossSchedule(transition_epoch=20, total_epochs=21, stage1_lr=2e-3, stage2_lr=5e-5)
        run_training(model, train, pretrain, seed=5)

        segments = []  # per forward: its row count and the operands of each clip after it
        grads = []  # per gradient call: its arguments
        forward, clip = model.forward_batch, minidet3d.iou.rectangle_clip

        def counted_forward(F):
            segments.append((len(F), []))
            return forward(F)

        def counted_clip(poly, hl, hw):
            segments[-1][1].append((tuple(poly), hl, hw))
            return clip(poly, hl, hw)

        def recorded_grad(*args):
            clips = len(segments[-1][1])
            grads.append(args)
            try:
                return iou_loss_grad(*args)
            finally:
                assert len(segments[-1][1]) == clips

        monkeypatch.setattr(model, "forward_batch", counted_forward)
        monkeypatch.setattr(minidet3d.iou, "rectangle_clip", counted_clip)
        monkeypatch.setattr(minidet3d.train, "iou_loss_grad", recorded_grad)
        sched = LossSchedule(transition_epoch=1, total_epochs=3, stage1_lr=5e-5, stage2_lr=5e-5)
        history = run_training(model, train, sched, seed=6, batch_size=16, val_samples=val)
        monkeypatch.undo()

        # per epoch: four training batches of 16, then one validation forward of 24
        assert [rows for rows, _ in segments] == [16, 16, 16, 16, 24] * 3
        for rows, clips in segments:
            assert len(set(clips)) == len(clips) <= rows
        stage2_clips = sum(len(clips) for rows, clips in segments[5:] if rows == 16)
        assert stage2_clips >= 64 and history[-1].skipped_iou_grads < 32
        assert len(grads) == 2 * len(train)
        skipped = 0
        for p, g, *rest in grads:
            expected = grad_outcome(Box7(*p), Box7(*g))
            assert grad_outcome(p, g, *rest) == expected
            skipped += not isinstance(expected, bytes)
        assert skipped == history[1].skipped_iou_grads + history[2].skipped_iou_grads
        # the validation mIoU inside run_training equals the one validation_miou makes
        assert history[-1].val_miou.hex() == validation_miou(model, val).hex()
