import re

import numpy as np
import pytest

from minidet3d.errors import EmptyBatch, ShapeMismatch
from minidet3d.losses import LossSchedule, schedule_weights
from minidet3d.model import FusionModel, ModelConfig


class TestSemanticLoss:
    """`FusionModel.semantic_loss`: the stage-1 loss of box-parameter rows and its gradient."""

    B, WEIGHT = 5, 0.2

    @pytest.fixture(scope="class")
    def model(self):
        return FusionModel(ModelConfig(seed=3))

    def rows(self, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(self.B, 7)), rng.normal(size=(self.B, 7))

    def test_value_is_the_mean_squared_feature_distance(self, model):
        pred, gt = self.rows(0)
        W = model.params["semantic.W"]
        oracle = np.mean([np.sum(((p - g) @ W.T) ** 2) for p, g in zip(pred, gt)])
        loss, _ = model.semantic_loss(pred, gt, self.WEIGHT)
        assert loss == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_gradient_matches_central_differences_of_the_weighted_loss(self, model):
        pred, gt = self.rows(1)
        _, grad = model.semantic_loss(pred, gt, self.WEIGHT)
        h, fd = 1e-4, np.empty_like(pred)
        for index in np.ndindex(pred.shape):
            plus, minus = pred.copy(), pred.copy()
            plus[index] += h
            minus[index] -= h
            fd[index] = self.WEIGHT * (model.semantic_loss(plus, gt, 1.0)[0]
                                       - model.semantic_loss(minus, gt, 1.0)[0]) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-7, atol=0.0)

    def test_zero_exactly_at_the_truth_and_positive_elsewhere(self, model):
        assert np.linalg.matrix_rank(model.params["semantic.W"]) == 7
        pred, gt = self.rows(2)
        loss, grad = model.semantic_loss(gt.copy(), gt, self.WEIGHT)
        assert loss == 0.0 and not grad.any()
        assert model.semantic_loss(pred, gt, self.WEIGHT)[0] > 0.0
        one_off = gt.copy()
        one_off[3, 6] += 1e-3
        assert model.semantic_loss(one_off, gt, self.WEIGHT)[0] > 0.0

    def test_row_permutation_leaves_the_loss_and_permutes_the_gradient(self, model):
        pred, gt = self.rows(3)
        perm = [3, 1, 4, 0, 2]
        loss, grad = model.semantic_loss(pred, gt, self.WEIGHT)
        loss_p, grad_p = model.semantic_loss(pred[perm], gt[perm], self.WEIGHT)
        assert loss_p == pytest.approx(loss, rel=1e-15)
        np.testing.assert_allclose(grad_p, grad[perm], rtol=1e-15)

    def test_shapes_checked(self, model):
        with pytest.raises(ShapeMismatch, match=r"^expected equal \(B, 7\) batches, got "
                                                r"\(1, 7\) vs \(2, 7\)$"):
            model.semantic_loss(np.zeros((1, 7)), np.zeros((2, 7)), 1.0)
        for shape in ((3, 6), (7,), (2, 7, 1)):
            with pytest.raises(ShapeMismatch):
                model.semantic_loss(np.zeros(shape), np.zeros(shape), 1.0)

    def test_empty_batch(self, model):
        with pytest.raises(EmptyBatch, match="^semantic_loss requires at least one pair$"):
            model.semantic_loss(np.zeros((0, 7)), np.zeros((0, 7)), 1.0)


class TestSchedule:
    def test_defaults_match_two_stage_regime(self):
        s = LossSchedule()
        assert schedule_weights(s, 10) == (1.0, 0.0, 1e-4)
        assert schedule_weights(s, 60) == (0.2, 0.8, 1e-5)

    def test_transition_boundary(self):
        s = LossSchedule()
        assert schedule_weights(s, 50) == (1.0, 0.0, 1e-4)
        assert schedule_weights(s, 51) == (0.2, 0.8, 1e-5)

    def test_step_function_constant_within_stage(self):
        s = LossSchedule(transition_epoch=5, total_epochs=12)
        stage1 = {schedule_weights(s, e) for e in range(1, 6)}
        stage2 = {schedule_weights(s, e) for e in range(6, 13)}
        assert len(stage1) == 1 and len(stage2) == 1

    def test_epoch_out_of_range(self):
        s = LossSchedule()
        with pytest.raises(ValueError, match=r"^epoch 0 outside \[1, 100\]$"):
            schedule_weights(s, 0)
        with pytest.raises(ValueError, match=r"^epoch 101 outside \[1, 100\]$"):
            schedule_weights(s, 101)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^transition_epoch: 100 must lie in \[1, "
                                             r"total_epochs 100\)$"):
            LossSchedule(transition_epoch=100, total_epochs=100)
        with pytest.raises(ValueError, match="^stage1_lr: must be positive, got 0.0$"):
            LossSchedule(stage1_lr=0.0)
        with pytest.raises(ValueError, match=r"^stage1_weights: must be two non-negative"):
            LossSchedule(stage1_weights=(-1.0, 0.0))

    @pytest.mark.parametrize("field, value", [
        ("stage1_lr", float("nan")), ("stage2_lr", float("inf")),
        ("stage1_weights", (float("nan"), 0.0)), ("stage2_weights", (0.2, float("inf")))])
    def test_non_finite_values_are_refused_naming_the_field(self, field, value):
        # accepted, training would fail epochs later with a DivergenceError that blames the model
        with pytest.raises(ValueError, match=f"^{field}: must be finite, got {re.escape(str(value))}$"):
            LossSchedule(**{field: value})
