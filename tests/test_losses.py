import numpy as np
import pytest
from hypothesis import given, strategies as st

from minidet3d.errors import EmptyBatch, ShapeMismatch
from minidet3d.losses import LossSchedule, combined_loss, mse_semantic_loss, schedule_weights


class TestMseSemanticLoss:
    def test_identical_features(self):
        f = [np.ones(128), np.zeros(128)]
        assert mse_semantic_loss(f, [x.copy() for x in f]) == 0.0

    def test_unit_basis_difference(self):
        gt = np.zeros(128)
        pred = np.zeros(128)
        pred[17] = 1.0
        assert mse_semantic_loss([pred], [gt]) == 1.0

    def test_mean_over_batch_only(self):
        # squared norms 1.0 and 3.0 average to 2.0
        gt = [np.zeros(4), np.zeros(4)]
        pred = [np.array([1.0, 0, 0, 0]), np.array([1.0, 1.0, 1.0, 0])]
        assert mse_semantic_loss(pred, gt) == pytest.approx(2.0)

    def test_sums_over_feature_dims(self):
        gt = [np.zeros(4)]
        pred = [np.array([2.0, 0, 0, 0])]
        assert mse_semantic_loss(pred, gt) == 4.0

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred = [rng.normal(size=16) for _ in range(5)]
        gt = [rng.normal(size=16) for _ in range(5)]
        forward = mse_semantic_loss(pred, gt)
        assert mse_semantic_loss(gt, pred) == pytest.approx(forward)
        perm = [3, 1, 4, 0, 2]
        assert mse_semantic_loss([pred[i] for i in perm], [gt[i] for i in perm]) == pytest.approx(
            forward
        )

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        pred = [rng.normal(size=8) for _ in range(4)]
        gt = [rng.normal(size=8) for _ in range(4)]
        assert mse_semantic_loss(pred, gt) > 0
        assert mse_semantic_loss(pred, pred) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch, match="^1 predictions vs 2 ground truths$"):
            mse_semantic_loss([np.zeros(4)], [np.zeros(4), np.zeros(4)])
        with pytest.raises(ShapeMismatch, match=r"^expected two equal \(B, D\) batches, got "
                                                r"\(1, 4\) vs \(1, 5\)$"):
            mse_semantic_loss([np.zeros(4)], [np.zeros(5)])

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            mse_semantic_loss([], [])


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


class TestCombinedLoss:
    def test_stage1_weighting(self):
        assert combined_loss(5.0, 0.4, 1.0, 0.0) == 5.0

    def test_stage2_weighting(self):
        assert combined_loss(5.0, 0.4, 0.2, 0.8) == pytest.approx(1.32)

    def test_zero(self):
        assert combined_loss(0.0, 0.0, 1.0, 0.8) == 0.0

    def test_stage1_independent_of_iou(self):
        assert combined_loss(3.0, 0.1, 1.0, 0.0) == combined_loss(3.0, 0.9, 1.0, 0.0)

    @given(
        st.floats(0, 100),
        st.floats(0, 1),
        st.floats(0, 100),
        st.floats(0, 1),
        st.floats(0, 10),
        st.floats(0, 10),
    )
    def test_monotone_in_each_loss(self, mse, iou, dm, di, l1, l2):
        base = combined_loss(mse, iou, l1, l2)
        assert combined_loss(mse + dm, iou, l1, l2) >= base
        assert combined_loss(mse, min(iou + di, 1.0), l1, l2) >= base
