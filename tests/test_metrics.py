import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from minidet3d.errors import EmptyBatch
from minidet3d.geom import Box7
from minidet3d.iou import iou_3d
from minidet3d.metrics import (
    ConfusionCounts,
    accuracy,
    aggregate_by_category,
    f1,
    match_predictions,
    miou_categories,
    miou_samples,
    precision,
    recall,
    report_csv,
    report_dict,
)

from oracles import match_optimal_bruteforce, reference_match_predictions

# Per-category IoU, training-set column of the published results table.
TRAINING_CATEGORY_IOUS = [
    ("car", 0.2354),
    ("adult", 0.2469),
    ("trafficcone", 0.2412),
    ("truck", 0.2180),
    ("barrier", 0.2429),
    ("construction", 0.2145),
    ("pushable_pullable", 0.1839),
    ("rigid", 0.2383),
    ("construction_worker", 0.2869),
    ("motorcycle", 0.2469),
    ("bicycle", 0.2224),
    ("trailer", 0.2177),
    ("bicycle_rack", 0.2002),
    ("child", 0.2071),
    ("bendy", 0.2485),
    ("wheelchair", 0.2997),
]
TEST_CATEGORY_IOUS = [
    ("car", 0.2275),
    ("adult", 0.2521),
    ("trafficcone", 0.2109),
    ("truck", 0.1968),
    ("barrier", 0.2353),
    ("construction", 0.1721),
    ("pushable_pullable", 0.2803),
    ("rigid", 0.2086),
    ("construction_worker", 0.2674),
    ("motorcycle", 0.2187),
    ("bicycle", 0.2189),
    ("trailer", 0.1384),
    ("bicycle_rack", 0.2270),
    ("child", 0.2822),
    ("bendy", 0.2451),
    ("wheelchair", 0.2301),
]


def box_at(x, y=0.0, l=2.0, w=1.0, yaw=0.0):
    return Box7(x, y, 0.0, l, w, 1.0, yaw)


def random_instance(rng, max_side=5):
    """Detection-like instance: ground truths plus noisy/spurious predictions."""
    n_gt = int(rng.integers(0, max_side + 1))
    cats = ["car", "adult"]
    gts = []
    for _ in range(n_gt):
        gts.append(
            (
                Box7(*rng.uniform(-6, 6, 2), 0.0, *rng.uniform(0.8, 3.0, 2), 1.0,
                     rng.uniform(-math.pi, math.pi)),
                cats[int(rng.integers(2))],
            )
        )
    preds = []
    for gbox, gcat in gts:
        if rng.random() < 0.75:  # detected, with localization noise
            preds.append(
                (
                    Box7(
                        gbox.x + rng.normal(0, 0.4),
                        gbox.y + rng.normal(0, 0.4),
                        0.0,
                        max(0.3, gbox.l * (1 + rng.normal(0, 0.15))),
                        max(0.3, gbox.w * (1 + rng.normal(0, 0.15))),
                        1.0,
                        gbox.yaw + rng.normal(0, 0.2),
                    ),
                    gcat,
                )
            )
    while len(preds) < int(rng.integers(0, max_side + 1)):  # spurious
        preds.append(
            (
                Box7(*rng.uniform(-6, 6, 2), 0.0, *rng.uniform(0.8, 3.0, 2), 1.0,
                     rng.uniform(-math.pi, math.pi)),
                cats[int(rng.integers(2))],
            )
        )
    return preds[:max_side], gts


class TestMatching:
    def test_exact_predictions(self):
        gts = [(box_at(0), "car"), (box_at(5), "adult"), (box_at(10), "car")]
        counts, matched = match_predictions(list(gts), list(gts), 0.25)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (3, 0, 0, 0)
        assert matched == [1.0, 1.0, 1.0]

    def test_no_predictions(self):
        gts = [(box_at(0), "car"), (box_at(5), "car")]
        counts, matched = match_predictions([], gts, 0.25)
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 2)
        assert matched == []

    def test_two_predictions_one_gt(self):
        gt = [(box_at(0), "car")]
        preds = [(box_at(0.1), "car"), (box_at(-0.1), "car")]
        counts, matched = match_predictions(preds, gt, 0.25)
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 0)
        assert len(matched) == 1

    def test_category_gate(self):
        counts, _ = match_predictions([(box_at(0), "adult")], [(box_at(0), "car")], 0.25)
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_below_threshold_not_matched(self):
        counts, _ = match_predictions([(box_at(1.9), "car")], [(box_at(0), "car")], 0.25)
        assert counts.tp == 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds, gts = random_instance(rng)
        base, base_matched = match_predictions(preds, gts, 0.25)
        for seed in range(3):
            order_p = np.random.default_rng(seed).permutation(len(preds))
            order_g = np.random.default_rng(seed + 10).permutation(len(gts))
            shuffled, matched = match_predictions(
                [preds[i] for i in order_p], [gts[i] for i in order_g], 0.25
            )
            assert shuffled == base
            assert sorted(matched) == sorted(base_matched)

    def test_swapping_sides_swaps_fp_fn(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            preds, gts = random_instance(rng)
            a, _ = match_predictions(preds, gts, 0.25)
            b, _ = match_predictions(gts, preds, 0.25)
            assert (a.tp, a.fp, a.fn) == (b.tp, b.fn, b.fp)

    def test_greedy_equals_bruteforce_on_small_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            preds, gts = random_instance(rng, max_side=5)
            greedy, g_matched = match_predictions(preds, gts, 0.25)
            optimal, o_matched = match_optimal_bruteforce(preds, gts, 0.25)
            assert greedy == optimal
            assert sorted(g_matched) == pytest.approx(sorted(o_matched))


class TestScalarMetrics:
    def test_accuracy(self):
        assert accuracy(ConfusionCounts(1, 1, 0, 0)) == 1.0
        assert accuracy(ConfusionCounts(0, 0, 1, 1)) == 0.0
        assert accuracy(ConfusionCounts(3, 0, 1, 2)) == 0.5

    def test_accuracy_empty(self):
        assert accuracy(ConfusionCounts(0, 0, 0, 0)) == 0.0

    def test_recall(self):
        assert recall(ConfusionCounts(5, 0, 3, 0)) == 1.0
        assert recall(ConfusionCounts(0, 0, 3, 5)) == 0.0
        assert recall(ConfusionCounts(2, 0, 0, 3)) == pytest.approx(0.4)

    def test_recall_no_positives(self):
        assert recall(ConfusionCounts(0, 1, 1, 0)) == 0.0

    def test_f1(self):
        assert f1(0.6, 0.6) == pytest.approx(0.6)
        assert f1(1.0, 0.0) == 0.0
        assert f1(0.5, 1.0) == pytest.approx(2.0 / 3.0)
        assert f1(0.0, 0.0) == 0.0

    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_f1_between_min_and_arithmetic_mean(self, p, r):
        value = f1(p, r)
        assert min(p, r) - 1e-12 <= value <= (p + r) / 2 + 1e-12

    def test_metrics_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = ConfusionCounts(*(int(v) for v in rng.integers(0, 20, 4)))
            if c.total:
                assert 0 <= accuracy(c) <= 1
            if c.tp + c.fn:
                assert 0 <= recall(c) <= 1
            assert 0 <= f1(precision(c), recall(c) if c.tp + c.fn else 0.0) <= 1


class TestMiou:
    def test_all_ones(self):
        assert miou_samples([1.0] * 7) == 1.0

    def test_half(self):
        assert miou_samples([0.0, 1.0]) == 0.5

    def test_empty(self):
        with pytest.raises(EmptyBatch):
            miou_samples([])

    def test_single_category(self):
        table = miou_categories([("car", 0.5, 10)])
        assert table.miou == 0.5

    def test_unweighted_regardless_of_counts(self):
        table = miou_categories([("a", 1.0, 1000), ("b", 0.0, 1)])
        assert table.miou == 0.5

    def test_row_order_invariance(self):
        rows = [("a", 0.2, 1), ("b", 0.4, 2), ("c", 0.9, 3)]
        assert miou_categories(rows).miou == miou_categories(rows[::-1]).miou

    def test_published_training_table(self):
        rows = [(c, v, 1) for c, v in TRAINING_CATEGORY_IOUS]
        table = miou_categories(rows)
        assert abs(table.miou - 0.2344) <= 0.0015

    def test_published_test_table(self):
        rows = [(c, v, 1) for c, v in TEST_CATEGORY_IOUS]
        assert abs(miou_categories(rows).miou - 0.2257) <= 0.0015

    def test_published_training_rows_as_samples(self):
        values = [v for _, v in TRAINING_CATEGORY_IOUS]
        assert abs(miou_samples(values) - 0.2344) <= 0.0015

    def test_empty_table(self):
        with pytest.raises(EmptyBatch, match="^miou_categories requires at least one category$"):
            miou_categories([])

    def test_aggregate_by_category(self):
        rows = aggregate_by_category(
            [("car", 0.2), ("car", 0.4), ("adult", 0.6)]
        )
        assert rows == [("adult", 0.6, 1), ("car", pytest.approx(0.3), 2)]


class TestReport:
    def test_csv_has_category_and_summary_rows(self):
        table = miou_categories([("car", 0.25, 3), ("adult", 0.5, 2)])
        report = report_dict(table, 0.4, ConfusionCounts(3, 0, 1, 2), 0.25)
        csv_text = report_csv(report)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "category,iou,count"
        assert any(line.startswith("car,") for line in lines)
        assert any(line.startswith("mIoU_categories,") for line in lines)
        assert any(line.startswith("recall,") for line in lines)

    def test_report_values(self):
        table = miou_categories([("car", 0.25, 3)])
        report = report_dict(table, 0.25, ConfusionCounts(3, 0, 1, 2), 0.25)
        assert report["accuracy"] == pytest.approx(0.5)
        assert report["recall"] == pytest.approx(0.6)
        assert report["precision"] == pytest.approx(0.75)
        assert report["f1"] == pytest.approx(2 * 0.75 * 0.6 / 1.35)


class TestMatchingEqualsPerPairReference:
    """`match_predictions` takes each box's row and footprint once; its counts
    and matched IoUs must equal the greedy matcher that calls `iou_3d` on
    every same-category pair, bit for bit."""

    @staticmethod
    def crowded_frame(rng, n):
        """n ground truths within 3 m, jittered predictions (a fifth with a
        wrong category) and exact duplicates on both sides, so that equal IoUs
        compete and ties break by index."""
        cats = ["car", "adult", "trafficcone"]
        gts = []
        for _ in range(n):
            box = Box7(*rng.uniform(-3, 3, 2), rng.uniform(-0.2, 0.2), *rng.uniform(0.5, 3.0, 2),
                       rng.uniform(0.8, 1.6), rng.uniform(-math.pi, math.pi))
            gts.append((box, cats[int(rng.integers(3))]))
        preds = []
        for b, c in gts:
            dx, dy = rng.normal(0.0, 0.3, 2)
            box = Box7(b.x + dx, b.y + dy, b.z, b.l * rng.uniform(0.8, 1.2), b.w, b.h,
                       b.yaw + rng.normal(0.0, 0.2))
            preds.append((box, cats[int(rng.integers(3))] if rng.random() < 0.2 else c))
        preds += [preds[0], gts[1], gts[1]]
        gts += [gts[1], (gts[2][0], "bicycle")]
        return preds, gts

    def test_equals_the_per_pair_iou_3d_greedy_reference(self):
        rng = np.random.default_rng(41)
        ties = mismatched = tied_matches = 0
        for _ in range(80):
            preds, gts = self.crowded_frame(rng, int(rng.integers(4, 13)))
            ious = [iou_3d(p, g).iou for p, pc in preds for g, gc in gts if pc == gc]
            ious = [v for v in ious if v > 0.0]
            ties += len(ious) - len(set(ious))
            mismatched += sum(pc != gc and iou_3d(p, g).iou >= 0.25
                              for p, pc in preds for g, gc in gts)
            for threshold in (0.25, 0.5, min(ious), math.nextafter(min(ious), 1.0)):
                got = match_predictions(preds, gts, threshold)
                assert got == reference_match_predictions(preds, gts, threshold)
                assert [m.hex() for m in got[1]] == [
                    m.hex() for m in reference_match_predictions(preds, gts, threshold)[1]]
                tied_matches += got[1].count(1.0) >= 2
        assert ties >= 400 and mismatched >= 200 and tied_matches == 4 * 80
