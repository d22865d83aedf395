"""Detection matching and the evaluation metric suite.

Matching is greedy one-to-one in descending IoU order among same-category
pairs whose IoU clears the threshold; matched pairs are true positives,
leftover predictions false positives, leftover ground truths false
negatives; each box's footprint is computed once per call, not per pair.
Detection has no countable true negatives, so TN is fixed at 0 and accuracy
degenerates to TP / (TP + FP + FN).

Mean IoU comes in two conventions, both provided: the mean over samples and
the unweighted mean over per-category means.
`check_report` reads a report back under errors.check_keys (`counts` and
`iou_threshold` may be left out) and errors.check_json_value.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import EmptyBatch, EmptyCounts, EmptyTable, NoPositives, ParseError
from .errors import check_json_value, check_keys
from .geom import Box7
from .iou import bev_footprint, iou_3d

DEFAULT_IOU_THRESHOLD = 0.25


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def check_iou_threshold(iou_threshold: float) -> None:
    """ValueError unless the matching threshold lies in (0, 1)."""
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")


def match_predictions(
    preds: list[tuple[Box7, str]],
    gts: list[tuple[Box7, str]],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> tuple[ConfusionCounts, list[float]]:
    """Greedy same-category matching; returns counts and matched IoUs.

    Only pairs at or above the threshold are eligible. Ties in IoU break
    deterministically by input index, so results are reproducible but
    permutation-invariant in the counts.
    """
    check_iou_threshold(iou_threshold)
    ps, gs = ([(b, bev_footprint(b), c) for b, c in boxes] for boxes in (preds, gts))
    candidates = []
    for i, (pbox, pfoot, pcat) in enumerate(ps):
        for j, (gbox, gfoot, gcat) in enumerate(gs):
            if pcat != gcat:
                continue
            iou = iou_3d(pbox, gbox, pfoot, gfoot).iou
            if iou >= iou_threshold:
                candidates.append((iou, i, j))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    used_p, used_g = set(), set()
    matched = []
    for iou, i, j in candidates:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        matched.append(iou)
    tp = len(matched)
    return ConfusionCounts(tp=tp, tn=0, fp=len(preds) - tp, fn=len(gts) - tp), matched


def accuracy(c: ConfusionCounts) -> float:
    """(TP + TN) / total; with TN = 0 this is TP / (TP + FP + FN)."""
    if c.total == 0:
        raise EmptyCounts("accuracy undefined for all-zero counts")
    return (c.tp + c.tn) / c.total


def recall(c: ConfusionCounts) -> float:
    if c.tp + c.fn == 0:
        raise NoPositives("recall undefined without positive ground truth")
    return c.tp / (c.tp + c.fn)


def precision(c: ConfusionCounts) -> float:
    """TP / (TP + FP); 0 when there are no predictions at all."""
    if c.tp + c.fp == 0:
        return 0.0
    return c.tp / (c.tp + c.fp)


def f1(precision_value: float, recall_value: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision_value + recall_value == 0:
        return 0.0
    return 2.0 * precision_value * recall_value / (precision_value + recall_value)


def miou_samples(ious) -> float:
    """Mean IoU across samples."""
    ious = list(ious)
    if not ious:
        raise EmptyBatch("miou_samples requires at least one IoU")
    return sum(ious) / len(ious)


@dataclass(frozen=True)
class CategoryIoUTable:
    rows: tuple[tuple[str, float, int], ...]  # (category, mean IoU, instance count)
    miou: float  # unweighted mean over categories


def aggregate_by_category(instances) -> list[tuple[str, float, int]]:
    """Collapse per-instance (category, iou) pairs into per-category rows."""
    sums: dict[str, list[float]] = {}
    for category, iou in instances:
        sums.setdefault(category, []).append(iou)
    return [(cat, sum(v) / len(v), len(v)) for cat, v in sorted(sums.items())]


def miou_categories(rows) -> CategoryIoUTable:
    """Unweighted per-category mean IoU table.

    `rows` are (category, mean IoU, instance count) triples; the overall
    value averages category means with equal weight regardless of counts.
    """
    rows = [(str(c), float(v), int(n)) for c, v, n in rows]
    if not rows:
        raise EmptyTable("miou_categories requires at least one category")
    for c, v, n in rows:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"category {c!r} IoU {v} outside [0, 1]")
    overall = sum(v for _, v, _ in rows) / len(rows)
    return CategoryIoUTable(tuple(rows), overall)


# ---- report rendering --------------------------------------------------------


def report_dict(
    table: CategoryIoUTable,
    sample_miou: float,
    counts: ConfusionCounts,
    iou_threshold: float,
) -> dict:
    p = precision(counts)
    try:
        r = recall(counts)
    except NoPositives:
        r = 0.0
    try:
        acc = accuracy(counts)
    except EmptyCounts:
        acc = 0.0
    return {
        "iou_threshold": iou_threshold,
        "counts": {"tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn},
        "accuracy": acc,
        "precision": p,
        "recall": r,
        "f1": f1(p, r),
        "miou_samples": sample_miou,
        "miou_categories": table.miou,
        "categories": [
            {"category": c, "iou": v, "count": n} for c, v, n in table.rows
        ],
    }


# The fields the renderings read, each with a default of its JSON type.
_REPORT_ROW = {"category": "", "iou": 0.0, "count": 0}
_REPORT_NUMBERS = dict.fromkeys(
    ("miou_categories", "miou_samples", "accuracy", "precision", "recall", "f1"), 0.0
)


def _check_fields(obj, defaults: dict, where: str, keys=(), optional=()) -> None:
    check_keys(obj, (*keys, *defaults), where, ParseError, optional)
    for key, default in defaults.items():
        check_json_value(obj[key], default, f"{where}.{key}", ParseError)


def check_report(report) -> None:
    """ParseError naming the field path (`report.categories[2].iou`) unless
    every field the renderings read is there with its type, every number is
    finite, and no object holds a key that `report_dict` does not write."""
    _check_fields(report, _REPORT_NUMBERS, "report", ("categories",), ("counts", "iou_threshold"))
    if not isinstance(report["categories"], list):
        raise ParseError("report.categories", "must be a list")
    for i, row in enumerate(report["categories"]):
        _check_fields(row, _REPORT_ROW, f"report.categories[{i}]")


def report_csv(report: dict) -> str:
    """CSV rendering: per-category rows, then summary rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["category", "iou", "count"])
    for row in report["categories"]:
        writer.writerow([row["category"], f"{row['iou']:.6f}", row["count"]])
    writer.writerow(["mIoU_categories", f"{report['miou_categories']:.6f}", ""])
    writer.writerow(["mIoU_samples", f"{report['miou_samples']:.6f}", ""])
    for key in ("accuracy", "precision", "recall", "f1"):
        writer.writerow([key, f"{report[key]:.6f}", ""])
    return buf.getvalue()


def report_json(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True)
