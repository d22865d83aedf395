"""Detection matching and the evaluation report.

Matching is greedy one-to-one in descending IoU order among same-category
pairs whose IoU clears the threshold; matched pairs are true positives,
leftover predictions false positives, leftover ground truths false
negatives.

`report_dict` builds the whole eval report from each sample's (category,
IoU): the hit rule, the counts, accuracy, precision, recall and F1, and
mean IoU in both conventions, the mean over samples and the unweighted mean
over the per-category means of `category_means`. Detection has no countable
true negatives, so TN is fixed at 0 and accuracy is TP / (TP + FP + FN).
`check_report` reads a report back under errors.check_keys (`counts` and
`iou_threshold` may be left out) and errors.check_json_value, and checks
each value's range as `report_dict` writes it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import EmptyBatch, ParseError, check_json_value, check_keys
from .geom import Box7
from .iou import iou_3d

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
    candidates = []
    for i, (pbox, pcat) in enumerate(preds):
        for j, (gbox, gcat) in enumerate(gts):
            if pcat != gcat:
                continue
            iou = iou_3d(pbox, gbox).iou
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


def miou_samples(ious) -> float:
    """Mean IoU across samples."""
    ious = list(ious)
    if not ious:
        raise EmptyBatch("miou_samples requires at least one IoU")
    return sum(ious) / len(ious)


def category_means(instances) -> list[tuple[str, float, int]]:
    """(category, mean, count) rows of (category, value) pairs, sorted by
    category; each mean is its values' sum, in input order, over their count."""
    by_category: dict[str, list[float]] = {}
    for category, value in instances:
        by_category.setdefault(category, []).append(value)
    return [(c, sum(v) / len(v), len(v)) for c, v in sorted(by_category.items())]


# ---- report rendering --------------------------------------------------------


def report_dict(instances, iou_threshold: float) -> dict:
    """The eval report of each sample's (category, IoU), in sample order.

    A sample is a true positive iff its IoU reaches the threshold (ties count
    as hits, as in `match_predictions`), and a false positive plus a false
    negative otherwise, so FP = FN and TN = 0. With at least one sample,
    F1's is the only denominator that can be 0 (no hit), and F1 is then 0.
    EmptyBatch if there is no sample.
    """
    instances = list(instances)
    if not instances:
        raise EmptyBatch("report_dict requires at least one sample")
    tp = sum(iou >= iou_threshold for _, iou in instances)
    fp = fn = len(instances) - tp
    p, r = tp / (tp + fp), tp / (tp + fn)
    rows = category_means(instances)
    return {
        "iou_threshold": iou_threshold,
        "counts": {"tp": tp, "tn": 0, "fp": fp, "fn": fn},
        "accuracy": tp / (tp + fp + fn),
        "precision": p,
        "recall": r,
        "f1": 2.0 * p * r / (p + r) if tp else 0.0,
        "miou_samples": miou_samples(iou for _, iou in instances),
        "miou_categories": sum(v for _, v, _ in rows) / len(rows),
        "categories": [{"category": c, "iou": v, "count": n} for c, v, n in rows],
    }


# The fields of a report, each with a default of its JSON type. Every float
# among them is an IoU or a rate, in [0, 1]; every integer is a count.
_REPORT_ROW = {"category": "", "iou": 0.0, "count": 0}
_REPORT_NUMBERS = dict.fromkeys(
    ("miou_categories", "miou_samples", "accuracy", "precision", "recall", "f1"), 0.0
)
_REPORT_COUNTS = dict.fromkeys(("tp", "tn", "fp", "fn"), 0)


def _check_fields(obj, defaults: dict, where: str, keys=(), optional=()) -> None:
    check_keys(obj, (*keys, *defaults), where, ParseError, optional)
    for key, default in defaults.items():
        value = obj[key]
        check_json_value(value, default, f"{where}.{key}", ParseError)
        if isinstance(default, float) and not 0.0 <= value <= 1.0:
            raise ParseError(f"{where}.{key}", f"must be in [0, 1], got {json.dumps(value)}")
        if isinstance(default, int) and value < 0:
            raise ParseError(f"{where}.{key}", f"must be >= 0, got {json.dumps(value)}")


def check_report(report) -> None:
    """ParseError naming the field path (`report.categories[2].iou`) unless
    every field the renderings read is there with its type, every number is
    finite and in its range (an IoU or a rate in [0, 1], a count >= 0), no
    object holds a key that `report_dict` does not write, and `counts` and
    `iou_threshold`, where present, are four counts and a number in (0, 1)."""
    _check_fields(report, _REPORT_NUMBERS, "report", ("categories",), ("counts", "iou_threshold"))
    if not isinstance(report["categories"], list):
        raise ParseError("report.categories", "must be a list")
    for i, row in enumerate(report["categories"]):
        _check_fields(row, _REPORT_ROW, f"report.categories[{i}]")
    if "counts" in report:
        _check_fields(report["counts"], _REPORT_COUNTS, "report.counts")
    if "iou_threshold" in report:
        threshold = report["iou_threshold"]
        check_json_value(threshold, 0.0, "report.iou_threshold", ParseError)
        if not 0.0 < threshold < 1.0:
            raise ParseError("report.iou_threshold",
                             f"must be in (0, 1), got {json.dumps(threshold)}")


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
