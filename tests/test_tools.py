"""The two scripts under `tools/`: the bit-identity hashes and the quality band's summary and gate."""

import copy
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

# the BLAS kernel's line, then the hashes' labels in the order the README lists the artifacts
BIT_IDENTITY_LABELS = ["blas_core", "checkpoint", "train_log", "report", "ingest",
                       "stage2_checkpoint", "synth_widths", "stage2_report", "ingest_visibility"]

# The eight values under each (numpy version, dispatched kernel) they were taken with. A change
# that moves a hash on purpose updates its entry and lists the old and new values in CHANGES.md.
BIT_IDENTITY_HASHES = {
    ("2.4.6", "SkylakeX"): {
        "checkpoint": "042a2783f700fbb6", "train_log": "cd310ca112881901",
        "report": "565d0c245ed82bf7", "ingest": "fed9dbb70559fe95",
        "stage2_checkpoint": "c8685bcd99944008", "synth_widths": "d158f5e58922b19c",
        "stage2_report": "7e530e9a519c2b22", "ingest_visibility": "2541e1f51714f989",
    },
}


def test_bit_identity_prints_eight_labelled_hashes():
    done = subprocess.run([sys.executable, "tools/bit_identity.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    # the values depend on the BLAS build; the format does not
    assert [line.split()[0] for line in lines] == BIT_IDENTITY_LABELS
    assert re.fullmatch(r"blas_core +\S+", lines[0]), lines[0]
    for line in lines[1:]:
        assert re.fullmatch(r"[a-z0-9_]+ +[0-9a-f]{16}", line), line
    # the values depend on the numpy build and BLAS kernel: checked where they are known
    hashes = dict(line.split() for line in lines[1:])
    expected = BIT_IDENTITY_HASHES.get((np.__version__, lines[0].split()[1]))
    if expected is not None:
        assert hashes == expected


@pytest.fixture(scope="module")
def quality_band():
    # the script pins BLAS threads in os.environ as it loads; keep them out of this process
    spec = importlib.util.spec_from_file_location("quality_band", ROOT / "tools/quality_band.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def _runs(two_stage, mse_only, stage1=(0.25, 0.5, 0.125)):
    """Hand-made runs: seed s has each arm's final mIoU at index s."""
    return [{"seed": s, "arm": arm, "stage1_checkpoint_miou": stage1[s], "final_miou": finals[s]}
            for arm, finals in (("two-stage", two_stage), ("mse-only", mse_only))
            for s in range(len(finals))]


# per seed the gains are 1.0, 0.5 and 0.0: exact in binary
TWO_STAGE, MSE_ONLY = (0.5, 0.75, 0.5), (0.25, 0.5, 0.5)


def test_summary_has_per_arm_spreads_and_paired_gains(quality_band):
    summary = quality_band.summarize(_runs(TWO_STAGE, MSE_ONLY))
    assert summary["arms"] == {
        "two-stage": {"stage1_checkpoint_miou": {"median": 0.25, "min": 0.125, "max": 0.5},
                      "final_miou": {"median": 0.5, "min": 0.5, "max": 0.75}},
        "mse-only": {"stage1_checkpoint_miou": {"median": 0.25, "min": 0.125, "max": 0.5},
                     "final_miou": {"median": 0.5, "min": 0.25, "max": 0.5}},
    }
    gain = summary["paired_gain"]
    assert gain["per_seed"] == {"0": 1.0, "1": 0.5, "2": 0.0}
    assert (gain["wins"], gain["seeds"], gain["median"]) == (2, 3, 0.5)
    assert gain["paper"] == quality_band.PAPER_GAIN


def _gate(quality_band, edit, change_runs=None):
    runs = _runs(TWO_STAGE, MSE_ONLY)
    parent = {**quality_band.summarize(runs), "runs": runs,
              "provenance": {"src_sha256": "parent"}}
    change = copy.deepcopy(parent)
    if change_runs is not None:
        change = {**quality_band.summarize(change_runs), "runs": change_runs,
                  "provenance": parent["provenance"]}
    edit(change)
    return quality_band.gate(parent, change)


def test_gate_passes_at_the_parents_band_edges(quality_band):
    # the parent's own medians sit at its two-stage min and its MSE-only max
    result = _gate(quality_band, lambda change: None)
    assert result["passed"]
    assert result["parent_src_sha256"] == "parent"
    assert [c["band"] for c in result["checks"].values() if "band" in c] == [[0.5, 0.75],
                                                                             [0.25, 0.5]]
    zero = {"per_seed": {"0": 0.0, "1": 0.0, "2": 0.0}, "largest": 0.0}
    assert result["final_miou_moves"] == {"two-stage": zero, "mse-only": zero}
    # a parent band from before the core was recorded has no `blas_core` key
    assert result["blas_cores"] == {"parent": None, "change": None}
    assert result["moves_include_kernel"]


def test_gate_records_each_seeds_move_against_the_parent(quality_band):
    # the median stays 0.5, so the gate passes whatever the seeds did
    result = _gate(quality_band, lambda change: None,
                   change_runs=_runs((0.5, 0.875, 0.25), (0.3125, 0.5, 0.5)))
    assert result["passed"]
    assert result["final_miou_moves"] == {
        "two-stage": {"per_seed": {"0": 0.0, "1": 0.125, "2": -0.25}, "largest": -0.25},
        "mse-only": {"per_seed": {"0": 0.0625, "1": 0.0, "2": 0.0}, "largest": 0.0625},
    }


@pytest.mark.parametrize("parent_core, change_core, include", [
    ("SkylakeX", "SkylakeX", False), ("SkylakeX", "Haswell", True), (None, "SkylakeX", True)])
def test_gate_records_both_blas_cores(quality_band, parent_core, change_core, include):
    runs = _runs(TWO_STAGE, MSE_ONLY)
    parent = {**quality_band.summarize(runs), "runs": runs,
              "provenance": {"src_sha256": "parent", "blas_core": parent_core}}
    change = copy.deepcopy(parent)
    change["provenance"]["blas_core"] = change_core
    result = quality_band.gate(parent, change)
    assert result["passed"]  # the cores are recorded, not gated
    assert result["blas_cores"] == {"parent": parent_core, "change": change_core}
    assert result["moves_include_kernel"] is include


@pytest.mark.parametrize("arm, median", [("two-stage", math.nextafter(0.5, 0.0)),
                                         ("two-stage", math.nextafter(0.75, 1.0)),
                                         ("mse-only", math.nextafter(0.25, 0.0)),
                                         ("mse-only", math.nextafter(0.5, 1.0))])
def test_gate_fails_just_outside_the_parents_band(quality_band, arm, median):
    def edit(change):
        change["arms"][arm]["final_miou"]["median"] = median

    result = _gate(quality_band, edit)
    assert not result["passed"]
    failed = [name for name, check in result["checks"].items() if not check["ok"]]
    assert failed == [f"{arm} median final mIoU in parent band"]


def test_gate_fails_at_a_median_gain_of_zero(quality_band):
    def edit(change):
        change["paired_gain"]["median"] = 0.0

    result = _gate(quality_band, edit)
    assert not result["passed"]
    failed = [name for name, check in result["checks"].items() if not check["ok"]]
    assert failed == ["median paired gain above 0"]


def test_provenance_is_taken_before_the_workers_start(quality_band, tmp_path):
    # a worker imports src/ when it starts, so the recorded hash must be of that src/
    calls = []

    class InProcessPool:
        def __init__(self, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            calls.append("submit")
            done = Future()
            done.set_result(fn(*args))
            return done

    def run(seed, arm):
        final = (TWO_STAGE if arm == "two-stage" else MSE_ONLY)[seed % 3]
        return {"seed": seed, "arm": arm, "stage1_checkpoint_miou": 0.25, "final_miou": final,
                "stage2_skipped_iou_grads": 0, "stage2_skips": {}, "wall_s": 0.0}

    def provenance():
        calls.append("provenance")
        return {"src_sha256": "change"}

    with mock.patch.multiple(quality_band, ProcessPoolExecutor=InProcessPool, _run=run,
                             _provenance=provenance):
        assert quality_band.main(["--out", str(tmp_path / "band.json")]) == 0
    assert calls == ["provenance"] + ["submit"] * len(quality_band.SEEDS) * len(quality_band.ARMS)
    band = json.loads((tmp_path / "band.json").read_text())
    assert band["provenance"] == {"src_sha256": "change"}
