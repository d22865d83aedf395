"""The pipeline leaves no cyclic garbage of its own.

Reference counting frees an object as soon as its last reference goes, but
a reference cycle waits for a full garbage collection, and everything the
cycle reaches waits with it. A stored exception is the usual culprit: its
traceback holds frames, and a frame holds every local of its function.
"""

import gc
import json
import types

from minidet3d import cli
from minidet3d.data import (
    emit,
    ingest_lenient,
    load_features,
    process_record,
    save_features,
    synth_scenes,
)
from minidet3d.losses import LossSchedule
from minidet3d.metrics import match_predictions
from minidet3d.model import FusionModel, ModelConfig
from minidet3d.train import build_training_samples, evaluate_model, run_training


def _pipeline(tmp_path):
    """Synth to match_predictions on a scene file with one rejected record."""
    records, features = synth_scenes(48, {"adult": 0.5, "car": 0.5}, seed=41)
    scenes, feats = tmp_path / "scenes.json", tmp_path / "features.json"
    emit(records, scenes)
    save_features(features, feats)
    doc = json.loads(scenes.read_text(encoding="utf-8"))
    doc["records"][5]["annotations"][0]["box"][3] = -1.0  # raised from Box7's ValueError
    scenes.write_text(json.dumps(doc), encoding="utf-8")

    accepted, diagnostics = ingest_lenient(scenes)
    assert [d.field for d in diagnostics] == ["records[5].annotations[0].box"]
    stored = diagnostics[0]  # a new error, never raised: it holds no frame
    assert (stored.__traceback__, stored.__cause__, stored.__context__) == (None, None, None)
    processed = [process_record(r) for r in accepted]
    samples = build_training_samples(accepted, load_features(feats))
    train, val = samples[:40], samples[40:]
    model = FusionModel(ModelConfig(seed=0))
    schedule = LossSchedule(transition_epoch=1, total_epochs=2, stage1_lr=2e-3, stage2_lr=5e-5)
    history = run_training(model, train, schedule, seed=5, batch_size=8, val_samples=val)
    report = evaluate_model(model, val, 0.5)
    boxes = [(s.gt_box, s.category) for s in val]
    counts, _ = match_predictions(boxes, boxes, 0.5)
    assert len(processed) == 47 and len(history) == 2 and counts.tp == len(val)
    assert 0.0 <= report["miou_samples"] <= 1.0

    assert cli.main(["ingest", str(scenes), "--out", str(tmp_path / "out.jsonl")]) == 1
    assert cli.main(["eval", "--gt-as-pred", "--data", str(tmp_path),
                     "--out", str(tmp_path / "eval")]) == 1  # the loader refuses the record


def test_pipeline_leaves_no_frames_or_package_objects_in_cyclic_garbage(tmp_path, capsys):
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    try:
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what a collection finds, to look at it
        _pipeline(tmp_path)
        gc.collect()
        found = [type(o).__module__ + "." + type(o).__qualname__ for o in gc.garbage
                 if isinstance(o, types.FrameType)
                 or type(o).__module__.startswith("minidet3d")]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == []
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("rejected: records[5].annotations[0].box: ") for line in err)
    (error,) = [line for line in err if line.startswith("error: ")]
    assert error.startswith(f"error: {tmp_path / 'scenes.json'}: records[5].annotations[0].box: "
                            "Box7 sizes must be positive, got l=-1.0, ")
