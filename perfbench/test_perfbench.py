"""Unit tests for the benchmark harness's own logic."""

import json
import types

import numpy as np
import pytest

from perfbench import pipeline
from perfbench.stats import percentile, summarize, tail_percentile
from perfbench.tracing import Span, Tracer, aggregate, covered_ns, self_times_ns


@pytest.mark.parametrize("n, expected", [
    (9, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    xs = list(range(10, 0, -1))
    assert percentile(xs, 50) == 5
    assert percentile(xs, 90) == 9
    assert percentile(xs, 100) == 10
    assert percentile([7.0], 99.9) == 7.0


def test_summarize_states_count_and_allowed_tail():
    s = summarize(float(v) for v in range(1, 101))
    assert s == {"median": 50.5, "n": 100, "p90": 90.0}
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}


def test_covered_ns_merges_overlaps_and_clips():
    assert covered_ns([(20, 30), (0, 10), (5, 15)], 2, 25) == 13 + 5
    assert covered_ns([], 0, 10) == 0
    assert covered_ns([(0, 4), (1, 2)], 0, 10) == 4


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, "parent", 0, 100, "ok"),
        Span(1, 0, "child", 10, 30, "ok"),
        Span(2, 1, "grandchild", 12, 20, "ok"),
        Span(3, 0, "child", 50, 60, "ok"),
    ]
    assert self_times_ns(spans) == {0: 70, 1: 12, 2: 8, 3: 10}


def test_spans_nest_and_aggregate_by_name_and_tag():
    tracer = Tracer("run")
    with tracer.span("outer"):
        with tracer.span("inner", tag=32):
            pass
        with tracer.span("inner", tag=8):
            pass
    by_id = {s.span_id: s for s in tracer.spans}
    outer = next(s for s in tracer.spans if s.name == "outer")
    assert outer.parent_id is None
    assert all(by_id[s.span_id].parent_id == outer.span_id
               for s in tracer.spans if s.name == "inner")
    stats = aggregate(tracer.spans)
    assert stats["inner"].calls == 2
    assert set(stats["inner"].tagged) == {32, 8}
    assert stats["outer"].self_ns == outer.duration_ns - stats["inner"].total_ns


class _Boom(Exception):
    pass


def test_wrapper_reraises_the_original_exception_and_restores():
    error = _Boom("original")

    def explode(x):
        raise error

    def double(x):
        return 2 * x

    module = types.SimpleNamespace(explode=explode, double=double)
    tracer = Tracer("run")
    tracer.wrap(module, "explode", "m.explode")
    tracer.wrap(module, "double", "m.double", tag=lambda args: args[0])
    assert module.explode is not explode
    with pytest.raises(_Boom) as caught:
        module.explode(1)
    assert caught.value is error
    assert module.double(4) == 8
    assert [(s.name, s.outcome, s.tag) for s in tracer.spans] == [
        ("m.explode", "_Boom", None), ("m.double", "ok", 4)]
    tracer.restore()
    assert module.explode is explode and module.double is double


def test_restore_removes_a_wrapper_placed_over_an_inherited_method():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    tracer = Tracer("run")
    tracer.wrap(Child, "f", "Child.f")
    assert Child().f() == 1 and "f" in vars(Child)
    tracer.restore()
    assert "f" not in vars(Child) and Child.f is Base.f


def test_install_wraps_the_looked_up_names_and_restore_undoes_it():
    import minidet3d.data as data
    import minidet3d.train as train
    from minidet3d.model import FusionModel

    before = (train.iou_loss_grad, train.iou_3d, data.transform_box,
              vars(FusionModel)["backward_batch"], vars(train.AdamW)["step"])
    tracer = Tracer("run")
    pipeline.install(tracer)
    assert train.iou_loss_grad is not before[0]
    tracer.restore()
    after = (train.iou_loss_grad, train.iou_3d, data.transform_box,
             vars(FusionModel)["backward_batch"], vars(train.AdamW)["step"])
    assert all(a is b for a, b in zip(before, after))


def test_every_corruption_is_rejected_at_its_record(tmp_path):
    import minidet3d.data as data

    records, _ = data.synth_scenes(5, pipeline.MIX, seed=3)
    path = tmp_path / "scenes.json"
    data.emit(records, path)
    doc = json.loads(path.read_text())
    for kind, rec in enumerate(doc["records"]):
        pipeline._corrupt(rec, kind)
    path.write_text(json.dumps(doc))
    accepted, diagnostics = data.ingest_lenient(path)
    assert accepted == []
    assert [d.field.split(".")[0] for d in diagnostics] == [f"records[{i}]" for i in range(5)]


def test_corrupt_scene_file_reports_the_inserted_indices(tmp_path):
    import minidet3d.data as data

    records, _ = data.synth_scenes(60, pipeline.MIX, seed=4)
    path = tmp_path / "scenes.json"
    data.emit(records, path)
    bad = pipeline.corrupt_scene_file(path, np.random.default_rng(0))
    assert bad
    accepted, diagnostics = data.ingest_lenient(path)
    assert [r.sample_id for r in accepted] == [r.sample_id for r in records]
    assert sorted(pipeline.record_index(d.field) for d in diagnostics) == bad
    assert pipeline.record_index("<file>") == -1
