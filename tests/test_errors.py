"""The one key rule for JSON objects, `errors.check_keys`, at every input.

Each kind of JSON object the package reads sits somewhere in a scene file,
a features file, a train config, a checkpoint header or an eval report.
Dropping a key the object needs gives exactly one error naming
`<where>.<key>`; adding a key it does not know gives exactly one error naming
`<where>` and the key. Every case runs the command that reads the file and
must exit 1.
"""

import dataclasses
import json

import pytest

from minidet3d.cli import main
from minidet3d.data import emit, save_features, synth_scenes
from minidet3d.errors import ParseError, check_keys
from minidet3d.model import FusionModel, ModelConfig, save_checkpoint

SID = "synth-5-000001"  # the second synth record, the one every record-level edit breaks
REPORT = {
    "iou_threshold": 0.25, "counts": {"tp": 1, "tn": 0, "fp": 0, "fn": 0},
    "accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0,
    "miou_samples": 1.0, "miou_categories": 1.0,
    "categories": [{"category": "car", "iou": 1.0, "count": 1}],
}


def parse_line(field, message):
    return f"{field}: {message}"


def path_line(field, message):
    return f"{{path}}: {field}: {message}"


@dataclasses.dataclass(frozen=True)
class Kind:
    file: str  # the input: "scenes", "features", "config", "checkpoint" or "report"
    locate: object  # the object of this kind inside the file's document
    where: str  # its field path; "{path}" stands for the file
    keys: tuple  # the keys it must hold
    line: object = parse_line  # the error line for a field and a message


def _record(doc):
    return doc["records"][1]


KINDS = {
    "scene record": Kind("scenes", _record, "records[1]",
                         ("sample_id", "ego_to_global", "lidar_to_ego", "cameras", "annotations")),
    "pose": Kind("scenes", lambda d: _record(d)["lidar_to_ego"], "records[1].lidar_to_ego",
                 ("translation", "rotation")),
    "camera": Kind("scenes", lambda d: _record(d)["cameras"][1], "records[1].cameras[1]",
                   ("name", "intrinsics", "sensor_to_ego")),
    "intrinsics": Kind("scenes", lambda d: _record(d)["cameras"][1]["intrinsics"],
                       "records[1].cameras[1].intrinsics",
                       ("fx", "fy", "cx", "cy", "width", "height")),
    "annotation": Kind("scenes", lambda d: _record(d)["annotations"][0],
                       "records[1].annotations[0]", ("category", "box")),
    "scene file": Kind("scenes", lambda d: d, "{path}", ("schema_version", "records")),
    "features file": Kind("features", lambda d: d, "{path}", ("schema_version", "features")),
    "features entry": Kind("features", lambda d: d["features"][SID], f"features[{json.dumps(SID)}]",
                           ("visual", "text"), path_line),
    "config": Kind("config", lambda d: d, "config", ()),
    "config model": Kind("config", lambda d: d["model"], "config.model", ()),
    "config schedule": Kind("config", lambda d: d["schedule"], "config.schedule", ()),
    "checkpoint header": Kind("checkpoint", lambda d: d, "header",
                              (*(f.name for f in dataclasses.fields(ModelConfig)),
                               "lora_targets", "mlp_hidden"), path_line),
    "report": Kind("report", lambda d: d, "report",
                   ("categories", "miou_categories", "miou_samples",
                    "accuracy", "precision", "recall", "f1")),
    "report row": Kind("report", lambda d: d["categories"][0], "report.categories[0]",
                       ("category", "iou", "count")),
}


@pytest.fixture(scope="module")
def documents():
    """Three synth records and their features, from which each case writes
    its scene and features files."""
    records, features = synth_scenes(3, {"adult": 0.5, "car": 0.5}, seed=5)
    return {"records": records, "features": features}


def _write(tmp_path, documents, file, edit):
    """Write the valid input `file` with `edit` applied to its document, and
    the command line that reads it."""
    if file in ("scenes", "features"):
        data = tmp_path / "data"
        data.mkdir()
        emit(documents["records"], data / "scenes.json")
        save_features(documents["features"], data / "features.json")
        path = data / f"{file}.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        if file == "scenes":
            return path, ["ingest", path, "--out", tmp_path / "out.jsonl"]
        return path, ["eval", "--gt-as-pred", "--data", data, "--out", tmp_path / "out"]
    if file == "checkpoint":
        path = tmp_path / "model.bin"
        save_checkpoint(FusionModel(ModelConfig(d_model=16, lora_rank=4)), path)
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[5:9], "little")
        doc = json.loads(blob[9 : 9 + hlen])
        edit(doc)
        header = json.dumps(doc).encode()
        path.write_bytes(blob[:5] + len(header).to_bytes(4, "little") + header + blob[9 + hlen :])
        return path, ["eval", "--checkpoint", path, "--data", tmp_path, "--out", tmp_path / "out"]
    doc = ({"data": str(tmp_path), "model": {}, "schedule": {}} if file == "config"
           else json.loads(json.dumps(REPORT)))
    edit(doc)
    path = tmp_path / f"{file}.json"
    path.write_text(json.dumps(doc))
    if file == "config":
        return path, ["train", "--config", path, "--out", tmp_path / "run"]
    return path, ["report", path]


def error_lines(tmp_path, capsys, documents, kind, edit):
    """The error lines of the command reading `kind`'s file after `edit`
    changed the object of that kind; the command must exit 1."""
    path, argv = _write(tmp_path, documents, kind.file, lambda doc: edit(kind.locate(doc)))
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # "error: ..." for a command's failure, "rejected: ..." for each scene record
    return path, [line.partition(": ")[2] for line in err.splitlines()]


@pytest.mark.parametrize("name, key", [(name, key) for name, kind in KINDS.items()
                                       for key in kind.keys])
def test_dropping_a_key_names_it(tmp_path, capsys, documents, name, key):
    kind = KINDS[name]
    path, lines = error_lines(tmp_path, capsys, documents, kind, lambda obj: obj.pop(key))
    assert lines == [kind.line(f"{kind.where}.{key}", "missing").format(path=path)]


@pytest.mark.parametrize("name", KINDS)
def test_adding_a_key_names_it(tmp_path, capsys, documents, name):
    kind = KINDS[name]
    path, lines = error_lines(tmp_path, capsys, documents, kind,
                              lambda obj: obj.update(vsual=1, recrods=2))
    assert lines == [kind.line(kind.where, "unknown keys ['recrods', 'vsual']").format(path=path)]


def test_check_keys_order():
    for obj, error in [
        ([1], "o: must be an object"),
        ({"b": 1}, "o.a: missing"),
        ({"z": 1, "y": 2}, "o.a: missing"),
        ({"a": 1, "b": 2, "z": 3, "y": 4, "c": 5}, "o: unknown keys ['y', 'z']"),
    ]:
        with pytest.raises(ParseError) as exc:
            check_keys(obj, ("a", "b"), "o", ParseError, optional=("c",))
        assert str(exc.value) == error
    check_keys({"a": 1, "b": 2}, ("a", "b"), "o", ParseError)
    check_keys({"a": 1, "b": 2, "c": 3}, ("a", "b"), "o", ParseError, optional=("c",))
    check_keys({}, (), "o", ParseError, optional=("c",))
