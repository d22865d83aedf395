"""Exception types shared across the package, one per kind of failure, and
the two rules for JSON inputs.

Bad user input raises `ParseError` (a scene, features or report file, with
the field path), `ConfigError` (a train config or flag) or `CheckpointError`;
a caught `ParseError` can be stored as a new one, never raised, with no frame.
Code catches `DivergenceError`, `DegenerateOverlap` and `NonSmoothPoint` by
type. `EmptyBatch`, `ShapeMismatch`, `StaleActivation` and `GimbalRisk` guard
a call's preconditions; a plain range check on an argument is a `ValueError`.

`check_keys` decides which keys an object of a scene file, features file,
train config, checkpoint header or eval report may hold (each only once in
a file read through `unique_keys`); `check_json_value` decides whether a
value has the type of its default. Both raise the caller's own error type,
built by `fail(where, message)`, with the field path of the object or value."""

import json
import sys


class MiniDetError(Exception):
    """Base class for all package-specific errors."""


class ParseError(MiniDetError):
    """A scene file record, a features file or an eval report failed validation,
    or an input file could not be read as JSON.

    `field` names the offending location, e.g. "records[3].ego_to_global.rotation",
    "report.categories[0].iou", or the file's path; `message` says what is wrong.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field, self.message = field, message


class ConfigError(MiniDetError):
    """Run configuration is invalid (unknown key, bad value, missing file)."""


class CheckpointError(MiniDetError):
    """A model checkpoint is malformed. The message names the file and the bad part:
    magic, version, header length, header, header.<key> or weights."""


class DivergenceError(MiniDetError):
    """Training went non-finite or predicted a non-positive box size."""


class DegenerateOverlap(MiniDetError):
    """IoU gradient requested at IoU exactly 0 or 1, where no useful gradient exists."""


class NonSmoothPoint(MiniDetError):
    """The IoU loss has a kink here: a corner lies on the other box's edge, an edge
    crossing lies at an edge end, or top or bottom faces are flush."""


class EmptyBatch(MiniDetError):
    """An aggregate was requested over zero samples, or a table over zero rows."""


class ShapeMismatch(MiniDetError):
    """Array dimensions are incompatible: paired batches of different shapes, or
    an adapter rank above min(d_in, d_out)."""


class StaleActivation(MiniDetError):
    """Backward pass requested without a matching forward pass."""


class GimbalRisk(MiniDetError):
    """A rigid transform tilts a box's vertical axis; yaw-only boxes cannot represent it."""


# Python types a JSON value may have, and their JSON name, by its default's
# type. A null default is a path; a tuple default takes a JSON list; an
# integer stands for a number, a boolean for neither (no checked value is one).
_ACCEPTED = {
    type(None): ((str, type(None)), "a string or null"),
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    tuple: (list, "a list"),
}


class RepeatedKey(dict):
    """A JSON object that gives `key` more than once (json.loads keeps the last)."""


def unique_keys(pairs: list) -> dict:
    """json.loads's object_pairs_hook where no object may repeat a key: the
    object, as a RepeatedKey naming its first repeated key if it has one."""
    if len(obj := dict(pairs)) < len(pairs):
        seen, obj = set(), RepeatedKey(obj)
        obj.key = next(k for k, _ in pairs if k in seen or seen.add(k))
    return obj


def check_keys(obj, keys, where: str, fail, optional=()) -> None:
    """Raise `fail(where, message)` unless `obj` is a JSON object holding every
    key of `keys` and no key outside `keys` and `optional`. The first absent
    key of `keys` raises `fail(f"{where}.{key}", "missing")`; other keys raise
    `fail(where, "unknown keys [...]")`, sorted, and a RepeatedKey's key
    `fail(f"{where}.{key}", ...)`. An object holding just `keys` builds no set."""
    if not isinstance(obj, dict):
        raise fail(where, "must be an object")
    if type(obj) is RepeatedKey:
        raise fail(f"{where}.{obj.key}", "is given more than once")
    for key in keys:
        if key not in obj:
            raise fail(f"{where}.{key}", "missing")
    if len(obj) != len(keys) and (unknown := set(obj).difference(keys, optional)):
        raise fail(where, f"unknown keys {sorted(unknown)}")


def check_json_value(value, default, where: str, fail) -> None:
    """Raise `fail(where, message)` unless `value` has the JSON type of
    `default` and, where a number is expected, is one a float can hold: not
    NaN, not infinite, not an integer beyond float range (RFC 8259 leaves
    such numbers to the reader; this package reads none). A list's elements
    are checked against the default's first element, as `where[i]`.
    `message` reads "must be ..., got ..."."""
    accepted, expected = _ACCEPTED[type(default)]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise fail(where, f"must be {expected}, got {json.dumps(value)}")
    # exact int/float comparison: False for NaN and for ints beyond float range
    if isinstance(default, (int, float)) and not abs(value) <= sys.float_info.max:
        got = (json.dumps(value) if isinstance(value, float)
               else f"an integer of {len(str(abs(value)))} digits")
        bound = ("a finite number" if isinstance(default, float)
                 else "an integer within float range")
        raise fail(where, f"must be {bound}, got {got}")
    if isinstance(default, tuple):
        for i, item in enumerate(value):
            check_json_value(item, default[0], f"{where}[{i}]", fail)
