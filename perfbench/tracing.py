"""In-memory span tracing around calls into the program's layers.

A `Tracer` replaces a function at the attribute its caller looks up (for
example `minidet3d.train.iou_loss_grad`, or a method on a class) with a
wrapper that records one span per call: name, start, end, parent span,
outcome and an optional tag such as the batch size. Spans stay in memory
until the caller writes them out. `restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import NamedTuple


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    outcome: str  # "ok" or the class name of the exception that left the call
    tag: object = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    def span(self, name: str, tag=None) -> "_Scope":
        """Context manager recording the enclosed block as one span."""
        return _Scope(self, name, tag)

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Trace every call of `owner.attr` under `name`.

        `tag`, if given, maps the call's positional arguments to a value
        stored on the span. Exceptions pass through unchanged.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, tag(args) if tag is not None else None):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every `wrap`, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path) -> None:
        """One JSON header line with the run id, then one line per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans)}) + "\n")
            for s in self.spans:
                f.write(json.dumps([s.span_id, s.parent_id, s.name, s.start_ns, s.end_ns,
                                    s.outcome, s.tag]) + "\n")


class _Scope:
    __slots__ = ("tracer", "name", "tag", "span_id", "parent_id", "start_ns")

    def __init__(self, tracer: Tracer, name: str, tag):
        self.tracer, self.name, self.tag = tracer, name, tag

    def __enter__(self):
        t = self.tracer
        self.span_id = t._next_id
        t._next_id += 1
        self.parent_id = t._stack[-1] if t._stack else None
        t._stack.append(self.span_id)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter_ns()
        t = self.tracer
        t._stack.pop()
        outcome = "ok" if exc_type is None else exc_type.__name__
        t.spans.append(Span(self.span_id, self.parent_id, self.name, self.start_ns, end,
                            outcome, self.tag))
        return False  # never swallow: the original exception propagates unchanged


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals` (start, end) clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start_ns, s.end_ns))
    return {
        s.span_id: s.duration_ns - covered_ns(children.get(s.span_id, ()), s.start_ns, s.end_ns)
        for s in spans
    }


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    outcomes: dict = field(default_factory=dict)  # outcome -> calls
    tagged: dict = field(default_factory=dict)  # tag -> [calls, total_ns]

    @property
    def us_per_call(self) -> float:
        return self.total_ns / self.calls / 1e3 if self.calls else 0.0


def aggregate(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-name call counts, total and self time, outcomes and per-tag time."""
    selfs = self_times_ns(spans)
    out: dict[str, LayerStats] = {}
    for s in spans:
        st = out.get(s.name)
        if st is None:
            st = out[s.name] = LayerStats()
        st.calls += 1
        st.total_ns += s.duration_ns
        st.self_ns += selfs[s.span_id]
        st.outcomes[s.outcome] = st.outcomes.get(s.outcome, 0) + 1
        if s.tag is not None:
            entry = st.tagged.setdefault(s.tag, [0, 0])
            entry[0] += 1
            entry[1] += s.duration_ns
    return out
