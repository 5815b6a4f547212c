"""In-memory spans for the traced run, written out once at the end."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional


class Span:
    __slots__ = ("name", "rid", "parent", "start_ns", "end_ns")

    def __init__(self, name: str, rid: int, parent: Optional[int]):
        self.name = name
        self.rid = rid
        self.parent = parent
        self.start_ns = time.perf_counter_ns()
        self.end_ns = self.start_ns

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Records a span around each call the benchmark makes into a layer.

    Spans of one request share its request id; `parent` is the index of
    the enclosing span, so self times follow from the tree."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, rid: int):
        parent = self._open[-1] if self._open else None
        record = Span(name, rid, parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def self_ms(self) -> dict:
        """Total self time per span name: each span's duration minus the
        time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        totals = {}
        for s, covered in zip(self.spans, child_ns):
            totals[s.name] = totals.get(s.name, 0.0) + (s.end_ns - s.start_ns - covered) / 1e6
        return totals

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "summary": summary,
            "self_ms": self.self_ms(),
            "spans": [[s.name, s.rid, s.parent, s.start_ns, s.end_ns] for s in self.spans],
        }
        path.write_text(json.dumps(doc))
