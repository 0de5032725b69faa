"""In-memory span tracing for the benchmark.

A span is opened by the benchmark around each of its own calls into a
package module (``<layer>.<function>``, e.g. ``graphcore.girth``) and
around each benchmark operation (``bench.<kind>``, layer ``bench``).  Spans
are kept in a list and only aggregated or written out once the run has
ended.

``NullTracer`` has the same interface and records nothing; untraced passes
use it so that both kinds of pass run the same code.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0
    items: int = 1

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    def __init__(self) -> None:
        self._null = contextlib.nullcontext()

    def span(self, name: str, items: int = 1):
        return self._null

    def op(self, kind: str):
        return self._null


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _next_op: int = 0

    def span(self, name: str, items: int = 1):
        """Span of one call; it belongs to the enclosing operation."""
        parent = self._stack[-1] if self._stack else None
        op_id = self.spans[parent].op_id if parent is not None else -1
        return self._open(Span(name, op_id, parent, 0.0, items=items))

    def op(self, kind: str):
        """Root span of one benchmark operation; its children share its id."""
        self._next_op += 1
        parent = self._stack[-1] if self._stack else None
        return self._open(Span(f"bench.{kind}", self._next_op, parent, 0.0))

    @contextlib.contextmanager
    def _open(self, sp: Span):
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part covered by its direct children.

    Children of one parent run one after another (single thread), so their
    durations do not overlap and can simply be summed.
    """
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.end - sp.start
    return own


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name and per layer: calls, items, total and self seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sp, s in zip(spans, own):
        for key in (sp.name, f"layer:{sp.layer}"):
            row = out.setdefault(key, {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["items"] += sp.items
            row["total_s"] += sp.end - sp.start
            row["self_s"] += s
    return out


def to_records(spans: list[Span], origin: float) -> list[dict]:
    """Spans as JSON-ready dicts, times in seconds from ``origin``."""
    return [
        {
            "id": idx,
            "name": sp.name,
            "op": sp.op_id,
            "parent": sp.parent,
            "start": round(sp.start - origin, 7),
            "end": round(sp.end - origin, 7),
            "items": sp.items,
        }
        for idx, sp in enumerate(spans)
    ]
