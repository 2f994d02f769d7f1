"""In-memory spans around calls into the program's public functions.

The benchmark may not edit the program, so every span is recorded from
outside: ``with rec.span("parallel.run_parallel"): run_parallel(...)``.
Spans stay in a list until the op ends; ``write`` dumps them as JSON lines.
A disabled recorder records nothing, so untraced ops run the same code.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self, op_id: str, enabled: bool = True):
        self.op_id = op_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time one call; yields the span dict (``{}`` when disabled) so
        the caller can read ``dur`` afterwards or attach counts."""
        if not self.enabled:
            yield {}
            return
        span = {
            "id": len(self.spans),
            "op": self.op_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()
            span["dur"] = span["end"] - span["start"]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover.
    Children of one parent never overlap (one thread records them), so
    the cover is the sum of their durations."""
    cover: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            cover[span["parent"]] = cover.get(span["parent"], 0.0) + span["dur"]
    return {s["id"]: s["dur"] - cover.get(s["id"], 0.0) for s in spans}


def check_well_formed(spans: list[dict]) -> list[str]:
    """Problems found in a span list: unclosed spans, unknown parents,
    children outside their parent, mixed op ids.  Empty means sound."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    if len({s["op"] for s in spans}) > 1:
        problems.append("spans of more than one op in one trace")
    for span in spans:
        if span["end"] is None:
            problems.append(f"span {span['id']} ({span['name']}) never closed")
            continue
        if span["end"] < span["start"]:
            problems.append(f"span {span['id']} ends before it starts")
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            problems.append(f"span {span['id']} has unknown parent {span['parent']}")
        elif parent["end"] is None or not (
            parent["start"] <= span["start"] and span["end"] <= parent["end"]
        ):
            problems.append(f"span {span['id']} lies outside its parent {parent['id']}")
    return problems
