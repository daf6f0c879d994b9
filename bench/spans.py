"""Spans recorded by the benchmark around its own calls into the program.

A span has a name (``<layer>.<call>``), start and end times, the id of the
span that was open when it started, the task it belongs to, and free-form
attributes holding counts and problem sizes taken at the same boundary.
Each task is itself a ``bench.task`` span, so its self time is the time the
benchmark spends in its own code (inputs and checks) between calls.  Spans
live in memory until the round ends.  With tracing off ``span`` hands back
a throw-away attribute dict and records nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.task_name: str | None = None
        self._open: list[int] = []

    @contextmanager
    def task(self, name: str):
        self.task_name = name
        with self.span("bench.task"):
            yield

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "task": self.task_name,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        intervals = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
