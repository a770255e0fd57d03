"""In-memory spans recorded around the benchmark's calls into the package.

A span is (name, start, end, parent, request).  The layer of a span is
the part of its name before the first dot, which is the package module
the call goes into: geometry, dataio, nncore, training or pipeline.
Spans stay in memory until the run ends and are then written out once.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("geometry", "dataio", "nncore", "training", "pipeline")


class Tracer:
    """Collects the spans of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index, request]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request=None):
        parent = self._open[-1] if self._open else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        rec = [name, time.perf_counter(), 0.0, parent, request]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def indices(self, name: str, under=()) -> list[int]:
        """Indices of the spans called ``name`` that have an ancestor of
        every name in ``under`` (a name or a tuple of names)."""
        under = (under,) if isinstance(under, str) else tuple(under)
        return [i for i, rec in enumerate(self.spans)
                if rec[0] == name and all(self._has_ancestor(rec, u) for u in under)]

    def durations(self, name: str, under=()) -> list[float]:
        """Seconds of every span called ``name`` under ``under``."""
        return [self.spans[i][2] - self.spans[i][1] for i in self.indices(name, under)]

    def children(self, i: int) -> list[int]:
        """Indices of the direct children of span i, in start order."""
        return [j for j in range(i + 1, len(self.spans)) if self.spans[j][3] == i]

    def _has_ancestor(self, rec, name: str) -> bool:
        parent = rec[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_seconds(self, under: str | None = None) -> dict:
        """Self time per layer: each span's duration minus the part its
        direct children cover, summed by layer."""
        children = defaultdict(float)
        for rec in self.spans:
            if rec[3] >= 0:
                children[rec[3]] += rec[2] - rec[1]
        out = defaultdict(float)
        for i, rec in enumerate(self.spans):
            if under is not None and rec[0] != under and not self._has_ancestor(rec, under):
                continue
            out[rec[0].split(".", 1)[0]] += (rec[2] - rec[1]) - children[i]
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON document."""
        doc = {
            "run_id": self.run_id,
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
