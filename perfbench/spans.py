"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its calls into the program
(nothing inside ``src/`` is traced) and written out once, as Chrome
trace JSON, when the run ends.  A disabled recorder stores nothing.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from typing import Dict, List


class Spans:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.records))
        self.records.append({})
        started = time.perf_counter()
        try:
            yield
        finally:
            index = self._stack.pop()
            self.records[index] = {
                "name": name, "start": started, "end": time.perf_counter(),
                "parent": parent, "args": attrs,
            }

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median_ms(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) * 1000.0 if values else 0.0

    def write(self, path) -> None:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        if not self.records:
            return
        origin = min(r["start"] for r in self.records)
        events = [
            {
                "name": r["name"], "ph": "X", "pid": 0, "tid": 0,
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "args": dict(r["args"], id=i, parent=r["parent"]),
            }
            for i, r in enumerate(self.records)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
