"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into each layer
of ``eddyopt``; nothing inside the package is instrumented. A disabled
recorder adds no span and returns wrapped functions unchanged, so the
untraced run executes the same calls.
"""

import time
from contextlib import contextmanager


class Spans:
    def __init__(self, enabled=True):
        self.enabled = enabled
        self.records = []
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.records), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        """fn with every call recorded as a span named name."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name):
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name]

    def total(self, name):
        """Summed duration of all spans called name."""
        return sum(self.durations(name), 0.0)

    def self_time(self, name):
        """Summed duration of spans called name minus their children's.

        Children of one span never overlap (the recorder is sequential),
        so subtracting their durations removes exactly the covered part.
        """
        child = {}
        for r in self.records:
            if r["parent"] is not None:
                child[r["parent"]] = (child.get(r["parent"], 0.0)
                                      + r["end"] - r["start"])
        return sum(r["end"] - r["start"] - child.get(r["id"], 0.0)
                   for r in self.records if r["name"] == name)
