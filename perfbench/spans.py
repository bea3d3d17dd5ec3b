"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, never from inside the
program: :func:`patched` swaps a public function for a recording wrapper
in the namespace that calls it, for the duration of one traced pass, and
puts the original back afterwards.  Each span keeps its name, start, end,
the span that caused it and the pass it belongs to; counts are recorded
at the same boundaries.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # one entry per span: [name, start, end, parent index or None, pass id]
        self.spans = []
        self.counts = {}
        self.pass_id = 0
        self._stack = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value) -> None:
        self.counts.setdefault(self.pass_id, Counter())[name] += value

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` inside a span; ``on_return(result, args, kwargs)`` records counts."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return traced

    def self_times(self, pass_id: int) -> dict:
        """Self time per span name: duration minus the time its children cover."""
        child_time = Counter()
        for _, start, end, parent, pid in self.spans:
            if pid == pass_id and parent is not None:
                child_time[parent] += end - start
        out = Counter()
        for index, (name, start, end, _, pid) in enumerate(self.spans):
            if pid == pass_id:
                out[name] += (end - start) - child_time[index]
        return dict(out)

    def call_counts(self, pass_id: int) -> Counter:
        return Counter(name for name, *_, pid in self.spans if pid == pass_id)

    def pass_counts(self, pass_id: int) -> dict:
        return dict(self.counts.get(pass_id, Counter()))


@contextmanager
def patched(targets):
    """Set ``namespace.attr = replacement`` for each target, restoring on exit."""
    saved = [(namespace, attr, getattr(namespace, attr)) for namespace, attr, _ in targets]
    try:
        for namespace, attr, replacement in targets:
            setattr(namespace, attr, replacement)
        yield
    finally:
        for namespace, attr, original in reversed(saved):
            setattr(namespace, attr, original)
