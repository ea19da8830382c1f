"""The benchmark's own span recorder.

Timing wrappers are installed around the program's public functions only
for a traced run (:func:`patched`), so untraced runs execute the program
untouched.  Spans live in memory and are written as JSONL when the run
ends.  The recorder is independent of ``repro.obs`` so that changes to the
program's own tracing cannot shift the benchmark's numbers.

A span's *self time* is its duration minus the part of it that its
children cover (children may overlap each other, e.g. work on two
threads); per-layer metrics are sums of self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: Pass number, request id, or another label shared by one unit of work.
    trace: Any = None
    #: Index of the parent span in :attr:`Recorder.spans`.
    parent: int | None = None
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe in-memory span store with per-thread parent stacks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_thread_trace(self, trace) -> None:
        """Label spans this thread opens without a parent (worker threads
        that pick up one unit of work after another)."""
        self._local.trace = trace

    def add(self, span: Span) -> int:
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def open(self, name: str, trace=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = (
                self.spans[parent].trace
                if parent is not None
                else getattr(self._local, "trace", None)
            )
        index = self.add(Span(
            name=name,
            start=time.perf_counter(),
            trace=trace,
            parent=parent,
            thread=threading.get_ident(),
        ))
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, trace=None):
        index = self.open(name, trace)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(
        self,
        fn: Callable,
        name: "str | Callable[..., str]",
        *,
        thread_trace: Callable[..., Any] | None = None,
    ) -> Callable:
        """``fn`` timed as a span.  ``name`` may be computed from the call's
        arguments; ``thread_trace`` (also from the arguments) relabels the
        calling thread first."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if thread_trace is not None:
                self.set_thread_trace(thread_trace(*args, **kwargs))
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return fn(*args, **kwargs)

        return timed

    def write_jsonl(self, path, extra: dict | None = None) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as out:
            if extra:
                out.write(json.dumps({"type": "meta", **extra}) + "\n")
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "type": "span",
                    "id": index,
                    "name": span.name,
                    "start": round(span.start, 9),
                    "end": round(span.end, 9),
                    "self": round(selfs[index], 9),
                    "parent": span.parent,
                    "trace": span.trace,
                    "thread": span.thread,
                }, default=str) + "\n")


def covered_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = covered_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[index]
        )
        result.append(max(0.0, span.duration - covered))
    return result


def self_time_by_name(spans: list[Span], keep=None) -> dict[str, float]:
    """Self time summed by span name over the spans ``keep`` accepts."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if keep is None or keep(span):
            totals[span.name] += own
    return dict(totals)


@contextlib.contextmanager
def patched(targets):
    """Install ``(owner, attribute, wrapper_factory)`` replacements for the
    duration of the block.  Class-level classmethods are re-wrapped as
    classmethods."""
    saved = []
    try:
        for owner, attr, factory in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(factory(original.__func__))
            else:
                replacement = factory(original)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
