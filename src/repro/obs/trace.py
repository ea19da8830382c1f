"""Spans, counters, and the JSONL trace sink.

One :class:`Tracer` lives per process, reached through a ``ContextVar`` so
fault-injection-style scoping (``collect()``) composes with threads.  Two
costs are kept separate by design:

* **Counters are always on.**  ``count()``/``gauge()`` are dict updates —
  cheap enough to leave unconditionally in hot paths (cache lookups, 3-Opt
  kicks) so benchmark snapshots work without a trace file.
* **Spans are recorded only while a trace is active** (a sink is attached
  via ``start_trace`` or events are being captured via ``collect``).  The
  ``span()`` context manager still *times* its body regardless, and hands
  the caller a mutable handle, so code like ``experiments/stages.py`` can
  read ``sp.dur_ms`` without a sink attached.

Worker processes never see the parent's sink.  Instead the executor wraps
each handler call in ``collect()``, ships the captured events back with
the result (exactly like fault-plan counters), and the parent ``absorb``s
them: span events are re-written into the parent trace, *stable* counters
are merged, and unstable (per-process observational) counters are
dropped — which is what keeps a merged trace deterministic for any worker
count.  See ``docs/observability.md``.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from .events import SCHEMA_VERSION, meta_event

TRACE_ENV = "REPRO_TRACE"

_SEQ = itertools.count(1)


class TraceSink:
    """Appends JSONL events to a file, one ``os.write`` per line.

    The file is opened with ``O_APPEND``, so concurrent writers (the
    parent plus any process handed the same path) interleave at line
    granularity — POSIX guarantees each single ``write`` of a line is
    atomic with respect to other appenders.  In practice only the parent
    writes (worker events arrive via ``absorb``), but the sink stays safe
    if that ever changes.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._fd: int | None = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    def write(self, event: dict) -> None:
        if self._fd is None:
            return
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        try:
            os.write(self._fd, line.encode("utf-8") + b"\n")
        except OSError:
            # A full disk or yanked mount must not take the run down:
            # tracing is an observer, never a participant.
            self.close()

    def close(self) -> None:
        if self._fd is not None:
            fd, self._fd = self._fd, None
            try:
                os.close(fd)
            except OSError:
                pass  # already-dead fd: nothing left to release


@dataclass
class Span:
    """Mutable handle returned by ``Tracer.span``.

    Attribute assignment via item access (``sp["cities"] = 12``) adds
    trace attributes up until the span closes.  ``dur_ms`` is populated
    on exit whether or not the span was recorded.
    """

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    t0_ms: float = 0.0
    dur_ms: float = 0.0
    span_id: str = ""
    parent_id: str | None = None

    def __setitem__(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __getitem__(self, key: str) -> Any:
        return self.attrs[key]


class Tracer:
    """Per-process span/counter accumulator with an optional JSONL sink."""

    def __init__(self) -> None:
        self._sink: TraceSink | None = None
        self._buffer: list[dict] | None = None
        self._stack: list[Span] = []
        self._counters: dict[str, float] = {}
        self._stable: dict[str, bool] = {}
        #: Names touched inside the innermost ``collect()`` window.
        self._touched: set[str] | None = None
        self._epoch = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while span events have somewhere to go."""
        return self._sink is not None or self._buffer is not None

    def open_sink(self, path: str | os.PathLike[str], label: str | None = None) -> None:
        self.close_sink()
        # Counter totals flush into the trace when it closes; resetting
        # here scopes them to exactly the traced window, even when one
        # process opens several traces in sequence (tests, library use).
        self.reset_counters()
        self._sink = TraceSink(path)
        self._emit(meta_event(label=label, pid=os.getpid()))

    def close_sink(self) -> None:
        """Flush counter totals as events, then close the file."""
        if self._sink is not None:
            for event in self.counter_events():
                self._sink.write(event)
            self._sink.close()
            self._sink = None

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            name=name,
            attrs=dict(attrs),
            span_id=f"{os.getpid():x}-{next(_SEQ):x}",
            parent_id=parent.span_id if parent else None,
        )
        start = time.monotonic()
        sp.t0_ms = (start - self._epoch) * 1000.0
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.dur_ms = (time.monotonic() - start) * 1000.0
            self._stack.pop()
            if self.active:
                self._emit(self._span_event(sp))

    def _span_event(self, sp: Span) -> dict:
        return {
            "v": SCHEMA_VERSION,
            "type": "span",
            "name": sp.name,
            "attrs": dict(sp.attrs),
            "t0_ms": round(sp.t0_ms, 3),
            "dur_ms": round(sp.dur_ms, 3),
            "pid": os.getpid(),
            "span_id": sp.span_id,
            "parent_id": sp.parent_id,
            "seq": next(_SEQ),
        }

    # -- counters ----------------------------------------------------------

    def count(self, name: str, n: float = 1, *, stable: bool = True) -> None:
        """Add ``n`` to a named total.  ``stable=False`` marks counters
        whose value depends on process placement (per-worker caches);
        they are reported but never merged across processes or compared
        for determinism."""
        self._counters[name] = self._counters.get(name, 0) + n
        if self._touched is not None:
            self._touched.add(name)
        # Once unstable, always unstable: mixed-origin totals cannot be
        # promoted back to deterministic.
        self._stable[name] = self._stable.get(name, True) and stable

    def gauge(self, name: str, value: float, *, stable: bool = True) -> None:
        """Set a named value to its latest observation."""
        self._counters[name] = value
        self._stable[name] = stable
        if self._touched is not None:
            self._touched.add(name)

    def counters(self, *, stable_only: bool = False) -> dict[str, float]:
        return {
            name: value
            for name, value in sorted(self._counters.items())
            if not stable_only or self._stable.get(name, True)
        }

    def counter_events(self) -> list[dict]:
        return [
            {
                "v": SCHEMA_VERSION,
                "type": "counter",
                "name": name,
                "value": value,
                "stable": self._stable.get(name, True),
            }
            for name, value in sorted(self._counters.items())
        ]

    def reset_counters(self) -> None:
        self._counters.clear()
        self._stable.clear()

    # -- worker capture / parent merge --------------------------------------

    @contextlib.contextmanager
    def collect(self) -> Iterator[list[dict]]:
        """Capture span events (and, on exit, counter deltas) into a list
        instead of a sink — the worker half of the merge protocol.

        Every counter touched inside the window ships, zero deltas
        included: ``count(name, 0)`` creates a counter in serial work, so
        the same work merged from a worker must create it too, or trace
        content would depend on the worker count."""
        outer_buffer, outer_touched = self._buffer, self._touched
        before = dict(self._counters)
        captured: list[dict] = []
        touched: set[str] = set()
        self._buffer, self._touched = captured, touched
        try:
            yield captured
        finally:
            self._buffer, self._touched = outer_buffer, outer_touched
            if outer_touched is not None:
                outer_touched |= touched
            for name in sorted(touched):
                captured.append(
                    {
                        "v": SCHEMA_VERSION,
                        "type": "counter",
                        "name": name,
                        "value": self._counters.get(name, 0) - before.get(name, 0),
                        "stable": self._stable.get(name, True),
                    }
                )

    def absorb(self, events: list[dict] | None) -> None:
        """Merge a worker's captured events into this tracer: span events
        pass through to the active trace; stable counter deltas merge;
        unstable deltas are dropped (their totals are per-process facts,
        not properties of the work).

        Span events whose parent is not part of the same batch — worker
        root spans, whose inherited parent link points at whatever the
        parent process had open when the pool forked — are re-anchored to
        the span active *here and now* (the executor's batch span), so the
        merged tree reads as if the work ran in-process.
        """
        if not events:
            return
        local_ids = {
            e.get("span_id") for e in events if e.get("type") == "span"
        }
        anchor = self._stack[-1].span_id if self._stack else None
        for event in events:
            kind = event.get("type")
            if kind == "span":
                if event.get("parent_id") not in local_ids:
                    event = {**event, "parent_id": anchor}
                if self.active:
                    self._emit(event)
            elif kind == "counter" and event.get("stable", True):
                self.count(event["name"], event.get("value", 0))

    def drain_events(self) -> list[dict]:
        """Span events captured so far plus current counter totals —
        used by in-process consumers (bench snapshots, tests)."""
        events = list(self._buffer or [])
        events.extend(self.counter_events())
        return events

    # -- plumbing ----------------------------------------------------------

    def _emit(self, event: dict) -> None:
        if self._buffer is not None:
            self._buffer.append(event)
        elif self._sink is not None:
            self._sink.write(event)


_TRACER: contextvars.ContextVar[Tracer | None] = contextvars.ContextVar(
    "repro_tracer", default=None
)


def tracer() -> Tracer:
    """The process-wide tracer, created on first use."""
    current = _TRACER.get()
    if current is None:
        current = Tracer()
        _TRACER.set(current)
    return current


def install_tracer(t: Tracer) -> None:
    """Make ``t`` the tracer for the *current* context.

    ``ContextVar`` state is per-thread: a thread spawned after a trace
    starts would otherwise mint a fresh, sink-less tracer and silently
    drop everything it records.  Long-lived worker threads (the alignment
    service's request loop) call this once at startup with the tracer
    their parent thread captured, so spans and counters from both threads
    land in one place.
    """
    _TRACER.set(t)


def reset_tracer() -> None:
    """Discard all tracer state (tests)."""
    current = _TRACER.get()
    if current is not None:
        current.close_sink()
    _TRACER.set(None)


# -- module-level conveniences (the instrumented call sites use these) ------


def span(name: str, **attrs: Any):
    return tracer().span(name, **attrs)


def count(name: str, n: float = 1, *, stable: bool = True) -> None:
    tracer().count(name, n, stable=stable)


def gauge(name: str, value: float, *, stable: bool = True) -> None:
    tracer().gauge(name, value, stable=stable)


def collect():
    return tracer().collect()


def absorb(events: list[dict] | None) -> None:
    tracer().absorb(events)


def counters(*, stable_only: bool = False) -> dict[str, float]:
    return tracer().counters(stable_only=stable_only)


def start_trace(path: str | os.PathLike[str] | None = None, label: str | None = None) -> bool:
    """Attach a JSONL sink from an explicit path or ``$REPRO_TRACE``.
    Returns True if a trace was started."""
    target = path or os.environ.get(TRACE_ENV) or None
    if not target or str(target).lower() == "off":
        return False
    tracer().open_sink(target, label=label)
    return True


def finish_trace() -> None:
    """Flush counters into the trace and close it."""
    tracer().close_sink()
