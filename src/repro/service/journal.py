"""The write-ahead request journal: crash-safe serving's source of truth.

The alignment service's premise — alignment is a deterministic function
of (CFG, profile, method, seed) — makes exactly-once recovery cheap: two
requests that normalize to the same inputs *are* the same request, so a
content-addressed **idempotency key** (computed by
:func:`repro.service.core.parse_request`) both names a journal record
and coalesces duplicates.  The journal is an fsynced append-only JSONL file
the server writes at two points of the request lifecycle::

    {"v": 1, "type": "admitted",  "key": K, "sha": ..., "payload": {...}}
    {"v": 1, "type": "completed", "key": K, "sha": ..., "response": {...}}
    {"v": 1, "type": "failed",    "key": K, "sha": ..., "error": "...",
     "error_type": "..."}

``admitted`` is appended *before* the request enters the worker queue;
``completed``/``failed`` when the worker resolves it.  After a SIGKILL or
power loss, :meth:`RequestJournal.load` replays the file: a key whose
last record is ``completed`` is served straight from the journal (after
re-verification — see :mod:`repro.service.core`); an ``admitted`` key
with no terminal record is an **orphan** the restarted server re-enqueues;
a ``failed`` key is left to the client's retry.

Durability discipline (the same one the ArtifactStore already proves):

* every append is flushed and ``fsync``\\ ed before the admission/response
  proceeds, so an acknowledged record survives the process;
* every record carries a sha256 of its payload, so a torn final record
  (the process died mid-append) fails its checksum and is *skipped*, not
  fatal, and the next append seals the stump with a newline first;
* an append that raises (disk full, injected ``journal_io_error``) flips
  the journal into **degraded-durability mode**: serving continues, the
  ``service.journal_degraded`` counter and ``/readyz``'s ``durability:
  off`` record the loss of crash-safety, and no further writes are
  attempted until restart.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field

from repro import faults, obs
from repro.errors import JournalError

JOURNAL_VERSION = 1

#: Record types a journal line may carry, in lifecycle order.
RECORD_TYPES = ("admitted", "completed", "failed")


def canonical_digest(payload: object) -> str:
    """sha256 of canonical JSON: record checksums and idempotency keys."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- replay results -----------------------------------------------------------


@dataclass
class JournalReplay:
    """What one :meth:`RequestJournal.load` pass recovered.

    ``completed`` maps keys to their recorded responses; ``failed`` to
    their recorded ``(error_type, error)``; ``orphans`` to the payloads
    of admitted requests with no terminal record, in admission order —
    the work a crash interrupted.  ``payloads`` keeps every admitted
    payload (terminal or not) so completed entries can be re-verified
    against freshly compiled inputs.
    """

    completed: dict[str, dict] = field(default_factory=dict)
    failed: dict[str, tuple[str, str]] = field(default_factory=dict)
    orphans: dict[str, dict] = field(default_factory=dict)
    payloads: dict[str, dict] = field(default_factory=dict)
    #: Total well-formed records read, by type.
    records: dict[str, int] = field(default_factory=dict)
    #: 1-based line numbers that failed to parse or checksum.
    corrupt_lines: list[int] = field(default_factory=list)
    #: The final line was corrupt — the torn-tail signature of a crash
    #: mid-append (any other corrupt line is bit rot or tampering).
    torn_tail: bool = False
    #: Corrupt lines in the *interior* of the file: damage that cannot be
    #: explained as a crash mid-append, so each is a previously-durable
    #: record the journal lost.  Recovery demotes whatever those lines
    #: held — the per-key replay simply never sees them, so an admitted
    #: key whose terminal record was hit reads as an orphan and is
    #: re-enqueued — and counts them under ``service.replay_rejected``.
    interior_corrupt: list[int] = field(default_factory=list)


@dataclass
class JournalStats:
    """Mutable accounting for one :class:`RequestJournal`."""

    appended: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Appends dropped because the journal is in degraded mode.
    dropped: int = 0
    io_errors: int = 0
    #: Size-triggered compactions that rewrote the file.
    compactions: int = 0
    #: Bytes reclaimed across all compactions.
    compacted_bytes: int = 0


# -- the journal --------------------------------------------------------------


def _record_sha(record: dict) -> str:
    body = {k: v for k, v in record.items() if k != "sha"}
    return canonical_digest(body)


#: Completions a compaction keeps (most recent first to go stale last).
DEFAULT_KEEP_COMPLETED = 256


class RequestJournal:
    """Append-only, fsynced, torn-tail-tolerant request journal.

    With ``compact_bytes`` set, the journal rewrites itself whenever an
    append pushes the file past that size, keeping only the *live*
    records: every orphaned admission (work a crash would need to
    replay) and the most recent ``keep_completed`` completions together
    with their admitted payloads (so recovery can still re-verify them).
    Terminal failures and superseded history are dropped — the client's
    retry policy owns failed requests, and a bounded journal is the
    price of surviving unbounded uptime.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        compact_bytes: int | None = None,
        keep_completed: int = DEFAULT_KEEP_COMPLETED,
    ):
        self.path = pathlib.Path(path).expanduser()
        self.compact_bytes = compact_bytes
        self.keep_completed = max(0, keep_completed)
        self.stats = JournalStats()
        #: Degraded-durability mode: an append failed, serving continues
        #: without crash-safety until restart.  Sticky by design — a disk
        #: that failed once cannot be trusted to have kept earlier
        #: records reachable, so flapping back to "durable" would lie.
        self.degraded = False
        self._lock = threading.Lock()
        # A crash mid-append leaves a final line without its newline; the
        # next append must seal the stump so it does not corrupt itself.
        self._ends_with_newline = True
        if self.path.exists():
            try:
                with self.path.open("rb") as handle:
                    handle.seek(0, 2)
                    if handle.tell() > 0:
                        handle.seek(-1, 2)
                        self._ends_with_newline = handle.read(1) == b"\n"
            except OSError:
                pass  # unreadable tail: the sealing newline is harmless

    # - append side -

    def admitted(self, key: str, payload: dict) -> bool:
        """Record one admission (before the request enters the queue)."""
        ok = self._append({
            "v": JOURNAL_VERSION, "type": "admitted",
            "key": key, "payload": payload,
        })
        if ok:
            self.stats.admitted += 1
        return ok

    def completed(self, key: str, response: dict) -> bool:
        """Record one served response (the exactly-once side of recovery)."""
        ok = self._append({
            "v": JOURNAL_VERSION, "type": "completed",
            "key": key, "response": response,
        })
        if ok:
            self.stats.completed += 1
        return ok

    def failed(self, key: str, error: BaseException | str) -> bool:
        """Record one terminal failure, so recovery does not re-enqueue it
        (the client's retry policy owns failed requests)."""
        ok = self._append({
            "v": JOURNAL_VERSION, "type": "failed",
            "key": key, "error": str(error),
            "error_type": type(error).__name__
            if isinstance(error, BaseException) else "error",
        })
        if ok:
            self.stats.failed += 1
        return ok

    def _append(self, record: dict) -> bool:
        """Serialize, checksum, append, flush, fsync — or degrade.

        Returns whether the record was durably written.  Failures are
        absorbed: the journal flips to degraded mode, counts the fault,
        and the service keeps serving (durability off beats down).
        """
        with self._lock:
            if self.degraded:
                self.stats.dropped += 1
                return False
            record = dict(record)
            record["sha"] = _record_sha(record)
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
            # The torn-tail fault truncates what lands on disk, exactly as
            # a SIGKILL between write() and the trailing newline would.
            line = faults.corrupt_journal_line(line)
            try:
                faults.check_journal_io()
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a") as handle:
                    if not self._ends_with_newline:
                        handle.write("\n")
                    if faults.journal_enospc_fires():
                        # Disk full mid-append: half the record lands with
                        # no trailing newline, then the write fails.  What
                        # is on disk is exactly the torn tail the next
                        # recovery's replay tolerates.
                        handle.write(line[: max(1, len(line) // 2)])
                        handle.flush()
                        os.fsync(handle.fileno())
                        self._ends_with_newline = False
                        raise JournalError(
                            "fault injection: no space left on device"
                        )
                    handle.write(line + "\n")
                    handle.flush()
                    stall = faults.fsync_stall_s()
                    if stall > 0.0:
                        time.sleep(stall)
                    os.fsync(handle.fileno())
            except (JournalError, OSError):
                self.stats.io_errors += 1
                self.degraded = True
                obs.count("service.journal_degraded")
                return False
            self._ends_with_newline = True
            self.stats.appended += 1
            if faults.torn_write_mid_file_fires():
                self._corrupt_mid_file_locked()
            self._maybe_compact_locked()
            return True

    def _corrupt_mid_file_locked(self) -> None:
        """Zero one byte in the middle of the file — the injected shape of
        a torn write at an arbitrary offset (lying firmware, bit rot): an
        interior, previously-durable record stops checksumming, which the
        next recovery must demote rather than serve or abort on."""
        try:
            with self.path.open("r+b") as handle:
                handle.seek(0, 2)
                size = handle.tell()
                if size < 2:
                    return
                handle.seek(size // 2)
                handle.write(b"\x00")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            pass  # failing to corrupt is a no-op, not a journal failure

    # - compaction -

    def _maybe_compact_locked(self) -> None:
        if self.compact_bytes is None:
            return
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size > self.compact_bytes:
            self._compact_locked(size)

    def compact(self) -> bool:
        """Force one compaction pass (the size trigger calls this form
        automatically via ``_append``).  Returns whether a rewrite
        happened."""
        with self._lock:
            if self.degraded:
                return False
            try:
                size = self.path.stat().st_size
            except OSError:
                return False
            return self._compact_locked(size)

    def _compact_locked(self, old_size: int) -> bool:
        """Rewrite the journal with only its live records.

        Live = every orphaned admission, plus the most recent
        ``keep_completed`` completions *with* their admitted payload
        records (recovery re-verifies a completion against its payload;
        a completion whose payload is gone is dropped rather than kept
        unverifiable).  Records are re-checksummed, written to a
        temporary file, fsynced, and atomically swapped in — a crash
        mid-compaction leaves the old journal untouched, and the
        replaced file starts newline-clean so torn-tail tolerance is
        unaffected.
        """
        replay = self.load()
        lines: list[str] = []

        def emit(record: dict) -> None:
            record = dict(record)
            record["sha"] = _record_sha(record)
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )

        kept_completed = list(replay.completed.items())[-self.keep_completed:]
        for key, response in kept_completed:
            payload = replay.payloads.get(key)
            if payload is None:
                continue
            emit({"v": JOURNAL_VERSION, "type": "admitted",
                  "key": key, "payload": payload})
            emit({"v": JOURNAL_VERSION, "type": "completed",
                  "key": key, "response": response})
        for key, payload in replay.orphans.items():
            emit({"v": JOURNAL_VERSION, "type": "admitted",
                  "key": key, "payload": payload})

        tmp = self.path.with_name(self.path.name + ".compact")
        try:
            with tmp.open("w") as handle:
                handle.write("".join(line + "\n" for line in lines))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except OSError:
            # A failed compaction is not a failed journal: the original
            # file is intact, so serving (and the next trigger) continue.
            self.stats.io_errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self._ends_with_newline = True
        self.stats.compactions += 1
        try:
            self.stats.compacted_bytes += max(
                0, old_size - self.path.stat().st_size
            )
        except OSError:
            pass
        obs.count("service.journal_compacted")
        return True

    # - replay side -

    def load(self) -> JournalReplay:
        """Replay the journal into a :class:`JournalReplay`.

        Later records win per key (an ``admitted`` followed by
        ``completed`` is completed; a key re-admitted after a failure is
        an orphan again).  Corrupt lines are skipped and counted; only a
        corrupt *final* line reads as a torn tail.  A missing or
        unreadable journal replays empty — recovery from nothing is a
        cold start, not an error.
        """
        replay = JournalReplay()
        try:
            lines = self.path.read_text().splitlines()
        except FileNotFoundError:
            return replay
        except OSError:
            self.stats.io_errors += 1
            self.degraded = True
            obs.count("service.journal_degraded")
            return replay
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("journal record is not an object")
                if record.get("v") != JOURNAL_VERSION:
                    raise ValueError(
                        f"unsupported journal version {record.get('v')!r}"
                    )
                kind = record.get("type")
                if kind not in RECORD_TYPES:
                    raise ValueError(f"unknown record type {kind!r}")
                key = record["key"]
                if not isinstance(key, str) or not key:
                    raise ValueError("record has no idempotency key")
                if _record_sha(record) != record.get("sha"):
                    raise ValueError("checksum mismatch")
            except (ValueError, KeyError, TypeError):
                replay.corrupt_lines.append(number)
                continue
            replay.records[kind] = replay.records.get(kind, 0) + 1
            if kind == "admitted":
                payload = record.get("payload")
                payload = payload if isinstance(payload, dict) else {}
                replay.payloads[key] = payload
                replay.orphans[key] = payload
                replay.completed.pop(key, None)
                replay.failed.pop(key, None)
            elif kind == "completed":
                response = record.get("response")
                replay.completed[key] = (
                    response if isinstance(response, dict) else {}
                )
                replay.orphans.pop(key, None)
                replay.failed.pop(key, None)
            else:  # failed
                replay.failed[key] = (
                    str(record.get("error_type", "error")),
                    str(record.get("error", "")),
                )
                replay.orphans.pop(key, None)
                replay.completed.pop(key, None)
        replay.torn_tail = bool(
            replay.corrupt_lines and replay.corrupt_lines[-1] == len(lines)
        )
        replay.interior_corrupt = (
            replay.corrupt_lines[:-1] if replay.torn_tail
            else list(replay.corrupt_lines)
        )
        return replay

    # - introspection -

    def snapshot(self) -> dict:
        """JSON-friendly journal health for ``/counters``."""
        return {
            "path": str(self.path),
            "degraded": self.degraded,
            "appended": self.stats.appended,
            "admitted": self.stats.admitted,
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "dropped": self.stats.dropped,
            "io_errors": self.stats.io_errors,
            "compactions": self.stats.compactions,
            "compacted_bytes": self.stats.compacted_bytes,
        }
