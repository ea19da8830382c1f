"""Content-addressed artifact cache and durable on-disk store.

Every intermediate artifact of the staged pipeline (cost matrices, solved
alignments, certified lower bounds, finished sweep cases) is a pure
function of its inputs: the CFG, the profile slice, the machine model, the
predictor, the solver effort, the seed, and the budget.  Fingerprinting
those inputs yields a stable content address, so

* greedy / tsp / lower-bound passes over the same procedure share one cost
  matrix instead of rebuilding it per method,
* cross-validation sweeps reuse alignment instances across train profiles,
* a repeated figure case is served from memory instead of re-solving,
* with a store configured (``--store PATH`` / ``$REPRO_STORE``), expensive
  solves and finished cases survive process restarts (an interrupted
  sweep resumes) and are shared between concurrent runs.

Keys are sha256 hexdigests of a canonical JSON encoding; the first key
component names the artifact *kind* (``instance`` / ``align`` / ``bound``
/ ``case``) so hit rates can be reported per stage.

The in-memory cache fronts the optional :class:`ArtifactStore`, which is
built for hostile conditions (see ``docs/robustness.md``): entries are
written to a temp file and published by atomic ``os.replace``; every entry
carries a sha256 checksum verified on read; a corrupt entry (torn write,
bit rot) is *evicted* and reported as a miss, never returned and never
fatal; writers take per-entry lock files with stale-lock stealing so
parallel workers and concurrent CLI invocations share one store safely.

Both tiers are deliberately bypassed while a fault-injection plan arms any
*pipeline* site: injected failures must reach the code under test, not be
papered over by a clean cached artifact.  A plan arming only the store's
own fault sites (``store_corrupt`` / ``store_io_error``) leaves the store
live — it has to, for the injected damage to reach it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import faults, obs
from repro.budget import Budget
from repro.cfg.graph import ControlFlowGraph
from repro.errors import ArtifactStoreError
from repro.machine.models import PenaltyModel
from repro.machine.predictors import StaticPredictor
from repro.profiles.edge_profile import EdgeProfile
from repro.tsp.solve import Effort

STORE_ENV = "REPRO_STORE"

#: Conventional store location when the user asks for one without naming a
#: path (``--store auto``).
DEFAULT_STORE_DIR = pathlib.Path("~/.cache/repro").expanduser()

# -- input fingerprints -------------------------------------------------------


def _digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def fingerprint_cfg(cfg: ControlFlowGraph) -> str:
    """Stable digest of everything about a CFG that alignment can observe:
    block ids, sizes, and terminator shapes/targets."""
    blocks = [
        (
            block.block_id,
            block.kind.value,
            list(block.terminator.targets),
            block.body_words,
        )
        for block in sorted(cfg, key=lambda b: b.block_id)
    ]
    return _digest({"entry": cfg.entry, "blocks": blocks})


def fingerprint_profile(profile: EdgeProfile) -> str:
    triples = sorted(
        [src, dst, n] for (src, dst), n in profile.counts.items() if n
    )
    return _digest(triples)


def fingerprint_model(model: PenaltyModel) -> str:
    return _digest({
        "name": model.name,
        "conditional": [
            model.conditional.p_tt, model.conditional.p_tn,
            model.conditional.p_nt, model.conditional.p_nn,
        ],
        "multiway": [
            model.multiway.p_tt, model.multiway.p_tn,
            model.multiway.p_nt, model.multiway.p_nn,
        ],
        "unconditional": model.unconditional,
    })


def fingerprint_predictor(predictor: StaticPredictor | None) -> str:
    """``None`` means "train on the task's own profile" — since the profile
    is fingerprinted separately, the derived predictor is fully determined
    and a constant tag suffices."""
    if predictor is None:
        return "auto"
    return _digest(sorted(predictor.predictions.items()))


def fingerprint_effort(effort: Effort) -> str:
    return _digest({
        "name": effort.name,
        "starts": list(effort.starts),
        "iterations": effort.iterations,
        "neighbors": effort.neighbors,
        "exact_threshold": effort.exact_threshold,
    })


def fingerprint_budget(budget: Budget | None) -> str:
    if budget is None or budget.unlimited:
        return "unlimited"
    return _digest([budget.wall_ms, budget.max_iterations])


# -- the on-disk store --------------------------------------------------------


@dataclass
class StoreStats:
    """Operation counters for one :class:`ArtifactStore`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries deleted because their checksum or framing failed on read.
    evictions: int = 0
    #: Reads/writes absorbed after an I/O failure (never raised to callers).
    io_errors: int = 0
    #: Writes skipped because another writer held the entry lock too long.
    lock_contention: int = 0
    #: Writes skipped because the store is in sticky degraded mode.
    degraded_writes: int = 0


class EntryLock:
    """A single-writer advisory lock for one store entry.

    ``O_CREAT | O_EXCL`` on a ``.lock`` sibling is atomic on every platform
    and filesystem we care about.  A lock older than ``stale_ms`` is
    presumed abandoned (its writer crashed mid-publish) and stolen.  Lock
    acquisition failing within ``timeout_ms`` is *not* an error — the store
    is a cache, so the caller simply skips the write.

    Lock age mixes clocks by necessity: the wait deadline is monotonic,
    but ``st_mtime`` only compares against wall-clock ``time.time()``.  A
    future-dated mtime (clock skew, a copied store, a stepped clock)
    therefore yields a *negative* age — which must not be allowed to park
    the lock forever, so beyond a small skew tolerance it is treated as
    stale-eligible, and small negatives clamp to zero.
    """

    #: Wall-clock skew we attribute to clock granularity rather than a
    #: broken mtime (seconds).
    SKEW_TOLERANCE_S = 1.0

    def __init__(
        self,
        path: pathlib.Path,
        *,
        timeout_ms: float = 2000.0,
        stale_ms: float = 30_000.0,
        poll_ms: float = 20.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.path = path
        self.timeout_ms = timeout_ms
        self.stale_ms = stale_ms
        self.poll_ms = poll_ms
        self._sleep = sleep
        self._fd: int | None = None

    def acquire(self) -> bool:
        deadline = time.monotonic() + self.timeout_ms / 1000.0
        while True:
            try:
                self._fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                os.write(self._fd, str(os.getpid()).encode())
                return True
            except FileExistsError:
                try:
                    # An injected clock_skew fault reads this clock in the
                    # future, the shape that makes fresh locks look stale.
                    now = time.time() + faults.clock_skew_s()
                    age_s = now - self.path.stat().st_mtime
                except FileNotFoundError:
                    continue  # raced: owner released or stole first
                except OSError:
                    # The lock exists but cannot be inspected — its age is
                    # unknowable, so waiting on it can never terminate:
                    # treat it as stale-eligible.
                    age_s = float("inf")
                if age_s < 0:
                    # Future-dated mtime: a tiny negative is clock
                    # granularity (clamp and keep waiting); anything
                    # larger is skew/corruption and no amount of waiting
                    # makes it look stale, so steal now.
                    age_s = 0.0 if -age_s <= self.SKEW_TOLERANCE_S else float("inf")
                if age_s * 1000.0 > self.stale_ms:
                    # The owner is presumed dead; steal the lock.
                    try:
                        self.path.unlink()
                    except OSError:
                        continue  # raced: another waiter stole it first
                    obs.count("store.lock_steals", stable=False)
                    continue
                if time.monotonic() >= deadline:
                    return False
                self._sleep(self.poll_ms / 1000.0)
            except OSError:
                return False

    def release(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


class ArtifactStore:
    """Crash-safe, content-addressed, on-disk artifact store.

    Layout: ``<root>/v1/<kind>/<aa>/<digest>.art`` where ``aa`` is the
    first two hex digits of the key digest (keeps directories small).
    Each entry is a one-line JSON header — ``{"v": 1, "key": ..., "sha":
    <sha256 of body>}`` — followed by the pickled artifact.  The header is
    parsed and the body checksummed on every read; any mismatch evicts the
    entry and reports a miss.

    Pickle is the value codec (artifacts hold numpy matrices and nested
    dataclasses); like any pickle-based cache the store must only be
    pointed at directories the user controls.
    """

    VERSION = 1
    SUFFIX = ".art"

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        *,
        lock_timeout_ms: float = 2000.0,
        lock_stale_ms: float = 30_000.0,
    ):
        self.root = pathlib.Path(root).expanduser()
        self.lock_timeout_ms = lock_timeout_ms
        self.lock_stale_ms = lock_stale_ms
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self._tmp_serial = 0
        #: Sticky read-only mode: a write failed at the OS level (disk
        #: full, I/O error), so the store stops attempting writes — reads
        #: still serve whatever was published — until a new store is
        #: constructed.  Sticky by design: a full disk does not un-fill
        #: itself between artifacts, and every retried write would pay
        #: the failure on the solve path.
        self.degraded = False

    # - paths -

    def path_for(self, key: str) -> pathlib.Path:
        kind, _, digest = key.partition(":")
        return (
            self.root / f"v{self.VERSION}" / kind / digest[:2]
            / f"{digest}{self.SUFFIX}"
        )

    # - accounting -

    def _count(self, counter: str, n: int = 1) -> None:
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + n)
        # Mirrored into obs so a trace's store.* totals equal this store's
        # ``stats`` by construction.  Per-process observational: a worker's
        # store activity depends on task placement.
        obs.count(f"store.{counter}", n, stable=False)

    # - the store contract: get() never raises, put() never raises -

    def get(self, key: str) -> Any | None:
        """The stored artifact, or ``None`` — after verifying the entry's
        checksum.  A corrupt or unreadable entry is evicted, not returned."""
        path = self.path_for(key)
        try:
            faults.check_store_io()
            data = path.read_bytes()
        except FileNotFoundError:
            self._count("misses")
            return None
        except (ArtifactStoreError, OSError):
            self._count("io_errors")
            self._count("misses")
            return None
        value = self._decode(data, key)
        if value is None:
            self.evict(key)
            self._count("misses")
            return None
        self._count("hits")
        return value

    def _decode(self, data: bytes, key: str) -> Any | None:
        try:
            header_raw, _, body = data.partition(b"\n")
            header = json.loads(header_raw)
            if header.get("v") != self.VERSION or header.get("key") != key:
                return None
            if hashlib.sha256(body).hexdigest() != header.get("sha"):
                return None
            return pickle.loads(body)
        except Exception:  # noqa: BLE001 — any damage shape is "corrupt"
            return None

    def put(self, key: str, value: Any) -> bool:
        """Persist one artifact: serialize, checksum, write to a temp file,
        publish with atomic ``os.replace`` under a per-entry lock.  Returns
        whether the entry was published; failures are absorbed (a cache
        that cannot write is slow, not broken)."""
        if self.degraded:
            self._count("degraded_writes")
            return False
        path = self.path_for(key)
        try:
            body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 — unpicklable artifact: skip
            return False
        header = json.dumps(
            {"v": self.VERSION, "key": key,
             "sha": hashlib.sha256(body).hexdigest()},
            sort_keys=True, separators=(",", ":"),
        ).encode()
        data = header + b"\n" + body
        # The torn-write fault truncates what lands on disk, exactly as a
        # power loss after the rename but before the data sync would.
        data = faults.corrupt_store_bytes(data)
        lock = EntryLock(
            path.with_suffix(path.suffix + ".lock"),
            timeout_ms=self.lock_timeout_ms,
            stale_ms=self.lock_stale_ms,
        )
        try:
            faults.check_store_io()
            faults.check_store_enospc()
            path.parent.mkdir(parents=True, exist_ok=True)
            if not lock.acquire():
                self._count("lock_contention")
                return False
            try:
                with self._lock:
                    self._tmp_serial += 1
                    serial = self._tmp_serial
                tmp = path.with_suffix(f".tmp.{os.getpid()}.{serial}")
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            finally:
                lock.release()
        except ArtifactStoreError:
            # Injected transient store I/O: absorbed per-operation, the
            # store keeps trying (this is the shape chaos soaks arm).
            self._count("io_errors")
            return False
        except OSError:
            # The OS refused a write — ENOSPC, EIO, a read-only remount.
            # That is not transient: degrade to sticky read-only so the
            # solve path never pays (or sees) the failing disk again.
            self._count("io_errors")
            self._degrade()
            return False
        self._count("writes")
        return True

    def _degrade(self) -> None:
        if not self.degraded:
            self.degraded = True
            obs.count("store.degraded", stable=False)

    def evict(self, key: str) -> None:
        """Delete one entry (corrupt, or superseded); missing is fine."""
        try:
            self.path_for(key).unlink()
        except OSError:
            pass
        self._count("evictions")

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob(f"*{self.SUFFIX}"))

    def clear(self) -> None:
        for entry in list(self.root.rglob(f"*{self.SUFFIX}")):
            try:
                entry.unlink()
            except OSError:
                pass


# -- default-store resolution -------------------------------------------------

_DEFAULT_STORE: ArtifactStore | None = None
_DEFAULT_STORE_SOURCE: str | None = None


def resolve_store_path(arg: "str | os.PathLike[str] | None") -> pathlib.Path | None:
    """Normalize a store spec: an explicit path wins, else ``$REPRO_STORE``,
    else no store.  ``auto``/``default`` name the conventional location;
    ``0``/``off``/``none`` (in either source) disable the store."""
    raw = str(arg) if arg is not None else os.environ.get(STORE_ENV, "")
    raw = raw.strip()
    if not raw or raw.lower() in ("0", "off", "none", "false"):
        return None
    if raw.lower() in ("auto", "default"):
        return DEFAULT_STORE_DIR
    return pathlib.Path(raw).expanduser()


def set_default_store(
    store: "ArtifactStore | str | os.PathLike[str] | None",
) -> ArtifactStore | None:
    """Install the process-default store (CLI ``--store``, tests).  Accepts
    a built store, a path, or ``None`` to disable.  Returns the store."""
    global _DEFAULT_STORE, _DEFAULT_STORE_SOURCE
    if store is not None and not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    _DEFAULT_STORE = store
    _DEFAULT_STORE_SOURCE = "explicit"
    return store


def default_store() -> ArtifactStore | None:
    """The process-default store: whatever :func:`set_default_store`
    installed, else one lazily resolved from ``$REPRO_STORE`` (re-resolved
    when the variable changes, so tests can flip it per-case)."""
    global _DEFAULT_STORE, _DEFAULT_STORE_SOURCE
    if _DEFAULT_STORE_SOURCE == "explicit":
        return _DEFAULT_STORE
    env = os.environ.get(STORE_ENV, "").strip()
    if env != _DEFAULT_STORE_SOURCE:
        _DEFAULT_STORE_SOURCE = env
        path = resolve_store_path(None)
        _DEFAULT_STORE = ArtifactStore(path) if path is not None else None
    return _DEFAULT_STORE


def reset_default_store() -> None:
    """Forget any installed/resolved default store (tests)."""
    global _DEFAULT_STORE, _DEFAULT_STORE_SOURCE
    _DEFAULT_STORE = None
    _DEFAULT_STORE_SOURCE = None


# -- the cache ----------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss counters for one artifact kind."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ArtifactCache:
    """In-memory content-addressed cache of pipeline artifacts, optionally
    fronting a durable :class:`ArtifactStore`.

    Artifacts are treated as immutable once stored; callers must not mutate
    a cached value.  Thread-safe: lookups and stores take a lock (the
    artifacts themselves are computed outside it).

    ``store=None`` (the default) tracks the *process-default* store — the
    one installed by the CLI's ``--store`` flag or resolved from
    ``$REPRO_STORE`` — so enabling persistence never requires rebuilding
    caches.  Pass a built :class:`ArtifactStore` to pin one explicitly.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        *,
        store: ArtifactStore | None = None,
    ):
        self.max_entries = max_entries
        self._pinned_store = store
        self._entries: dict[str, Any] = {}
        self._stats: dict[str, CacheStats] = {}
        self._lock = threading.Lock()

    @property
    def store(self) -> ArtifactStore | None:
        """The durable tier this cache consults, if any."""
        # Explicit None check: an *empty* store is len() == 0 and falsy.
        if self._pinned_store is not None:
            return self._pinned_store
        return default_store()

    @staticmethod
    def key(kind: str, *components: object) -> str:
        return f"{kind}:{_digest([kind, *components])}"

    @staticmethod
    def _kind(key: str) -> str:
        return key.split(":", 1)[0]

    @property
    def enabled(self) -> bool:
        """Caching (both tiers) is suspended while a fault plan arms any
        pipeline site — injected failures must reach the stage code, not
        be served from cache.  A plan arming only store sites leaves the
        cache live so the injected damage can reach the store."""
        plan = faults.active()
        return plan is None or not plan.arms_pipeline_sites()

    def get(self, key: str) -> Any | None:
        if not self.enabled:
            return None
        kind = self._kind(key)
        with self._lock:
            stats = self._stats.setdefault(kind, CacheStats())
            if key in self._entries:
                stats.hits += 1
                obs.count(f"cache.{kind}.hits", stable=False)
                return self._entries[key]
        store = self.store
        if store is not None:
            # Durable tier: checksum-verified read, outside our lock (disk
            # I/O must not serialize in-memory lookups).
            value = store.get(key)
            if value is not None:
                with self._lock:
                    self._entries[key] = value
                    stats.hits += 1
                obs.count(f"cache.{kind}.hits", stable=False)
                return value
        with self._lock:
            stats.misses += 1
        obs.count(f"cache.{kind}.misses", stable=False)
        return None

    def put(self, key: str, value: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            if (
                self.max_entries is not None
                and key not in self._entries
                and len(self._entries) >= self.max_entries
            ):
                # FIFO eviction: drop the oldest inserted artifact.
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = value
        store = self.store
        if store is not None:
            store.put(key, value)

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        found = self.get(key)
        if found is not None:
            return found
        value = builder()
        self.put(key, value)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def stats(self, kind: str | None = None) -> CacheStats:
        """Counters for one artifact kind, or the aggregate when omitted."""
        with self._lock:
            if kind is not None:
                return self._stats.get(kind, CacheStats())
            total = CacheStats()
            for stats in self._stats.values():
                total.hits += stats.hits
                total.misses += stats.misses
            return total

    def stats_by_kind(self) -> dict[str, CacheStats]:
        with self._lock:
            return {
                kind: CacheStats(s.hits, s.misses)
                for kind, s in self._stats.items()
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stats.clear()


#: The process-wide default cache all pipeline stages consult.
_DEFAULT_CACHE = ArtifactCache()


def artifact_cache() -> ArtifactCache:
    return _DEFAULT_CACHE


def reset_artifact_cache() -> None:
    """Drop every cached artifact and all counters (tests, benchmarks)."""
    _DEFAULT_CACHE.clear()
