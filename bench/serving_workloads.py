"""The serving workloads: closed-loop clients against an in-process tier.

Both workloads draw requests from one generator.  A request is a suite
source, a synthesized profile, a method and a ``bound`` flag, and the mix
repeats every :data:`CYCLE` requests: each source meets every (method,
bound) slot of :data:`MIX` once per cycle.  Each cycle position has a
fixed profile *shape* (seeded branch biases and random walks); request
``i`` carries that shape with every count multiplied by its round
``1 + i // CYCLE``.  So every request has its own profile and idempotency
key and misses the dedup and artifact caches, while every window of a run
does the same work: how much a request costs (above all whether
branch-and-bound certifies its bound in a few nodes or exhausts its node
budget) depends on the shape, not the scale.  ``--seed`` sets the solver
seed of ``serve-cold``'s timed requests and ``serve-zipf``'s draws.  The
requests the quality ratios come from (``serve-cold``'s warm-up,
``serve-zipf``'s population) have the fixed solver seed
:data:`QUALITY_SEED`, so those ratios read the same at every seed.

The traffic is synthetic.  No measured traffic backs the method mix, the
bound share, the Zipf exponent, the population size or the cycle length:
they were chosen to cover every method and the bound and to fit a run
into its time budget.  One property follows from the construction and
matters to any change that normalises profiles: after its shape's first
request, a request differs from an earlier one only by an integer scale
of its counts, so it poses the same alignment problem up to scale.  A run
prints the share of its processed requests that are such scaled copies
(``scale_only_share``); a cache keyed on normalised profiles would hit on
those requests, which real traffic need not repeat.

``serve-zipf`` times only dedup hits.  With first-seen payloads mixed in
(one request in 64), those 1.6% of requests took nearly all of the timed
window, so the workload measured the cold path a second time, and its
throughput varied by 24% (interquartile range over median) across five
seeds.  Cold requests are ``serve-cold``'s alone.

The loop is closed, with two clients: a build system waits for each
layout before it asks for the next.
"""

from __future__ import annotations

import itertools
import math
import shutil
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import repro.service.core as service_core
import repro.service.shard as service_shard
from repro.core.exttsp import exttsp_program_score
from repro.core.layout import original_program_layout
from repro.lang import compile_source
from repro.machine.models import ALPHA_21164
from repro.pipeline.artifacts import reset_artifact_cache
from repro.profiles.edge_profile import ProgramProfile
from repro.profiles.synthesize import synthesize_profile
from repro.service import (
    RequestJournal,
    ServiceConfig,
    ShardSupervisor,
    ShardTierConfig,
    verify_layouts,
)
from repro.workloads.suite import SUITE
from repro.workloads.synthetic import random_biases

import measure
from checks import at_least, layout_problems, parse_layouts
from harness import CounterWindow, Phase, Workload, cache_hit_rates, latency_metrics
from spans import Span, patched

SOURCES = tuple(SUITE)
#: (method, bound) slots: tsp 50%, greedy 20%, exttsp 15%, chain-merge
#: 15%; bound on 25% of requests, every one a tsp request (the paper's
#: use: how far the tsp layout is from optimal).  The service hands a
#: request's own tour costs to the bound as upper bounds, so a greedy
#: request with bound on ``com`` took 0.6-0.8 s against ~50 ms with tsp:
#: one request in 120 taking a fifth of serve-cold's time, whose count
#: per run (four or five) decided the run's throughput.
MIX = (
    ("tsp", True), ("greedy", False), ("tsp", False), ("exttsp", False),
    ("tsp", True), ("chain-merge", False), ("tsp", False), ("greedy", False),
    ("tsp", True), ("exttsp", False), ("tsp", False), ("chain-merge", False),
    ("tsp", True), ("greedy", False), ("tsp", False), ("exttsp", False),
    ("tsp", True), ("chain-merge", False), ("greedy", False), ("tsp", False),
)
CYCLE = len(SOURCES) * len(MIX)
WALKS = 8
MAX_STEPS = 2000
#: Shape of cycle position p: biases and walks seeded SHAPE_SEED + p.
SHAPE_SEED = 7000

#: Generator indices of phase k start at k * PHASE_SPAN; within a phase,
#: timed requests count from 0 and warm-up requests from WARMUP_OFFSET, so
#: no two requests of a run share an index (or a profile).
PHASE_SPAN = 100_000
WARMUP_OFFSET = 90_000
#: A request's payload seed is its solver seed and its trace id.
SEED_SPAN = 10_000_000
#: Solver seed of the requests the quality ratios come from.  With the
#: run's seed there, one of serve-cold's six tsp-with-bound warm-up
#: requests landed 0.04% above its bound on one seed in ten, and
#: ``tsp_over_bound`` changed from run to run.
QUALITY_SEED = 0

CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0
#: serve-cold's untimed warm-up: the first four MIX slots, so that its
#: quality ratios cover six tsp requests with bound and six exttsp ones.
WARMUP_REQUESTS = 24
#: serve-zipf: Zipf(ZIPF_S) over the first ZIPF_POPULATION payloads of a
#: phase, all computed during warm-up.
ZIPF_POPULATION = 60
ZIPF_S = 1.1
#: Payloads re-submitted after the restart to check replayed answers.
REPLAY_PROBES = 5

#: Work directories (journals) live under the benchmark's own ``out/``.
OUT_DIR = Path(__file__).resolve().parent / "out"


class PayloadGenerator:
    """Request ``i`` of seed ``s`` is the same bytes on every run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.programs = {
            abbr: compile_source(SUITE[abbr].source).program for abbr in SOURCES
        }
        self.shapes = [self._shape(position) for position in range(CYCLE)]

    def _shape(self, position: int) -> ProgramProfile:
        program = self.programs[SOURCES[position % len(SOURCES)]]
        return synthesize_profile(
            program,
            random_biases(program, SHAPE_SEED + position),
            seed=SHAPE_SEED + position,
            walks_per_procedure=WALKS,
            max_steps=MAX_STEPS,
        )

    @staticmethod
    def slot(index: int) -> tuple[str, str, bool]:
        position = index % CYCLE
        method, bound = MIX[position // len(SOURCES)]
        return SOURCES[position % len(SOURCES)], method, bound

    def profile(self, index: int) -> ProgramProfile:
        shape = self.shapes[index % CYCLE]
        factor = 1 + index // CYCLE
        return ProgramProfile(
            procedures={
                name: edges.scaled(factor)
                for name, edges in shape.procedures.items()
            },
            call_counts={
                name: n * factor for name, n in shape.call_counts.items()
            },
        )

    def payload(self, index: int, seed: int | None = None) -> dict:
        """Request ``index``, with solver seed ``seed`` in place of the
        generator's if given."""
        abbr, method, bound = self.slot(index)
        return {
            "source": SUITE[abbr].source,
            "profile": self.profile(index).to_json(),
            "method": method,
            "bound": bound,
            "seed": (self.seed if seed is None else seed) * SEED_SPAN + index,
        }


def _index(payload: dict) -> int:
    return payload["seed"] % SEED_SPAN


@dataclass
class Traffic:
    """What the clients saw, kept compact: ``serve-zipf`` sends 10^5
    requests a run, and holding every response would make peak RSS follow
    throughput."""

    #: ``perf_counter`` at submit and at result of every request answered
    #: ok; one (start, end) pair per request.
    intervals: array = field(default_factory=lambda: array("d"))
    #: One line per request that failed or was answered wrongly.
    errors: list[str] = field(default_factory=list)
    #: Payload seed -> (payload, first ok response, its wall latency in ms).
    first: dict = field(default_factory=dict)

    @property
    def answered(self) -> int:
        return len(self.intervals) // 2

    @property
    def attempted(self) -> int:
        return self.answered + len(self.errors)

    def record(self, payload, start, end, response, error) -> None:
        """Called by the client threads; each step is atomic under the GIL."""
        seed = payload["seed"]
        if error is None and (
            response.get("status") != "ok" or response.get("verified") is not True
        ):
            error = (f"status {response.get('status')!r}, "
                     f"verified {response.get('verified')!r}")
        if error is None:
            seen = self.first.setdefault(
                seed, (payload, response, (end - start) * 1e3)
            )
            if seen[1].get("layouts") != response.get("layouts"):
                error = "duplicate answered with different layouts"
        if error is None:
            self.intervals.extend((start, end))
        else:
            self.errors.append(f"request {seed}: {error}")

    def latencies_ms(self, timeline) -> list[float]:
        """Calibrated latency of every request answered ok."""
        pairs = self.intervals
        return [
            timeline.seconds(pairs[i], pairs[i + 1]) * 1e3
            for i in range(0, len(pairs), 2)
        ]


class _Serving(Workload):
    """Shared tier lifecycle, client loop, checks and trace wiring."""

    def __init__(self, seed: int, sampler):
        super().__init__(seed, sampler)
        self.generator = None
        self._work = OUT_DIR / f"work-{seed}-{time.monotonic_ns()}"
        self._phase_number = 0
        self._replaying = False

    def setup(self) -> None:
        self.generator = PayloadGenerator(self.seed)

    def setup_targets(self, recorder) -> list:
        return [(
            sys.modules[__name__], "synthesize_profile",
            lambda f: recorder.wrap(f, "profiles.synthesize"),
        )]

    @property
    def _base(self) -> int:
        return self._phase_number * PHASE_SPAN

    # -- the tier -------------------------------------------------------------

    def _start_tier(self, journal_dir: Path) -> ShardSupervisor:
        config = ShardTierConfig(
            shards=1, journal_dir=str(journal_dir),
            service=ServiceConfig(jobs=1),
        )
        return ShardSupervisor(config).start()

    def _new_journal_dir(self) -> Path:
        path = self._work / f"phase-{self._phase_number}"
        path.mkdir(parents=True)
        return path

    @staticmethod
    def _snapshot(tier: ShardSupervisor) -> dict:
        return tier.snapshot()["shards"][0]["service"]

    # -- the client loop ------------------------------------------------------

    def _closed_loop(self, tier, next_payload, seconds, recorder=None):
        """Run :data:`CLIENTS` closed-loop clients until ``next_payload``
        runs dry.  It is called as ``next_payload(client, expired)``, where
        ``expired`` tells whether ``seconds`` have passed.  Returns
        ``(Traffic, start, end)`` in ``perf_counter`` readings."""
        traffic = Traffic()
        deadline = time.perf_counter() + seconds

        def client(number: int) -> None:
            while True:
                payload = next_payload(number, time.perf_counter() >= deadline)
                if payload is None:
                    return
                start = time.perf_counter()
                response = error = None
                try:
                    if recorder is None:
                        response = tier.submit(payload).result(REQUEST_TIMEOUT_S)
                    else:
                        with recorder.span("request", trace=payload["seed"]):
                            response = tier.submit(payload).result(
                                REQUEST_TIMEOUT_S
                            )
                except Exception as exc:  # noqa: BLE001 -- counted as failed
                    error = f"{type(exc).__name__}: {exc}"
                traffic.record(
                    payload, start, time.perf_counter(), response, error
                )

        started = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(n,), name=f"bench-client-{n}")
            for n in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return traffic, started, time.perf_counter()

    def _send_all(self, tier, payloads) -> Traffic:
        """Untimed: every payload once, through the closed loop."""
        pending = iter(payloads)
        lock = threading.Lock()

        def take(_client, _expired):
            with lock:
                return next(pending, None)

        traffic, _, _ = self._closed_loop(tier, take, seconds=math.inf)
        return traffic

    # -- tracing --------------------------------------------------------------

    def _targets(self, recorder) -> list:
        """The public functions the service worker calls per request, the
        journal appends, and the idempotency key, timed in place."""
        wrap = recorder.wrap

        def trace_of(payload, **_):
            return "recovery" if self._replaying else payload.get("seed")

        def align_name(*args, **kwargs):
            return f"align.{kwargs['method']}"

        return [
            (service_core, "parse_request",
             lambda f: wrap(f, "service.parse", thread_trace=trace_of)),
            (service_core, "compile_source", lambda f: wrap(f, "lang.compile")),
            (ProgramProfile, "from_json", lambda f: wrap(f, "profiles.load")),
            (ProgramProfile, "check_against", lambda f: wrap(f, "profiles.load")),
            (service_core, "align_program", lambda f: wrap(f, align_name)),
            (service_core, "evaluate_program", lambda f: wrap(f, "evaluate")),
            (service_core, "lower_bound_program", lambda f: wrap(f, "bound")),
            (service_core, "verify_layouts", lambda f: wrap(f, "service.verify")),
            (RequestJournal, "admitted", lambda f: wrap(f, "service.journal")),
            (RequestJournal, "completed", lambda f: wrap(f, "service.journal")),
            (service_core, "request_key", lambda f: wrap(f, "service.key")),
            (service_shard, "request_key", lambda f: wrap(f, "service.key")),
        ]

    def layer_spans(self, recorder):
        """Attach each request's worker-thread spans to the client span
        that caused the work, under a synthetic ``service.process`` span
        covering them; replay spans go under the ``recovery`` span."""
        spans = recorder.spans
        roots: dict = {}
        members: dict = {}
        for index, span in enumerate(spans):
            if span.parent is not None:
                continue
            if span.name in ("request", "recovery"):
                roots.setdefault(span.trace, index)
            else:
                members.setdefault(span.trace, []).append(index)
        for trace, indices in members.items():
            root = roots.get(trace)
            if root is None:
                continue
            process = recorder.add(Span(
                name="service.process",
                start=min(spans[i].start for i in indices),
                end=max(spans[i].end for i in indices),
                trace=trace,
                parent=root,
            ))
            for index in indices:
                spans[index].parent = process
        return {"request"}, {"service.process"}, {"service.wait": "request"}

    # -- phases ---------------------------------------------------------------

    def _measure(self, seconds, recorder, warmup, next_payload) -> tuple:
        """Start a tier on a fresh journal, send the warm-up payloads, then
        time the closed loop; returns ``(phase, tier, journal_dir)`` with
        the tier still running."""
        journal_dir = self._new_journal_dir()
        tier = self._start_tier(journal_dir)
        try:
            warm = self._send_all(tier, warmup)
            reset_artifact_cache()
            before = self._snapshot(tier)
            window = CounterWindow()
            with patched(self._targets(recorder) if recorder else []):
                timed, started, ended = self._closed_loop(
                    tier, next_payload, seconds, recorder
                )
            phase = Phase()
            phase.counters = window.close()
            phase.cache_hit_rates = cache_hit_rates()
            phase.peak_rss_mb = measure.peak_rss_mb()
            after = self._snapshot(tier)
        except BaseException:
            tier.drain(REQUEST_TIMEOUT_S)
            raise
        timeline = self.sampler.timeline()
        phase.latency_groups = [timed.latencies_ms(timeline)]
        phase.attempted = timed.attempted
        phase.failed = len(timed.errors)
        phase.ops_per_s = timed.answered / timeline.seconds(started, ended)
        phase.wall_ops_per_s = timed.answered / (ended - started)
        phase.work_units = sum(
            after[key] - before[key] for key in ("completed", "failed")
        )
        phase.outputs = {
            "warmup": warm,
            "timed": timed,
            "completed_total": after["completed"],
            "deduped": after["deduped"] - before["deduped"],
            "journal_records": (
                after["journal"]["appended"] - before["journal"]["appended"]
            ),
        }
        self._phase_number += 1
        return phase, tier, journal_dir

    @staticmethod
    def _processed(phase: Phase) -> list[tuple]:
        """``(payload, response, latency_ms)`` of each payload's first ok
        answer, warm-up first: the requests the tier actually computed."""
        warm, timed = phase.outputs["warmup"].first, phase.outputs["timed"].first
        return list(warm.values()) + [
            entry for seed, entry in timed.items() if seed not in warm
        ]

    def _replay(self, tier, journal_dir, phase, recorder) -> None:
        """Drain, restart on the same journal with cold caches (as a new
        process would have them) and time the replay under the recorder;
        then check that every completed request was replayed and that
        re-submitted payloads are answered from the journal unchanged."""
        tier.drain(REQUEST_TIMEOUT_S)
        reset_artifact_cache()
        self._replaying = True
        try:
            with patched(self._targets(recorder)):
                with recorder.span("recovery", "recovery"):
                    start = time.perf_counter()
                    restarted = self._start_tier(journal_dir)
                    while restarted.recovering:
                        time.sleep(0.001)
                    recovery_s = time.perf_counter() - start
        finally:
            self._replaying = False
        processed = self._processed(phase)
        problems = []
        try:
            summary = self._snapshot(restarted)["recovery"] or {}
            completed = phase.outputs["completed_total"]
            if summary.get("reverify_failed") or summary.get(
                "replayed_completed"
            ) != completed:
                problems.append(
                    f"replay: {summary.get('replayed_completed')} of "
                    f"{completed} completed requests re-served, "
                    f"{summary.get('reverify_failed')} failed re-verification"
                )
            for payload, response, _ in processed[:REPLAY_PROBES]:
                again = restarted.submit(payload).result(REQUEST_TIMEOUT_S)
                if again.get("served_from") != "journal" or again.get(
                    "layouts"
                ) != response.get("layouts"):
                    problems.append(
                        f"replay: request {payload['seed']} was not re-served "
                        "from the journal unchanged"
                    )
        finally:
            restarted.drain(REQUEST_TIMEOUT_S)
        original_s = sum(r["elapsed_ms"] for _, r, _ in processed) / 1e3
        phase.outputs.update(
            recovery_s=recovery_s,
            recovery_records=summary.get("replayed_completed", 0),
            replay_cost_ratio=recovery_s / original_s,
            replay_problems=problems,
        )

    # -- checks and metrics ---------------------------------------------------

    def check(self, phase: Phase) -> list[str]:
        warm, timed = phase.outputs["warmup"], phase.outputs["timed"]
        problems = list(phase.outputs.get("replay_problems", []))
        problems += warm.errors + timed.errors
        for seed, (_, response, _) in timed.first.items():
            if seed in warm.first and warm.first[seed][1].get(
                "layouts"
            ) != response.get("layouts"):
                problems.append(f"request {seed}: duplicate answered with "
                                "different layouts")
        quality = {"tsp": [], "exttsp": []}
        for payload, response, _ in self._processed(phase):
            problems += self._verify_response(
                payload, response,
                quality if payload["seed"] in warm.first else None,
            )
        phase.outputs["quality"] = quality
        return problems

    def _verify_response(self, payload, response, quality) -> list[str]:
        """Client-side re-verification of one response.  Collects the
        quality ratios into ``quality`` if given: the warm-up's, which are
        the same requests on every run however far the window gets."""
        label = f"request {payload['seed']}"
        abbr, method, bound = self.generator.slot(_index(payload))
        program = self.generator.programs[abbr]
        profile = ProgramProfile.from_json(payload["profile"])
        layouts, problems = parse_layouts(response.get("layouts"), label)
        if layouts is None:
            return problems
        problems += layout_problems(program, layouts, label)
        if problems:
            return problems
        bounds = response.get("bounds")
        if bound and not isinstance(bounds, dict):
            return [f"{label}: bound requested but none returned"]
        problems += [
            f"{label}: {violation}"
            for violation in verify_layouts(
                program, layouts, profile, ALPHA_21164,
                costs=response.get("costs") or {}, bounds=bounds,
            )
        ]
        total = response["penalty"]["total"]
        if bound and not at_least(total, sum(bounds.values())):
            problems.append(f"{label}: penalty below the certified bound")
        if quality is not None:
            if method == "tsp" and bound:
                quality["tsp"].append((total, sum(bounds.values())))
            elif method == "exttsp":
                original = exttsp_program_score(
                    program, original_program_layout(program), profile
                )
                quality["exttsp"].append(
                    exttsp_program_score(program, layouts, profile) / original
                )
        return problems

    def end_to_end(self, phase: Phase):
        metrics = latency_metrics(phase, "requests")
        quality = phase.outputs["quality"]
        pairs, ratios = quality["tsp"], quality["exttsp"]
        bound = sum(b for _, b in pairs)
        # Empty only when those requests failed, which the checks report.
        metrics["tsp_over_bound"] = (
            sum(p for p, _ in pairs) / bound if bound else 0.0,
            f"sum over {len(pairs)} tsp requests with bound",
        )
        metrics["exttsp_score_norm"] = (
            measure.geomean(ratios) if ratios else 0.0,
            f"geomean over {len(ratios)} exttsp requests",
        )
        return metrics

    def info(self, phase: Phase) -> list[str]:
        lines = []
        # Only a payload's first request waited for its processing; later
        # ones were answered from the dedup cache.
        warm = phase.outputs["warmup"].first
        waits = [
            latency - response["elapsed_ms"]
            for seed, (_, response, latency) in phase.outputs["timed"].first.items()
            if seed not in warm
        ]
        if waits:
            lines.append(
                f"service.wait_ms p50 = {measure.percentile(waits, 0.5):.4f} ms, "
                f"p99 = {measure.percentile(waits, 0.99):.4f} ms "
                f"(latency - elapsed_ms of the {len(waits)} processed requests)"
            )
        processed = self._processed(phase)
        shapes, copies = set(), 0
        for payload, _, _ in processed:
            position = _index(payload) % CYCLE
            copies += position in shapes
            shapes.add(position)
        if processed:
            lines.append(
                f"scale_only_share = {copies / len(processed):.4f} ratio "
                f"({copies} of {len(processed)} processed requests repeat an "
                "earlier request's profile shape at another scale)"
            )
        if "recovery_s" in phase.outputs:
            lines.append(
                f"recovery_s = {phase.outputs['recovery_s']:.4f} s "
                f"({phase.outputs['recovery_records']} records)"
            )
        return lines

    def extra_layers(self, phase: Phase) -> dict[str, float]:
        out = phase.outputs
        return {
            "service.dedup_ratio": out["deduped"] / max(out["timed"].attempted, 1),
            "service.journal_records": out["journal_records"],
            "recovery.records": out.get("recovery_records", 0),
            "recovery.replay_cost_ratio": out.get("replay_cost_ratio", 0.0),
        }

    def probe_instances(self) -> list:
        """The procedures of the first cycle's profile shapes."""
        instances = []
        for position, shape in enumerate(self.generator.shapes):
            abbr, _, _ = self.generator.slot(position)
            for proc in self.generator.programs[abbr]:
                edges = shape.procedures.get(proc.name)
                if edges is not None and edges.total():
                    instances.append((proc.cfg, edges, ALPHA_21164))
        return instances[:: max(1, len(instances) // 48)][:48]

    def close(self) -> None:
        shutil.rmtree(self._work, ignore_errors=True)


class ServeCold(_Serving):
    """Every request distinct: the cold path.  The window holds whole
    cycles of the mix: once ``seconds`` have passed, the clients finish
    the current cycle.  A request costs from ~10 ms to ~0.3 s by its slot,
    so a window cut mid-cycle would hold another mix on a faster or a
    slower run."""

    name = "serve-cold"

    def measure(self, seconds: float, recorder=None) -> Phase:
        base = self._base
        indices = itertools.count(base)
        lock = threading.Lock()
        stop = math.inf

        def take(_client, expired):
            nonlocal stop
            with lock:
                index = next(indices)
                if expired and stop == math.inf:
                    stop = base + CYCLE * math.ceil((index - base) / CYCLE)
                if index >= stop:
                    return None
            return self.generator.payload(index)

        warmup = [
            self.generator.payload(base + WARMUP_OFFSET + n, QUALITY_SEED)
            for n in range(WARMUP_REQUESTS)
        ]
        phase, tier, _ = self._measure(seconds, recorder, warmup, take)
        tier.drain(REQUEST_TIMEOUT_S)
        return phase


class ServeZipf(_Serving):
    """Zipf-popular payloads computed before the window: every timed
    request is a dedup hit.  Traced runs then restart the tier and time
    the journal replay."""

    name = "serve-zipf"

    def measure(self, seconds: float, recorder=None) -> Phase:
        base = self._base
        population = [
            self.generator.payload(base + rank, QUALITY_SEED)
            for rank in range(ZIPF_POPULATION)
        ]
        samplers = [
            measure.ZipfSampler(ZIPF_POPULATION, ZIPF_S, f"zipf/{self.seed}/{n}")
            for n in range(CLIENTS)
        ]

        def take(client, expired):
            return None if expired else population[samplers[client].draw()]

        phase, tier, journal_dir = self._measure(seconds, recorder, population, take)
        if recorder is None:
            tier.drain(REQUEST_TIMEOUT_S)
        else:
            self._replay(tier, journal_dir, phase, recorder)
        return phase
