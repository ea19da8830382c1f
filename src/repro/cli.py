"""Command-line interface.

    repro compile FILE [--dot DIR] [--simplify]
    repro run FILE [--inputs 1,2,3 | --input-file F] [--profile-out P.json]
    repro align FILE [--inputs ... | --input-file F | --profile P.json]
                 [--method tsp] [--model alpha21164] [--bound]
                 [--cross-profile Q.json] [--jobs N]
                 [--retries N] [--task-timeout-ms MS] [--store PATH]
    repro suite CASE [CASE ...] [--train DATASET] [--budget-ms MS]
                 [--jobs N] [--retries N] [--task-timeout-ms MS]
                 [--store PATH]
    repro serve [--host H] [--port P] [--capacity N] [--deadline-ms MS]
                 [--breaker-threshold N] [--breaker-cooldown N] [--jobs N]
    repro request FILE [--url URL] [--method tsp] [--deadline-ms MS]
                 [--profile P.json | --inputs ...] [--bound] [--json]
    repro trace summarize T.jsonl
    repro trace validate T.jsonl

``repro suite com.in`` runs one benchmark case of the paper's evaluation
(``repro suite all`` runs every case; ``--budget-ms`` bounds each
procedure's solver, ``--store DIR`` keeps finished cases so an
interrupted run resumes when re-run with the same store, and ``--jobs N``
solves procedures in N worker processes without changing a byte of the
output); ``repro align`` is the end-user path: compile, profile (or load
a saved profile), align, and report penalties per method against the
certified lower bound.

``--trace PATH`` (or ``$REPRO_TRACE``) on ``align``/``suite`` writes a
JSONL observability trace — spans and counters from every pipeline layer,
merged across worker processes — which ``repro trace summarize`` renders
as per-stage timing, span-tree, and counter tables.

Exit codes: 0 success, 1 runtime failure (compile/profile/solver), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

from repro.cfg import CFGError, cfg_to_dot, simplify_procedure, validate_program
from repro.cfg.graph import Program
from repro.core import (
    align_program,
    evaluate_program,
    lower_bound_program,
    train_predictors,
)
from repro.core.align import ALIGN_METHODS
from repro.core.exttsp import exttsp_program_score
from repro.errors import ProfileValidationError, ReproError, UsageError
from repro.experiments.report import format_table
from repro.lang import LangError, compile_source, run_and_profile
from repro.machine.models import STANDARD_MODELS, get_model
from repro.profiles.edge_profile import ProgramProfile


def _read_source(path: str) -> str:
    return pathlib.Path(path).read_text()


def _parse_inputs(args) -> list[int]:
    if getattr(args, "inputs", None):
        try:
            return [int(x) for x in args.inputs.replace(",", " ").split()]
        except ValueError:
            raise UsageError(
                f"--inputs must be comma/space separated integers, "
                f"got {args.inputs!r}"
            ) from None
    if getattr(args, "input_file", None):
        try:
            text = pathlib.Path(args.input_file).read_text()
        except OSError as exc:
            raise UsageError(f"--input-file: {exc}") from None
        try:
            return [int(x) for x in text.split()]
        except ValueError as exc:
            raise UsageError(
                f"--input-file {args.input_file}: expected "
                f"whitespace-separated integers ({exc})"
            ) from None
    return []


def _validated_program(module) -> Program:
    """Validate CFG invariants before anything downstream consumes the
    program; a malformed CFG is a usage error (exit 2) naming the offending
    procedure, never a raw traceback."""
    program = module.program
    try:
        validate_program(program)
    except CFGError as exc:
        raise UsageError(f"invalid control-flow graph: {exc}") from None
    return program


def _supervision_policy(args):
    """Build the executor's retry policy from CLI flags (``None`` defers
    to ``$REPRO_RETRIES`` / ``$REPRO_TASK_TIMEOUT_MS``)."""
    from repro.pipeline.executor import resolve_policy

    retries = getattr(args, "retries", None)
    if retries is not None and retries < 0:
        raise UsageError(f"--retries must be >= 0, got {retries}")
    timeout = getattr(args, "task_timeout_ms", None)
    if timeout is not None and timeout <= 0:
        raise UsageError(
            f"--task-timeout-ms must be a positive number of milliseconds, "
            f"got {timeout}"
        )
    if retries is None and timeout is None:
        return None
    return resolve_policy(retries=retries, task_timeout_ms=timeout)


def _install_store(args) -> None:
    """Install the on-disk artifact store named by ``--store`` (an
    explicit flag wins over ``$REPRO_STORE``; no flag defers to the
    environment)."""
    from repro.pipeline.artifacts import resolve_store_path, set_default_store

    if getattr(args, "store", None) is None:
        return
    set_default_store(resolve_store_path(args.store))


def _install_trace(args, argv: list[str] | None) -> None:
    """Start a JSONL trace if ``--trace`` (or ``$REPRO_TRACE``) asks for
    one.  ``main`` finalizes it — counters flush on exit, success or not."""
    from repro import obs

    label = " ".join(["repro", *(argv if argv is not None else sys.argv[1:])])
    obs.start_trace(getattr(args, "trace", None), label=label)


def cmd_compile(args) -> int:
    module = compile_source(_read_source(args.file))
    program = _validated_program(module)
    rows = []
    for proc in program:
        cfg = proc.cfg
        if args.simplify:
            simplified, result = simplify_procedure(proc)
            cfg = simplified.cfg
            note = (f"-{result.merged_blocks + result.pruned_blocks} blocks"
                    if result.merged_blocks or result.pruned_blocks else "")
        else:
            note = ""
        rows.append([
            proc.name, len(cfg), len(proc.branch_sites()),
            cfg.total_body_words(), note,
        ])
        if args.dot:
            out = pathlib.Path(args.dot)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{proc.name}.dot").write_text(
                cfg_to_dot(cfg, name=proc.name)
            )
    print(format_table(
        ["procedure", "blocks", "branch sites", "body words", "simplify"],
        rows,
    ))
    if args.dot:
        print(f"wrote DOT files to {args.dot}/")
    return 0


def cmd_run(args) -> int:
    module = compile_source(_read_source(args.file))
    result, profile = run_and_profile(module, _parse_inputs(args))
    print(f"returned: {result.returned}")
    if result.outputs:
        shown = ", ".join(str(v) for v in result.outputs[:20])
        suffix = " ..." if len(result.outputs) > 20 else ""
        print(f"outputs:  {shown}{suffix}")
    print(f"blocks executed: {result.blocks_executed}")
    print(f"instructions executed: {result.instructions_executed}")
    print(f"branches executed: {profile.executed_branches(module.program)}")
    if args.profile_out:
        pathlib.Path(args.profile_out).write_text(profile.to_json())
        print(f"profile written to {args.profile_out}")
    return 0


def _load_profile(args, module) -> ProgramProfile:
    if args.profile:
        profile = ProgramProfile.from_json(
            pathlib.Path(args.profile).read_text()
        )
        profile.check_against(module.program)
        return profile
    _, profile = run_and_profile(module, _parse_inputs(args))
    return profile


def cmd_align(args) -> int:
    policy = _supervision_policy(args)
    _install_store(args)
    module = compile_source(_read_source(args.file))
    program = _validated_program(module)
    model = get_model(args.model)
    training = _load_profile(args, module)
    testing = training
    predictors = train_predictors(program, training)
    if args.cross_profile:
        testing = ProgramProfile.from_json(
            pathlib.Path(args.cross_profile).read_text()
        )
        testing.check_against(program)

    methods = [args.method] if args.method != "all" else list(ALIGN_METHODS)
    if "original" not in methods:
        methods.insert(0, "original")
    rows = []
    baseline = None
    score_baseline = None
    for method in methods:
        layouts = align_program(
            program, training, method=method, model=model, jobs=args.jobs,
            policy=policy,
        )
        penalty = evaluate_program(
            program, layouts, testing, model, predictors=predictors
        )
        score = exttsp_program_score(program, layouts, testing)
        if baseline is None:
            baseline = penalty.total or 1.0
            score_baseline = score or 1.0
        rows.append([
            method, penalty.total, penalty.total / baseline,
            score, score / score_baseline,
            penalty.breakdown.redirect, penalty.breakdown.mispredict,
            penalty.breakdown.jump,
        ])
    if args.bound:
        bound = lower_bound_program(
            program, training, model=model, jobs=args.jobs, policy=policy,
        )
        rows.append(["(lower bound)", bound.total, bound.total / baseline,
                     "", "", "", "", ""])
    print(format_table(
        ["method", "penalty cycles", "normalized", "ext-tsp score",
         "norm", "redirect", "mispredict", "jump"],
        rows,
        title=f"branch alignment under {model.name}"
        + (" (cross-validated)" if args.cross_profile else ""),
    ))
    if args.details:
        from repro.core.report import describe_program

        method = methods[-1]
        layouts = align_program(
            program, training, method=method, model=model, jobs=args.jobs,
            policy=policy,
        )
        for name, report in describe_program(
            program, layouts, testing, model
        ).items():
            print()
            print(format_table(
                ["pos", "block", "was", "ends with", "penalty", "note"],
                report.rows(),
                title=(
                    f"{name} [{method}]: {report.blocks_moved} blocks moved, "
                    f"{report.jumps_deleted} jumps deleted, "
                    f"{report.jumps_inserted} inserted, "
                    f"{report.fixups} fixups"
                ),
            ))
    return 0


def _suite_specs(args) -> list[tuple[str, str, str | None]]:
    """Parse and validate the suite CASE arguments up front, so an unknown
    benchmark or data set fails fast instead of becoming a skipped row."""
    from repro.workloads.suite import all_cases, get_benchmark

    if args.cases == ["all"]:
        if args.train is not None:
            raise UsageError(
                "--train cannot be combined with 'all': each benchmark has "
                "its own data sets, so name the cases to cross-validate "
                "(e.g. 'su2.sh --train re')"
            )
        return [(bm, ds, None) for bm, ds in all_cases()]
    specs: list[tuple[str, str, str | None]] = []
    for case in args.cases:
        if "." not in case:
            raise UsageError(
                f"CASE must look like 'com.in' (or 'all'), got {case!r}"
            )
        benchmark, dataset = case.split(".", 1)
        spec = get_benchmark(benchmark)
        for ds in (dataset, args.train):
            if ds is not None and ds not in spec.dataset_names():
                spec.inputs(ds)  # raises UnknownNameError with known names
        specs.append((benchmark, dataset, args.train))
    return specs


def cmd_suite(args) -> int:
    from repro.budget import Budget
    from repro.experiments import run_cases
    from repro.pipeline.artifacts import default_store

    specs = _suite_specs(args)
    policy = _supervision_policy(args)
    _install_store(args)
    budget = None
    if args.budget_ms is not None:
        if args.budget_ms <= 0:
            raise UsageError(
                f"--budget-ms must be a positive number of milliseconds, "
                f"got {args.budget_ms}"
            )
        budget = Budget(wall_ms=args.budget_ms)

    result = run_cases(specs, budget=budget, jobs=args.jobs, policy=policy)
    for case in result.cases:
        rows = []
        for method, outcome in case.methods.items():
            rows.append([
                method, outcome.penalty, case.normalized_penalty(method),
                outcome.exttsp, case.normalized_exttsp(method),
                outcome.cycles, case.normalized_cycles(method),
                outcome.timing.icache_misses,
                outcome.degraded_summary or "-",
                outcome.retried or "-",
                len(outcome.quarantined) or "-",
            ])
        rows.append(["(lower bound)", case.lower_bound, case.normalized_bound,
                     "", "", "", "", "", "", "", ""])
        title = f"{case.label} (trained on {case.train_dataset})"
        print(format_table(
            ["method", "penalty", "norm", "ext-tsp", "norm", "sim cycles",
             "norm", "i$ misses", "degraded", "retried", "quarantined"],
            rows, title=title,
        ))
        for line in sorted(
            {w for outcome in case.methods.values() for w in outcome.warnings}
        ):
            print(f"warning: {line}")
        for method, outcome in case.methods.items():
            for proc, error in sorted(outcome.quarantined.items()):
                print(
                    f"quarantined: {case.label} {proc} [{method}]: {error}",
                    file=sys.stderr,
                )
    for skip in result.skipped:
        print(
            f"skipped: {skip.label} after {skip.attempts} attempts "
            f"({skip.error})",
            file=sys.stderr,
        )
    store = default_store()
    if store is not None:
        print(
            f"store {store.root}: {result.resumed} case(s) resumed, "
            f"{result.computed} computed"
        )
    return 0 if result.cases else 1


def cmd_serve(args) -> int:
    from repro.service import ServiceConfig, serve
    from repro.service.shard import ShardSupervisor, ShardTierConfig

    policy = _supervision_policy(args)
    _install_store(args)
    if args.capacity < 1:
        raise UsageError(f"--capacity must be >= 1, got {args.capacity}")
    if args.deadline_ms is not None and not 0 < args.deadline_ms < math.inf:
        raise UsageError(
            f"--deadline-ms must be a positive, finite number of "
            f"milliseconds, got {args.deadline_ms}"
        )
    if args.breaker_threshold < 1:
        raise UsageError(
            f"--breaker-threshold must be >= 1, got {args.breaker_threshold}"
        )
    if args.breaker_cooldown < 1:
        raise UsageError(
            f"--breaker-cooldown must be >= 1, got {args.breaker_cooldown}"
        )
    if args.shards < 1:
        raise UsageError(f"--shards must be >= 1, got {args.shards}")
    if args.hedge_after_ms is not None and args.hedge_after_ms < 0:
        raise UsageError(
            f"--hedge-after-ms must be >= 0, got {args.hedge_after_ms}"
        )
    if args.journal_compact_bytes is not None and args.journal_compact_bytes < 1:
        raise UsageError(
            f"--journal-compact-bytes must be >= 1, "
            f"got {args.journal_compact_bytes}"
        )
    tier = ShardSupervisor(ShardTierConfig(
        shards=args.shards,
        journal_dir=args.journal_dir,
        hedge_after_ms=args.hedge_after_ms,
        service=ServiceConfig(
            capacity=args.capacity,
            jobs=args.jobs,
            policy=policy,
            default_deadline_ms=args.deadline_ms,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            verify=not args.no_verify,
            journal_compact_bytes=args.journal_compact_bytes,
        ),
    ))
    return serve(tier, host=args.host, port=args.port)


def cmd_request(args) -> int:
    import urllib.error

    from repro.errors import ServiceRetryExhaustedError
    from repro.service.client import (
        RetryPolicy as ClientRetryPolicy,
        request_alignment,
        request_with_retry,
    )

    payload: dict = {
        "source": _read_source(args.file),
        "method": args.method,
        "model": args.model,
        "seed": args.seed,
    }
    inputs = _parse_inputs(args)
    if inputs:
        payload["inputs"] = inputs
    if args.profile:
        payload["profile"] = pathlib.Path(args.profile).read_text()
    if args.deadline_ms is not None:
        if not 0 < args.deadline_ms < math.inf:
            raise UsageError(
                f"--deadline-ms must be a positive, finite number of "
                f"milliseconds, got {args.deadline_ms}"
            )
        payload["deadline_ms"] = args.deadline_ms
    if args.bound:
        payload["bound"] = True

    if args.retries < 0:
        raise UsageError(f"--retries must be >= 0, got {args.retries}")
    if args.retry_delay_ms < 0:
        raise UsageError(
            f"--retry-delay-ms must be >= 0, got {args.retry_delay_ms}"
        )
    try:
        if args.retries:
            # Retries ride the server's idempotency keys: resending the
            # same payload across a restart is answered from the journal,
            # never solved twice.
            status, response = request_with_retry(
                args.url,
                payload,
                policy=ClientRetryPolicy(
                    attempts=args.retries + 1,
                    base_delay_s=args.retry_delay_ms / 1000.0,
                ),
                timeout=args.timeout,
            )
        else:
            status, response = request_alignment(
                args.url, payload, timeout=args.timeout
            )
    except ServiceRetryExhaustedError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(response, indent=1, sort_keys=True))
    elif status == 200 and response.get("status") == "ok":
        penalty = response.get("penalty", {})
        degraded = response.get("degraded", {})
        rows = [[
            response.get("served_by"),
            penalty.get("total"),
            response.get("retried", 0) or "-",
            len(response.get("quarantined", {})) or "-",
            ("yes" if response.get("verified") else "no"),
        ]]
        print(format_table(
            ["served by", "penalty cycles", "retried", "quarantined",
             "verified"],
            rows,
            title=f"request {response.get('id')} "
                  f"({len(response.get('layouts', {}))} procedure(s), "
                  f"{response.get('elapsed_ms')} ms)",
        ))
        for proc, rung in sorted(degraded.items()):
            print(f"degraded: {proc}: {rung}")
    else:
        detail = response.get("error") or response.get("violations") or response
        print(
            f"error: service returned {status} "
            f"({response.get('status', 'error')}): {detail}",
            file=sys.stderr,
        )
    if status == 200:
        return 0
    return 2 if status == 400 else 1


def cmd_trace(args) -> int:
    from repro import obs

    if args.trace_command == "validate":
        lines = pathlib.Path(args.file).read_text().splitlines()
        problems = obs.validate_trace_lines(lines)
        if problems:
            for problem in problems:
                print(f"{args.file}: {problem}", file=sys.stderr)
            print(
                f"{args.file}: {len(problems)} schema problem(s)",
                file=sys.stderr,
            )
            return 1
        events = sum(1 for line in lines if line.strip())
        print(f"{args.file}: {events} event(s), schema OK")
        return 0
    try:
        print(obs.summarize_trace(args.file))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _chaos_workload(args) -> "object":
    from repro.chaos import WORKLOAD_NAMES, WorkloadConfig

    if args.workload not in WORKLOAD_NAMES:
        raise UsageError(
            f"unknown workload {args.workload!r} "
            f"(want one of {', '.join(WORKLOAD_NAMES)})"
        )
    return WorkloadConfig(
        name=args.workload,
        requests=args.requests,
        shards=args.shards,
        jobs=args.jobs,
    )


def _parse_schedule(text: str):
    from repro.chaos import FaultSchedule

    try:
        return FaultSchedule.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_chaos_explore(args) -> int:
    from repro.chaos import (
        ExploreConfig,
        Explorer,
        load_corpus,
        save_reproducer,
        shrink,
    )

    workload = _chaos_workload(args)
    extra = []
    if args.corpus:
        for entry in load_corpus(args.corpus):
            extra.append(entry.schedule)
    config = ExploreConfig(
        workload=workload,
        singles_per_site=args.singles_per_site,
        pairs=args.pairs,
        extra=extra,
    )
    explorer = Explorer(config)

    def progress(index: int, total: int, schedule) -> None:
        print(f"[{index + 1}/{total}] {schedule.schedule_id}", flush=True)

    report = explorer.explore(progress=progress if args.verbose else None)
    sites = report.space.sites()
    print(f"fault space: {len(sites)} site(s) reached")
    rows = [
        [site, str(report.space.total(site)),
         ",".join(report.space.scopes(site))]
        for site in sites
    ]
    print(format_table(["site", "consultations", "scopes"], rows))
    print(
        f"replayed {len(report.reports)} schedule(s): "
        f"{len(report.reports) - len(report.failures)} ok, "
        f"{len(report.failures)} failing"
    )
    minimized = []
    if report.failures and args.corpus:
        _, reference = explorer.discover()

        def fails(candidate) -> bool:
            return not explorer.run_schedule(candidate, reference).ok

        by_id = {r.schedule_id: r for r in report.reports}
        for schedule in explorer.schedules(report.space):
            inv = by_id.get(schedule.schedule_id)
            if inv is None or inv.ok:
                continue
            minimal = shrink(schedule, fails)
            final = explorer.run_schedule(minimal, reference)
            path = save_reproducer(
                args.corpus, minimal,
                workload=workload,
                failed=final.failed() or inv.failed(),
                note=f"minimized from {schedule.schedule_id}",
            )
            if path is not None:
                minimized.append((schedule.schedule_id,
                                  minimal.schedule_id, str(path)))
        for original, minimal_id, path in minimized:
            print(f"minimized {original} -> {minimal_id} ({path})")
    if args.out:
        payload = report.to_json()
        payload["canonical"] = report.canonical()
        pathlib.Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"report written to {args.out}")
    for failure in report.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if report.failures else 0


def cmd_chaos_replay(args) -> int:
    from repro.chaos import ExploreConfig, Explorer, load_corpus

    schedules = []
    if args.schedule:
        schedules.append((_parse_schedule(args.schedule), None))
    if args.corpus:
        for entry in load_corpus(args.corpus):
            schedules.append((entry.schedule, entry))
    if not schedules:
        raise UsageError("nothing to replay: pass --schedule and/or --corpus")
    failures = 0
    for schedule, entry in schedules:
        workload = entry.workload if entry is not None else _chaos_workload(args)
        explorer = Explorer(ExploreConfig(workload=workload))
        _, reference = explorer.discover()
        inv = explorer.run_schedule(schedule, reference)
        origin = f" [{entry.path}]" if entry is not None else ""
        if inv.ok:
            print(f"ok   {schedule.schedule_id}{origin}")
        else:
            failures += 1
            print(f"FAIL {schedule.schedule_id}{origin}: "
                  f"{', '.join(inv.failed())}", file=sys.stderr)
            for name, verdict in sorted(inv.verdicts.items()):
                if not verdict["ok"]:
                    print(f"     {name}: {verdict['detail']}",
                          file=sys.stderr)
    return 1 if failures else 0


def cmd_chaos_shrink(args) -> int:
    from repro.chaos import ExploreConfig, Explorer, save_reproducer, shrink

    schedule = _parse_schedule(args.schedule)
    workload = _chaos_workload(args)
    explorer = Explorer(ExploreConfig(workload=workload))
    _, reference = explorer.discover()

    def fails(candidate) -> bool:
        return not explorer.run_schedule(candidate, reference).ok

    try:
        minimal = shrink(schedule, fails)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = explorer.run_schedule(minimal, reference)
    print(f"minimal failing schedule: {minimal.schedule_id}")
    print(f"failing invariants: {', '.join(final.failed()) or '(flaky?)'}")
    if args.corpus:
        path = save_reproducer(
            args.corpus, minimal, workload=workload,
            failed=final.failed(),
            note=f"minimized from {schedule.schedule_id}",
        )
        if path is not None:
            print(f"reproducer written to {path}")
        else:
            print("reproducer already in corpus")
    return 0


def cmd_journal_verify(args) -> int:
    from repro.service.scrub import scrub_path

    scrubs = scrub_path(args.path)
    if not scrubs:
        print(f"{args.path}: no journal files")
        return 0
    if args.json:
        print(json.dumps([s.to_json() for s in scrubs],
                         indent=2, sort_keys=True))
    else:
        rows = []
        for s in scrubs:
            state = "CORRUPT" if s.corrupt else (
                "torn-tail" if s.torn_tail else "ok"
            )
            rows.append([
                pathlib.Path(s.path).name, str(s.lines),
                str(s.records.get("admitted", 0)),
                str(s.completed), str(s.orphans), str(s.failed),
                str(len(s.interior_corrupt)), state,
            ])
        print(format_table(
            ["journal", "lines", "admitted", "completed", "orphans",
             "failed", "interior", "state"],
            rows,
        ))
    corrupt = [s for s in scrubs if s.corrupt]
    for s in corrupt:
        where = ("unreadable" if s.unreadable else
                 f"interior corruption at lines {s.interior_corrupt}")
        print(f"{s.path}: {where}", file=sys.stderr)
    torn = [s for s in scrubs if s.torn_tail and not s.corrupt]
    for s in torn:
        print(f"warning: {s.path}: torn final record (crash mid-append; "
              f"the next start absorbs it)", file=sys.stderr)
    return 2 if corrupt else 0


def _add_supervision_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry budget per procedure task before it is "
                             "quarantined (default: $REPRO_RETRIES or 2)")
    parser.add_argument("--task-timeout-ms", type=float, default=None,
                        metavar="MS",
                        help="per-task deadline; a task over it is retried, "
                             "then quarantined with its identity layout "
                             "(default: $REPRO_TASK_TIMEOUT_MS or none)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="on-disk artifact store ('auto' = ~/.cache/repro,"
                             " 'off' disables; default: $REPRO_STORE)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL observability trace (spans + "
                             "counters, merged across workers; 'off' "
                             "disables; default: $REPRO_TRACE)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Near-optimal intraprocedural branch alignment "
                    "(Young/Johnson/Karger/Smith, PLDI 1997).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile and inspect a program")
    p_compile.add_argument("file")
    p_compile.add_argument("--dot", help="directory for per-procedure DOT files")
    p_compile.add_argument("--simplify", action="store_true",
                           help="run CFG simplification first")
    p_compile.set_defaults(func=cmd_compile)

    p_run = sub.add_parser("run", help="execute a program under profiling")
    p_run.add_argument("file")
    p_run.add_argument("--inputs", help="comma/space separated integers")
    p_run.add_argument("--input-file", help="file of whitespace-separated ints")
    p_run.add_argument("--profile-out", help="write the edge profile (JSON)")
    p_run.set_defaults(func=cmd_run)

    p_align = sub.add_parser("align", help="align a program and report")
    p_align.add_argument("file")
    p_align.add_argument("--inputs")
    p_align.add_argument("--input-file")
    p_align.add_argument("--profile", help="training profile JSON (else runs the program)")
    p_align.add_argument("--cross-profile", help="evaluate penalties under this testing profile")
    p_align.add_argument("--method", default="all",
                         choices=(*ALIGN_METHODS, "all"))
    p_align.add_argument("--model", default="alpha21164",
                         choices=sorted(STANDARD_MODELS))
    p_align.add_argument("--bound", action="store_true",
                         help="also compute the certified lower bound")
    p_align.add_argument("--details", action="store_true",
                         help="per-block layout report for the last method")
    p_align.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="align procedures in N worker processes "
                              "(default: $REPRO_JOBS or 1); results are "
                              "identical for any N")
    _add_supervision_flags(p_align)
    p_align.set_defaults(func=cmd_align)

    p_suite = sub.add_parser("suite", help="run paper benchmark cases")
    p_suite.add_argument("cases", nargs="+", metavar="CASE",
                         help="e.g. com.in xli.q7, or 'all'")
    p_suite.add_argument("--train", help="train on this sibling data set")
    p_suite.add_argument("--budget-ms", type=float, default=None,
                         help="per-procedure solver deadline (milliseconds); "
                              "over-budget procedures degrade gracefully")
    p_suite.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="solve procedures in N worker processes "
                              "(default: $REPRO_JOBS or 1); output and "
                              "stored cases are identical for any N")
    _add_supervision_flags(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived alignment service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8421,
                         help="listen port (0 = ephemeral; the startup "
                              "line prints the bound port)")
    p_serve.add_argument("--capacity", type=int, default=16, metavar="N",
                         help="bounded request queue size; requests beyond "
                              "it are shed with HTTP 429 (default 16)")
    p_serve.add_argument("--deadline-ms", type=float, default=None,
                         metavar="MS",
                         help="default per-request deadline applied to "
                              "requests that do not carry their own; "
                              "deadlines degrade solves down the aligner "
                              "ladder instead of failing the request")
    p_serve.add_argument("--breaker-threshold", type=int, default=3,
                         metavar="N",
                         help="consecutive infrastructure failures (worker "
                              "crashes / task timeouts / quarantines) that "
                              "open an aligner's circuit breaker (default 3)")
    p_serve.add_argument("--breaker-cooldown", type=int, default=5,
                         metavar="N",
                         help="fallback-served requests before an open "
                              "breaker admits a half-open probe (default 5)")
    p_serve.add_argument("--no-verify", action="store_true",
                         help="skip per-response layout verification "
                              "(benchmarking only; verification is cheap)")
    p_serve.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes per align pass "
                              "(default: $REPRO_JOBS or 1)")
    p_serve.add_argument("--shards", type=int, default=1, metavar="N",
                         help="run N service workers behind an idempotency-"
                              "key-hash router with per-shard failure "
                              "isolation and automatic restart "
                              "(default 1)")
    p_serve.add_argument("--journal-dir", default=None, metavar="DIR",
                         help="write-ahead request journals, one JSONL file "
                              "per shard (DIR/shard-<i>.jsonl): makes "
                              "SIGKILL survivable — completed requests are "
                              "replayed on restart, orphaned admissions "
                              "re-enqueued, duplicate payloads coalesced "
                              "by idempotency key")
    p_serve.add_argument("--journal-compact-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="compact a journal in place once it grows "
                              "past BYTES, rewriting only live records "
                              "(orphans + recent completions)")
    p_serve.add_argument("--hedge-after-ms", type=float, default=None,
                         metavar="MS",
                         help="duplicate a still-unanswered request to its "
                              "sibling shard after MS; first response wins "
                              "(needs --shards >= 2; default: off)")
    _add_supervision_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_request = sub.add_parser(
        "request", help="send one alignment request to a running service"
    )
    p_request.add_argument("file", help="program source to align")
    p_request.add_argument("--url", default="http://127.0.0.1:8421",
                           help="service base URL")
    p_request.add_argument("--inputs")
    p_request.add_argument("--input-file")
    p_request.add_argument("--profile",
                           help="training profile JSON file (else the "
                                "service profiles the program on --inputs)")
    p_request.add_argument("--method", default="tsp",
                           choices=tuple(ALIGN_METHODS))
    p_request.add_argument("--model", default="alpha21164",
                           choices=sorted(STANDARD_MODELS))
    p_request.add_argument("--seed", type=int, default=0)
    p_request.add_argument("--deadline-ms", type=float, default=None,
                           metavar="MS",
                           help="per-request deadline")
    p_request.add_argument("--bound", action="store_true",
                           help="also certify path-cover floors (verified "
                                "against the served costs)")
    p_request.add_argument("--timeout", type=float, default=600.0,
                           metavar="S", help="client-side wait (seconds)")
    p_request.add_argument("--retries", type=int, default=0, metavar="N",
                           help="retry shed/unready/unreachable answers up "
                                "to N times with capped exponential "
                                "backoff — enough to ride through a server "
                                "restart (default 0: fail fast)")
    p_request.add_argument("--retry-delay-ms", type=float, default=100.0,
                           metavar="MS",
                           help="base backoff before the first retry; "
                                "doubles per attempt, capped at 2s "
                                "(default 100)")
    p_request.add_argument("--json", action="store_true",
                           help="print the raw JSON response")
    p_request.set_defaults(func=cmd_request)

    p_trace = sub.add_parser("trace", help="inspect JSONL observability traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summarize = trace_sub.add_parser(
        "summarize",
        help="render per-stage timing, span-tree, and counter tables",
    )
    p_summarize.add_argument("file", metavar="TRACE.jsonl")
    p_summarize.set_defaults(func=cmd_trace)
    p_validate = trace_sub.add_parser(
        "validate", help="check every line against the event schema"
    )
    p_validate.add_argument("file", metavar="TRACE.jsonl")
    p_validate.set_defaults(func=cmd_trace)

    def _add_chaos_workload_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--workload", default="service-burst",
                            metavar="NAME",
                            help="workload to drive: service-burst (shard "
                                 "tier + store, the full fault surface) or "
                                 "pipeline-sweep (bare pipeline)")
        parser.add_argument("--requests", type=int, default=8, metavar="N",
                            help="requests per workload run (default 8)")
        parser.add_argument("--shards", type=int, default=2, metavar="N",
                            help="shards for service-burst (default 2)")
        parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="pipeline worker processes; canonical "
                                 "reports must be identical for any value "
                                 "(default 1)")

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-space exploration "
             "(discover -> schedule -> replay -> check invariants)",
    )
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)
    p_explore = chaos_sub.add_parser(
        "explore",
        help="enumerate reached fault sites, replay single- and pairwise-"
             "fault schedules, check the invariant suite after each",
    )
    _add_chaos_workload_flags(p_explore)
    p_explore.add_argument("--singles-per-site", type=int, default=2,
                           metavar="K",
                           help="single-fault call indices scheduled per "
                                "site (default 2)")
    p_explore.add_argument("--pairs", type=int, default=12, metavar="N",
                           help="bounded pairwise schedule budget "
                                "(default 12; 0 disables)")
    p_explore.add_argument("--corpus", default=None, metavar="DIR",
                           help="replay this reproducer corpus too, and "
                                "write newly minimized reproducers into it")
    p_explore.add_argument("--out", default=None, metavar="REPORT.json",
                           help="write the full exploration report (space, "
                                "verdicts, canonical form) as JSON")
    p_explore.add_argument("--verbose", action="store_true",
                           help="print each schedule as it replays")
    p_explore.set_defaults(func=cmd_chaos_explore)
    p_replay = chaos_sub.add_parser(
        "replay",
        help="replay one schedule (site@index+site@index) and/or a corpus "
             "of minimized reproducers; exit 1 if any invariant fails",
    )
    _add_chaos_workload_flags(p_replay)
    p_replay.add_argument("--schedule", default=None, metavar="SPEC",
                          help="schedule to replay, e.g. "
                               "journal_enospc@3+shard_death@1")
    p_replay.add_argument("--corpus", default=None, metavar="DIR",
                          help="replay every committed reproducer (each "
                               "pins its own workload config)")
    p_replay.set_defaults(func=cmd_chaos_replay)
    p_shrink = chaos_sub.add_parser(
        "shrink",
        help="delta-debug a failing schedule down to a 1-minimal, "
             "index-lowered reproducer",
    )
    _add_chaos_workload_flags(p_shrink)
    p_shrink.add_argument("--schedule", required=True, metavar="SPEC",
                          help="the failing schedule to shrink")
    p_shrink.add_argument("--corpus", default=None, metavar="DIR",
                          help="write the minimized reproducer here")
    p_shrink.set_defaults(func=cmd_chaos_shrink)

    p_journal = sub.add_parser(
        "journal", help="offline write-ahead journal tools"
    )
    journal_sub = p_journal.add_subparsers(
        dest="journal_command", required=True
    )
    p_verify = journal_sub.add_parser(
        "verify",
        help="integrity audit of a journal file or directory: per-line "
             "sha256, schema version, orphan/completion accounting; "
             "exit 2 on corruption (a torn tail alone is a warning)",
    )
    p_verify.add_argument("path", metavar="JOURNAL_OR_DIR")
    p_verify.add_argument("--json", action="store_true",
                          help="emit the audit as JSON")
    p_verify.set_defaults(func=cmd_journal_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro import obs

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Only align/suite carry --trace; commands without it (including
        # `trace summarize` itself) never open a sink.
        if hasattr(args, "trace"):
            _install_trace(args, argv)
        return args.func(args)
    except (UsageError, ProfileValidationError) as exc:
        # ProfileValidationError is bad *input* (a profile no run could
        # produce), so it exits 2 like any other malformed argument.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LangError, ReproError, FileNotFoundError) as exc:
        # Typed failures only — a genuine KeyError is a bug and should
        # propagate as a traceback, not masquerade as a user error.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # Counter totals flush into the trace whether the command
        # succeeded or not; a no-op when no trace is active.
        obs.finish_trace()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
