"""The compile memo: each distinct source compiles once per process, a
source that fails is never cached, and the module requests share stays
read-only."""

import functools
import sys
import threading

import pytest

import repro.lang.vm as vm
import repro.service.core as core
from repro import obs
from repro.cfg import CFGError
from repro.core.align import ALIGN_METHODS
from repro.errors import UsageError
from repro.lang import LangError, compile_source, execute
from repro.pipeline.artifacts import fingerprint_cfg
from repro.service import AlignmentService, ServiceConfig, parse_request

from .conftest import SERVICE_SOURCE, explicit_profile_payload, make_payload

OTHER_SOURCE = SERVICE_SOURCE.replace("v > 10", "v > 12")


def counted(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` so each call appends to the returned list."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def fingerprints(module) -> tuple:
    return tuple(
        (proc.name, fingerprint_cfg(proc.cfg)) for proc in module.program
    )


class TestCompileOnce:
    def test_requests_sharing_a_source_compile_it_once(
        self, monkeypatch, fresh_memo
    ):
        explicit = explicit_profile_payload()
        compiles = counted(monkeypatch, core, "compile_source")
        requests = [
            parse_request(payload)
            for payload in (
                make_payload(),
                make_payload(inputs=[1, 2, 3]),
                explicit,
                make_payload(method="greedy"),
                make_payload(seed=7),
            )
        ]
        assert len(compiles) == 1
        assert len({request.key for request in requests}) == len(requests)
        assert all(r.module is requests[0].module for r in requests)

        other = parse_request(make_payload(source=OTHER_SOURCE))
        assert len(compiles) == 2
        assert other.module is not requests[0].module

    def test_lang_compiles_counts_real_compiles_per_process(self, fresh_memo):
        obs.tracer().reset_counters()
        for seed in range(3):
            parse_request(make_payload(seed=seed))
        parse_request(make_payload(source=OTHER_SOURCE))
        assert obs.counters()["lang.compiles"] == 2
        assert "lang.compiles" not in obs.counters(stable_only=True)

    def test_the_memo_is_bounded(self):
        assert core._compiled.cache_info().maxsize is not None

    def test_memo_stays_within_a_small_cap_under_concurrent_parses(
        self, monkeypatch
    ):
        cap = 4
        monkeypatch.setattr(
            core, "_compiled",
            functools.lru_cache(maxsize=cap)(core._compiled.__wrapped__),
        )
        errors = []

        def parse_many(offset):
            try:
                for n in range(6 * cap):
                    value = offset * 100 + n % 9
                    source = f"fn main() {{ return {value}; }}"
                    request = parse_request(make_payload(source=source))
                    # The module served is the one compiled from source.
                    assert execute(request.module).returned == value
            except Exception as exc:  # noqa: BLE001 — what the test counts
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=parse_many, args=(n,))
                for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = core._compiled.cache_info()
        assert info.currsize <= cap
        assert info.misses > cap  # driven past the cap: entries evicted


class TestFailuresAreNotCached:
    def test_a_source_that_fails_to_compile_raises_every_time(
        self, monkeypatch, fresh_memo
    ):
        compiles = counted(monkeypatch, core, "compile_source")
        payload = make_payload(source="proc main() {}")
        raised = []
        for _ in range(2):
            with pytest.raises(LangError) as info:
                parse_request(dict(payload))
            raised.append((type(info.value), str(info.value)))
        assert len(compiles) == 2
        assert raised[0] == raised[1]
        assert core._compiled.cache_info().currsize == 0

    def test_a_source_that_fails_to_validate_raises_every_time(
        self, monkeypatch, fresh_memo
    ):
        def reject(program):
            raise CFGError("block 3 has no terminator")

        monkeypatch.setattr(core, "validate_program", reject)
        validations = counted(monkeypatch, core, "validate_program")
        messages = []
        for _ in range(2):
            with pytest.raises(UsageError, match="control-flow") as info:
                parse_request(make_payload())
            messages.append(str(info.value))
        assert len(validations) == 2
        assert messages[0] == messages[1]
        assert core._compiled.cache_info().currsize == 0


class TestSharedModuleIsReadOnly:
    def test_cfgs_are_unchanged_after_every_request_kind_and_a_replay(
        self, tmp_path, monkeypatch, fresh_memo
    ):
        module, cfgs = core._compiled(SERVICE_SOURCE)
        assert cfgs == fingerprints(compile_source(SERVICE_SOURCE))
        payloads = [make_payload(method=m) for m in ALIGN_METHODS]
        payloads += [make_payload(bound=True, seed=1), explicit_profile_payload()]
        config = ServiceConfig(
            capacity=len(payloads), journal_path=str(tmp_path / "j.jsonl")
        )
        service = AlignmentService(config).start()
        try:
            for payload in payloads:
                assert service.align(payload, timeout=120)["status"] == "ok"
        finally:
            assert service.drain(timeout=30)
        assert fingerprints(module) == cfgs

        core._compiled.cache_clear()
        compiles = counted(monkeypatch, core, "compile_source")
        replayed = AlignmentService(config).start()
        assert replayed.drain(timeout=30)  # after the journal replay
        assert replayed.stats.recovered == len(payloads)
        assert len(compiles) == 1  # once per source, not once per record
        assert fingerprints(core._compiled(SERVICE_SOURCE)[0]) == cfgs

    def test_inputs_requests_on_one_source_instrument_it_once(
        self, monkeypatch, fresh_memo
    ):
        builds = counted(monkeypatch, vm, "Instrumented")
        first = parse_request(make_payload(inputs=[1, 2, 3]))
        second = parse_request(make_payload(inputs=[4, 11, 12], seed=3))
        assert first.module is second.module
        profiles = [r.training_profile() for r in (first, second)]
        assert len(builds) == 1
        assert profiles[0].to_json() != profiles[1].to_json()
