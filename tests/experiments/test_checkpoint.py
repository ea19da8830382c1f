"""Tests for resuming sweeps from the artifact store, and for the
fault-tolerant sweep machinery.

A finished case is a ``case`` artifact: the artifact cache's memory tier
serves a repeated case within a process, and a configured store serves
it to a later process, so a sweep re-run against the same store resumes
where it stopped.  ``reset_artifact_cache()`` plus a freshly built store
on the same directory stand in for that later process.
"""

import dataclasses

import pytest

from repro.experiments import (
    case_key,
    format_table,
    run_case,
    run_cases,
    sweep_case,
)
from repro.experiments.runner import DEFAULT_METHODS, case_lower_bound
from repro.pipeline.executor import resolve_jobs
from repro.faults import inject_faults
from repro.machine.models import ALPHA_21164, get_model
from repro.pipeline.artifacts import (
    ArtifactStore,
    artifact_cache,
    reset_artifact_cache,
    set_default_store,
)


@pytest.fixture(autouse=True)
def _cold_cases(no_ambient_store, no_ambient_chaos):
    """No case is cached when a test starts: one left in the memory tier by
    an earlier test, or an ambient store, would answer cases these tests
    need to see computed (or failing)."""
    reset_artifact_cache()
    yield
    reset_artifact_cache()


@pytest.fixture
def store_dir(tmp_path):
    """A store installed as the process default, as ``--store`` does."""
    path = tmp_path / "store"
    set_default_store(path)
    return path


def restart(store_dir) -> ArtifactStore:
    """What a new process sees: a cold memory tier over the same store."""
    reset_artifact_cache()
    return set_default_store(store_dir)


@pytest.fixture
def run_case_calls(monkeypatch):
    """Record every case :func:`run_case` computes."""
    import repro.experiments.runner as runner_mod

    calls = []
    real = runner_mod.run_case

    def spy(benchmark, dataset, *args, **kwargs):
        calls.append((benchmark, dataset))
        return real(benchmark, dataset, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_case", spy)
    return calls


def suite_table(cases):
    """The suite-style report for a list of cases (byte-comparable)."""
    rows = []
    for case in cases:
        for method, outcome in case.methods.items():
            rows.append([
                case.label, method, outcome.penalty,
                case.normalized_penalty(method), outcome.cycles,
            ])
        rows.append([
            case.label, "(lower bound)", case.lower_bound,
            case.normalized_bound, "",
        ])
    return format_table(["case", "method", "penalty", "norm", "cycles"], rows)


class TestCaseArtifactKey:
    def test_train_dataset_normalized(self):
        assert case_key("su2", "sh") == case_key("su2", "sh", "sh")

    def test_spellings_of_model_and_method_normalized(self):
        by_object = case_key("su2", "sh", model=ALPHA_21164)
        by_name = case_key(
            "su2", "sh", model=get_model("alpha21164"),
            methods=tuple("dtsp" if m == "tsp" else m for m in DEFAULT_METHODS),
        )
        assert by_object == by_name

    def test_different_parameters_different_keys(self):
        keys = {
            case_key("su2", "sh"),
            case_key("su2", "sh", "re"),
            case_key("su2", "re"),
            case_key("su2", "sh", methods=("original", "tsp")),
            case_key("su2", "sh", seed=1),
            case_key("su2", "sh", compute_bound=False),
        }
        assert len(keys) == 6


class TestStateRoundtrip:
    def test_case_survives_serialization_exactly(self, tmp_path):
        case = run_case("su2", "sh")
        key = case_key("su2", "sh")
        assert ArtifactStore(tmp_path).put(key, case)
        back = ArtifactStore(tmp_path).get(key)
        assert dataclasses.asdict(back) == dataclasses.asdict(case)
        assert list(back.methods) == list(case.methods)


class TestCheckpointFile:
    """The store as a sweep's durable record of finished cases."""

    def test_record_then_reload(self, store_dir):
        first = run_cases([("su2", "sh")])
        assert (first.resumed, first.computed) == (0, 1)

        restart(store_dir)
        case, resumed = sweep_case("su2", "sh")
        assert resumed
        assert case.lower_bound == first.cases[0].lower_bound
        assert artifact_cache().get(case_key("su2", "sh", "re")) is None

    def test_corrupt_line_skipped_and_recomputable(self, store_dir):
        # Every entry the sweep writes is torn on disk.
        with inject_faults(store_corrupt=True) as plan:
            run_cases([("su2", "sh")])
        assert plan.trips("store_corrupt") > 0

        store = restart(store_dir)
        again = run_cases([("su2", "sh")])
        assert (again.resumed, again.computed) == (0, 1)
        assert store.stats.evictions > 0

        # The recompute published a clean entry.
        restart(store_dir)
        assert run_cases([("su2", "sh")]).resumed == 1

    def test_no_resume_ignores_existing_file(self, store_dir):
        run_cases([("su2", "sh")])
        reset_artifact_cache()
        set_default_store(None)  # --store off
        fresh = run_cases([("su2", "sh")])
        assert (fresh.resumed, fresh.computed) == (0, 1)


class TestTruncatedTail:
    """A crash mid-publish, or later damage, leaves a torn ``case`` entry.
    The store evicts it and only that case is recomputed."""

    def _store_with_two_cases(self, store_dir):
        run_cases([("su2", "sh"), ("su2", "re")])
        return restart(store_dir)

    def test_truncated_final_record_dropped_not_raised(
        self, store_dir, run_case_calls
    ):
        store = self._store_with_two_cases(store_dir)
        entry = store.path_for(case_key("su2", "re"))
        raw = entry.read_bytes()
        entry.write_bytes(raw[: len(raw) // 2])
        del run_case_calls[:]

        resumed = run_cases([("su2", "sh"), ("su2", "re")])  # must not raise
        assert (resumed.resumed, resumed.computed) == (1, 1)
        assert run_case_calls == [("su2", "re")]
        assert store.stats.evictions == 1

    def test_append_after_truncation_starts_a_fresh_line(
        self, store_dir, run_case_calls
    ):
        store = self._store_with_two_cases(store_dir)
        entry = store.path_for(case_key("su2", "re"))
        entry.write_bytes(entry.read_bytes()[:-40])
        run_cases([("su2", "sh"), ("su2", "re")])  # recomputes su2.re

        # The recomputed case was republished whole: a third run is
        # served entirely from the store.
        restart(store_dir)
        del run_case_calls[:]
        again = run_cases([("su2", "sh"), ("su2", "re")])
        assert (again.resumed, again.computed) == (2, 0)
        assert run_case_calls == []

    def test_truncation_to_non_dict_json_is_corruption(self, store_dir):
        # A stump whose header still parses as JSON — just not as an
        # object — must read as a corrupt entry, not an AttributeError.
        store = self._store_with_two_cases(store_dir)
        store.path_for(case_key("su2", "sh")).write_bytes(b"42\n")
        resumed = run_cases([("su2", "sh")])
        assert (resumed.resumed, resumed.computed) == (0, 1)
        assert store.stats.evictions == 1


class TestResume:
    def test_resume_recomputes_only_unfinished_cases(
        self, store_dir, run_case_calls
    ):
        # First (interrupted) run completes only su2.sh.
        first = run_cases([("su2", "sh")])
        assert first.computed == 1
        assert run_case_calls == [("su2", "sh")]

        # The resumed run recomputes only the unfinished case.
        restart(store_dir)
        second = run_cases([("su2", "sh"), ("su2", "re")])
        assert run_case_calls == [("su2", "sh"), ("su2", "re")]
        assert (second.resumed, second.computed) == (1, 1)

    def test_resumed_table_is_byte_identical(self, tmp_path):
        specs = [("su2", "sh"), ("su2", "re")]
        uninterrupted = run_cases(specs)
        expected = suite_table(uninterrupted.cases)

        # An interrupted run that finished only the first case, then a
        # re-run against the same store.
        store_dir = tmp_path / "store"
        restart(store_dir)
        run_cases(specs[:1])
        restart(store_dir)
        resumed = run_cases(specs)
        assert resumed.resumed == 1
        assert suite_table(resumed.cases) == expected

    def test_bound_flag_is_part_of_the_key(self, store_dir):
        without = run_cases([("su2", "sh")], compute_bound=False)
        assert without.cases[0].lower_bound == 0.0

        restart(store_dir)
        with_bound = run_cases([("su2", "sh")], compute_bound=True)
        assert (with_bound.resumed, with_bound.computed) == (0, 1)
        assert with_bound.cases[0].lower_bound > 0.0


class TestWhatIsNotStored:
    def test_quarantined_case_is_not_stored(self, store_dir, monkeypatch):
        import repro.experiments.runner as runner_mod

        real = runner_mod.run_case

        def poisoned(*args, **kwargs):
            case = real(*args, **kwargs)
            case.methods["tsp"].quarantined = {"main": "poisoned"}
            return case

        monkeypatch.setattr(runner_mod, "run_case", poisoned)
        run_cases([("su2", "sh")])
        assert run_cases([("su2", "sh")]).computed == 1

    def test_faulted_sweep_is_not_stored(self, store_dir):
        with inject_faults(solver_timeout=True):
            degraded = run_cases([("su2", "sh")])
        assert degraded.cases[0].degraded
        clean = run_cases([("su2", "sh")])
        assert (clean.resumed, clean.computed) == (0, 1)
        assert not clean.cases[0].degraded


class TestSweepFaultTolerance:
    def test_failures_retried_once_then_skipped(self, monkeypatch):
        import repro.experiments.runner as runner_mod

        attempts = {"n": 0}

        def boom(*args, **kwargs):
            attempts["n"] += 1
            raise RuntimeError("kaboom")

        monkeypatch.setattr(runner_mod, "run_case", boom)
        result = run_cases([("su2", "sh")])
        assert result.cases == []
        assert attempts["n"] == 2  # original try + one retry
        (skip,) = result.skipped
        assert skip.label == "su2.sh"
        assert skip.attempts == 2
        assert "kaboom" in skip.error and "RuntimeError" in skip.error

    @pytest.mark.parametrize(
        "spec, kwargs, message",
        [
            (("nope", "sh"), {}, "unknown benchmark 'nope'"),
            (("su2", "zz"), {}, "unknown data set 'zz'"),
            (("su2", "sh", "zz"), {}, "unknown data set 'zz'"),
            (("su2", "sh"), {"methods": ("zz",)}, "unknown method 'zz'"),
        ],
    )
    def test_unknown_names_are_skipped_not_raised(self, spec, kwargs, message):
        result = run_cases([spec], **kwargs)
        assert result.cases == []
        (skip,) = result.skipped
        assert skip.attempts == 1  # the key is pure: no retry
        assert skip.error.startswith("UnknownNameError") and message in skip.error

    def test_a_skipped_name_does_not_stop_the_sweep(self):
        result = run_cases([("nope", "sh"), ("su2", "sh")], compute_bound=False)
        assert [s.label for s in result.skipped] == ["nope.sh"]
        assert [c.label for c in result.cases] == ["su2.sh"]

    def test_single_retry_recovers_a_flaky_case(self, monkeypatch):
        import repro.experiments.runner as runner_mod

        real = runner_mod.run_case
        state = {"failed": False}

        def flaky(*args, **kwargs):
            if not state["failed"]:
                state["failed"] = True
                raise RuntimeError("transient")
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_case", flaky)
        result = run_cases([("su2", "sh")])
        assert len(result.cases) == 1 and not result.skipped

    def test_figure2_records_skips_instead_of_raising(self, monkeypatch):
        import repro.experiments.runner as runner_mod
        import repro.experiments.tables as tables

        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(runner_mod, "run_case", boom)
        data = tables.figure2_data()
        assert data.cases == {}
        assert data.skipped and all("kaboom" in s.error for s in data.skipped)


class TestCacheNormalization:
    def test_spellings_share_one_cache_entry(self):
        a, _ = sweep_case("su2", "sh")
        b, b_resumed = sweep_case("su2", "sh", "sh")
        c, c_resumed = sweep_case(
            "su2", "sh",
            methods=tuple("dtsp" if m == "tsp" else m for m in DEFAULT_METHODS),
        )
        assert a is b is c
        assert b_resumed and c_resumed

    def test_lower_bound_normalized_before_cache(self):
        first = case_lower_bound("su2", "sh")
        size = case_lower_bound.cache_info().currsize
        second = case_lower_bound("su2", "sh", jobs=resolve_jobs(None))
        assert first == second
        assert case_lower_bound.cache_info().currsize == size
