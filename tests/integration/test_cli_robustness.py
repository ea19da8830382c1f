"""Tests for the CLI's error handling and resilience flags."""

import pytest

from repro.cli import main
from repro.faults import inject_faults

SOURCE = """
fn main() {
  var i = 0;
  var acc = 0;
  while (i < input_len()) {
    if (input(i) % 2) { acc = acc + 1; }
    i = i + 1;
  }
  output(acc);
  return acc;
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.tl"
    path.write_text(SOURCE)
    return path


class TestUsageErrors:
    def test_bad_inputs_is_a_friendly_usage_error(self, program_file, capsys):
        assert main(["run", str(program_file), "--inputs", "1,two,3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "integers" in err
        assert "Traceback" not in err

    def test_missing_input_file(self, program_file, capsys):
        assert main([
            "run", str(program_file), "--input-file", "/nonexistent/inputs",
        ]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unparsable_input_file(self, program_file, tmp_path, capsys):
        bad = tmp_path / "inputs.txt"
        bad.write_text("1 2 banana")
        assert main([
            "run", str(program_file), "--input-file", str(bad),
        ]) == 2
        assert "integers" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["suite", "su2.sh", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_unknown_names_print_clean_messages(self, capsys):
        # UnknownNameError subclasses KeyError, whose __str__ used to turn
        # the report into a useless "error: 'zzz.in'".
        assert main(["suite", "zzz.in"]) == 1
        err = capsys.readouterr().err
        assert "unknown benchmark" in err
        assert main(["suite", "su2.nope"]) == 1
        assert "unknown data set" in capsys.readouterr().err

    def test_genuine_key_errors_propagate(self, monkeypatch):
        # Programming errors must not masquerade as user errors: main() no
        # longer catches bare KeyError.
        import repro.cli as cli

        def buggy(args):
            raise KeyError("oops")

        monkeypatch.setattr(cli, "cmd_suite", buggy)
        with pytest.raises(KeyError):
            cli.main(["suite", "su2.sh"])

    @pytest.mark.parametrize("argv, flag", [
        (["--capacity", "0"], "--capacity"),
        (["--shards", "0"], "--shards"),
        (["--hedge-after-ms", "-1"], "--hedge-after-ms"),
    ])
    def test_serve_usage_errors(self, argv, flag, monkeypatch, capsys):
        # A bad combination must be rejected before any server starts.
        def no_server(*args, **kwargs):
            raise AssertionError("serve() reached despite a usage error")

        monkeypatch.setattr("repro.service.serve", no_server)
        assert main(["serve", "--port", "0", *argv]) == 2
        assert flag in capsys.readouterr().err

    def test_serve_runs_a_one_shard_tier_by_default(self, monkeypatch):
        from repro.service import ShardSupervisor

        served = []

        def fake_serve(tier, **kwargs):
            served.append(tier)
            return 0

        monkeypatch.setattr("repro.service.serve", fake_serve)
        assert main(["serve", "--port", "0"]) == 0
        [tier] = served
        assert isinstance(tier, ShardSupervisor)
        assert tier.config.shards == 1
        assert tier.config.journal_dir is None


class TestSuiteResilience:
    def test_degraded_column_reports_the_rung(self, capsys):
        with inject_faults(solver_timeout=True):
            assert main(["suite", "su2.sh"]) == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "construction" in out
        assert "warning:" in out

    def test_clean_run_shows_no_degradation(self, capsys):
        assert main(["suite", "su2.sh"]) == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "construction" not in out

    def test_budget_flag_degrades_gracefully(self, capsys):
        assert main(["suite", "su2.sh", "--budget-ms", "0.000001"]) == 0
        out = capsys.readouterr().out
        assert "su2.sh" in out

    def test_multiple_cases_in_one_run(self, capsys):
        assert main(["suite", "su2.sh", "su2.re"]) == 0
        out = capsys.readouterr().out
        assert "su2.sh" in out and "su2.re" in out

    def test_checkpoint_and_resume(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        assert main(["suite", "su2.sh", "--checkpoint", str(ck)]) == 0
        assert "1 computed" in capsys.readouterr().out
        assert ck.exists()
        assert main([
            "suite", "su2.sh", "--checkpoint", str(ck), "--resume",
        ]) == 0
        assert "1 case(s) resumed, 0 computed" in capsys.readouterr().out


class TestCFGValidation:
    def test_invalid_cfg_is_a_usage_error_naming_the_procedure(
        self, program_file, monkeypatch, capsys
    ):
        from repro.cfg import CFGError
        import repro.cli as cli

        def broken(program):
            raise CFGError("procedure 'main': entry block has no path to exit")

        monkeypatch.setattr(cli, "validate_program", broken)
        assert main(["align", str(program_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid control-flow graph")
        assert "'main'" in err
        assert "Traceback" not in err

    def test_compile_validates_too(self, program_file, monkeypatch, capsys):
        from repro.cfg import CFGError
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "validate_program",
            lambda program: (_ for _ in ()).throw(
                CFGError("procedure 'main': dangling edge")
            ),
        )
        assert main(["compile", str(program_file)]) == 2
        assert "'main'" in capsys.readouterr().err


class TestSupervisionFlags:
    @pytest.fixture(autouse=True)
    def _reset_store(self):
        from repro.pipeline.artifacts import reset_default_store

        yield
        reset_default_store()

    def test_invalid_retries_rejected(self, program_file, capsys):
        assert main(["align", str(program_file), "--retries", "-1"]) == 2
        assert "--retries" in capsys.readouterr().err

    def test_invalid_task_timeout_rejected(self, program_file, capsys):
        assert main([
            "align", str(program_file), "--task-timeout-ms", "0",
        ]) == 2
        assert "--task-timeout-ms" in capsys.readouterr().err

    def test_align_with_store_persists_artifacts(
        self, program_file, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        argv = [
            "align", str(program_file), "--inputs", "1,2,3,4",
            "--method", "tsp", "--store", str(store_dir), "--retries", "1",
        ]
        assert main(argv) == 0
        entries = list(store_dir.rglob("*.art"))
        assert entries, "the on-disk store should hold alignment artifacts"
        # A second run against the same store is served from it.
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_suite_reports_retried_and_quarantined_columns(
        self, tmp_path, capsys
    ):
        assert main([
            "suite", "com.in", "--retries", "2",
            "--store", str(tmp_path / "store"),
        ]) == 0
        out = capsys.readouterr().out
        assert "retried" in out
        assert "quarantined" in out

    def test_store_off_disables_persistence(self, program_file, capsys):
        from repro.pipeline.artifacts import default_store

        assert main([
            "align", str(program_file), "--inputs", "1,2",
            "--method", "greedy", "--store", "off",
        ]) == 0
        assert default_store() is None
