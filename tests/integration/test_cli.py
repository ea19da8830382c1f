"""Tests for the command-line interface (driven in-process)."""

import json
import pathlib

import pytest

from repro.cli import main

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


class TestCompile:
    def test_compile_reports_procedures(self, program_file, capsys):
        assert main(["compile", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "main" in out
        assert "blocks" in out

    def test_compile_dot_export(self, program_file, tmp_path, capsys):
        dot_dir = tmp_path / "dots"
        assert main(["compile", str(program_file), "--dot", str(dot_dir)]) == 0
        assert (dot_dir / "main.dot").exists()
        assert "digraph" in (dot_dir / "main.dot").read_text()

    def test_compile_simplify_flag(self, program_file, capsys):
        assert main(["compile", str(program_file), "--simplify"]) == 0

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.tl"
        bad.write_text("fn main() { return nope; }")
        assert main(["compile", str(bad)]) == 1
        assert "undefined variable" in capsys.readouterr().err


class TestRun:
    def test_run_with_inline_inputs(self, program_file, capsys):
        assert main(["run", str(program_file), "--inputs", "1,2,3,4,5"]) == 0
        out = capsys.readouterr().out
        assert "returned: 3" in out

    def test_run_with_input_file_and_profile_out(
        self, program_file, tmp_path, capsys
    ):
        input_file = tmp_path / "in.txt"
        input_file.write_text(" ".join(str(i) for i in range(100)))
        profile_out = tmp_path / "profile.json"
        assert main([
            "run", str(program_file),
            "--input-file", str(input_file),
            "--profile-out", str(profile_out),
        ]) == 0
        payload = json.loads(profile_out.read_text())
        assert "procedures" in payload and "main" in payload["procedures"]


class TestAlign:
    def test_align_all_methods_with_bound(self, program_file, capsys):
        assert main([
            "align", str(program_file),
            "--inputs", ",".join(str(i % 7) for i in range(300)),
            "--bound",
        ]) == 0
        out = capsys.readouterr().out
        for needle in ("original", "greedy", "tsp", "(lower bound)"):
            assert needle in out

    def test_bound_row_is_the_same_whichever_method_runs(
        self, tmp_path, capsys
    ):
        """``--bound`` certifies from the procedures alone: the row is the
        same after a tsp pass as after a greedy one."""
        from repro.experiments.runner import profiled_run
        from repro.pipeline.artifacts import reset_artifact_cache
        from repro.workloads.suite import get_benchmark

        source = tmp_path / "com.tl"
        source.write_text(get_benchmark("com").source)
        profile = tmp_path / "com.json"
        profile.write_text(profiled_run("com", "in").profile.to_json())
        bound_rows = []
        for method in ("tsp", "greedy"):
            reset_artifact_cache()  # no cached bound from the other run
            assert main([
                "align", str(source), "--profile", str(profile),
                "--method", method, "--bound",
            ]) == 0
            out = capsys.readouterr().out
            bound_rows.append(
                [line for line in out.splitlines() if "(lower bound)" in line]
            )
        assert bound_rows[0] == bound_rows[1] != []

    def test_align_from_saved_profile(self, program_file, tmp_path, capsys):
        input_file = tmp_path / "in.txt"
        input_file.write_text(" ".join(str(i) for i in range(200)))
        profile_path = tmp_path / "p.json"
        main([
            "run", str(program_file),
            "--input-file", str(input_file),
            "--profile-out", str(profile_path),
        ])
        capsys.readouterr()
        assert main([
            "align", str(program_file),
            "--profile", str(profile_path),
            "--method", "tsp",
        ]) == 0
        assert "tsp" in capsys.readouterr().out

    def test_align_cross_profile(self, program_file, tmp_path, capsys):
        train = tmp_path / "train.json"
        test = tmp_path / "test.json"
        for path, stride in ((train, 2), (test, 3)):
            main([
                "run", str(program_file),
                "--inputs", ",".join(str(i * stride) for i in range(150)),
                "--profile-out", str(path),
            ])
        capsys.readouterr()
        assert main([
            "align", str(program_file),
            "--profile", str(train),
            "--cross-profile", str(test),
            "--method", "greedy",
        ]) == 0
        assert "cross-validated" in capsys.readouterr().out

    def test_align_custom_model(self, program_file, capsys):
        assert main([
            "align", str(program_file),
            "--inputs", "1,2,3,4,5,6,7,8",
            "--model", "deep-pipe",
            "--method", "tsp",
        ]) == 0
        assert "deep-pipe" in capsys.readouterr().out


class TestSuite:
    def test_suite_case(self, capsys):
        assert main(["suite", "su2.sh"]) == 0
        out = capsys.readouterr().out
        assert "su2.sh" in out
        assert "(lower bound)" in out

    def test_suite_cross_trained(self, capsys):
        assert main(["suite", "su2.sh", "--train", "re"]) == 0
        out = capsys.readouterr().out
        assert "trained on re" in out

    def test_suite_bad_case_format(self, capsys):
        assert main(["suite", "nodots"]) == 2

    def test_suite_unknown_benchmark(self, capsys):
        assert main(["suite", "zzz.in"]) == 1
