"""The service load generator (``benchmarks/service_load.py``) against a
real ``repro serve`` process: a SIGKILL mid-burst, a restart on the same
journals, a SIGTERM drain, and the invariant suite's verdict."""

from __future__ import annotations

import pathlib
import subprocess
import sys

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS_DIR))

import service_load  # noqa: E402
from repro.chaos.schedule import FaultSchedule  # noqa: E402
from repro.chaos.workloads import WorkloadResult  # noqa: E402
from repro.service.scrub import JournalScrub  # noqa: E402


def test_sigkilled_server_recovers_and_passes_every_invariant(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS_DIR / "service_load.py"),
         "--requests", "12", "--shards", "2", "--kill-after", "3",
         "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "trace-2.jsonl").exists()


def test_a_broken_invariant_or_drain_fails_the_run(capsys):
    fault_free = FaultSchedule()
    snapshot = {"totals": {"submitted": 1, "admitted": 1, "shed": 0}}
    clean = WorkloadResult(
        outcomes=[{"status": "ok", "signature": "x"}],
        snapshot=snapshot,
        scrubs=[JournalScrub(path="shard-0.jsonl")],
    )
    assert service_load.judge(fault_free, clean, None, 0) == 0
    assert service_load.judge(fault_free, clean, None, 1) == 1
    orphaned = WorkloadResult(
        outcomes=clean.outcomes,
        snapshot=snapshot,
        scrubs=[JournalScrub(path="shard-0.jsonl", orphans=1)],
    )
    assert service_load.judge(fault_free, orphaned, None, 0) == 1
    assert "no_lost_admissions" in capsys.readouterr().err
