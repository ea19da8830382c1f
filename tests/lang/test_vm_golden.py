"""Golden digests of every suite case's profiling run.

``vm_golden.json`` pins, per benchmark/data-set case, what the VM observes:
the ``(proc, block)`` event sequence, the edge profile, the dynamic call
graph, the block and instruction counters and the returned value, plus the
per-procedure transition log of one multi-procedure case.  The file was
recorded from the block interpreter the compiled VM replaced; run this
module as a script to re-record it from the checkout on ``PYTHONPATH``::

    PYTHONPATH=src python tests/lang/test_vm_golden.py > tests/lang/vm_golden.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import profiled_run
from repro.lang import execute
from repro.workloads import SUITE, all_cases, compile_benchmark

GOLDEN_PATH = Path(__file__).with_name("vm_golden.json")

#: The case whose transition log is pinned: ``main``'s edges interleave
#: with calls into three procedures, one of which loops.
TRANSITION_CASE = ("com", "in")


def trace_digest(compact) -> str:
    """sha256 of a trace's ``(proc, block)`` sequence, independent of the
    order in which the trace interned its procedure names."""
    names = list(compact.proc_names)
    ranked = sorted(names)
    remap = np.array([ranked.index(name) for name in names], dtype="<u2")
    digest = hashlib.sha256(json.dumps(ranked).encode())
    digest.update(remap[np.asarray(compact.proc_indices)].tobytes())
    digest.update(np.asarray(compact.block_ids, dtype="<u4").tobytes())
    return digest.hexdigest()


def case_digest(benchmark: str, dataset: str) -> dict:
    run = profiled_run(benchmark, dataset)
    return {
        "trace_sha256": trace_digest(run.trace),
        "profile_sha256": hashlib.sha256(run.profile.to_json().encode()).hexdigest(),
        "call_pairs": sorted(
            [caller, callee, n] for (caller, callee), n in run.profile.call_pairs.items()
        ),
        "blocks": run.blocks,
        "instructions": run.instructions,
        "returned": run.returned,
    }


def transition_digest(benchmark: str, dataset: str) -> str:
    result = execute(
        compile_benchmark(benchmark),
        SUITE[benchmark].inputs(dataset),
        keep_events=False,
        keep_transitions=True,
    )
    log = {
        proc: [list(edge) for edge in edges]
        for proc, edges in result.trace.transition_log.items()
    }
    return hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest()


def record() -> dict:
    return {
        "cases": {
            f"{bm}.{ds}": case_digest(bm, ds) for bm, ds in sorted(all_cases())
        },
        "transition_log": {
            "case": ".".join(TRANSITION_CASE),
            "sha256": transition_digest(*TRANSITION_CASE),
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(all_cases()), ids=".".join)
def test_case_matches_golden(golden, case):
    assert case_digest(*case) == golden["cases"][".".join(case)]


def test_golden_covers_every_case(golden):
    assert set(golden["cases"]) == {".".join(case) for case in all_cases()}


def test_transition_log_matches_golden(golden):
    pinned = golden["transition_log"]
    case = tuple(pinned["case"].split("."))
    assert transition_digest(*case) == pinned["sha256"]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
