"""The method table: the seven names in order, aliases, unknown names."""

from __future__ import annotations

import pytest

from repro.core.align import ALIGN_METHODS
from repro.errors import UnknownNameError
from repro.pipeline.stages import normalize_method

BUILTINS = (
    "original", "greedy", "cost-greedy", "cg-exhaustive", "tsp",
    "exttsp", "chain-merge",
)


def test_builtins_are_registered_in_order():
    assert type(ALIGN_METHODS) is tuple
    assert ALIGN_METHODS == BUILTINS


def test_aliases_normalize_to_canonical_names():
    aliases = {
        "pettis-hansen": "greedy",
        "ph": "greedy",
        "calder-grunwald": "cost-greedy",
        "cg": "cost-greedy",
        "dtsp": "tsp",
        "ext-tsp": "exttsp",
        "bolt": "exttsp",
        "newell-pupyrev": "chain-merge",
        "np": "chain-merge",
    }
    for alias, canonical in aliases.items():
        assert normalize_method(alias) == canonical, alias
    for name in BUILTINS:
        assert normalize_method(name) == name
    assert normalize_method("  TSP  ") == "tsp"
    assert normalize_method("NP") == "chain-merge"


def test_unknown_method_raises_value_error_with_choices():
    with pytest.raises(ValueError, match="unknown method"):
        normalize_method("simulated-annealing")
    with pytest.raises(UnknownNameError, match="tsp"):
        normalize_method("simulated-annealing")


def test_an_alias_reaches_the_align_stage_as_its_canonical_name(
    no_ambient_store,
):
    """``align_procedures`` takes an alias too: its tasks carry the
    canonical name, so nothing is quarantined for an unknown method."""
    from repro.core.align import AlignmentReport
    from repro.machine.models import ALPHA_21164
    from repro.pipeline.stages import align_procedures
    from repro.profiles.edge_profile import ProgramProfile
    from repro.workloads.suite import compile_benchmark

    program = compile_benchmark("com").program
    profile = ProgramProfile()
    for proc in program:
        profile.profile(proc.name).add(proc.cfg.entry, proc.cfg.entry, 1)
    layouts = {}
    for method in ("dtsp", "tsp"):
        report = AlignmentReport()
        layouts[method] = align_procedures(
            program, profile, method=method, model=ALPHA_21164, jobs=1,
            report=report,
        )
        assert report.quarantined == {}, method
    assert dict(layouts["dtsp"].items()) == dict(layouts["tsp"].items())
