"""repro — Near-optimal Intraprocedural Branch Alignment (PLDI 1997).

A from-scratch reproduction of Young, Johnson, Karger & Smith's branch
alignment system: CFG substrate, profiling, machine penalty models, the
DTSP reduction solved exactly as a path cover (the paper's iterated 3-Opt
and Held–Karp bounds stay for its appendix), greedy baselines, a tiny
benchmark language + VM, and the full experiment harness.

Quickstart::

    from repro import align_program, evaluate_program, ALPHA_21164
    from repro.lang import compile_source, run_and_profile

    module = compile_source(source_text)
    _, profile = run_and_profile(module, inputs)
    layouts = align_program(module.program, profile, method="tsp")
    penalty = evaluate_program(module.program, layouts, profile, ALPHA_21164)
"""

from repro.core.align import align_program, lower_bound_program
from repro.core.evaluate import evaluate_layout, evaluate_program
from repro.core.layout import Layout, ProgramLayout, original_layout
from repro.machine.models import (
    ALPHA_21064,
    ALPHA_21164,
    DEEP_PIPE,
    UNIT_COST,
    PenaltyModel,
)

__version__ = "1.0.0"

__all__ = [
    "ALPHA_21064",
    "ALPHA_21164",
    "DEEP_PIPE",
    "Layout",
    "PenaltyModel",
    "ProgramLayout",
    "UNIT_COST",
    "align_program",
    "evaluate_layout",
    "evaluate_program",
    "lower_bound_program",
    "original_layout",
    "__version__",
]
