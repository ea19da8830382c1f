"""Untimed checks of the program's outputs.

Each check returns a list of problems (empty = correct).  The layout
check is the benchmark's own; the cost check compares two independent
computations in the program (the solver's tour cost and the evaluator's
walk over the emitted layout), and the bound check compares a layout's
penalty with a certified lower bound that every layout must respect.
"""

from __future__ import annotations

import math

from repro.core.evaluate import evaluate_program
from repro.core.layout import Layout, LayoutError, ProgramLayout

TOLERANCE = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def at_least(value: float, floor: float) -> bool:
    return value >= floor or close(value, floor)


def layout_problems(program, layouts: ProgramLayout, label: str) -> list[str]:
    """Every procedure has a layout that is a permutation of its blocks
    with the entry block first."""
    problems = []
    for proc in program:
        if proc.name not in layouts:
            problems.append(f"{label}: {proc.name} has no layout")
            continue
        order = list(layouts[proc.name].order)
        if sorted(order) != sorted(proc.cfg.block_ids):
            problems.append(
                f"{label}: {proc.name} layout is not a permutation of its blocks"
            )
        elif order[0] != proc.cfg.entry:
            problems.append(f"{label}: {proc.name} layout does not start at entry")
    return problems


def parse_layouts(raw, label: str) -> tuple[ProgramLayout | None, list[str]]:
    """A response's ``{proc: [block, ...]}`` as a :class:`ProgramLayout`,
    or the problem that prevents it."""
    if not isinstance(raw, dict):
        return None, [f"{label}: response has no layouts"]
    layouts = ProgramLayout()
    try:
        for name, order in raw.items():
            layouts[str(name)] = Layout(tuple(int(b) for b in order))
    except (LayoutError, TypeError, ValueError) as exc:
        return None, [f"{label}: malformed layouts ({exc})"]
    return layouts, []


def cost_problems(
    program, layouts, profile, model, costs: dict[str, float], label: str
) -> list[str]:
    """The solver's tour cost equals the evaluator's penalty, per procedure."""
    penalty = evaluate_program(program, layouts, profile, model)
    problems = []
    for name, cost in sorted(costs.items()):
        evaluated = penalty.per_procedure[name].total
        if not close(cost, evaluated):
            problems.append(
                f"{label}: {name} tour cost {cost!r} != penalty {evaluated!r}"
            )
    return problems


def bound_problems(
    penalties: dict[str, float], bounds: dict[str, float], label: str
) -> list[str]:
    """No penalty sits below its certified lower bound."""
    return [
        f"{label}: {name} penalty {penalties.get(name, 0.0)!r} below "
        f"certified bound {bound!r}"
        for name, bound in sorted(bounds.items())
        if not at_least(penalties.get(name, 0.0), bound)
    ]
