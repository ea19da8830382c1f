"""Independent re-verification of every layout the service emits.

Branch-displacement history says emitted layouts are exactly the kind of
artifact to re-check rather than trust (Boender & Sacerdoti Coen); the
pipeline's own property tests pin these invariants offline, and this
module enforces them *per response*:

1. **Permutation validity** — every procedure has a layout, each layout
   is a permutation of its CFG's blocks with the entry block first
   (:meth:`Layout.check_against`).
2. **Cost agreement** — the cost the aligner reported for a procedure
   equals the evaluation stage's control penalty for the same layout
   (§2.2's reduction: two walks over one model must not drift).  The
   service passes the penalties it serves, so what it checks is what
   the response carries.
3. **Bound sanity** — when a path-cover floor is available, no reported
   cost may sit below it (a "better than provably possible" layout is a
   corrupt cost matrix or a broken solver, not a miracle).

A violation means a pipeline bug.  The service *quarantines* the
response — records and counts it, returns the violation report — and
never serves the layout.
"""

from __future__ import annotations

import math

from repro.cfg.graph import Program
from repro.core.evaluate import evaluate_layout
from repro.core.layout import LayoutError, ProgramLayout
from repro.errors import LayoutVerificationError
from repro.machine.models import PenaltyModel
from repro.profiles.edge_profile import ProgramProfile

#: Relative tolerance for float comparisons.  Costs and penalties are
#: computed by identical arithmetic, so equality is exact in practice;
#: the tolerance only guards against a future refactor reordering
#: float additions, which must not start quarantining correct layouts.
REL_TOLERANCE = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOLERANCE, abs_tol=1e-9)


def verify_layouts(
    program: Program,
    layouts: ProgramLayout,
    profile: ProgramProfile,
    model: PenaltyModel,
    *,
    costs: dict[str, float] | None = None,
    bounds: dict[str, float] | None = None,
    penalties: dict[str, float] | None = None,
) -> list[str]:
    """Check every response invariant; return violations (empty = serve).

    ``costs`` are the aligner-reported per-procedure tour costs (absent
    entries — trivial or quarantined procedures — skip the agreement
    check but still get permutation checks).  ``bounds`` are certified
    path-cover floors when the request asked for them.  ``penalties``
    are the evaluation stage's per-procedure penalties of these layouts
    (the ones a response serves); without them each layout is walked
    here.
    """
    violations: list[str] = []
    for proc in program:
        if proc.name not in layouts:
            violations.append(f"{proc.name}: no layout in response")
            continue
        try:
            layouts[proc.name].check_against(proc.cfg)
        except LayoutError as exc:
            violations.append(f"{proc.name}: invalid layout ({exc})")
    for name, cost in sorted((costs or {}).items()):
        if name not in layouts or name not in program:
            continue  # already reported above / stale report entry
        edge_profile = profile.procedures.get(name)
        if edge_profile is None:
            continue
        if penalties is not None:
            evaluated = penalties[name]
        else:
            try:
                evaluated = evaluate_layout(
                    program[name].cfg, layouts[name], edge_profile, model
                ).total
            except LayoutError:
                continue  # permutation violation already recorded
        if not _close(cost, evaluated):
            violations.append(
                f"{name}: aligner cost {cost!r} != evaluator penalty "
                f"{evaluated!r}"
            )
        bound = (bounds or {}).get(name)
        if bound is not None and bound > cost and not _close(bound, cost):
            violations.append(
                f"{name}: cost {cost!r} below certified lower bound "
                f"{bound!r}"
            )
    return violations


def verify_or_raise(
    program: Program,
    layouts: ProgramLayout,
    profile: ProgramProfile,
    model: PenaltyModel,
    *,
    costs: dict[str, float] | None = None,
    bounds: dict[str, float] | None = None,
) -> None:
    """Raise :class:`LayoutVerificationError` carrying every violation."""
    violations = verify_layouts(
        program, layouts, profile, model, costs=costs, bounds=bounds
    )
    if violations:
        raise LayoutVerificationError(
            f"{len(violations)} layout verification violation(s): "
            + "; ".join(violations),
            violations=violations,
        )
