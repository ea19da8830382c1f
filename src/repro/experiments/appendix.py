"""The appendix's DTSP quality statistics.

The paper reports, over the per-procedure instances of esp.tl:

* 71 of 179 procedures have AP bound == optimal tour; the median gap of the
  remaining 108 is 30% (15 instances have OPT > 10× AP),
* iterated 3-Opt finds its best tour on all 10 runs for 128 of 179
  procedures,
* the HK bound is never more than 0.9% below the tour found (mean < 0.3%).

This module computes the same statistics over a set of alignment
instances — the real esp procedures plus an esp-scale synthetic program
(the tiny-language esp has far fewer procedures than SPEC espresso; the
synthetic program restores the instance-count scale, see DESIGN.md) — and
certifies each one's optimum with the exact path-cover search
(:mod:`repro.tsp.path_cover`), so the 3-Opt tours are judged against
true optima, not only against the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

from repro.core.costmatrix import AlignmentInstance, build_alignment_instance
from repro.machine.models import ALPHA_21164, PenaltyModel
from repro.tsp.assignment import assignment_cycle_cover
from repro.tsp.held_karp import held_karp_bound_directed
from repro.tsp.instance import TSPError
from repro.tsp.path_cover import path_cover
from repro.tsp.solve import PAPER, Effort, solve_dtsp
from repro.workloads.synthetic import synthetic_workload


@dataclass
class InstanceQuality:
    """Solver/bound quality for one procedure's DTSP instance."""

    name: str
    cities: int
    tour_cost: float
    hk_bound: float
    ap_bound: float
    ap_is_tour: bool
    runs_finding_best: int
    runs_total: int
    #: The path cover's certified optimum (None only for a hand-built
    #: record: :func:`analyze_instances` certifies every instance).
    optimum: float | None = None

    @property
    def tour_is_optimal(self) -> bool | None:
        if self.optimum is None:
            return None
        return self.tour_cost <= self.optimum + 1e-6 * max(1.0, self.optimum)

    @property
    def hk_gap(self) -> float:
        if self.hk_bound <= 0:
            return 0.0 if self.tour_cost <= 1e-9 else float("inf")
        return (self.tour_cost - self.hk_bound) / self.hk_bound

    @property
    def ap_gap(self) -> float:
        if self.ap_bound <= 0:
            return 0.0 if self.tour_cost <= 1e-9 else float("inf")
        return (self.tour_cost - self.ap_bound) / self.ap_bound

    @property
    def ap_tight(self) -> bool:
        return self.ap_gap <= 1e-6


@dataclass
class AppendixStats:
    instances: list[InstanceQuality] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.instances)

    @property
    def ap_tight_count(self) -> int:
        return sum(1 for i in self.instances if i.ap_tight)

    @property
    def median_ap_gap_of_loose(self) -> float:
        loose = [i.ap_gap for i in self.instances if not i.ap_tight]
        return median(loose) if loose else 0.0

    @property
    def stable_count(self) -> int:
        """Instances whose best tour was found on every solver run."""
        return sum(
            1 for i in self.instances
            if i.runs_total and i.runs_finding_best == i.runs_total
        )

    @property
    def mean_hk_gap(self) -> float:
        gaps = [i.hk_gap for i in self.instances if i.hk_gap != float("inf")]
        return sum(gaps) / len(gaps) if gaps else 0.0

    @property
    def max_hk_gap(self) -> float:
        gaps = [i.hk_gap for i in self.instances if i.hk_gap != float("inf")]
        return max(gaps) if gaps else 0.0

    @property
    def certified_count(self) -> int:
        return sum(1 for i in self.instances if i.optimum is not None)

    @property
    def optimal_tour_count(self) -> int:
        return sum(1 for i in self.instances if i.tour_is_optimal)


def certified_optimum(instance: AlignmentInstance) -> float:
    """The instance's optimal tour cost, from the exact path cover.

    Raises :class:`~repro.tsp.instance.TSPError` when the cover's tour
    misses its floor, which no shipped penalty model allows.
    """
    exact = path_cover(instance.matrix, *instance.sparse_form())
    if not exact.optimal:
        raise TSPError("the path cover's tour misses its floor")
    return exact.cost


def analyze_instances(
    named_instances,
    *,
    effort: Effort | str = PAPER,
    seed: int = 0,
) -> AppendixStats:
    """Compute appendix statistics over ``(name, AlignmentInstance)``
    pairs: the 3-Opt tour, its bounds, and the certified optimum that
    gives true optimality rates beside the paper's HK-relative gaps."""
    stats = AppendixStats()
    for index, (name, instance) in enumerate(named_instances):
        matrix = instance.matrix
        result = solve_dtsp(matrix, effort=effort, seed=seed + index)
        hk = held_karp_bound_directed(matrix, tour_upper_bound=result.cost)
        cover = assignment_cycle_cover(matrix)
        stats.instances.append(
            InstanceQuality(
                name=name,
                cities=matrix.shape[0],
                tour_cost=result.cost,
                hk_bound=min(hk.bound, result.cost),
                ap_bound=min(cover.cost, result.cost),
                ap_is_tour=cover.is_tour,
                runs_finding_best=sum(
                    1 for r in result.runs if r.cost <= result.cost + 1e-6
                ),
                runs_total=len(result.runs),
                optimum=certified_optimum(instance),
            )
        )
    return stats


def esp_scale_instances(
    *,
    procedures: int = 60,
    seed: int = 7,
    min_flow: int = 1,
    model: PenaltyModel = ALPHA_21164,
):
    """``(name, AlignmentInstance)`` pairs from an esp-scale synthetic
    program."""
    program, profile = synthetic_workload(procedures=procedures, seed=seed)
    instances = []
    for proc in program:
        edge_profile = profile.procedures.get(proc.name)
        if edge_profile is None or edge_profile.total() < min_flow:
            continue
        instances.append(
            (proc.name, build_alignment_instance(proc.cfg, edge_profile, model))
        )
    return instances
