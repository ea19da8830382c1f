"""Chain-merging ExtTSP layout heuristic (Newell–Pupyrev / BOLT-style).

Starts from one chain per block and greedily applies the merge with the
best Ext-TSP gain until no merge improves the objective.  A merge of
chains X and Y considers the plain concatenations ``X·Y`` / ``Y·X`` plus
bounded *split-insertion* variants ``X1·Y·X2`` and ``Y1·X·Y2`` (every
split point of either chain, capped at :data:`SPLIT_CAP` blocks so the
search stays near-quadratic) — the "chain splits" of Newell–Pupyrev's
"Improved Basic Block Reordering".  The gain of a candidate is scored
*locally*: only edges with both endpoints inside the merged pair can
change class, so each candidate costs O(|local edges|).

The entry block is pinned: any candidate that would place a block ahead
of the entry inside the entry's chain is discarded, so the final layout
always starts at the entry (the repro's layout contract).  Remaining
chains are emitted by decreasing execution density (weight per word),
the BOLT ordering that keeps hot code dense up front.

``exttsp_layout(..., refine=True)`` follows the merge phase with a
deterministic hill-climb: repeatedly move one block to the position that
most improves the Ext-TSP score, until a fixed point (or a pass cap).
The climb scores a move by its *exact* change in executed counts per
weight class (fall-through, forward, backward), all candidates of one
removed block in a few NumPy calls, so a move that changes nothing
gains exactly 0.0.  The merge phase keeps float re-summed gains: its
tie-breaking is part of the layouts it has always produced.
The registered ``chain-merge`` method is the pure merge heuristic; the
``exttsp`` method is merge + refinement.

Everything here is deterministic — no RNG, ties broken on chain/block
ids — so results are identical for every worker count and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cfg.graph import ControlFlowGraph
from repro.core.exttsp import (
    DEFAULT_PARAMS,
    ExtTSPParams,
    block_size_words,
    edge_weight,
)
from repro.core.layout import Layout
from repro.profiles.edge_profile import EdgeProfile

#: Chains longer than this contribute only concatenation candidates (no
#: split-insertion) — keeps a merge round near-quadratic on big CFGs.
SPLIT_CAP = 48

#: Hill-climb safety valve: at most this many full improvement passes.
MAX_REFINE_PASSES = 8


@dataclass
class MergeStats:
    """Diagnostics the aligner reports through spans/counters."""

    merges: int = 0
    splits: int = 0
    refine_moves: int = 0
    #: Single-block moves the climb scored: (n-1)(n-2) per pass.
    refine_candidates: int = 0
    score: float = 0.0


@dataclass
class _Instance:
    """Preprocessed per-procedure scoring state."""

    entry: int
    sizes: dict[int, int]
    #: Scored profile edges ``(src, dst, count)``, in profile-key order.
    edges: list[tuple[int, int, int]] = field(default_factory=list)
    #: The same edges (counts as floats), grouped by the blocks they touch.
    edges_of: dict[int, list[tuple[int, int, float]]] = field(
        default_factory=dict
    )
    weight_of: dict[int, float] = field(default_factory=dict)
    params: ExtTSPParams = DEFAULT_PARAMS


def _build(
    cfg: ControlFlowGraph, profile: EdgeProfile, params: ExtTSPParams
) -> _Instance:
    inst = _Instance(
        entry=cfg.entry,
        sizes={b: block_size_words(cfg.block(b)) for b in cfg.block_ids},
        params=params,
    )
    for (src, dst), count in sorted(profile.counts.items()):
        if count <= 0 or src not in cfg or dst not in cfg.successors(src):
            continue
        inst.edges.append((src, dst, count))
        edge = (src, dst, float(count))
        inst.edges_of.setdefault(src, []).append(edge)
        if dst != src:
            inst.edges_of.setdefault(dst, []).append(edge)
    for block_id in cfg.block_ids:
        inst.weight_of[block_id] = float(profile.block_exit_count(block_id))
    return inst


def _sequence_score(inst: _Instance, sequence: list[int]) -> float:
    """Ext-TSP score of the edges fully inside ``sequence`` when its
    blocks are laid out consecutively (addresses local to the sequence —
    distances between blocks of one chain do not depend on where the
    chain eventually lands)."""
    start: dict[int, int] = {}
    end: dict[int, int] = {}
    at = 0
    for block_id in sequence:
        start[block_id] = at
        at += inst.sizes[block_id]
        end[block_id] = at
    total = 0.0
    seen: set[tuple[int, int]] = set()
    for block_id in sequence:
        for src, dst, count in inst.edges_of.get(block_id, ()):
            if (src, dst) in seen:
                continue
            if src not in end or dst not in start:
                continue
            seen.add((src, dst))
            weight = edge_weight(end[src], start[dst], inst.params)
            if weight:
                total += count * weight
    return total


def _connected(inst: _Instance, a: list[int], b: list[int]) -> bool:
    """Whether any scored edge crosses between chains ``a`` and ``b`` —
    unconnected pairs can never produce a positive merge gain."""
    smaller, other = (a, b) if len(a) <= len(b) else (b, a)
    members = set(other)
    for block_id in smaller:
        for src, dst, _count in inst.edges_of.get(block_id, ()):
            if src in members or dst in members:
                return True
    return False


def _merge_candidates(x: list[int], y: list[int]):
    """Candidate merged sequences for chains ``x`` and ``y``: the two
    concatenations plus split-insertions of each (bounded); candidates
    that would bury the entry block are dropped by the caller's guard."""
    yield x + y, False
    yield y + x, False
    if len(x) <= SPLIT_CAP:
        for cut in range(1, len(x)):
            yield x[:cut] + y + x[cut:], True
    if len(y) <= SPLIT_CAP:
        for cut in range(1, len(y)):
            yield y[:cut] + x + y[cut:], True


def _entry_ok(candidate: list[int], entry: int, has_entry: bool) -> bool:
    return not has_entry or candidate[0] == entry


def _best_merge(
    inst: _Instance,
    chains: dict[int, list[int]],
    scores: dict[int, float],
    entry_chain: int,
    entry: int,
    pair: tuple[int, int],
) -> tuple[float, list[int], bool] | None:
    """The best candidate for one chain pair: (gain, sequence, used_split),
    or None when no candidate is legal.  Ties inside the pair prefer the
    earliest candidate, making the scan order part of the contract."""
    ci, cj = pair
    x, y = chains[ci], chains[cj]
    if not _connected(inst, x, y):
        return None
    base = scores[ci] + scores[cj]
    has_entry = ci == entry_chain or cj == entry_chain
    best: tuple[float, list[int], bool] | None = None
    for candidate, used_split in _merge_candidates(x, y):
        if not _entry_ok(candidate, entry, has_entry):
            continue
        gain = _sequence_score(inst, candidate) - base
        if best is None or gain > best[0] + 1e-12:
            best = (gain, candidate, used_split)
    return best


def chain_merge_order(
    inst: _Instance, *, stats: MergeStats | None = None
) -> list[int]:
    """The merge phase: block order maximizing Ext-TSP gain greedily."""
    entry = inst.entry
    block_ids = sorted(inst.sizes)
    chains: dict[int, list[int]] = {i: [b] for i, b in enumerate(block_ids)}
    scores: dict[int, float] = {
        i: _sequence_score(inst, chain) for i, chain in chains.items()
    }
    entry_chain = next(
        i for i, chain in chains.items() if chain[0] == entry
    )

    # Candidate gains, maintained incrementally: only pairs touching a
    # freshly merged chain are rescored each round.
    best_of: dict[tuple[int, int], tuple[float, list[int], bool]] = {}

    def rescore(pairs) -> None:
        for pair in pairs:
            found = _best_merge(
                inst, chains, scores, entry_chain, entry, pair
            )
            if found is None:
                best_of.pop(pair, None)
            else:
                best_of[pair] = found

    rescore(
        (ci, cj)
        for i, ci in enumerate(sorted(chains))
        for cj in sorted(chains)[i + 1:]
    )

    while best_of:
        # Highest gain wins; ties break on the smaller chain-id pair so the
        # merge order (hence the layout) is deterministic.
        pair, (gain, merged, used_split) = min(
            best_of.items(), key=lambda item: (-item[1][0], item[0])
        )
        if gain <= 1e-12:
            break
        ci, cj = pair
        chains[ci] = merged
        scores[ci] = _sequence_score(inst, merged)
        del chains[cj], scores[cj]
        if cj == entry_chain:
            entry_chain = ci
        if stats is not None:
            stats.merges += 1
            if used_split:
                stats.splits += 1
        for stale in [p for p in best_of if ci in p or cj in p]:
            del best_of[stale]
        rescore(
            (min(ci, other), max(ci, other))
            for other in sorted(chains)
            if other != ci
        )

    def density(chain: list[int]) -> float:
        words = sum(inst.sizes[b] for b in chain) or 1
        return sum(inst.weight_of[b] for b in chain) / words

    ordered = sorted(
        chains.values(),
        key=lambda chain: (
            chain[0] != entry,
            -density(chain),
            chain[0],
        ),
    )
    order: list[int] = []
    for chain in ordered:
        order.extend(chain)
    return order


def refine_order(
    inst: _Instance, order: list[int], *, stats: MergeStats | None = None
) -> list[int]:
    """Deterministic best-improvement hill climb over single-block moves.

    Each pass tries every (block, position) move with the entry pinned at
    position 0, applies the best strictly-improving one, and repeats
    until a pass finds nothing (or :data:`MAX_REFINE_PASSES` is hit).
    Moves are scanned removed block first, target position second; the
    first of equal gains wins.

    A move's gain is exact: the change in executed counts per weight
    class, priced once by the class weights.  All moves of one removed
    block are scored together as a ``(n-2, n)`` matrix of candidate
    orders (a batch per block keeps peak memory at O(n·edges))."""
    n = len(order)
    blocks = np.array(order)
    index = {block_id: i for i, block_id in enumerate(order)}
    sizes = np.array([inst.sizes[b] for b in order], dtype=np.int64)
    src = np.array([index[s] for s, _d, _c in inst.edges], dtype=np.intp)
    dst = np.array([index[d] for _s, d, _c in inst.edges], dtype=np.intp)
    counts = np.array([c for _s, _d, c in inst.edges])
    params = inst.params

    def class_counts(candidates: np.ndarray) -> np.ndarray:
        """Executed counts per class (fall-through, forward, backward)
        of each candidate order (rows of block indices): shape (3, rows)."""
        rows = np.arange(len(candidates))[:, None]
        widths = sizes[candidates]
        ends = np.cumsum(widths, axis=1)
        start_of = np.empty_like(ends)
        end_of = np.empty_like(ends)
        start_of[rows, candidates] = ends - widths
        end_of[rows, candidates] = ends
        gap = start_of[:, dst] - end_of[:, src]
        classes = np.stack([
            gap == 0,
            (gap > 0) & (gap <= params.forward_window),
            (gap < 0) & (gap >= -params.backward_window),
        ])
        return classes @ counts

    current = np.arange(n)
    slots = np.arange(n)
    row_ids = np.arange(n - 2)
    for _pass in range(MAX_REFINE_PASSES):
        base = class_counts(current[None, :])
        best: tuple[float, np.ndarray] | None = None
        for at in range(1, n):
            # Row r moves the block at slot ``at`` to slot targets[r]; the
            # other blocks keep their order around it.
            targets = slots[slots != at][1:]
            picks = slots - (slots > targets[:, None])
            picks += picks >= at
            picks[row_ids, targets] = at
            candidates = current[picks]
            delta = class_counts(candidates) - base
            gains = (
                params.fallthrough_weight * delta[0]
                + params.forward_weight * delta[1]
                + params.backward_weight * delta[2]
            )
            for row in np.flatnonzero(gains > 1e-12):
                gain = float(gains[row])
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, candidates[row].copy())
        if stats is not None:
            stats.refine_candidates += (n - 1) * (n - 2)
        if best is None:
            break
        current = best[1]
        if stats is not None:
            stats.refine_moves += 1
    return blocks[current].tolist()


def chain_merge_layout(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
    *,
    stats: MergeStats | None = None,
) -> Layout:
    """The pure chain-merge heuristic (the registered ``chain-merge``)."""
    return exttsp_layout(cfg, profile, params, refine=False, stats=stats)


def exttsp_layout(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
    *,
    refine: bool = True,
    stats: MergeStats | None = None,
) -> Layout:
    """Chain merging, optionally followed by the single-block hill climb
    (the registered ``exttsp`` method)."""
    inst = _build(cfg, profile, params)
    order = chain_merge_order(inst, stats=stats)
    if refine and len(order) > 2:
        order = refine_order(inst, order, stats=stats)
    if stats is not None:
        stats.score = _sequence_score(inst, order)
    return Layout(tuple(order))
