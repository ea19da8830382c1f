"""Ext-TSP layouts: the chain-merging heuristic (Newell–Pupyrev /
BOLT-style) and the exact path-cover layout it is the floor of.

Starts from one chain per block and greedily applies the merge with the
best Ext-TSP gain until no merge improves the objective.  A merge of
chains X and Y considers the plain concatenations ``X·Y`` / ``Y·X`` plus
bounded *split-insertion* variants ``X1·Y·X2`` and ``Y1·X·Y2`` (every
split point of either chain, capped at :data:`SPLIT_CAP` blocks so the
search stays near-quadratic) — the "chain splits" of Newell–Pupyrev's
"Improved Basic Block Reordering".  The gain of a candidate is scored
*locally*: only edges with both endpoints inside the merged pair can
change class.  Each round scores every candidate of every pair it
rescores in one NumPy batch (:func:`_sequence_scores`).

The merge phase's gains are float re-summed scores, and its tie-breaking
is part of the layouts it has always produced, so the batch keeps each
candidate's exact summation order: terms are added one at a time in
block order, within a block in profile-key order of the edges touching
it, each edge at whichever endpoint comes first (a sequential ``cumsum``
along the row; ``np.sum`` would sum pairwise and round differently).  The merged
chain's score is the winning candidate's, not a fresh re-sum.

The entry block is pinned: any candidate that would place a block ahead
of the entry inside the entry's chain is discarded, so the final layout
always starts at the entry (the repro's layout contract).  Remaining
chains are emitted by decreasing execution density (weight per word),
the BOLT ordering that keeps hot code dense up front.

``exttsp_layout`` (the ``exttsp`` method) lays out the
maximum-weight path cover of the scored edges instead, weighted by their
counts (:mod:`repro.tsp.path_cover`).  With equal forward and backward
weights, on a procedure that fits both windows, every edge that does not
fall through scores the same in any layout, so the cover's layout is
optimal — the k = 1 case of Mestre–Pupyrev–Umboh.  Elsewhere the merge
order can score higher, and it is kept when it does, so ``exttsp`` never
scores below ``chain-merge``, the pure merge heuristic.  Both
read one merge phase per procedure, the pipeline's ``merge`` artifact
(:class:`MergeOrder`).

Everything here is deterministic — no RNG, ties broken on chain/block
ids — so results are identical for every worker count and seed, unless
a budget cuts the cover's search short.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.budget import Budget, BudgetTimer
from repro.cfg.graph import ControlFlowGraph
from repro.core.exttsp import (
    DEFAULT_PARAMS,
    ExtTSPParams,
    block_size_words,
    exttsp_score,
    scored_edges,
)
from repro.core.layout import Layout
from repro.errors import SolverBudgetExceeded
from repro.profiles.edge_profile import EdgeProfile
from repro.tsp.path_cover import path_cover

#: Chains longer than this contribute only concatenation candidates (no
#: split-insertion) — keeps a merge round near-quadratic on big CFGs.
SPLIT_CAP = 48

#: Cells (rows × (blocks + edges)) of one scoring batch; a round with
#: more candidates is scored in several, bounding peak memory.
BATCH_CELLS = 1 << 16


@dataclass
class MergeStats:
    """Diagnostics the aligner reports through spans/counters."""

    merges: int = 0
    splits: int = 0
    #: Candidate sequences the merge phase scored.
    merge_candidates: int = 0
    #: Layouts that kept the merge order because it outscored the cover.
    merge_kept: int = 0
    score: float = 0.0
    #: Why the cover's search stopped short (its budget expired), if it did.
    warning: str | None = None


@dataclass(frozen=True)
class MergeOrder:
    """The merge phase's result for one procedure: its block order, that
    order's Ext-TSP score and the counts of the run that produced it (the
    ``merge`` artifact)."""

    order: tuple[int, ...]
    score: float
    merges: int
    splits: int
    candidates: int


@dataclass
class _Instance:
    """Preprocessed per-procedure scoring state.

    ``entry``, ``sizes``, ``edges`` and ``weight_of`` are by block id.
    The merge phase works on dense block indices: a block's position in
    ``blocks``, the sorted block ids."""

    entry: int
    sizes: dict[int, int]
    #: Scored profile edges ``(src, dst, count)``, in profile-key order.
    edges: list[tuple[int, int, int]]
    weight_of: dict[int, float]
    params: ExtTSPParams
    blocks: list[int]
    index: dict[int, int]
    #: Per dense index, the dense indices it shares a scored edge with.
    adjacent: list[list[int]]
    #: Size in words per dense index, plus a 0-word padding block.
    size_of: np.ndarray
    #: The scored edges as dense-index arrays, with their float counts.
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_count: np.ndarray
    #: Each edge's rank among the edges touching its source and among
    #: those touching its target (in profile-key order, a self-loop
    #: once), and one more than any rank.
    rank_at_src: np.ndarray
    rank_at_dst: np.ndarray
    rank_stride: int
    #: Class weight by ``gap + reach[0]`` for gaps clipped to
    #: ``[-reach[0], reach[1]]``: one word past the backward and the
    #: forward window.
    weights: np.ndarray
    reach: tuple[int, int]


def _build(
    cfg: ControlFlowGraph, profile: EdgeProfile, params: ExtTSPParams
) -> _Instance:
    blocks = sorted(cfg.block_ids)
    index = {block_id: i for i, block_id in enumerate(blocks)}
    sizes = {b: block_size_words(cfg.block(b)) for b in blocks}
    edges = []
    adjacent: list[list[int]] = [[] for _ in blocks]
    degree = [0] * len(blocks)
    ranks = []
    for (src, dst), count in sorted(profile.counts.items()):
        if count <= 0 or src not in cfg or dst not in cfg.successors(src):
            continue
        edges.append((src, dst, count))
        s, d = index[src], index[dst]
        ranks.append((degree[s], degree[d] if d != s else degree[s]))
        degree[s] += 1
        if d != s:
            degree[d] += 1
            adjacent[s].append(d)
            adjacent[d].append(s)
    exits = dict.fromkeys(blocks, 0)
    for (src, _dst), count in profile.counts.items():
        if src in exits:
            exits[src] += count
    # No gap exceeds the procedure's size, so windows clamp to it.
    words = sum(sizes.values())
    back = min(max(params.backward_window, 0), words) + 1
    forward = min(max(params.forward_window, 0), words) + 1
    weights = np.zeros(back + forward + 1)
    weights[1:back] = params.backward_weight
    weights[back] = params.fallthrough_weight
    weights[back + 1:-1] = params.forward_weight
    return _Instance(
        entry=cfg.entry,
        sizes=sizes,
        edges=edges,
        weight_of={b: float(count) for b, count in exits.items()},
        params=params,
        blocks=blocks,
        index=index,
        adjacent=adjacent,
        size_of=np.array([*sizes.values(), 0], dtype=np.int64),
        edge_src=np.array([index[s] for s, _d, _c in edges], np.intp),
        edge_dst=np.array([index[d] for _s, d, _c in edges], np.intp),
        edge_count=np.array([float(c) for _s, _d, c in edges]),
        rank_at_src=np.array([r for r, _ in ranks], np.intp),
        rank_at_dst=np.array([r for _, r in ranks], np.intp),
        rank_stride=max(degree, default=0) + 1,
        weights=weights,
        reach=(back, forward),
    )


def _sequence_scores(
    inst: _Instance, sequences: list[list[int]]
) -> list[float]:
    """Ext-TSP score of the edges fully inside each sequence of dense
    block indices, its blocks laid out consecutively (addresses local to
    the sequence — distances between blocks of one chain do not depend
    on where the chain eventually lands).

    Each score is the sequential float sum of ``count × class weight``
    in block order, within a block by rank, each edge at its
    first-visited endpoint: the batch sorts every row's terms into
    that order and sums them with ``cumsum``.  Edges outside a sequence
    enter as 0.0 terms, which leave every partial sum as is."""
    n = len(inst.blocks)
    if not inst.edges:
        return [0.0] * len(sequences)
    src, dst = inst.edge_src, inst.edge_dst
    stride = inst.rank_stride
    back, forward = inst.reach
    step = max(1, BATCH_CELLS // (n + len(inst.edges) + 1))
    scores: list[float] = []
    for lo in range(0, len(sequences), step):
        batch = sequences[lo:lo + step]
        width = max(map(len, batch))
        # Rows padded with the 0-word block ``n``.
        pad = [n] * width
        seq = np.fromiter(
            itertools.chain.from_iterable(s + pad[len(s):] for s in batch),
            np.intp, len(batch) * width,
        ).reshape(len(batch), width)
        rows = np.arange(len(batch))[:, None]
        # Sort key of a block's edges: its position × stride + rank; a
        # block outside the row keys negative.
        first = np.full((len(batch), n + 1), -stride)
        first[rows, seq] = np.arange(0, width * stride, stride)
        end = np.zeros((len(batch), n + 1), dtype=np.int64)
        end[rows, seq] = inst.size_of[seq].cumsum(axis=1)
        gap = end[:, dst] - end[:, src] - inst.size_of[dst]
        np.maximum(gap, -back, out=gap)
        np.minimum(gap, forward, out=gap)
        terms = inst.edge_count * inst.weights[gap + back]
        # Each edge counts at its first-visited endpoint.
        key = np.minimum(
            first[:, src] + inst.rank_at_src, first[:, dst] + inst.rank_at_dst
        )
        terms[key < 0] = 0.0
        ordered = terms[rows, key.argsort(axis=1)]
        scores.extend(ordered.cumsum(axis=1)[:, -1].tolist())
    return scores


def _merge_candidates(x: list[int], y: list[int]):
    """Candidate merged sequences for chains ``x`` and ``y``: the two
    concatenations plus split-insertions of each (bounded); candidates
    that would bury the entry block are dropped by the caller."""
    yield x + y, False
    yield y + x, False
    if len(x) <= SPLIT_CAP:
        for cut in range(1, len(x)):
            yield x[:cut] + y + x[cut:], True
    if len(y) <= SPLIT_CAP:
        for cut in range(1, len(y)):
            yield y[:cut] + x + y[cut:], True


def chain_merge_order(
    inst: _Instance, *, stats: MergeStats | None = None
) -> list[int]:
    """The merge phase: block order maximizing Ext-TSP gain greedily."""
    entry = inst.index[inst.entry]
    # Chain i starts as dense block i; chains hold dense indices.
    chains: dict[int, list[int]] = {i: [i] for i in range(len(inst.blocks))}
    scores: dict[int, float] = dict(
        enumerate(_sequence_scores(inst, list(chains.values())))
    )
    entry_chain = entry
    # Chains joined by a scored edge.  Only linked pairs are scored:
    # unlinked pairs can never produce a positive merge gain.
    links: dict[int, set[int]] = {
        i: set(adjacent) - {i} for i, adjacent in enumerate(inst.adjacent)
    }

    # Each pair's best candidate (gain, sequence, used_split, score),
    # maintained incrementally: only pairs touching a freshly merged chain
    # are rescored each round.
    best_of: dict[tuple[int, int], tuple[float, list[int], bool, float]] = {}

    def rescore(pairs) -> None:
        """Score every legal candidate of ``pairs`` in one batch, then
        keep each pair's best.  Ties inside a pair prefer the earliest
        candidate, making the scan order part of the contract."""
        groups = []
        sequences: list[list[int]] = []
        for pair in pairs:
            legal = list(_merge_candidates(chains[pair[0]], chains[pair[1]]))
            if entry_chain in pair:
                # Nothing may precede the entry block.
                legal = [c for c in legal if c[0][0] == entry]
            groups.append((pair, legal))
            sequences.extend(candidate for candidate, _split in legal)
        if stats is not None:
            stats.merge_candidates += len(sequences)
        scored = iter(_sequence_scores(inst, sequences))
        for pair, legal in groups:
            base = scores[pair[0]] + scores[pair[1]]
            best = None
            for (candidate, used_split), score in zip(legal, scored):
                gain = score - base
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, candidate, used_split, score)
            best_of[pair] = best

    rescore(sorted(
        (ci, cj) for ci, linked in links.items() for cj in linked if ci < cj
    ))

    while best_of:
        # Highest gain wins; ties break on the smaller chain-id pair so the
        # merge order (hence the layout) is deterministic.
        pair, (gain, merged, used_split, score) = min(
            best_of.items(), key=lambda item: (-item[1][0], item[0])
        )
        if gain <= 1e-12:
            break
        ci, cj = pair
        chains[ci] = merged
        scores[ci] = score
        del chains[cj], scores[cj]
        for other in links.pop(cj):
            links[other].discard(cj)
            if other != ci:
                links[other].add(ci)
                links[ci].add(other)
        if cj == entry_chain:
            entry_chain = ci
        if stats is not None:
            stats.merges += 1
            if used_split:
                stats.splits += 1
        for stale in [p for p in best_of if ci in p or cj in p]:
            del best_of[stale]
        rescore(
            (min(ci, other), max(ci, other)) for other in sorted(links[ci])
        )

    def density(chain: list[int]) -> float:
        words = sum(inst.sizes[b] for b in chain) or 1
        return sum(inst.weight_of[b] for b in chain) / words

    ordered = sorted(
        ([inst.blocks[i] for i in chain] for chain in chains.values()),
        key=lambda chain: (
            chain[0] != inst.entry,
            -density(chain),
            chain[0],
        ),
    )
    order: list[int] = []
    for chain in ordered:
        order.extend(chain)
    return order


def _order_score(inst: _Instance, order: list[int]) -> float:
    return _sequence_scores(inst, [[inst.index[b] for b in order]])[0]


def _merge(inst: _Instance) -> MergeOrder:
    stats = MergeStats()
    order = chain_merge_order(inst, stats=stats)
    return MergeOrder(
        tuple(order),
        _order_score(inst, order),
        stats.merges,
        stats.splits,
        stats.merge_candidates,
    )


def merge_phase(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
) -> MergeOrder:
    """One run of the merge phase (what the ``merge`` artifact holds)."""
    return _merge(_build(cfg, profile, params))


def chain_merge_layout(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
    *,
    stats: MergeStats | None = None,
    merged: MergeOrder | None = None,
) -> Layout:
    """The merge phase's order (the ``chain-merge`` method).

    ``merged`` is this procedure's merge phase under ``params`` when the
    caller already has it (the pipeline's ``merge`` artifact); it is run
    here otherwise.  ``stats`` counts the merge either way, so its
    merges/splits/candidates describe the layout, not the work done in
    this call."""
    if merged is None:
        merged = merge_phase(cfg, profile, params)
    if stats is not None:
        stats.merges += merged.merges
        stats.splits += merged.splits
        stats.merge_candidates += merged.candidates
        stats.score = merged.score
    return Layout(merged.order)


def exttsp_layout(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
    *,
    stats: MergeStats | None = None,
    merged: MergeOrder | None = None,
    budget: Budget | BudgetTimer | None = None,
) -> Layout:
    """The path cover's layout, or the merge order when that scores
    strictly higher, beyond float rounding (the ``exttsp``
    method).

    ``merged`` and ``stats`` are as in :func:`chain_merge_layout`;
    ``stats.merge_kept`` counts a kept merge order.  ``budget`` bounds
    the cover's search; once it expires, the best cover found so far
    competes with the merge order and ``stats.warning`` says why.  Never
    raises :class:`~repro.errors.SolverBudgetExceeded`."""
    merge = chain_merge_layout(cfg, profile, params, stats=stats, merged=merged)
    # The cover's arcs: edges that can fall through (no self-loop, none
    # into the entry), each gaining its count over a default of 0.  The
    # cities are numbered in the merge order, so the entry is city 0,
    # which no arc enters, and the join puts its path first and the
    # other paths in merge order.  A merge order that already falls
    # through a maximum cover usually comes back as it is.
    blocks = merge.order
    index = {block_id: i for i, block_id in enumerate(blocks)}
    matrix = np.zeros((len(blocks), len(blocks)))
    for src, dst, count in scored_edges(cfg, profile):
        if src != dst and dst != cfg.entry:
            matrix[index[src], index[dst]] = -count
    try:
        tour = path_cover(
            matrix, np.zeros(len(blocks)), np.argwhere(matrix < 0),
            budget=budget,
        ).tour
    except SolverBudgetExceeded as exc:
        tour = exc.best_so_far
        if stats is not None:
            stats.warning = str(exc)
    cover = Layout(tuple(blocks[i] for i in tour))
    cover_score = exttsp_score(cfg, cover, profile, params)
    merge_score = exttsp_score(cfg, merge, profile, params)
    # Two layouts of one score can sum it in different float roundings.
    if merge_score > cover_score + 1e-9 * max(1.0, abs(cover_score)):
        layout, score = merge, merge_score
    else:
        layout, score = cover, cover_score
    if stats is not None:
        stats.merge_kept += layout is merge
        stats.score = score
    return layout
