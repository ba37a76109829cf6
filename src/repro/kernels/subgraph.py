"""Vectorized connected-subgraph and csg–cmp-pair enumeration.

Subsets are packed bitsets in ``int64`` arrays (bit i = relation index
i, the same convention as python ints; a graph wider than
:data:`MAX_VERTICES` raises :class:`~repro.errors.EnumerationError`
naming its query).  Both enumerations are level-wise breadth-first
expansions:

* a connected set of size k is a connected set of size k-1 plus one
  neighbouring vertex (remove a spanning-tree leaf), so each level is
  ``unique(level ∪ {v})`` over the members' neighbourhoods;
* a cmp ``S2`` of ``S1`` of size k is a cmp of size k-1 plus one vertex
  of ``N(S2)`` that stays disjoint from ``S1`` and above ``min(S1)``
  (root ``S2``'s spanning tree at a vertex adjacent to ``S1`` and
  remove a non-root leaf: connectivity, adjacency, and the
  ``min(S2) > min(S1)`` canonical orientation are all preserved).

The outputs are *sets* plus a deterministic final sort — identical to
the recursive ``EnumerateCsg``/``EnumerateCmp`` order of the python
reference in ``tests/reference/subgraphs.py``: ``connected_subsets``
sorts by ``(popcount, value)``, ``csg_cmp_pairs`` by
``(popcount(S1|S2), S1|S2, S1)``.  ``tests/test_kernels.py`` compares
the two element-for-element, order included.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EnumerationError
from repro.query.join_graph import JoinGraph

#: widest graph the packed-int64 representation supports
MAX_VERTICES = 62


def popcounts(subsets: np.ndarray) -> np.ndarray:
    """Per-element population count (values must be non-negative)."""
    return np.bitwise_count(subsets).astype(np.int64)


def neighbor_table(graph: JoinGraph) -> np.ndarray:
    return np.asarray(graph.neighbor_masks, dtype=np.int64)


def neighborhoods(subsets: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Vectorized ``graph.neighbors``: OR of member masks, minus self."""
    out = np.zeros_like(subsets)
    for i in range(len(table)):
        out |= np.where((subsets >> i) & 1 == 1, table[i], np.int64(0))
    return out & ~subsets


def _expand(subsets: np.ndarray, grow: np.ndarray, n: int) -> list[np.ndarray]:
    """All ``subset | {v}`` for each growth vertex v of each subset."""
    parts: list[np.ndarray] = []
    for i in range(n):
        mask = (grow >> i) & 1 == 1
        if mask.any():
            parts.append(subsets[mask] | (np.int64(1) << i))
    return parts


def connected_subset_levels(
    graph: JoinGraph, max_size: int | None = None
) -> list[np.ndarray]:
    """Connected subsets grouped by size; ``levels[k]`` holds size k+1."""
    n = graph.n
    if n > MAX_VERTICES:
        raise EnumerationError(
            f"query {graph.query.name!r} joins {n} relations; the "
            f"packed-bitset kernels support at most {MAX_VERTICES}"
        )
    cap = max_size if max_size is not None else n
    table = neighbor_table(graph)
    level = np.int64(1) << np.arange(n, dtype=np.int64)
    levels = [level]
    for _ in range(2, cap + 1):
        parts = _expand(level, neighborhoods(level, table), n)
        if not parts:
            break
        level = np.unique(np.concatenate(parts))
        levels.append(level)
    return levels


def connected_subsets(
    graph: JoinGraph, max_size: int | None = None
) -> list[int]:
    """All connected subsets, sorted by (size, value).

    ``max_size`` caps the subset cardinality (the Figure 3 experiment
    only needs subexpressions of up to 7 relations).
    """
    levels = connected_subset_levels(graph, max_size)
    return [int(s) for level in levels for s in level]


def _unique_pairs(s1: np.ndarray, s2: np.ndarray, n: int):
    """Deduplicate (s1, s2) pairs reached through different growth orders."""
    if n <= 31:
        packed = (s1 << 32) | s2
        packed = np.unique(packed)
        return packed >> 32, packed & np.int64(0xFFFFFFFF)
    stacked = np.unique(np.stack([s1, s2], axis=1), axis=0)
    return stacked[:, 0], stacked[:, 1]


def csg_cmp_pairs(graph: JoinGraph) -> list[tuple[int, int]]:
    """Every csg–cmp pair once, with the canonical ``min(S1) < min(S2)``
    orientation, sorted by ``(popcount(S1|S2), S1|S2, S1)`` — so a DP
    loop processes them with both halves already solved."""
    n = graph.n
    table = neighbor_table(graph)
    csgs = np.concatenate(connected_subset_levels(graph))
    # vertices forbidden to S2: everything at or below min(S1)
    below_eq_min = ((csgs & -csgs) << 1) - 1
    seeds_from = neighborhoods(csgs, table) & ~below_eq_min

    # seed pairs (S1, {v}): already unique by construction
    seed_s1: list[np.ndarray] = []
    seed_s2: list[np.ndarray] = []
    for i in range(n):
        mask = (seeds_from >> i) & 1 == 1
        if mask.any():
            seed_s1.append(csgs[mask])
            seed_s2.append(
                np.full(int(mask.sum()), np.int64(1) << i, dtype=np.int64)
            )
    if not seed_s1:
        return []
    s1 = np.concatenate(seed_s1)
    s2 = np.concatenate(seed_s2)

    out_s1: list[np.ndarray] = []
    out_s2: list[np.ndarray] = []
    while len(s1):
        out_s1.append(s1)
        out_s2.append(s2)
        forbidden = s1 | (((s1 & -s1) << 1) - 1)
        grow = neighborhoods(s2, table) & ~forbidden
        new_s1: list[np.ndarray] = []
        new_s2: list[np.ndarray] = []
        for i in range(n):
            mask = (grow >> i) & 1 == 1
            if mask.any():
                new_s1.append(s1[mask])
                new_s2.append(s2[mask] | (np.int64(1) << i))
        if not new_s1:
            break
        s1, s2 = _unique_pairs(
            np.concatenate(new_s1), np.concatenate(new_s2), n
        )
    if not out_s1:
        return []
    s1 = np.concatenate(out_s1)
    s2 = np.concatenate(out_s2)
    union = s1 | s2
    order = np.lexsort((s1, union, popcounts(union)))
    s1 = s1[order]
    s2 = s2[order]
    return [(int(a), int(b)) for a, b in zip(s1, s2)]


def expansion_parents(
    graph: JoinGraph, csgs: list[int]
) -> dict[int, tuple[int, int]]:
    """Bulk ``expansion_parent`` for every composite connected subset.

    The reference scans bits ascending and returns the first ``bit``
    whose remainder is connected and adjacent to it.  For a connected
    ``subset``, a connected remainder forces the adjacency (otherwise
    the union would be disconnected), so the parent is simply the
    lowest set bit whose remainder is again a connected subset — an
    ``isin`` sweep per vertex over the packed csg array.
    """
    n = graph.n
    all_csgs = np.asarray(csgs, dtype=np.int64)
    universe = np.sort(all_csgs)
    subsets = all_csgs[popcounts(all_csgs) >= 2]
    parent = np.zeros(len(subsets), dtype=np.int64)
    bit_of = np.zeros(len(subsets), dtype=np.int64)
    open_ = np.ones(len(subsets), dtype=bool)
    for i in range(n):
        if not open_.any():
            break
        bit = np.int64(1) << i
        cand = open_ & ((subsets & bit) != 0)
        if not cand.any():
            continue
        rest = subsets[cand] ^ bit
        pos = np.searchsorted(universe, rest)
        pos = np.minimum(pos, len(universe) - 1)
        hit = universe[pos] == rest
        idx = np.flatnonzero(cand)[hit]
        parent[idx] = rest[hit]
        bit_of[idx] = bit
        open_[idx] = False
    return {
        int(s): (int(p), int(b))
        for s, p, b in zip(subsets, parent, bit_of)
        if not b == 0
    }


def pair_edges(graph: JoinGraph, pairs: list[tuple[int, int]]):
    """``(s1, s2, edges)`` for every csg–cmp pair joined by an edge.

    ``graph.edges_between(s1, s2)`` walks ``i`` ascending over the bits
    of ``s1``, ``j`` ascending over the bits of ``s2``, and extends by
    the ``(min(i,j), max(i,j))`` bucket's edge list.  Each bucket is
    therefore entered under the sort key ``(i_in_s1, j_in_s2)`` — so
    listing every bucket twice (once per orientation), sorting the
    entries by that key, and reading ``np.nonzero`` of the boolean
    (pair × entry) crossing matrix pair-major reproduces the
    ``edges_between`` order exactly; the edge lists reference the
    graph's own ``JoinEdge`` objects.
    """
    if not pairs:
        return []
    entries = []  # (i_in_s1, j_in_s2, bucket edge list)
    for (i, j), bucket in graph._edges.items():
        entries.append((i, j, bucket))
        entries.append((j, i, bucket))
    entries.sort(key=lambda e: (e[0], e[1]))
    ent_i = np.asarray([e[0] for e in entries], dtype=np.int64)
    ent_j = np.asarray([e[1] for e in entries], dtype=np.int64)
    ent_edges = [e[2] for e in entries]
    s1 = np.asarray([p[0] for p in pairs], dtype=np.int64)
    s2 = np.asarray([p[1] for p in pairs], dtype=np.int64)
    crosses = (
        ((s1[:, None] >> ent_i[None, :]) & 1)
        & ((s2[:, None] >> ent_j[None, :]) & 1)
    ).astype(bool)
    _pair_idx, ent_idx = np.nonzero(crosses)
    hits_per_pair = crosses.sum(axis=1)
    out = []
    pos = 0
    for p, n_hits in enumerate(hits_per_pair):
        if n_hits == 0:
            continue
        edges: list = []
        for k in range(pos, pos + int(n_hits)):
            edges.extend(ent_edges[ent_idx[k]])
        pos += int(n_hits)
        out.append((pairs[p][0], pairs[p][1], edges))
    return out
