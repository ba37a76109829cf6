"""Reference subgraph enumeration: the recursive Moerkotte & Neumann walk.

``EnumerateCsg`` / ``EnumerateCmp`` from "Analysis of Two Existing and
One New Dynamic Programming Algorithm", emitting each connected subgraph
and each csg–cmp pair exactly once, then sorted into the order
:mod:`repro.kernels.subgraph` produces.
"""

from __future__ import annotations

from repro.query.join_graph import JoinGraph
from repro.util.bitset import bits_of, popcount


def _enumerate_csg_rec(
    graph: JoinGraph, subset: int, exclude: int, out: list[int], max_size: int
) -> None:
    if popcount(subset) >= max_size:
        return
    neigh = graph.neighbors(subset) & ~exclude
    if not neigh:
        return
    # every non-empty subset of the new neighbourhood extends `subset`
    extensions = []
    sub = neigh
    while sub:
        if popcount(subset) + popcount(sub) <= max_size:
            out.append(subset | sub)
            extensions.append(sub)
        sub = (sub - 1) & neigh
    for ext in extensions:
        _enumerate_csg_rec(graph, subset | ext, exclude | neigh, out, max_size)


def connected_subsets(graph: JoinGraph, max_size: int | None = None) -> list[int]:
    """All connected subsets of the join graph, sorted by size then value."""
    cap = max_size if max_size is not None else graph.n
    out: list[int] = []
    for i in range(graph.n - 1, -1, -1):
        single = 1 << i
        out.append(single)
        exclude = (single - 1) | single  # vertices with index <= i
        _enumerate_csg_rec(graph, single, exclude, out, cap)
    out.sort(key=lambda s: (popcount(s), s))
    return out


def _enumerate_cmp(
    graph: JoinGraph, s1: int, out: list[tuple[int, int]]
) -> None:
    """Emit every complement S2 for csg ``s1`` (EnumerateCmp)."""
    min_bit = s1 & -s1
    b_min = (min_bit - 1) | min_bit  # vertices with index <= min(s1)
    x = b_min | s1
    neigh = graph.neighbors(s1) & ~x
    if not neigh:
        return
    seeds = sorted((bit for bit in bits_of(neigh)), reverse=True)
    for seed in seeds:
        out.append((s1, seed))
        lower = (seed - 1) | seed
        exclude = x | (lower & neigh)
        _collect_cmp_rec(graph, seed, exclude, s1, out)


def _collect_cmp_rec(
    graph: JoinGraph, s2: int, exclude: int, s1: int, out: list[tuple[int, int]]
) -> None:
    neigh = graph.neighbors(s2) & ~exclude
    if not neigh:
        return
    extensions = []
    sub = neigh
    while sub:
        out.append((s1, s2 | sub))
        extensions.append(sub)
        sub = (sub - 1) & neigh
    for ext in extensions:
        _collect_cmp_rec(graph, s2 | ext, exclude | neigh, s1, out)


def csg_cmp_pairs(graph: JoinGraph) -> list[tuple[int, int]]:
    """Every csg–cmp pair ``(S1, S2)``, sorted by ``S1 | S2`` size."""
    pairs: list[tuple[int, int]] = []
    for s1 in connected_subsets(graph):
        _enumerate_cmp(graph, s1, pairs)
    pairs.sort(key=lambda p: (popcount(p[0] | p[1]), p[0] | p[1], p[0]))
    return pairs


def pair_edges(graph: JoinGraph) -> list[tuple[int, int, list]]:
    """``(s1, s2, edges)`` for every pair joined by at least one edge."""
    return [
        (s1, s2, edges)
        for s1, s2 in csg_cmp_pairs(graph)
        if (edges := graph.edges_between(s1, s2))
    ]


def expansion_parent(graph: JoinGraph, subset: int) -> tuple[int, int]:
    """The first ``(subset ^ bit, bit)``, bits ascending, whose remainder
    is connected and adjacent to ``bit``."""
    if popcount(subset) < 2:
        raise ValueError("expansion parent of a singleton subset")
    for bit in bits_of(subset):
        rest = subset ^ bit
        if graph.is_connected(rest) and graph.connects(rest, bit):
            return rest, bit
    raise ValueError(f"subset {subset:#x} is not connected")
