"""Connected-subgraph and csg–cmp-pair enumeration (Moerkotte & Neumann).

Both exhaustive dynamic programming (Section 6) and the exact-cardinality
oracle (Section 2.4) need the set of *connected* relation subsets of a join
graph, and DP additionally needs every *csg–cmp pair*: an ordered partition
``(S1, S2)`` of a connected set into two connected, edge-adjacent halves.
Each connected subgraph and each pair is produced exactly once, in the
order of the classic ``EnumerateCsg`` / ``EnumerateCmp`` algorithms from
"Analysis of Two Existing and One New Dynamic Programming Algorithm" —
computed level-wise by the packed-bitset kernels in
:mod:`repro.kernels.subgraph` (the recursive walk is the test suite's
reference, ``tests/reference/subgraphs.py``).

Results are cached per join graph in a :class:`SubgraphCatalog`, because
the structure depends only on the graph, not on cardinalities or cost
models; a query optimized under six estimators reuses one catalog.
"""

from __future__ import annotations

import weakref

from repro.kernels.subgraph import (
    connected_subsets,
    csg_cmp_pairs,
    expansion_parents,
    pair_edges,
)
from repro.query.join_graph import JoinGraph
from repro.query.query import JoinEdge
from repro.util.bitset import popcount


def is_connected(graph: JoinGraph, subset: int) -> bool:
    """Convenience re-export of :meth:`JoinGraph.is_connected`."""
    return graph.is_connected(subset)


class SubgraphCatalog:
    """Cached per-graph subgraph structure shared across optimizer runs.

    All structure is derived lazily: the truth oracle only needs
    :meth:`expansion_parent`, so it never pays for the csg–cmp pair
    enumeration, while a DP enumerator that touches :attr:`pairs` (or the
    edge-annotated :attr:`pair_edges`) computes them once and reuses them
    across every estimator and cost-model configuration.

    Attributes
    ----------
    csgs:
        All connected subsets, sorted by size.
    pairs:
        All csg–cmp pairs, sorted by union size.
    pair_edges:
        ``(s1, s2, edges)`` triples for every csg–cmp pair that is joined
        by at least one edge, in :attr:`pairs` order.  Precomputing the
        crossing edges here means a DP run does not re-derive them for
        every estimator/cost-model combination.
    """

    def __init__(self, graph: JoinGraph) -> None:
        self.graph = graph
        self._csgs: list[int] | None = None
        self._csg_set: set[int] | None = None
        self._pairs: list[tuple[int, int]] | None = None
        self._pair_edges: list[tuple[int, int, list[JoinEdge]]] | None = None
        self._parents: dict[int, tuple[int, int]] | None = None

    @property
    def csgs(self) -> list[int]:
        if self._csgs is None:
            self._csgs = connected_subsets(self.graph)
        return self._csgs

    @property
    def pairs(self) -> list[tuple[int, int]]:
        if self._pairs is None:
            self._pairs = csg_cmp_pairs(self.graph)
        return self._pairs

    @property
    def pair_edges(self) -> list[tuple[int, int, list[JoinEdge]]]:
        if self._pair_edges is None:
            self._pair_edges = pair_edges(self.graph, self.pairs)
        return self._pair_edges

    def is_csg(self, subset: int) -> bool:
        if self._csg_set is None:
            self._csg_set = set(self.csgs)
        return subset in self._csg_set

    def expansion_parent(self, subset: int) -> tuple[int, int]:
        """A pair ``(S', bit)`` with ``S' = subset ^ bit`` connected.

        Every connected graph keeps a connected spanning structure after
        removing some leaf, so such a decomposition always exists; the
        truth oracle uses it to build each subexpression's exact result by
        joining one relation onto an already-materialised smaller result.
        """
        if popcount(subset) < 2:
            raise ValueError("expansion parent of a singleton subset")
        if self._parents is None:
            self._parents = expansion_parents(self.graph, self.csgs)
        parent = self._parents.get(subset)
        if parent is None:
            raise ValueError(f"subset {subset:#x} is not connected")
        return parent


#: weakly-held process-wide cache: entries evaporate as soon as no caller
#: retains the catalog, so a long workload sweep cannot accumulate stale
#: state (each catalog keeps its graph alive, so a live entry's ``id()``
#: can never be recycled to a different graph).  The cache itself never
#: extends a catalog's lifetime — sharing happens while some owner (a
#: ``QueryContext``, a pipeline workspace) holds the catalog, and the
#: entry dies with the last owner.
_catalog_cache: "weakref.WeakValueDictionary[int, SubgraphCatalog]" = (
    weakref.WeakValueDictionary()
)


def catalog_for(graph: JoinGraph) -> SubgraphCatalog:
    """Process-wide catalog cache keyed weakly by graph identity."""
    key = id(graph)
    catalog = _catalog_cache.get(key)
    if catalog is None or catalog.graph is not graph:
        catalog = SubgraphCatalog(graph)
        _catalog_cache[key] = catalog
    return catalog


def evict_catalog(graph: JoinGraph) -> None:
    """Explicitly drop any cached catalog for ``graph``."""
    key = id(graph)
    cached = _catalog_cache.get(key)
    if cached is not None and cached.graph is graph:
        _catalog_cache.pop(key, None)


def clear_catalog_cache() -> None:
    """Explicitly drop every cached catalog."""
    _catalog_cache.clear()


def cached_catalog_count() -> int:
    """Number of live cache entries (used by cache-lifetime tests)."""
    return len(_catalog_cache)
