"""Per-query optimization context: join graph + subgraph catalog.

The graph structure (connected subsets, csg–cmp pairs) depends only on
the query, not on the estimator, cost model, or physical design, so
experiments that optimize the same query under many configurations share
one context.
"""

from __future__ import annotations

from repro.plans.plan import ScanNode
from repro.query.join_graph import JoinGraph
from repro.query.query import Query
from repro.query.subgraphs import catalog_for


class QueryContext:
    """Cached structural state for optimizing one query."""

    def __init__(self, query: Query) -> None:
        self.query = query
        self.graph = JoinGraph(query)
        self.catalog = catalog_for(self.graph)

    def scan_node(self, rel_index: int) -> ScanNode:
        """A fresh scan leaf for the relation at ``rel_index``."""
        rel = self.query.relation_at(rel_index)
        return ScanNode(rel_index, rel.alias, rel.table)

    def scan_nodes(self) -> list[ScanNode]:
        return [self.scan_node(i) for i in range(self.query.n_relations)]
