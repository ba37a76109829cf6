"""Join-operator candidate generation shared by all enumeration algorithms.

Given two sub-plans and the edges connecting them, produce every physical
join alternative the engine supports under the current physical design and
engine configuration:

* hash join (left child = build side),
* index-nested-loop join when the right side is a base relation with an
  index on one of the connecting edge columns,
* non-index nested-loop join only when explicitly allowed (the paper
  disables it in Section 4.1 because its tiny best-case payoff never
  justifies its quadratic worst case).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.physical.design import PhysicalDesign
from repro.plans.plan import JoinNode, PlanNode, ScanNode
from repro.query.query import JoinEdge, Query


def candidate_joins(
    query: Query,
    left: PlanNode,
    right: PlanNode,
    edges: list[JoinEdge],
    design: PhysicalDesign,
    allow_nlj: bool = False,
) -> Iterator[JoinNode]:
    """All physical join nodes combining ``left`` and ``right``."""
    yield JoinNode(left, right, "hash", edges)
    if allow_nlj:
        yield JoinNode(left, right, "nlj", edges)
    if isinstance(right, ScanNode):
        index_edge = design.usable_index_edge(query, edges, right.alias)
        if index_edge is not None:
            yield JoinNode(left, right, "inlj", edges, index_edge=index_edge)
