"""Reference analytic closed form: recomputed from scratch on every call.

:meth:`AnalyticEstimator.cardinality` caches each query's alias tuples,
base cardinalities and combined spanning-edge selectivities; this is the
same formula with no caching at all, so the two must agree to the bit.
"""

from __future__ import annotations

from repro.errors import EstimationError
from repro.util.bitset import bit_indices


def cardinality(estimator, query, subset: int, unfiltered_alias=None) -> float:
    """``|S| = Π base_card(r in S) · combine(spanning-edge selectivities)``."""
    indices = bit_indices(subset)
    if not indices:
        raise EstimationError("empty subset")
    card = 1.0
    for i in indices:
        alias = query.relation_at(i).alias
        filtered = alias != unfiltered_alias
        card *= estimator.base_cardinality(query, alias, filtered=filtered)
    if len(indices) > 1:
        graph = estimator._graph(query)
        edges = estimator._spanning_edges(query, graph.edges_within(subset))
        if edges:
            sels = [estimator.edge_selectivity(query, e) for e in edges]
            card *= estimator.combine_edge_selectivities(sels)
    return max(card, 1.0)
