"""Shared machinery for formula-based (analytic) estimators.

All industrial estimators the paper examines share one architecture:
per-base-table selectivities combined with per-join-edge selectivities
under (some relaxation of) the independence assumption.  For acyclic
equality-join queries the recursive pairwise formula collapses into the
closed form

    |S| = Π base_card(r in S) · combine(edge selectivities within S)

which is what :class:`AnalyticEstimator` computes.  Subclasses choose how
base selectivities are obtained (statistics vs samples vs magic), how an
edge's selectivity is derived (domain sizes), and how multiple edge
selectivities combine (pure product vs damped product).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.catalog.schema import Database
from repro.cardinality.base import CardinalityEstimator
from repro.errors import EstimationError
from repro.query.join_graph import JoinGraph
from repro.query.query import JoinEdge, Query
from repro.util.bitset import bit_indices

#: cache-miss sentinel (``None`` is a legal cached value: "no edges")
_MISSING = object()


class _QueryPlanCache:
    """Per-(estimator, query) closed-form bookkeeping, computed once.

    DP enumeration evaluates the closed form for every connected subset
    of every estimator — and almost everything in it is a pure function
    of (query, subset): the subset's alias tuple, each relation's base
    cardinality, and the combined spanning-edge selectivity.  Caching
    those three preserves IEEE bit-identity because the remaining
    arithmetic per call is exactly the original's multiplication
    sequence: base cards in ``bit_indices`` order, then one multiply by
    the (identically computed) combined selectivity.
    """

    __slots__ = ("query", "aliases", "base", "combined")

    def __init__(self, query: Query) -> None:
        self.query = query
        #: subset -> alias tuple in bit order
        self.aliases: dict[int, tuple[str, ...]] = {}
        #: (alias, filtered) -> base cardinality
        self.base: dict[tuple[str, bool], float] = {}
        #: subset -> combined spanning-edge selectivity (None = no edges)
        self.combined: dict[int, float | None] = {}


class AnalyticEstimator(CardinalityEstimator):
    """Formula-based estimator skeleton (independence-style)."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self._graphs: dict[int, JoinGraph] = {}
        self._base_cache: dict[tuple[int, str], float] = {}
        self._plan_caches: dict[int, _QueryPlanCache] = {}

    # ---- hooks ------------------------------------------------------- #

    def base_selectivity(self, query: Query, alias: str) -> float:
        """Selectivity of the base-table selection on ``alias`` (1 if none)."""
        raise NotImplementedError

    def edge_selectivity(self, query: Query, edge: JoinEdge) -> float:
        """Selectivity contributed by one equality join edge."""
        raise NotImplementedError

    def combine_edge_selectivities(self, sels: Sequence[float]) -> float:
        """How several join-edge selectivities combine (default: product)."""
        out = 1.0
        for s in sels:
            out *= s
        return out

    # ---- shared implementation --------------------------------------- #

    def _graph(self, query: Query) -> JoinGraph:
        key = id(query)
        graph = self._graphs.get(key)
        if graph is None or graph.query is not query:
            graph = JoinGraph(query)
            self._graphs[key] = graph
        return graph

    def base_cardinality(
        self, query: Query, alias: str, filtered: bool = True
    ) -> float:
        """Estimated row count of one base relation (clamped to >= 1)."""
        table = self.db.table(query.relation_for(alias).table)
        if not filtered or query.selection_of(alias) is None:
            return float(max(table.n_rows, 1))
        key = (id(query), alias)
        card = self._base_cache.get(key)
        if card is None:
            sel = self.base_selectivity(query, alias)
            # the paper's footnote 6: estimates below 1 are rounded up to 1
            card = max(table.n_rows * sel, 1.0)
            self._base_cache[key] = card
        return card

    def _plan_cache(self, query: Query) -> _QueryPlanCache:
        key = id(query)
        cache = self._plan_caches.get(key)
        if cache is None or cache.query is not query:
            cache = _QueryPlanCache(query)
            self._plan_caches[key] = cache
        return cache

    def _combined_selectivity(
        self, query: Query, subset: int
    ) -> float | None:
        """Combined spanning-edge selectivity of ``subset`` (None = none).

        Estimator-specific (edge selectivities and the combine rule are
        hooks) but subset-deterministic: the spanning set, the edge
        selectivities, and therefore the combined product depend only on
        (query, subset), so one evaluation serves every DP revisit.
        """
        graph = self._graph(query)
        edges = self._spanning_edges(query, graph.edges_within(subset))
        if not edges:
            return None
        sels = [self.edge_selectivity(query, e) for e in edges]
        return self.combine_edge_selectivities(sels)

    def cardinality(
        self, query: Query, subset: int, unfiltered_alias: str | None = None
    ) -> float:
        cache = self._plan_cache(query)
        aliases = cache.aliases.get(subset)
        if aliases is None:
            aliases = tuple(
                query.relation_at(i).alias for i in bit_indices(subset)
            )
            if not aliases:
                raise EstimationError("empty subset")
            cache.aliases[subset] = aliases
        # same multiplication sequence as the uncached closed form
        # (tests/reference/analytic.py): base cards in bit order, then one
        # multiply by the combined selectivity — cached floats,
        # bit-identical products
        card = 1.0
        base = cache.base
        for alias in aliases:
            filtered = alias != unfiltered_alias
            key = (alias, filtered)
            b = base.get(key)
            if b is None:
                b = self.base_cardinality(query, alias, filtered=filtered)
                base[key] = b
            card *= b
        if len(aliases) > 1:
            combined = cache.combined.get(subset, _MISSING)
            if combined is _MISSING:
                combined = self._combined_selectivity(query, subset)
                cache.combined[subset] = combined
            if combined is not None:
                card *= combined
        return max(card, 1.0)

    def _spanning_edges(
        self, query: Query, edges: list[JoinEdge]
    ) -> list[JoinEdge]:
        """Drop join predicates implied by transitivity.

        Real optimizers (PostgreSQL's equivalence classes) do not multiply
        the selectivity of a predicate that is implied by already-applied
        equalities: in ``t.id = mc.movie_id AND t.id = mi.movie_id AND
        mc.movie_id = mi.movie_id`` the third clause is redundant.
        Union-find over ``(alias, column)`` endpoints keeps exactly one
        spanning set per equivalence class; PK–FK edges are preferred so
        the retained set matches the paper's solid edges.
        """
        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(x: tuple[str, str]) -> tuple[str, str]:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        kept: list[JoinEdge] = []
        ordered = sorted(edges, key=lambda e: e.kind != "pk_fk")
        for edge in ordered:
            left = find((edge.left_alias, edge.left_column))
            right = find((edge.right_alias, edge.right_column))
            if left == right:
                continue  # implied by transitivity
            parent[left] = right
            kept.append(edge)
        return kept

    # ---- helpers shared by subclasses -------------------------------- #

    def _distinct_estimate(self, table: str, column: str) -> float:
        """Estimated distinct count of a column from ANALYZE statistics."""
        stats = self.db.statistics.get(table)
        if stats is None:
            raise EstimationError(
                f"table {table!r} has no statistics; run analyze_database first"
            )
        return max(stats.column(column).n_distinct, 1.0)

    def _edge_domain_selectivity(self, query: Query, edge: JoinEdge) -> float:
        """The textbook join selectivity ``1 / max(dom(x), dom(y))``."""
        lt = query.relation_for(edge.left_alias).table
        rt = query.relation_for(edge.right_alias).table
        nd_left = self._distinct_estimate(lt, edge.left_column)
        nd_right = self._distinct_estimate(rt, edge.right_column)
        return 1.0 / max(nd_left, nd_right)
