"""Exact cardinalities for every connected subexpression (Section 2.4).

The paper obtains the true cardinality of each intermediate result with
``SELECT COUNT(*)`` queries.  We do the equivalent by materialising every
connected subexpression bottom-up: each connected subset ``S`` of size k
has a connected subset ``S'`` of size k-1 with ``S = S' + r`` (remove a
leaf of a spanning tree), so ``S``'s exact result is one equi-join away
from an already-materialised result.

To keep memory bounded, a subexpression's materialisation is *compressed*
to exactly the key columns that can still participate in future joins —
the columns of edges leaving ``S``.  For the JOB-style star queries this
collapses an arbitrary intermediate to one or two int64 columns
(multiplicities preserved), making exhaustive truth computation feasible
in pure Python/numpy.

Index-nested-loop costing additionally needs *unfiltered* intermediate
sizes — the result of joining an outer plan with a base table **before**
that table's selection is applied (the paper's ``A ⋈ B`` vs
``σ(A) ⋈ B`` distinction); :meth:`TrueCardinalities.cardinality` supports
these through ``unfiltered_alias``.

Bulk computation is organised around an explicit
:class:`MaterialisationPlan` — the per-query DAG of connected subsets
grouped into size levels, where each level depends only on
materialisations from smaller levels.  :meth:`TrueCardinalities.
compute_all` walks the plan level by level with the batched probes of
:mod:`repro.kernels.oracle`, evicting stale materialisations as it goes.
The walk is sequential within a query; sweeps parallelise across
queries instead (``--processes``).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.catalog.schema import Database
from repro.cardinality.base import CardinalityEstimator
from repro.errors import EstimationError
from repro.kernels.oracle import compute_levels, expand_join, release_caches
from repro.query.join_graph import JoinGraph
from repro.query.query import Query
from repro.query.subgraphs import SubgraphCatalog
from repro.util.bitset import popcount
from repro.util.coverage import covers


class MaterialisationPlan:
    """The per-query DAG of connected subsets, grouped into size levels.

    Structure is derived once from the (cached) subgraph catalog.

    Attributes
    ----------
    levels:
        ``levels[k]`` lists the connected subsets of size ``k`` in
        deterministic (ascending bitmask) order; index 0 is empty.
    parent:
        ``subset -> (parent, bit)`` for every composite subset — the
        expansion edge the oracle joins along.
    """

    def __init__(self, catalog: SubgraphCatalog) -> None:
        self.n = catalog.graph.n
        levels: list[list[int]] = [[] for _ in range(self.n + 1)]
        parent: dict[int, tuple[int, int]] = {}
        for subset in catalog.csgs:
            size = popcount(subset)
            levels[size].append(subset)
            if size > 1:
                parent[subset] = catalog.expansion_parent(subset)
        self.levels = levels
        self.parent = parent

    @property
    def top(self) -> int:
        """The largest level with any subset (== size of the join graph
        for a connected query)."""
        for size in range(self.n, 0, -1):
            if self.levels[size]:
                return size
        return 0

    def cap(self, max_size: int | None) -> int:
        """The effective top level for a ``max_size`` request."""
        if max_size is None:
            return self.top
        return max(1, min(max_size, self.top))


@dataclass
class _KeyedResult:
    """Compressed materialisation: outgoing-edge key columns only."""

    n_rows: int
    keys: dict[tuple[str, str], np.ndarray]


class _QueryState:
    """Per-query caches of the truth oracle.

    ``complete_cover`` is the cache-completeness claim for ``counts``:
    ``False`` means no bulk enumeration has finished, an int (or ``None``
    for "all sizes") means every connected subset up to that size has a
    count.  :meth:`TrueCardinalities.compute_all` must consult it through
    :meth:`covered` — which caps the claim at the query's relation count
    — so a truncated ``compute_all(max_size=...)`` can never satisfy a
    later full request from cache.
    """

    def __init__(self, query: Query) -> None:
        self.query = query
        self.graph = JoinGraph(query)
        self.catalog = SubgraphCatalog(self.graph)
        self.counts: dict[int, int] = {}
        self.unfiltered_counts: dict[tuple[int, str], int] = {}
        self.results: dict[int, _KeyedResult] = {}
        self.base_row_ids: dict[str, np.ndarray] = {}
        self.outgoing: dict[int, frozenset] = {}
        # per-edge (left bit, right bit, left key, right key) tuples,
        # hoisted out of the per-subset outgoing-column scans
        self.edge_meta: list[tuple[int, int, tuple, tuple]] = [
            (
                query.alias_bit(edge.left_alias),
                query.alias_bit(edge.right_alias),
                (edge.left_alias, edge.side(edge.left_alias)[1]),
                (edge.right_alias, edge.side(edge.right_alias)[1]),
            )
            for edge in query.joins
        ]
        self.complete_cover: int | None | bool = False
        self._plan: MaterialisationPlan | None = None

    def plan(self) -> MaterialisationPlan:
        """The query's (full) materialisation plan, built once.

        The plan always describes every level; callers slice it by the
        size cap they need, so a capped request can never poison the
        cache with a truncated level set.
        """
        if self._plan is None:
            self._plan = MaterialisationPlan(self.catalog)
        return self._plan

    def covered(self, max_size: int | None) -> bool:
        """Whether every count up to ``max_size`` is already cached."""
        if self.complete_cover is False:
            return False
        return covers(self.complete_cover, max_size, self.graph.n)

    def widen_cover(self, max_size: int | None) -> None:
        """Record that counts are now complete up to ``max_size``."""
        if self.complete_cover is False or not covers(
            self.complete_cover, max_size, self.graph.n
        ):
            self.complete_cover = max_size


class TrueCardinalities(CardinalityEstimator):
    """The exact cardinality oracle.

    Parameters
    ----------
    db:
        The database to count in.
    max_rows:
        Safety valve: materialising any single intermediate beyond this
        row count raises :class:`~repro.errors.EstimationError` instead of
        exhausting memory.
    max_cached_queries:
        Upper bound on the per-query states the oracle itself keeps alive.
        States are held in a weak-value cache plus a bounded LRU pin: a
        workload sweep over thousands of fresh query objects therefore
        cannot grow the cache without bound (the seed keyed states by
        ``id(query)`` forever, so recycled ids silently left dead states
        resident), while a state pinned elsewhere — e.g. by a pipeline
        work unit — stays findable for as long as it lives.
    """

    name = "true"

    def __init__(
        self,
        db: Database,
        max_rows: int = 50_000_000,
        max_cached_queries: int = 32,
    ) -> None:
        self.db = db
        self.max_rows = max_rows
        self.max_cached_queries = max_cached_queries
        self._states: "weakref.WeakValueDictionary[int, _QueryState]" = (
            weakref.WeakValueDictionary()
        )
        self._recent: "OrderedDict[int, _QueryState]" = OrderedDict()

    # ------------------------------------------------------------------ #

    def _state(self, query: Query) -> _QueryState:
        key = id(query)
        state = self._states.get(key)
        if state is None or state.query is not query:
            state = _QueryState(query)
            self._states[key] = state
        # LRU pin: a live pin keeps the state's query alive, so a pinned
        # entry's id can never be recycled to a different query
        self._recent[key] = state
        self._recent.move_to_end(key)
        while len(self._recent) > self.max_cached_queries:
            self._recent.popitem(last=False)
        return state

    def _peek_state(self, query: Query) -> _QueryState | None:
        """The live cache state for ``query``, or ``None`` — never creates.

        Read-only paths (:meth:`export_counts`, :meth:`release`) must not
        allocate and LRU-pin a fresh state for a query the oracle has
        never seen: doing so both wastes a slot and can evict a state
        some other query is actively using.
        """
        state = self._states.get(id(query))
        if state is not None and state.query is query:
            return state
        return None

    def cached_state_count(self) -> int:
        """Number of live per-query states (used by cache-lifetime tests)."""
        return len(self._states)

    def pin(self, query: Query) -> object:
        """A strong handle to ``query``'s cache state.

        Holding the returned (opaque) object keeps the state alive beyond
        the oracle's bounded LRU — a pipeline workspace pins its query so
        that counts preloaded from disk or computed by one experiment
        module survive for every later module sharing the workspace.
        """
        return self._state(query)

    def cardinality(
        self, query: Query, subset: int, unfiltered_alias: str | None = None
    ) -> float:
        state = self._state(query)
        if unfiltered_alias is not None:
            return float(self._unfiltered_count(state, subset, unfiltered_alias))
        return float(self._count(state, subset))

    # ------------------------------------------------------------------ #
    # base relations
    # ------------------------------------------------------------------ #

    def _base_rows(self, state: _QueryState, alias: str) -> np.ndarray:
        row_ids = state.base_row_ids.get(alias)
        if row_ids is None:
            rel = state.query.relation_for(alias)
            table = self.db.table(rel.table)
            pred = state.query.selection_of(alias)
            if pred is None:
                row_ids = np.arange(table.n_rows, dtype=np.int64)
            else:
                row_ids = np.nonzero(pred.evaluate(table))[0].astype(np.int64)
            state.base_row_ids[alias] = row_ids
        return row_ids

    def _singleton_result(
        self, state: _QueryState, subset: int
    ) -> _KeyedResult:
        index = subset.bit_length() - 1
        rel = state.query.relation_at(index)
        table = self.db.table(rel.table)
        row_ids = self._base_rows(state, rel.alias)
        keys: dict[tuple[str, str], np.ndarray] = {}
        for edge in state.query.joins:
            if rel.alias in edge.aliases():
                _, col = edge.side(rel.alias)
                if (rel.alias, col) not in keys:
                    keys[(rel.alias, col)] = table.column(col).values[row_ids]
        return _KeyedResult(n_rows=len(row_ids), keys=keys)

    # ------------------------------------------------------------------ #
    # composite subexpressions
    # ------------------------------------------------------------------ #

    def _count(self, state: _QueryState, subset: int) -> int:
        count = state.counts.get(subset)
        if count is None:
            count = self._materialize(state, subset).n_rows
            state.counts[subset] = count
        return count

    def _materialize(self, state: _QueryState, subset: int) -> _KeyedResult:
        result = state.results.get(subset)
        if result is not None:
            return result
        if popcount(subset) == 1:
            result = self._singleton_result(state, subset)
        else:
            if not state.graph.is_connected(subset):
                raise EstimationError(
                    f"subset {subset:#x} of query {state.query.name!r} "
                    "is not connected"
                )
            parent, bit = state.catalog.expansion_parent(subset)
            left = self._materialize(state, parent)
            result = expand_join(self, state, subset, parent, left, bit)
        state.results[subset] = result
        state.counts[subset] = result.n_rows
        return result

    def _outgoing_key_columns(
        self, state: _QueryState, subset: int
    ) -> frozenset[tuple[str, str]]:
        """Key columns of edges that leave ``subset`` (still joinable).

        Cached per subset on the query state: the edge scan is O(query
        edges) and every join of every repeated materialisation of
        ``subset`` needs the same answer.
        """
        cached = state.outgoing.get(subset)
        if cached is not None:
            return cached
        out: set[tuple[str, str]] = set()
        for left_bit, right_bit, left_key, right_key in state.edge_meta:
            if left_bit & subset:
                if not (right_bit & subset):
                    out.add(left_key)
            elif right_bit & subset:
                out.add(right_key)
        frozen = frozenset(out)
        state.outgoing[subset] = frozen
        return frozen

    # ------------------------------------------------------------------ #
    # unfiltered (pre-selection) intermediates for INLJ costing
    # ------------------------------------------------------------------ #

    def _unfiltered_count(
        self, state: _QueryState, subset: int, alias: str
    ) -> int:
        query = state.query
        bit = query.alias_bit(alias)
        if not (bit & subset):
            raise EstimationError(f"alias {alias!r} not in subset {subset:#x}")
        if popcount(subset) == 1:
            return self.db.table(query.relation_for(alias).table).n_rows
        key = (subset, alias)
        count = state.unfiltered_counts.get(key)
        if count is not None:
            return count
        side = getattr(state, "kernel_unfiltered_side", None)
        if side is not None:
            count = side.get(key)
            if count is not None:
                # promote the pre-warmed count (see the kernel's
                # compute_levels): guard + cache exactly as the lazy
                # join below would
                if count > self.max_rows:
                    raise EstimationError(
                        f"intermediate result of {query.name!r} exceeds "
                        f"max_rows ({count} > {self.max_rows})"
                    )
                state.unfiltered_counts[key] = count
                return count
        outer = subset ^ bit
        if not state.graph.is_connected(outer) or not state.graph.connects(
            outer, bit
        ):
            raise EstimationError(
                "unfiltered intermediate requires a connected outer side "
                f"(subset {subset:#x}, alias {alias!r})"
            )
        left = self._materialize(state, outer)
        joined = expand_join(
            self, state, subset, outer, left, bit,
            filtered=False, count_only=True,
        )
        state.unfiltered_counts[key] = joined.n_rows
        return joined.n_rows

    # ------------------------------------------------------------------ #
    # bulk computation and memory control
    # ------------------------------------------------------------------ #

    def compute_all(
        self,
        query: Query,
        max_size: int | None = None,
        warm_unfiltered: bool = False,
    ) -> dict[int, int]:
        """Exact counts for every connected subset up to ``max_size``.

        Walks the query's :class:`MaterialisationPlan` level by level,
        evicting materialisations more than one level below the current
        size — peak memory is two "generations" of compressed
        intermediates.  A request fully answered by the state's
        completeness claim (an earlier equal-or-wider ``compute_all``, or
        a preload that carried its coverage) returns from cache without
        touching the plan.

        ``warm_unfiltered`` asks the walk to also count each level's
        unfiltered-intermediate neighbours while the level's
        materialisations are still live, into a memory-only side cache —
        a caller that will price index-nested-loop joins against this
        oracle avoids re-materialising evicted parents later.  The knob
        is pure execution policy: entries only reach the observable
        ``unfiltered_counts`` when (and in the order) they are actually
        requested, so counts and stored bytes are unchanged.
        """
        state = self._state(query)
        if state.covered(max_size):
            return dict(state.counts)
        plan = state.plan()
        compute_levels(
            self, state, plan, plan.cap(max_size),
            warm_unfiltered=warm_unfiltered,
        )
        state.widen_cover(max_size)
        return dict(state.counts)

    def _evict(self, state: _QueryState, keep_min_size: int) -> None:
        stale = [
            s
            for s in state.results
            if 1 < popcount(s) < keep_min_size
        ]
        for s in stale:
            del state.results[s]

    def release(self, query: Query) -> None:
        """Drop all materialisations for ``query`` (counts are kept)."""
        state = self._peek_state(query)
        if state is not None:
            state.results.clear()
            release_caches(state)

    def forget(self, query: Query) -> None:
        """Explicitly evict every cached artefact of ``query``."""
        key = id(query)
        state = self._states.get(key)
        if state is not None and state.query is query:
            self._recent.pop(key, None)
            self._states.pop(key, None)

    def clear_cache(self) -> None:
        """Explicitly evict all per-query states."""
        self._recent.clear()
        self._states.clear()

    # ------------------------------------------------------------------ #
    # count import/export (disk-persistable truth caches)
    # ------------------------------------------------------------------ #

    def export_counts(
        self, query: Query
    ) -> tuple[dict[int, int], dict[tuple[int, str], int]]:
        """Snapshot of the exact counts computed so far for ``query``.

        Returns ``(counts, unfiltered_counts)`` — both JSON-serialisable
        after key stringification; see
        :class:`~repro.pipeline.truthstore.TruthStore`.  A query the
        oracle has never touched exports empty dicts without mutating the
        cache (no state allocation, no LRU churn).
        """
        state = self._peek_state(query)
        if state is None:
            return {}, {}
        return dict(state.counts), dict(state.unfiltered_counts)

    def preload(
        self,
        query: Query,
        counts: dict[int, int],
        unfiltered_counts: dict[tuple[int, str], int] | None = None,
        cover: int | None | bool = False,
    ) -> None:
        """Seed the per-query caches with previously exported exact counts.

        Counts are ground truth for a given database, so preloading them
        (e.g. from a disk cache keyed by the database's generator
        parameters) lets a fresh process skip the exhaustive bottom-up
        materialisation entirely.  ``cover`` is the completeness claim
        that came with the counts (a :class:`~repro.pipeline.truthstore.
        TruthPayload`'s ``max_size``): an int or ``None`` lets a later
        ``compute_all`` up to that size return straight from cache, the
        default ``False`` claims nothing — ad-hoc counts never masquerade
        as a finished enumeration.
        """
        state = self._state(query)
        state.counts.update(counts)
        if unfiltered_counts:
            state.unfiltered_counts.update(unfiltered_counts)
        if cover is not False:
            state.widen_cover(cover)
