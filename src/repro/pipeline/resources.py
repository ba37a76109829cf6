"""Shared workload resources and per-query workspaces.

The pipeline's unit of sharing is the :class:`QueryWorkspace`: everything
about one query that is independent of the estimator, cost model, and
physical design — the join graph, the (expensive) subgraph catalog, the
memoised per-estimator cardinality functions, and the truth binding —
computed once and reused by every cell of the (query × estimator ×
enumerator-config) grid.  A :class:`WorkloadResources` owns one database
plus the workspace cache and the process-independent truth store hook.

Estimator naming follows the paper's anonymisation:

==============  =====================================================
Display name    Implementation
==============  =====================================================
``PostgreSQL``  :class:`~repro.cardinality.postgres.PostgresEstimator`
``DBMS A``      :class:`~repro.cardinality.profiles.DampedEstimator`
``DBMS B``      :class:`~repro.cardinality.profiles.CoarseHistogramEstimator`
``DBMS C``      :class:`~repro.cardinality.profiles.MagicConstantEstimator`
``HyPer``       :class:`~repro.cardinality.sampling.SamplingEstimator`
==============  =====================================================
"""

from __future__ import annotations

import os
from collections import OrderedDict

from repro.cardinality import (
    CoarseHistogramEstimator,
    DampedEstimator,
    MagicConstantEstimator,
    PostgresEstimator,
    SamplingEstimator,
    TrueCardinalities,
)
from repro.cardinality.base import BoundCard, CardinalityEstimator
from repro.catalog.schema import Database
from repro.enumeration import QueryContext
from repro.physical import IndexConfig, PhysicalDesign
from repro.query.query import Query

#: the paper's estimator line-up, in Table 1 / Figure 3 order
ESTIMATOR_ORDER = ["PostgreSQL", "DBMS A", "DBMS B", "DBMS C", "HyPer"]

#: environment knob for the per-workload workspace LRU capacity
WORKSPACE_CAP_ENV = "REPRO_WORKSPACE_CAP"

#: default workspace LRU capacity — a long-lived resources object (pool
#: worker, shared grid cache, queue worker) keeps this many queries'
#: workspaces (subgraph catalog, bound cards, truth pin) warm at once
DEFAULT_WORKSPACE_CAP = 8


def workspace_cap() -> int:
    """The workspace LRU capacity: ``$REPRO_WORKSPACE_CAP`` or 8.

    ``0`` (or any non-positive value) means unbounded.  Pure memory
    policy: eviction only drops cached state that is rebuilt — and
    truth counts that are reloaded from the truth store — on the next
    visit, so every cap prices every cell bit-identically.
    """
    value = os.environ.get(WORKSPACE_CAP_ENV)
    if value is None or value == "":
        return DEFAULT_WORKSPACE_CAP
    return int(value)


def standard_estimators(db: Database) -> dict[str, CardinalityEstimator]:
    """The paper's five estimator analogues, in :data:`ESTIMATOR_ORDER`."""
    return {
        "PostgreSQL": PostgresEstimator(db),
        "DBMS A": DampedEstimator(db),
        "DBMS B": CoarseHistogramEstimator(db),
        "DBMS C": MagicConstantEstimator(db),
        "HyPer": SamplingEstimator(db),
    }


def _extended_factories():
    """Estimator *variants* a sweep spec may name beyond the standard five.

    Built on demand per database by :meth:`WorkloadResources.estimator`;
    they are not part of the paper's line-up, so they never appear in
    default grids or Table 1/Figure 3 orderings.  The Figure 5 replay
    path prices "PostgreSQL (true distincts)" cells to compare default
    vs exact distinct counts straight from sweep rows.
    """
    return {
        "PostgreSQL (true distincts)": (
            lambda db: PostgresEstimator(db, use_true_distincts=True)
        ),
    }


def extended_estimator_names() -> tuple[str, ...]:
    """Names :meth:`WorkloadResources.estimator` resolves beyond the five."""
    return tuple(_extended_factories())


from repro.pipeline.truthstore import covers as _covers

#: sentinel: "use the coverage this workspace actually computed"
_UNSET = object()


class QueryWorkspace:
    """Per-query shared state for one workload's optimization runs.

    One join graph + subgraph catalog (shared by every enumerator run on
    this query) and one :class:`BoundCard` per estimator name (shared by
    every enumerator configuration).
    """

    def __init__(self, query: Query, resources: "WorkloadResources") -> None:
        self.query = query
        self.resources = resources
        self.context = QueryContext(query)
        self._cards: dict[str, BoundCard] = {}
        self._true_card: BoundCard | None = None
        self._truth_pin: object | None = None
        self._store_checked = False
        self._stored_cover: int | None | bool = False  # False = nothing stored
        self._stored_sizes = (0, 0)  # (n counts, n unfiltered) on disk
        self._computed_cover: int | None | bool = False  # widest compute_all

    # ------------------------------------------------------------------ #

    @property
    def graph(self):
        return self.context.graph

    @property
    def catalog(self):
        return self.context.catalog

    def card(self, estimator_name: str) -> BoundCard:
        """Bound (memoised) cardinality function of a named estimator."""
        card = self._cards.get(estimator_name)
        if card is None:
            estimator = self.resources.estimator(estimator_name)
            card = estimator.bind(self.query)
            self._cards[estimator_name] = card
        return card

    @property
    def true_card(self) -> BoundCard:
        """Bound truth oracle (preloaded from the truth store if present)."""
        if self._true_card is None:
            self._ensure_truth_state()
            self._true_card = self.resources.truth.bind(self.query)
        return self._true_card

    # ------------------------------------------------------------------ #
    # truth computation + persistence
    # ------------------------------------------------------------------ #

    def _ensure_truth_state(self) -> None:
        """Pin this query's truth state and (once) preload stored counts.

        The pin keeps the state alive for the workspace's lifetime —
        without it, the oracle's bounded LRU could collect the state (and
        with it any disk-preloaded counts) between experiment modules.
        """
        if self._truth_pin is None:
            self._truth_pin = self.resources.truth.pin(self.query)
        store = self.resources.truth_store
        if store is None or self._store_checked:
            return
        self._store_checked = True
        payload = store.load(self.query.name)
        if payload is not None:
            self.resources.truth.preload(
                self.query,
                payload.counts,
                payload.unfiltered,
                cover=payload.max_size,
            )
            self._stored_cover = payload.max_size
            self._stored_sizes = (len(payload.counts), len(payload.unfiltered))

    def compute_truth(
        self,
        max_size: int | None = None,
        processes: int = 1,
        warm_unfiltered: bool = False,
    ) -> dict[int, int]:
        """Exact counts for every connected subset up to ``max_size``.

        With a truth store attached, previously computed counts are
        preloaded from disk first (so a given database's truth oracle is
        materialised once per database ever, not once per process), and
        newly widened coverage is written back.  ``warm_unfiltered``
        pre-counts the unfiltered intermediates index-nested-loop pricing
        will ask for (pure execution policy).
        """
        # only for stepwise.py; goes with the next benchmark change
        if processes != 1:
            raise ValueError(
                f"processes={processes!r}: the truth oracle is sequential"
            )
        self._ensure_truth_state()
        counts = self.resources.truth.compute_all(
            self.query, max_size=max_size, warm_unfiltered=warm_unfiltered
        )
        full = self.graph.n
        if self._computed_cover is False or not _covers(
            self._computed_cover, max_size, full
        ):
            self._computed_cover = max_size
        already_stored = self._stored_cover is not False and _covers(
            self._stored_cover, max_size, full
        )
        if self.resources.truth_store is not None and not already_stored:
            self.save_truth(max_size=max_size)
        return counts

    def save_truth(self, max_size=_UNSET) -> None:
        """Persist the counts computed so far to the truth store.

        Without an explicit ``max_size``, the coverage stamp is the widest
        enumeration this workspace actually ran (``compute_truth``) — a
        workspace that only served ad-hoc lookups claims no coverage, so
        later processes never mistake its partial counts for a full
        enumeration.  A warm workspace that only consumed disk-preloaded
        counts has nothing new to contribute, so the (load + merge +
        atomic-rename) rewrite is skipped entirely.
        """
        store = self.resources.truth_store
        if store is None:
            return
        if max_size is _UNSET:
            max_size = (
                self._computed_cover if self._computed_cover is not False
                else 0  # counts exist but no coverage claim
            )
        counts, unfiltered = self.resources.truth.export_counts(self.query)
        if not counts:
            return
        full = self.graph.n
        unchanged = (
            self._stored_cover is not False
            and _covers(self._stored_cover, max_size, full)
            and (len(counts), len(unfiltered)) == self._stored_sizes
        )
        if unchanged:
            return
        store.save(self.query.name, counts, unfiltered, max_size=max_size)
        self._stored_sizes = (len(counts), len(unfiltered))
        if self._stored_cover is False or not _covers(
            self._stored_cover, max_size, full
        ):
            self._stored_cover = max_size

    def release(self) -> None:
        """Drop the (memory-heavy) truth materialisations for this query."""
        self.resources.truth.release(self.query)


class WorkloadResources:
    """One database + workload + estimators, with per-query workspaces.

    This is the pipeline's shared-state object: the sequential driver, the
    multiprocessing workers, and the :class:`~repro.experiments.harness.
    ExperimentSuite` facade all build on it.
    """

    #: read by benchmarks/e2e/stepwise.py as ``DPEnumerator(kernels=...)``
    kernels = None

    def __init__(
        self,
        db: Database,
        queries: list[Query],
        estimators: dict[str, CardinalityEstimator] | None = None,
        truth: TrueCardinalities | None = None,
        truth_store=None,
    ) -> None:
        self.db = db
        self.queries = list(queries)
        self.estimators = (
            estimators if estimators is not None else standard_estimators(db)
        )
        self.truth = truth if truth is not None else TrueCardinalities(db)
        self.truth_store = truth_store
        self._workspaces: OrderedDict[str, QueryWorkspace] = OrderedDict()
        self._workspace_cap = workspace_cap()
        self._designs: dict[IndexConfig, PhysicalDesign] = {}
        self._cost_models: dict[str, "CostModel"] = {}

    # ------------------------------------------------------------------ #

    def workspace(self, query: Query) -> QueryWorkspace:
        """The cached per-query workspace (keyed by query name).

        The cache is a bounded LRU (``REPRO_WORKSPACE_CAP``, default 8):
        a worker that lives across many units of one grid point keeps
        its hot queries' catalogs, bound cards, and truth pins alive
        instead of rebuilding per unit, while a full-workload sweep
        cannot accumulate every 13-relation catalog at once.  Eviction
        goes through :meth:`evict_workspace`, so the subgraph catalog
        and pinned truth state are released together.
        """
        ws = self._workspaces.get(query.name)
        if ws is None:
            ws = QueryWorkspace(query, self)
            self._workspaces[query.name] = ws
            cap = self._workspace_cap
            if cap > 0:
                while len(self._workspaces) > cap:
                    oldest = next(iter(self._workspaces.values()))
                    # persist any computed-but-unsaved truth before the
                    # state is forgotten — eviction must never cost
                    # correctness, only a reload on the next visit
                    oldest.save_truth()
                    self.evict_workspace(oldest.query)
        else:
            self._workspaces.move_to_end(query.name)
        return ws

    def adopt_queries(self, queries: list[Query]) -> None:
        """Fold another spec's queries into this (shared) workload.

        Queries are identified by name; names already present keep their
        existing object (and therefore their warm workspace/truth
        state), new ones are appended.  This is what lets the grid-point
        resource cache serve successive specs that select different
        query subsets of one workload.
        """
        known = {q.name for q in self.queries}
        for query in queries:
            if query.name not in known:
                self.queries.append(query)
                known.add(query.name)

    def design(self, config: IndexConfig) -> PhysicalDesign:
        design = self._designs.get(config)
        if design is None:
            design = PhysicalDesign(self.db, config)
            self._designs[config] = design
        return design

    def cost_model(self, name: str) -> "CostModel":
        """The named cost model, built once per workload.

        Cost models are stateless functions of ``(name, db)`` (their own
        interface contract), so one instance per sweep serves every
        (query × config) cell instead of being rebuilt per cell.
        """
        model = self._cost_models.get(name)
        if model is None:
            from repro.pipeline.grid import make_cost_model

            model = make_cost_model(name, self.db)
            self._cost_models[name] = model
        return model

    def estimator(self, name: str) -> CardinalityEstimator:
        """The named estimator; extended variants are built on demand.

        The standard line-up lives in :attr:`estimators`; names from
        :func:`extended_estimator_names` (e.g. the Figure 5 replay's
        ``"PostgreSQL (true distincts)"``) are instantiated against this
        workload's database on first use and cached alongside.
        """
        est = self.estimators.get(name)
        if est is None:
            factory = _extended_factories().get(name)
            if factory is None:
                raise KeyError(
                    f"unknown estimator {name!r}; choose from "
                    f"{', '.join([*self.estimators, *_extended_factories()])}"
                )
            est = factory(self.db)
            self.estimators[name] = est
        return est

    def query(self, name: str) -> Query:
        for q in self.queries:
            if q.name == name:
                return q
        raise KeyError(f"query {name!r} is not part of this workload")

    def evict_workspace(self, query: Query) -> None:
        """Explicitly drop a query's workspace, catalog, and truth state."""
        from repro.query.subgraphs import evict_catalog

        ws = self._workspaces.pop(query.name, None)
        if ws is not None:
            evict_catalog(ws.graph)
            # forget by the workspace's own query object: the caller may
            # hold an equal-but-distinct Query, and truth state is keyed
            # by object identity
            self.truth.forget(ws.query)
        else:
            self.truth.forget(query)
