"""Shared experiment infrastructure.

An :class:`ExperimentSuite` is the experiment-facing facade over the
pipeline's :class:`~repro.pipeline.resources.WorkloadResources`: one
synthetic IMDB instance, the paper's five estimator analogues, the truth
oracle, and per-query workspaces (query contexts, bound cardinality
functions).  Every experiment module takes a suite so that expensive
state — above all exact cardinalities and subgraph catalogs — is
computed once and shared; the estimator naming table lives with the
line-up in :mod:`repro.pipeline.resources`.
"""

from __future__ import annotations

from repro.pipeline.resources import (
    ESTIMATOR_ORDER,
    WorkloadResources,
    standard_estimators,
)
from repro.pipeline.tasks import make_database, workload_queries, workload_query
from repro.catalog.schema import Database
from repro.query.query import Query

__all__ = ["ESTIMATOR_ORDER", "ExperimentSuite"]


class ExperimentSuite(WorkloadResources):
    """One database + workload + estimators, with per-query workspaces.

    Per-query state (query context, bound cardinality functions, truth)
    lives on :meth:`workspace`, so experiments and the sweep driver
    share one cache.
    """

    def __init__(
        self,
        scale: str = "small",
        seed: int = 42,
        query_names: list[str] | None = None,
        db: Database | None = None,
        correlation: float = 0.8,
        truth_store=None,
        dataset: str = "imdb",
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.correlation = correlation
        self.dataset = dataset
        if db is None:
            db = make_database(
                dataset, scale, seed, correlation=correlation
            )
        if query_names is None:
            queries: list[Query] = workload_queries(dataset)
        else:
            queries = [workload_query(dataset, name) for name in query_names]
        super().__init__(
            db=db,
            queries=queries,
            estimators=standard_estimators(db),
            truth_store=truth_store,
        )
