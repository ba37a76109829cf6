"""Workload-scale optimization pipeline.

An incremental batch driver for the paper's core cross product — every
workload query × five estimator analogues × enumerator/physical-design
configurations — built from layered parts: shared per-query structure, a
cell-level task graph with stable content keys, a largest-first
scheduler with optional ``multiprocessing`` fan-out (bit-identical to
sequential), and persistent disk stores for both exact cardinalities and
priced sweep rows, so re-runs price only what a spec change invalidated.

=================  ===================================================
Module             Provides
=================  ===================================================
``resources``      :class:`WorkloadResources` + :class:`QueryWorkspace`
                   — the shared-state layer every experiment and the
                   sweep driver build on
``grid``           :class:`SweepSpec` / :class:`SweepRow` /
                   :class:`SweepResult` — the declarative grid — plus
                   their deep twins :class:`DeepSpec` /
                   :class:`DeepConfig` / :class:`DeepRow` /
                   :class:`DeepResult` (subexpression and
                   simulated-runtime observations)
``kinds``          :class:`CellKind` (+ the :data:`SWEEP_KIND` /
                   :data:`DEEP_KIND` singletons behind :data:`KINDS`) —
                   the one strategy seam between generic orchestration
                   and the two row kinds
``tasks``          :func:`decompose` → :class:`CellUnit` /
                   :class:`SweepCell` / :class:`CellKey` — addressable
                   cells with stable content keys; dataset identity;
                   :func:`decompose_deep` for the deep grid (deep keys
                   are disjoint from shallow keys, so neither sweep
                   kind ever invalidates the other's cache)
``scheduler``      :class:`CellScheduler` — largest-first ordering and
                   pool fan-out for any kind's units
``queue``          :class:`WorkQueue` / :func:`run_worker` — a
                   filesystem-backed lease queue so N shared-nothing
                   worker processes drain a sweep bit-identically to
                   the sequential path
``results``        :class:`ResultStore` (persistent priced rows of both
                   kinds in one versioned per-query file, manifest
                   index, ``load_many``/``scan`` + deep batch APIs) +
                   :class:`UnitReport` (per-unit progress: counts and
                   timings)
``index``          :class:`StoreIndex` — flock-disciplined manifest over
                   a result-store directory with per-file staleness and
                   per-kind row-key sets
``aggregate``      :func:`aggregate_cells` — the generic store fold —
                   plus :class:`StreamingAggregator` (the batch fold of
                   sweep rows) / :func:`aggregate_store` and their deep
                   twins
``instrument``     process-local counters behind the warm-path
                   zero-generation / zero-pricing guarantee
``driver``         :func:`run_cells` — the one incremental
                   orchestration core — with :func:`run_sweep` /
                   :func:`run_deep_sweep` as thin per-kind wrappers
``truthstore``     :class:`TruthStore` — exact counts keyed by
                   ``(dataset, scale, seed, correlation, query name)``,
                   one flock'd atomic-rename JSON file per query
=================  ===================================================
"""

from repro.pipeline.grid import (
    DEEP_KINDS,
    DEFAULT_CONFIGS,
    TRUE_SOURCE,
    DeepConfig,
    DeepResult,
    DeepRow,
    DeepSpec,
    EnumeratorConfig,
    SweepResult,
    SweepRow,
    SweepSpec,
    subexpr_deep_config,
)
from repro.pipeline.resources import (
    ESTIMATOR_ORDER,
    QueryWorkspace,
    WorkloadResources,
    standard_estimators,
)
from repro.pipeline.tasks import (
    DATASETS,
    CellKey,
    CellUnit,
    DeepCell,
    DeepCellKey,
    DeepUnit,
    SweepCell,
    SweepUnit,
    check_dataset,
    config_fingerprint,
    decompose,
    decompose_deep,
    deep_config_fingerprint,
    make_database,
    workload_queries,
    workload_query,
)
from repro.pipeline.kinds import (
    DEEP_KIND,
    KINDS,
    SWEEP_KIND,
    CellKind,
    kind_for_spec,
    spec_digest,
    unit_digest,
)
from repro.pipeline.scheduler import CellScheduler, order_units
from repro.pipeline.results import (
    ResultStore,
    StoredRows,
    UnitReport,
    deep_cell_key,
)
from repro.pipeline.index import StoreIndex
from repro.pipeline.aggregate import (
    AggregateSummary,
    DeepAggregateSummary,
    DeepStreamingAggregator,
    StreamingAggregator,
    aggregate_cells,
    aggregate_deep_store,
    aggregate_store,
)
from repro.pipeline.driver import (
    build_resources,
    price_cells,
    price_deep_cells,
    run_cells,
    run_deep_sweep,
    run_sweep,
    sweep_query,
)
from repro.pipeline.queue import (
    Lease,
    WorkerStats,
    WorkQueue,
    default_worker_id,
    run_worker,
)
from repro.pipeline.truthstore import TruthPayload, TruthStore

__all__ = [
    "DATASETS",
    "DEEP_KIND",
    "DEEP_KINDS",
    "DEFAULT_CONFIGS",
    "ESTIMATOR_ORDER",
    "KINDS",
    "SWEEP_KIND",
    "TRUE_SOURCE",
    "AggregateSummary",
    "CellKey",
    "CellKind",
    "CellScheduler",
    "CellUnit",
    "DeepAggregateSummary",
    "DeepCell",
    "DeepCellKey",
    "DeepConfig",
    "DeepResult",
    "DeepRow",
    "DeepSpec",
    "DeepStreamingAggregator",
    "DeepUnit",
    "EnumeratorConfig",
    "Lease",
    "QueryWorkspace",
    "ResultStore",
    "StoredRows",
    "SweepCell",
    "SweepResult",
    "SweepRow",
    "StoreIndex",
    "StreamingAggregator",
    "SweepSpec",
    "SweepUnit",
    "TruthPayload",
    "TruthStore",
    "UnitReport",
    "WorkQueue",
    "WorkerStats",
    "WorkloadResources",
    "aggregate_cells",
    "aggregate_deep_store",
    "aggregate_store",
    "build_resources",
    "check_dataset",
    "config_fingerprint",
    "decompose",
    "decompose_deep",
    "deep_cell_key",
    "deep_config_fingerprint",
    "default_worker_id",
    "kind_for_spec",
    "make_database",
    "order_units",
    "price_cells",
    "price_deep_cells",
    "run_cells",
    "run_deep_sweep",
    "run_sweep",
    "run_worker",
    "spec_digest",
    "standard_estimators",
    "subexpr_deep_config",
    "sweep_query",
    "unit_digest",
    "workload_queries",
    "workload_query",
]
