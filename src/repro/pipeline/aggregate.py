"""Batch aggregation over stored or finished rows.

The paper's headline artifacts are all *aggregations* of the same grid —
medians and tail percentiles of q-errors, slowdown buckets, plan-cost
ratios.  This module folds those summaries from
:class:`~repro.pipeline.grid.SweepRow`\\ s (and their deep twins) in one
batch: :func:`aggregate_store` folds a warm
:class:`~repro.pipeline.results.ResultStore` without a sweep at all
(``ResultStore.scan``), and ``repro sweep --summary`` folds a finished
sweep's ``result.rows``.

Determinism contract
--------------------

The aggregator retains one small scalar record per distinct cell,
keyed by ``(query, estimator, config)``, and
:meth:`StreamingAggregator.summary` folds those records in sorted key
order.  Arrival order therefore cannot matter: sequential, pooled, and
resumed sweeps — and any shuffling of a batch fold — produce
**bit-identical** summaries.  Memory is O(cells), a few dozen bytes per
cell (the 113-query × 5-estimator × 2-config paper grid retains ~1130
records).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.pipeline.grid import TRUE_SOURCE, DeepRow, SweepRow
from repro.pipeline.results import ResultStore
from repro.util.stats import SLOWDOWN_BUCKETS

_BUCKET_LABELS = tuple(label for _, _, label in SLOWDOWN_BUCKETS)


def _exact_quantile(ordered: list[float], p: float) -> float:
    """Linear-interpolated quantile of an already-sorted list."""
    if not ordered:
        return float("nan")
    rank = p * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def _geo_mean_exact(values: list[float]) -> float:
    """Exactly-rounded geometric mean (``math.fsum`` of sorted logs)."""
    if not values:
        return float("nan")
    return math.exp(
        math.fsum(math.log(max(v, 1e-300)) for v in values) / len(values)
    )


@dataclass
class EstimatorStats:
    """Workload-level statistics of one estimator (all configs pooled)."""

    estimator: str
    n: int
    q_error_median: float
    q_error_p95: float
    q_error_geo_mean: float
    slowdown_median: float
    slowdown_p95: float
    frac_slow_2x: float
    frac_slow_10x: float


@dataclass
class ConfigStats:
    """Per-enumerator-config statistics (all estimators pooled)."""

    config: str
    n: int
    slowdown_buckets: dict[str, float]
    slowdown_geo_mean: float
    #: geo-mean of true_cost / optimal_cost — the plan-cost ratio the
    #: paper's Section 6 normalises by
    plan_cost_ratio_geo_mean: float


@dataclass
class AggregateSummary:
    """One sweep's (or store's) folded statistics."""

    n_rows: int
    n_queries: int
    by_estimator: list[EstimatorStats]
    by_config: list[ConfigStats]
    #: total pricing wall time of the run that produced the rows (0.0
    #: for folds over a store scan)
    priced_seconds: float = 0.0
    priced_cells: int = 0
    replayed_cells: int = 0

    @property
    def cells_per_second(self) -> float:
        if self.priced_cells == 0 or self.priced_seconds <= 0:
            return 0.0
        return self.priced_cells / self.priced_seconds

    def render(self) -> str:
        from repro.experiments.report import format_table

        est_rows = [
            [
                s.estimator,
                s.n,
                s.q_error_median,
                s.q_error_p95,
                s.q_error_geo_mean,
                s.slowdown_median,
                s.slowdown_p95,
                f"{s.frac_slow_2x:.1%}",
                f"{s.frac_slow_10x:.1%}",
            ]
            for s in self.by_estimator
        ]
        est_table = format_table(
            ["estimator", "n", "q-err med", "q-err p95", "q-err geo",
             "slow med", "slow p95", ">=2x", ">=10x"],
            est_rows,
            title=(
                f"Sweep aggregate (exact): {self.n_rows} rows over "
                f"{self.n_queries} queries"
            ),
        )
        cfg_rows = [
            [c.config, c.n]
            + [f"{c.slowdown_buckets[label]:.1%}" for label in _BUCKET_LABELS]
            + [c.slowdown_geo_mean, c.plan_cost_ratio_geo_mean]
            for c in self.by_config
        ]
        cfg_table = format_table(
            ["config", "n"] + list(_BUCKET_LABELS)
            + ["slow geo", "cost ratio geo"],
            cfg_rows,
            title="Slowdown buckets by enumerator config",
        )
        lines = [est_table, "", cfg_table]
        if self.priced_cells or self.replayed_cells:
            lines.append("")
            lines.append(
                f"priced {self.priced_cells} cells in "
                f"{self.priced_seconds:.2f}s "
                f"({self.cells_per_second:.1f} cells/s), "
                f"replayed {self.replayed_cells}"
            )
        return "\n".join(lines)


class _StreamingFold:
    """Shared fold state of both kind aggregators.

    Per-row folding differs per kind (the :meth:`add` hook); the
    row/query/throughput accounting is kind-independent and lives here
    exactly once.
    """

    def __init__(self) -> None:
        self.n_rows = 0
        self.priced_seconds = 0.0
        self.priced_cells = 0
        self.replayed_cells = 0
        self._queries: set[str] = set()

    def add(self, row) -> None:
        raise NotImplementedError

    def add_many(self, rows: Iterable) -> None:
        for row in rows:
            self.add(row)


class StreamingAggregator(_StreamingFold):
    """Fold sweep rows into workload-level summaries.

    Feed it rows (:meth:`add` / :meth:`add_many`), or batch-fold a store
    with :func:`aggregate_store`.  See the module docstring for the
    determinism contract.

    Re-adding a cell (same ``(query, estimator, config)``) overwrites its
    record — folds are idempotent per cell.
    """

    def __init__(self) -> None:
        super().__init__()
        # (query, estimator, config) -> (q_error, slowdown, cost ratio)
        self._cells: dict[
            tuple[str, str, str], tuple[float, float, float]
        ] = {}

    # ------------------------------------------------------------------ #
    # folding
    # ------------------------------------------------------------------ #

    def add(self, row: SweepRow) -> None:
        self.n_rows += 1
        self._queries.add(row.query)
        ratio = row.true_cost / max(row.optimal_cost, 1e-9)
        self._cells[(row.query, row.estimator, row.config)] = (
            row.q_error, row.slowdown, ratio
        )

    # ------------------------------------------------------------------ #
    # summarising
    # ------------------------------------------------------------------ #

    def summary(self) -> AggregateSummary:
        by_estimator, by_config = self._summarise()
        return AggregateSummary(
            n_rows=self.n_rows,
            n_queries=len(self._queries),
            by_estimator=by_estimator,
            by_config=by_config,
            priced_seconds=self.priced_seconds,
            priced_cells=self.priced_cells,
            replayed_cells=self.replayed_cells,
        )

    def _summarise(self):
        # fold retained records in sorted key order: the arrival order —
        # pooled, resumed, shuffled — cannot leak into the summary
        by_est: dict[str, list[tuple[float, float, float]]] = {}
        by_cfg: dict[str, list[tuple[float, float, float]]] = {}
        for key in sorted(self._cells):
            record = self._cells[key]
            by_est.setdefault(key[1], []).append(record)
            by_cfg.setdefault(key[2], []).append(record)
        estimators = []
        for est in sorted(by_est):
            records = by_est[est]
            q_errors = sorted(r[0] for r in records)
            slowdowns_sorted = sorted(r[1] for r in records)
            estimators.append(
                EstimatorStats(
                    estimator=est,
                    n=len(records),
                    q_error_median=_exact_quantile(q_errors, 0.5),
                    q_error_p95=_exact_quantile(q_errors, 0.95),
                    q_error_geo_mean=_geo_mean_exact(q_errors),
                    slowdown_median=_exact_quantile(slowdowns_sorted, 0.5),
                    slowdown_p95=_exact_quantile(slowdowns_sorted, 0.95),
                    frac_slow_2x=sum(
                        s >= 2.0 for s in slowdowns_sorted
                    ) / len(records),
                    frac_slow_10x=sum(
                        s >= 10.0 for s in slowdowns_sorted
                    ) / len(records),
                )
            )
        configs = []
        for cfg in sorted(by_cfg):
            records = by_cfg[cfg]
            slowdowns = [r[1] for r in records]
            buckets = {label: 0 for label in _BUCKET_LABELS}
            for s in slowdowns:
                for lo, hi, label in SLOWDOWN_BUCKETS:
                    if lo <= s < hi:
                        buckets[label] += 1
                        break
            configs.append(
                ConfigStats(
                    config=cfg,
                    n=len(records),
                    slowdown_buckets={
                        label: count / len(records)
                        for label, count in buckets.items()
                    },
                    slowdown_geo_mean=_geo_mean_exact(sorted(slowdowns)),
                    plan_cost_ratio_geo_mean=_geo_mean_exact(
                        sorted(r[2] for r in records)
                    ),
                )
            )
        return estimators, configs


# --------------------------------------------------------------------- #
# deep rows
# --------------------------------------------------------------------- #


@dataclass
class DeepSubexprStats:
    """Workload-level subexpression estimate quality of one estimator."""

    estimator: str
    n: int
    q_error_median: float
    q_error_p95: float
    q_error_geo_mean: float
    #: fraction of subexpressions wrong by >= 10x in either direction
    frac_wrong_10x: float


@dataclass
class DeepRuntimeStats:
    """Simulated-runtime slowdowns of one (config, estimator) pair.

    Slowdowns are each query's estimate-plan runtime over its
    true-cardinality-plan runtime under the same config — the paper's
    Section 4 metric — so they only exist for estimators whose spec also
    priced the :data:`~repro.pipeline.grid.TRUE_SOURCE` cells.
    """

    config: str
    estimator: str
    n: int
    slowdown_median: float
    slowdown_p95: float
    frac_slow_2x: float
    timeouts: int


@dataclass
class DeepAggregateSummary:
    """One deep sweep's (or store's) folded statistics."""

    n_rows: int
    n_queries: int
    subexpr: list[DeepSubexprStats]
    runtime: list[DeepRuntimeStats]
    priced_cells: int = 0
    replayed_cells: int = 0
    priced_seconds: float = 0.0

    def render(self) -> str:
        from repro.experiments.report import format_table

        blocks: list[str] = []
        if self.subexpr:
            blocks.append(format_table(
                ["estimator", "n", "q-err med", "q-err p95", "q-err geo",
                 ">=10x wrong"],
                [
                    [
                        s.estimator,
                        s.n,
                        s.q_error_median,
                        s.q_error_p95,
                        s.q_error_geo_mean,
                        f"{s.frac_wrong_10x:.1%}",
                    ]
                    for s in self.subexpr
                ],
                title=(
                    f"Deep aggregate (subexpressions): {self.n_rows} rows "
                    f"over {self.n_queries} queries"
                ),
            ))
        if self.runtime:
            blocks.append(format_table(
                ["config", "estimator", "n", "slow med", "slow p95",
                 ">=2x", "timeouts"],
                [
                    [
                        s.config,
                        s.estimator,
                        s.n,
                        s.slowdown_median,
                        s.slowdown_p95,
                        f"{s.frac_slow_2x:.1%}",
                        s.timeouts,
                    ]
                    for s in self.runtime
                ],
                title="Deep aggregate (simulated runtimes)",
            ))
        if not blocks:
            blocks.append("Deep aggregate: no deep rows")
        if self.priced_cells or self.replayed_cells:
            blocks.append(
                f"priced {self.priced_cells} deep cells in "
                f"{self.priced_seconds:.2f}s, "
                f"replayed {self.replayed_cells}"
            )
        return "\n\n".join(blocks)


class DeepStreamingAggregator(_StreamingFold):
    """Fold deep rows into workload-level summaries.

    The deep twin of :class:`StreamingAggregator`: one scalar record is
    retained per row, keyed by the row's full identity, and
    :meth:`summary` folds the records in sorted key order — so the
    arrival order (pooled, resumed, shuffled) cannot leak into the
    summary.
    """

    def __init__(self) -> None:
        super().__init__()
        # (query, estimator, config, subset) -> q-error
        self._subexpr: dict[tuple[str, str, str, int], float] = {}
        # (config, query, estimator) -> (sim_runtime_ms, timed_out)
        self._runtime: dict[tuple[str, str, str], tuple[float, int]] = {}

    # ------------------------------------------------------------------ #

    def add(self, row: DeepRow) -> None:
        self.n_rows += 1
        self._queries.add(row.query)
        if row.kind == "subexpr":
            est, tru = max(row.est_card, 1.0), max(row.true_card, 1.0)
            self._subexpr[
                (row.query, row.estimator, row.config, row.subset)
            ] = max(est / tru, tru / est)
        else:
            self._runtime[(row.config, row.query, row.estimator)] = (
                row.sim_runtime_ms, row.timed_out
            )

    # ------------------------------------------------------------------ #

    def summary(self) -> DeepAggregateSummary:
        by_est: dict[str, list[float]] = {}
        for key in sorted(self._subexpr):
            by_est.setdefault(key[1], []).append(self._subexpr[key])
        subexpr = []
        for est in sorted(by_est):
            q_errors = sorted(by_est[est])
            subexpr.append(DeepSubexprStats(
                estimator=est,
                n=len(q_errors),
                q_error_median=_exact_quantile(q_errors, 0.5),
                q_error_p95=_exact_quantile(q_errors, 0.95),
                q_error_geo_mean=_geo_mean_exact(q_errors),
                frac_wrong_10x=(
                    sum(q >= 10.0 for q in q_errors) / len(q_errors)
                ),
            ))
        # pair each estimator's runtime with the truth plan's under the
        # same (config, query); estimators without a truth counterpart
        # cannot report a slowdown and are skipped
        slowdowns: dict[tuple[str, str], list[float]] = {}
        timeouts: dict[tuple[str, str], int] = {}
        for config, query, estimator in sorted(self._runtime):
            if estimator == TRUE_SOURCE:
                continue
            true_record = self._runtime.get((config, query, TRUE_SOURCE))
            if true_record is None:
                continue
            ms, timed_out = self._runtime[(config, query, estimator)]
            key = (config, estimator)
            slowdowns.setdefault(key, []).append(
                ms / max(true_record[0], 1e-9)
            )
            timeouts[key] = timeouts.get(key, 0) + timed_out
        runtime = []
        for config, estimator in sorted(slowdowns):
            values = sorted(slowdowns[(config, estimator)])
            runtime.append(DeepRuntimeStats(
                config=config,
                estimator=estimator,
                n=len(values),
                slowdown_median=_exact_quantile(values, 0.5),
                slowdown_p95=_exact_quantile(values, 0.95),
                frac_slow_2x=(
                    sum(s >= 2.0 for s in values) / len(values)
                ),
                timeouts=timeouts[(config, estimator)],
            ))
        return DeepAggregateSummary(
            n_rows=self.n_rows,
            n_queries=len(self._queries),
            subexpr=subexpr,
            runtime=runtime,
            priced_cells=self.priced_cells,
            replayed_cells=self.replayed_cells,
            priced_seconds=self.priced_seconds,
        )


def aggregate_cells(
    store: ResultStore,
    kind,
    predicate: Callable | None = None,
    **aggregator_kwargs,
):
    """Batch-fold every stored row of one kind into the kind's summary.

    The one generic store fold: the kind supplies the scan
    (:meth:`~repro.pipeline.kinds.CellKind.scan`), the aggregator
    factory, and the replay accounting.  Deterministic because the scan
    order is canonical and the exact folds summarise retained records in
    sorted key order — bit-identical to a fold of the same rows in any
    arrival order.

    ``replayed_cells`` counts *cells* (like a sweep result's
    ``cached_cells``), not rows: for kinds where every row
    is its own cell that is the row count, otherwise distinct cell
    identities are counted (one subexpression cell owns many rows).
    """
    aggregator = kind.aggregator(**aggregator_kwargs)
    total = 0
    identities: set[tuple] = set()
    for row in kind.scan(store, predicate):
        aggregator.add(row)
        total += 1
        if not kind.one_row_per_cell:
            identities.add(kind.cell_identity(row))
    aggregator.replayed_cells = (
        total if kind.one_row_per_cell else len(identities)
    )
    return aggregator.summary()


def aggregate_deep_store(
    store: ResultStore,
    predicate: Callable[[DeepRow], bool] | None = None,
) -> DeepAggregateSummary:
    """Batch-fold every stored deep row: :func:`aggregate_cells` of deep."""
    from repro.pipeline.kinds import DEEP_KIND

    return aggregate_cells(store, DEEP_KIND, predicate)


def aggregate_store(
    store: ResultStore,
    predicate: Callable[[SweepRow], bool] | None = None,
) -> AggregateSummary:
    """Batch-fold every stored sweep row: :func:`aggregate_cells` of sweep."""
    from repro.pipeline.kinds import SWEEP_KIND

    return aggregate_cells(store, SWEEP_KIND, predicate)
