"""The traced pass: each workload re-driven layer by layer, with spans.

The untraced repeats call ``run_sweep`` / ``run_report`` and see one wall
time.  This module drives the *same inputs* through the same layers one
public function at a time — ``make_database`` → ``standard_estimators``
→ ``workspace.catalog`` → ``compute_truth`` → ``DPEnumerator.optimize``
→ ``plan_cost`` → ``execute_plan`` → store save/load/scan →
``aggregate_cells`` → frame fold and render — with a span around every
call, so the time of each layer is measured from outside it.  The rows
and rendered text it produces must digest equal to the untraced run's;
``run.py`` fails the benchmark when they do not, so this stays a timing
of the program and not of a look-alike.

Two deliberate differences from the untraced path, both trace cost only:
the first ``optimize(true_card)`` of every (query, config) is followed
by a repeat on a fresh ``DPEnumerator`` (``cardinality.truth.lazy_s`` is
first minus repeat — the exact-count work the oracle does *inside* the
enumerator's call), and the result-store scan is drained into a list so
its time can be told apart from the fold that consumes it.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro.cardinality.base import CardinalityEstimator
from repro.cardinality.qerror import q_error
from repro.cost.base import plan_cost
from repro.enumeration.dp import DPEnumerator
from repro.errors import WorkBudgetExceeded
from repro.execution import EngineConfig, ExecutionContext, execute_plan
from repro.execution.context import WORK_UNITS_PER_MS
from repro.pipeline import (
    DEEP_KIND,
    SWEEP_KIND,
    TRUE_SOURCE,
    CellScheduler,
    DeepRow,
    ResultStore,
    SweepRow,
    TruthStore,
    WorkloadResources,
    WorkQueue,
    aggregate_cells,
    deep_cell_key,
    deep_config_fingerprint,
    make_database,
    order_units,
    shmem,
    standard_estimators,
)
from repro.pipeline.tasks import spec_queries
from repro.query.subgraphs import connected_subsets

from trace import Tracer
from workloads import (
    DEEP_ARTIFACTS,
    REPORT_PASSES,
    artifact,
    digest,
    disk_bytes,
    prepare_root,
    request_inputs,
)


class TimedEstimator(CardinalityEstimator):
    """Delegates to a real estimator, charging its time to the trace."""

    def __init__(self, inner: CardinalityEstimator, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer

    def cardinality(self, query, subset, unfiltered_alias=None):
        started = time.perf_counter()
        try:
            return self.inner.cardinality(query, subset, unfiltered_alias)
        finally:
            self._tracer.rollup(
                "cardinality.estimator.bind", time.perf_counter() - started
            )
            self._tracer.count("cardinality.estimator.calls")


class TracedTruthStore(TruthStore):
    """``TruthStore`` whose loads and saves appear as spans."""

    def __init__(self, tracer: Tracer, root, spec) -> None:
        super().__init__(
            root, spec.scale, spec.seed,
            correlation=spec.correlation, dataset=spec.dataset,
        )
        self._tracer = tracer

    def load(self, query_name):
        with self._tracer.span("pipeline.truthstore.load"):
            return super().load(query_name)

    def save(self, query_name, counts, unfiltered=None, max_size=None):
        with self._tracer.span("pipeline.truthstore.save"):
            return super().save(query_name, counts, unfiltered, max_size)


class TracedResultStore(ResultStore):
    """``ResultStore`` whose scans are drained inside a span."""

    def __init__(self, tracer: Tracer, root, spec) -> None:
        super().__init__(
            root, spec.scale, spec.seed,
            correlation=spec.correlation, dataset=spec.dataset,
        )
        self._tracer = tracer

    def scan(self, predicate=None):
        with self._tracer.span("pipeline.results.scan"):
            rows = list(super().scan(predicate))
        return iter(rows)

    def scan_deep(self, predicate=None):
        with self._tracer.span("pipeline.results.scan"):
            rows = list(super().scan_deep(predicate))
        return iter(rows)


class Stepwise:
    """One workload's traced pass over a store root."""

    def __init__(self, tracer: Tracer, root: Path) -> None:
        self.tr = tracer
        self.truth_root = root / "truth"
        self.results_root = root / "results"
        #: grid point -> resources, built the first time a cell needs pricing
        self._resources: dict[tuple, WorkloadResources] = {}

    # ------------------------------------------------------------------ #
    # resources: datagen, catalog
    # ------------------------------------------------------------------ #

    def resources(self, spec) -> WorkloadResources:
        key = (spec.dataset, spec.scale, spec.seed, spec.correlation)
        resources = self._resources.get(key)
        if resources is not None:
            resources.adopt_queries(spec_queries(spec))
            return resources
        tr = self.tr
        with tr.span("datagen.make_database"):
            db = make_database(
                spec.dataset, spec.scale, spec.seed,
                correlation=spec.correlation,
            )
        tr.count("datagen.rows_generated", db.total_rows)
        with tr.span("catalog.analyze"):
            estimators = standard_estimators(db)
        resources = WorkloadResources(
            db=db,
            queries=spec_queries(spec),
            estimators={
                name: TimedEstimator(est, tr)
                for name, est in estimators.items()
            },
            truth_store=TracedTruthStore(tr, self.truth_root, spec),
        )
        self._resources[key] = resources
        return resources

    # ------------------------------------------------------------------ #
    # per-unit pricing, one layer call per span
    # ------------------------------------------------------------------ #

    def _workspace(self, resources, query, enumerates: bool):
        """The query's workspace, its subgraph catalog forced under a span.

        The catalog is lazy; a unit that will run the enumerator pays for
        csg-cmp pairs and their edges here and not inside ``optimize``.
        """
        tr = self.tr
        with tr.span("query.subgraphs.catalog", unit=query.name):
            ws = resources.workspace(query)
            tr.count("query.subgraphs.connected_subsets", len(ws.catalog.csgs))
            if enumerates:
                ws.catalog.pair_edges
                tr.count("query.subgraphs.csg_cmp_pairs", len(ws.catalog.pairs))
        return ws

    def _truth(self, ws, **compute_args):
        """Exact counts; also how many the store had already supplied."""
        with self.tr.span("cardinality.truth.compute_all", unit=ws.query.name):
            tcard = ws.true_card  # pins the state and preloads stored counts
            known = self._exact_counts(ws)
            ws.compute_truth(**compute_args)
        return tcard, known

    @staticmethod
    def _exact_counts(ws) -> int:
        return sum(len(d) for d in ws.resources.truth.export_counts(ws.query))

    def _finish_unit(self, ws, known: int) -> None:
        tr = self.tr
        tr.count(
            "cardinality.truth.subsets_counted", self._exact_counts(ws) - known
        )
        with tr.span("pipeline.truthstore.save", unit=ws.query.name):
            ws.save_truth()
            ws.release()

    def _optimize(self, ws, make_enumerator, dp, card, is_truth: bool):
        """``dp.optimize`` in a span; on the truth card, split off the
        exact-count work the oracle does lazily inside that call."""
        tr = self.tr
        name = ws.query.name
        with tr.span("enumeration.dp.optimize", unit=name) as first:
            plan, cost = dp.optimize(ws.context, card)
        tr.count("enumeration.dp.optimize_calls")
        tr.count("enumeration.dp.pairs_priced", len(ws.catalog.pair_edges))
        if is_truth:
            with tr.span("trace.repeat_optimize", unit=name) as again:
                make_enumerator().optimize(ws.context, card)
            tr.rollup(
                "cardinality.truth.lazy",
                max(first.duration - again.duration, 0.0),
                parent=first,
            )
        return plan, cost

    def price_sweep_unit(self, resources, query, spec, pairs) -> list:
        """``driver.price_cells``, stepwise."""
        tr = self.tr
        wanted = set(pairs)
        ws = self._workspace(resources, query, enumerates=True)
        tcard, known = self._truth(
            ws, processes=spec.oracle_processes, warm_unfiltered=True
        )
        all_mask = query.all_mask
        rows = []
        for c_index, config in enumerate(spec.configs):
            estimator_indices = [
                e for e in range(len(spec.estimators)) if (c_index, e) in wanted
            ]
            if not estimator_indices:
                continue
            cost_model = resources.cost_model(config.cost_model)
            design = resources.design(config.indexes)

            def make_enumerator():
                return DPEnumerator(
                    cost_model, design,
                    allow_nlj=config.allow_nlj, allow_smj=config.allow_smj,
                    shape=config.shape, kernels=resources.kernels,
                )

            dp = make_enumerator()
            _, optimal_cost = self._optimize(
                ws, make_enumerator, dp, tcard, is_truth=True
            )
            for e_index in estimator_indices:
                estimator = spec.estimators[e_index]
                with tr.span("cardinality.estimator.bind", unit=query.name):
                    card = ws.card(estimator)
                plan, est_cost = self._optimize(
                    ws, make_enumerator, dp, card, is_truth=False
                )
                with tr.span("cost.plan_cost", unit=query.name):
                    true_cost = plan_cost(plan, cost_model, tcard)
                rows.append(
                    SweepRow(
                        query=query.name,
                        estimator=estimator,
                        config=config.name,
                        est_cost=est_cost,
                        true_cost=true_cost,
                        optimal_cost=optimal_cost,
                        slowdown=true_cost / max(optimal_cost, 1e-9),
                        q_error=q_error(card(all_mask), tcard(all_mask)),
                    )
                )
        self._finish_unit(ws, known)
        return rows

    def price_deep_unit(self, resources, query, spec, pairs) -> dict:
        """``driver.price_deep_cells``, stepwise."""
        tr = self.tr
        wanted = set(pairs)
        configs = [spec.configs[c_index] for c_index in {c for c, _ in wanted}]
        ws = self._workspace(
            resources, query,
            enumerates=any(config.kind == "runtime" for config in configs),
        )
        caps = []
        need_full = False
        for config in configs:
            if config.kind == "runtime" or config.max_subexpr_size <= 0:
                need_full = True
            else:
                caps.append(config.max_subexpr_size)
        tcard, known = self._truth(
            ws,
            max_size=None if need_full or not caps else max(caps),
            processes=spec.oracle_processes,
            warm_unfiltered=need_full,
        )

        def source(estimator):
            if estimator == TRUE_SOURCE:
                return tcard
            with tr.span("cardinality.estimator.bind", unit=query.name):
                return ws.card(estimator)

        cells = {}
        for c_index, config in enumerate(spec.configs):
            estimator_indices = [
                e for e in range(len(spec.estimators)) if (c_index, e) in wanted
            ]
            if not estimator_indices:
                continue
            fp = deep_config_fingerprint(config)
            if config.kind == "subexpr":
                cap = config.max_subexpr_size or None
                with tr.span("query.subgraphs.catalog", unit=query.name):
                    subsets = connected_subsets(ws.graph, max_size=cap)
                for e_index in estimator_indices:
                    estimator = spec.estimators[e_index]
                    card = source(estimator)
                    # the estimator is the work here: one call per subset
                    with tr.span("cardinality.estimator.bind", unit=query.name):
                        cells[deep_cell_key(config.kind, estimator, fp)] = tuple(
                            DeepRow(
                                kind="subexpr",
                                query=query.name,
                                estimator=estimator,
                                config=config.name,
                                subset=subset,
                                true_card=float(tcard(subset)),
                                est_card=float(card(subset)),
                            )
                            for subset in subsets
                        )
                continue
            cost_model = resources.cost_model(config.cost_model)
            design = resources.design(config.indexes)

            def make_enumerator():
                return DPEnumerator(
                    cost_model, design,
                    allow_nlj=config.allow_nlj, kernels=resources.kernels,
                )

            dp = make_enumerator()
            engine_cfg = (
                EngineConfig(rehash=config.rehash)
                if config.work_budget <= 0
                else EngineConfig(
                    rehash=config.rehash, work_budget=config.work_budget
                )
            )
            for e_index in estimator_indices:
                estimator = spec.estimators[e_index]
                card = source(estimator)
                plan, est_cost = self._optimize(
                    ws, make_enumerator, dp, card,
                    is_truth=estimator == TRUE_SOURCE,
                )
                with tr.span("cost.plan_cost", unit=query.name):
                    true_cost = plan_cost(plan, cost_model, tcard)
                with tr.span("execution.execute_plan", unit=query.name):
                    ctx = ExecutionContext(resources.db, design, engine_cfg)
                    try:
                        ms = execute_plan(plan, query, ctx).simulated_ms
                        timed_out = 0
                    except WorkBudgetExceeded:
                        ms = engine_cfg.work_budget / WORK_UNITS_PER_MS
                        timed_out = 1
                tr.count("execution.plans_executed")
                tr.count("execution.timed_out", timed_out)
                tr.count("execution.simulated_ms", ms)
                cells[deep_cell_key(config.kind, estimator, fp)] = (
                    DeepRow(
                        kind="runtime",
                        query=query.name,
                        estimator=estimator,
                        config=config.name,
                        plan_cost_true=true_cost,
                        plan_cost_est=est_cost,
                        sim_runtime_ms=ms,
                        timed_out=timed_out,
                    ),
                )
        self._finish_unit(ws, known)
        return cells

    # ------------------------------------------------------------------ #
    # the grid: replay what the store holds, price and save the rest
    # ------------------------------------------------------------------ #

    def materialise(self, spec, kind):
        """``driver.run_cells``, stepwise: ``(rows, priced, cached, units)``."""
        tr = self.tr
        store = TracedResultStore(tr, self.results_root, spec)
        with tr.span("pipeline.tasks.decompose"):
            units = kind.decompose(spec)
        with tr.span("pipeline.index.refresh"):
            store.index.refresh()
        with tr.span("pipeline.results.load_many"):
            stored = kind.load_stored(store, [u.query for u in units])
        values = {}
        pending_units = []
        for unit in units:
            stored_q = stored.get(unit.query, {})
            pending = []
            for cell in unit.cells:
                value = stored_q.get(kind.store_key(cell))
                if value is None:
                    pending.append(cell)
                else:
                    values[(unit.query, kind.store_key(cell))] = value
            if pending:
                pending_units.append((unit, tuple(pending)))
        n_cached = len(values)
        price = (
            self.price_sweep_unit if kind is SWEEP_KIND else self.price_deep_unit
        )
        by_query = {unit.query: cells for unit, cells in pending_units}
        for unit in order_units([unit for unit, _ in pending_units]):
            cells = by_query[unit.query]
            resources = self.resources(spec)
            raw = price(
                resources,
                resources.query(unit.query),
                spec,
                tuple((c.config_index, c.estimator_index) for c in cells),
            )
            priced = {
                kind.store_key(cell): value
                for cell, value in kind.normalize(cells, raw).items()
            }
            with tr.span("pipeline.results.save", unit=unit.query):
                kind.save_stored(store, unit.query, priced)
            for key, value in priced.items():
                values[(unit.query, key)] = value
        rows = [
            row
            for unit in units
            for cell in unit.cells
            for row in kind.cell_rows(values[(unit.query, kind.store_key(cell))])
        ]
        return rows, len(values) - n_cached, n_cached, units

    def report(self, name: str, base):
        """``frame.run_report``, stepwise: ``(rows, text)``."""
        tr = self.tr
        specs_of, fold, kind, frame_cls = artifact(name)
        frames = []
        for spec in specs_of(base):
            with tr.span("experiments.frame.build_frame"):
                rows, priced, cached, units = self.materialise(spec, kind)
                frames.append(
                    frame_cls(
                        spec=spec,
                        rows=tuple(rows),
                        priced_cells=priced,
                        replayed_cells=cached,
                        n_relations={u.query: u.n_relations for u in units},
                    )
                )
        with tr.span("experiments.frame.build_frame"):
            result = fold(frames)
        with tr.span("experiments.frame.render"):
            text = result.render()
        tr.count("experiments.frame.text_bytes", len(text.encode()))
        return [row for frame in frames for row in frame.rows], text

    def summary(self, base) -> list[str]:
        """``repro report summary``: both store-wide folds, rendered."""
        tr = self.tr
        store = TracedResultStore(tr, self.results_root, base)
        texts = []
        for kind, args in ((SWEEP_KIND, {"exact": True}), (DEEP_KIND, {})):
            with tr.span("pipeline.aggregate.aggregate_cells"):
                summary = aggregate_cells(store, kind, **args)
                texts.append(summary.render())
            tr.count("pipeline.aggregate.rows_folded", summary.n_rows)
        return texts


# --------------------------------------------------------------------- #
# plumbing measured on the side: shared memory, the pool, the queue
# --------------------------------------------------------------------- #


def _pooled_extras(tr: Tracer, workload, base, resources, root: Path) -> str:
    """Publish/attach the database and run the grid through the pool;
    returns the digest of the pooled rows."""
    with tr.span("pipeline.shmem.publish"):
        published = shmem.publish_database(resources.db)
    try:
        with tr.span("pipeline.shmem.attach"):
            attached = shmem.attach_database(published.manifest)
        del attached
        tr.count(
            "pipeline.shmem.segment_bytes",
            max(
                (
                    offset + n * np.dtype(dtype).itemsize
                    for _, _, dtype, offset, n in published.manifest.arrays
                ),
                default=0,
            ),
        )
    finally:
        published.close()

    units = SWEEP_KIND.decompose(base)
    scheduler = CellScheduler(
        SWEEP_KIND, base,
        processes=workload.processes,
        truth_root=root / "pooled-truth",
        resources=resources,
    )
    priced = {}

    def on_complete(unit, raw, timing):
        priced[unit.query] = SWEEP_KIND.normalize(unit.cells, raw)

    with tr.span("pipeline.scheduler.run_pooled"):
        scheduler.run(units, on_complete)
    stats = scheduler.pool_stats
    tr.count("pipeline.scheduler.worker_init_s", stats.total_init_seconds)
    tr.count(
        "pipeline.scheduler.worker_db_generations", stats.worker_db_generations
    )
    rows = [priced[u.query][cell] for u in units for cell in u.cells]
    return digest(rows, [])


def _queue_roundtrip(tr: Tracer, base, root: Path) -> float:
    """Enqueue the base grid against an empty store; claim and complete
    every unit without pricing.  Returns the median claim+complete time."""
    queue = WorkQueue(root / "queue")
    with tr.span("pipeline.queue.enqueue"):
        queue.enqueue(base, SWEEP_KIND, root / "queue-results")
    seconds = []
    while True:
        started = time.perf_counter()
        lease = queue.claim("bench")
        if lease is None:
            break
        queue.complete(lease)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds) if seconds else 0.0


# --------------------------------------------------------------------- #
# child entry point
# --------------------------------------------------------------------- #


def _stored_cells(store: ResultStore) -> int:
    index = store.index
    return index.total_rows() + sum(
        len(index.deep_keys(query)) for query in index.queries()
    )


def traced_child(request: dict) -> dict:
    workload, base = request_inputs(request)
    root = prepare_root(request)

    tr = Tracer()
    step = Stepwise(tr, root)
    with tr.span("workload") as workload_span:
        if workload.region == "sweep":
            rows, _, _, _ = step.materialise(base, SWEEP_KIND)
            texts = []
        elif workload.region == "deep":
            rows, texts = [], []
            for name in DEEP_ARTIFACTS:
                artifact_rows, text = step.report(name, base)
                rows.extend(artifact_rows)
                texts.append(text)
        else:
            from repro.experiments.frame import available_reports

            rows = []
            for _ in range(REPORT_PASSES):
                texts = [
                    step.report(name, base)[1] for name in available_reports()
                ]
                texts.extend(step.summary(base))

    out = {"digest": digest(rows, texts), "wall_s": workload_span.duration}
    results = ResultStore.for_spec(step.results_root, base)
    sizes = {
        "pipeline.results.bytes_on_disk": disk_bytes(step.results_root),
        "pipeline.truthstore.bytes_on_disk": (
            disk_bytes(step.truth_root) if step.truth_root.exists() else 0
        ),
    }
    sizes["pipeline.results.bytes_per_cell"] = sizes[
        "pipeline.results.bytes_on_disk"
    ] / max(_stored_cells(results), 1)

    if workload.processes > 1:
        out["pooled_digest"] = _pooled_extras(
            tr, workload, base, step.resources(base), root
        )
    claim_p50 = _queue_roundtrip(tr, base, root)

    self_s = tr.self_seconds()
    accounted = 1.0 - tr.self_seconds(workload_span)["workload"] / max(
        workload_span.duration, 1e-9
    )
    layers = {
        name + "_s": seconds
        for name, seconds in self_s.items()
        if name not in ("workload", "trace.repeat_optimize",
                        "pipeline.scheduler.run_pooled")
    }
    layers.update(tr.counts)
    layers.update(sizes)
    layers["pipeline.queue.claim_complete_s_p50"] = claim_p50
    layers["pipeline.driver.accounted_frac"] = accounted
    out["layers"] = layers
    tr.write(request["trace_out"])
    return out
