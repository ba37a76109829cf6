"""Sweep driver: incremental orchestration over the pipeline layers.

:func:`run_sweep` is the vertical glue between the three layers this
package splits the sweep into:

* the **task layer** (:mod:`repro.pipeline.tasks`) decomposes the spec
  into per-query units of addressable cells with stable content keys;
* the **scheduler layer** (:mod:`repro.pipeline.scheduler`) runs the
  still-unpriced units largest-first — sequentially or across a
  ``multiprocessing`` pool — and re-sorts gathered rows so output stays
  bit-identical to a cold sequential run;
* the **result layer** (:mod:`repro.pipeline.results`) replays
  previously priced cells from disk and persists fresh ones as each
  unit completes.

The pricing itself lives here: :func:`price_cells` prices any subset of
one query's cells against its shared workspace (one subgraph catalog,
one bound cardinality function per estimator, one truth materialisation
— that sharing is what makes the sweep cheap), and :func:`sweep_query`
is the full-grid special case.  With a result store attached, a re-run
of an identical spec prices zero cells and never even generates the
database; a changed spec prices exactly the cells whose content key
changed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

from repro.cardinality.qerror import q_error
from repro.cost.base import plan_cost
from repro.enumeration.dp import DPEnumerator
from repro.pipeline.instrument import UnitTiming
from repro.pipeline.grid import (
    TRUE_SOURCE,
    DeepResult,
    DeepRow,
    DeepSpec,
    SweepResult,
    SweepRow,
    SweepSpec,
)
from repro.pipeline.resources import QueryWorkspace, WorkloadResources
from repro.pipeline.results import ResultStore, UnitReport, deep_cell_key
from repro.pipeline.scheduler import CellScheduler
from repro.pipeline.tasks import (
    CellUnit,
    deep_config_fingerprint,
    make_database,
    spec_queries,
)
from repro.pipeline.truthstore import TruthStore
from repro.query.query import Query

# --------------------------------------------------------------------- #
# process-level grid-point caches
# --------------------------------------------------------------------- #
#
# A grid point — (dataset, scale, seed, correlation) — names one
# deterministic database, yet the pipeline's entry points used to
# regenerate it per call: per sequential sweep, per queue spec, per pool
# publish.  These two tiny LRUs make the database (and, under
# ``shared=True``, the whole resources object: estimators, ANALYZE
# statistics, workspaces, truth state) a per-process singleton per grid
# point.  Capacity 2 covers the realistic "imdb + tpch interleaved"
# case without letting a scale scan pin every database it visits.
# The cache is execution policy, never cell identity: a caller that
# wants a fresh build passes ``shared=False`` or calls
# :func:`clear_grid_caches`.

_DB_CACHE_CAP = 2
_DB_CACHE: OrderedDict[tuple, object] = OrderedDict()
_RESOURCES_CAP = 2
_RESOURCES_CACHE: OrderedDict[tuple, WorkloadResources] = OrderedDict()


def _grid_key(spec: SweepSpec | DeepSpec) -> tuple:
    from repro.datagen import DATAGEN_VERSION

    return (
        spec.dataset, spec.scale, spec.seed, spec.correlation,
        DATAGEN_VERSION,
    )


def clear_grid_caches() -> None:
    """Drop the process-level database/resources caches (tests, bench)."""
    _DB_CACHE.clear()
    _RESOURCES_CACHE.clear()


def grid_database(spec: SweepSpec | DeepSpec):
    """The spec's grid-point database, generated at most once per process.

    This is the master-side source for pooled shared-memory publishing:
    back-to-back pooled sweeps of one grid point (the common
    sweep-then-deep-sweep sequence) publish the same generated arrays
    instead of regenerating between pools.
    """
    key = _grid_key(spec)
    db = _DB_CACHE.get(key)
    if db is None:
        db = make_database(
            spec.dataset, spec.scale, spec.seed, correlation=spec.correlation
        )
        _DB_CACHE[key] = db
        while len(_DB_CACHE) > _DB_CACHE_CAP:
            _DB_CACHE.popitem(last=False)
    else:
        _DB_CACHE.move_to_end(key)
    return db


def build_resources(
    spec: SweepSpec | DeepSpec,
    truth_root: str | Path | None = None,
    db=None,
    shared: bool = False,
) -> WorkloadResources:
    """Deterministically build the workload a spec describes.

    ``db`` supplies an already-materialised database (a pool worker's
    shared-memory attach) instead of generating one.  ``shared=True``
    opts into the process-level grid-point cache: repeated builds for
    one grid point return one resources object — workspaces, truth
    state, and estimators warm — with the spec's queries adopted into
    it.  Both knobs are execution policy; every combination prices every
    cell bit-identically.
    """
    key = None
    if shared and db is None:
        key = _grid_key(spec) + (
            str(truth_root) if truth_root is not None else None,
        )
        cached = _RESOURCES_CACHE.get(key)
        if cached is not None:
            _RESOURCES_CACHE.move_to_end(key)
            cached.adopt_queries(spec_queries(spec))
            return cached
    if db is None:
        db = grid_database(spec) if shared else make_database(
            spec.dataset, spec.scale, spec.seed, correlation=spec.correlation
        )
    queries = spec_queries(spec)
    store = None
    if truth_root is not None:
        store = TruthStore(
            truth_root,
            spec.scale,
            spec.seed,
            correlation=spec.correlation,
            dataset=spec.dataset,
        )
    resources = WorkloadResources(db=db, queries=queries, truth_store=store)
    if key is not None:
        _RESOURCES_CACHE[key] = resources
        while len(_RESOURCES_CACHE) > _RESOURCES_CAP:
            _RESOURCES_CACHE.popitem(last=False)
    return resources


def price_cells(
    resources: WorkloadResources,
    query: Query,
    spec: SweepSpec,
    pairs: tuple[tuple[int, int], ...],
) -> list[SweepRow]:
    """Price a subset of one query's grid cells.

    ``pairs`` are ``(config index, estimator index)`` coordinates into
    the spec; rows come back in canonical cell order (config → estimator,
    both in spec order) regardless of the order the pairs arrived in.
    The workspace's catalog and bound cards are shared across all cells,
    and truth counts accumulated while costing are persisted to the truth
    store (when attached) before the unit returns.
    """
    wanted = set(pairs)
    if not wanted:
        return []
    from repro.pipeline.instrument import COUNTERS, phase

    COUNTERS.cells_priced += len(wanted)
    with phase("enumerate"):
        ws: QueryWorkspace = resources.workspace(query)
        ws.catalog  # force the subgraph enumeration under its own timer
    # materialise the truth bottom-up first: compute_all bounds peak
    # memory to two size-generations of compressed intermediates, whereas
    # letting DP pull counts on demand would cache every materialisation
    # of every size at once on a 13-relation query
    with phase("truth"):
        ws.compute_truth(warm_unfiltered=True)
        tcard = ws.true_card
    all_mask = query.all_mask
    rows: list[SweepRow] = []
    with phase("dp"):
        for c_index, config in enumerate(spec.configs):
            estimator_indices = [
                e_index
                for e_index in range(len(spec.estimators))
                if (c_index, e_index) in wanted
            ]
            if not estimator_indices:
                continue
            cost_model = resources.cost_model(config.cost_model)
            design = resources.design(config.indexes)
            dp = DPEnumerator(
                cost_model,
                design,
                allow_nlj=config.allow_nlj,
                shape=config.shape,
            )
            _, optimal_cost = dp.optimize(ws.context, tcard)
            for e_index in estimator_indices:
                estimator = spec.estimators[e_index]
                card = ws.card(estimator)
                plan, est_cost = dp.optimize(ws.context, card)
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
    with phase("store"):
        ws.save_truth()
        ws.release()
    return rows


def sweep_query(
    resources: WorkloadResources, query: Query, spec: SweepSpec
) -> list[SweepRow]:
    """One full work unit: every (estimator × config) cell for one query."""
    pairs = tuple(
        (c_index, e_index)
        for c_index in range(len(spec.configs))
        for e_index in range(len(spec.estimators))
    )
    return price_cells(resources, query, spec, pairs)


# --------------------------------------------------------------------- #
# deep pricing
# --------------------------------------------------------------------- #


def _deep_card(ws: QueryWorkspace, estimator: str):
    """The cardinality source a deep cell names (truth or an estimator)."""
    return ws.true_card if estimator == TRUE_SOURCE else ws.card(estimator)


def price_deep_cells(
    resources: WorkloadResources,
    query: Query,
    spec: DeepSpec,
    pairs: tuple[tuple[int, int], ...],
) -> dict[str, tuple[DeepRow, ...]]:
    """Price a subset of one query's deep measurement cells.

    ``pairs`` are ``(config index, estimator index)`` coordinates into
    the deep spec.  Returns each cell's *complete* row tuple keyed by
    its :func:`~repro.pipeline.results.deep_cell_key`, in canonical
    order (config → estimator, both in spec order; subexpression rows
    in :func:`~repro.query.subgraphs.connected_subsets` order — size
    then bitset value).

    ``"subexpr"`` cells record one (true count, estimate) observation
    per connected subexpression up to the config's size cap — exactly
    the measurements Figures 3/5 summarise.  ``"runtime"`` cells plan
    with the injected cardinality source, recost the chosen plan with
    truth, and execute it on the simulated engine under the config's
    risk knobs — the Figure 6–8 methodology.  Both reuse the query
    workspace (one catalog, one truth materialisation, one bound card
    per source), exactly like shallow pricing.
    """
    from repro.query.subgraphs import connected_subsets

    wanted = set(pairs)
    if not wanted:
        return {}
    from repro.pipeline.instrument import COUNTERS, phase

    COUNTERS.deep_cells_priced += len(wanted)
    with phase("enumerate"):
        ws: QueryWorkspace = resources.workspace(query)
        ws.catalog  # force the subgraph enumeration under its own timer

    # materialise the widest truth any wanted cell needs, once: runtime
    # cells recost whole plans (full coverage), capped subexpr cells only
    # need counts up to their cap
    caps: list[int] = []
    need_full = False
    for c_index in {c for (c, _) in wanted}:
        config = spec.configs[c_index]
        if config.kind == "runtime" or config.max_subexpr_size <= 0:
            need_full = True
        else:
            caps.append(config.max_subexpr_size)
    truth_cap = None if need_full or not caps else max(caps)
    with phase("truth"):
        ws.compute_truth(max_size=truth_cap, warm_unfiltered=need_full)
        tcard = ws.true_card

    cells: dict[str, tuple[DeepRow, ...]] = {}
    for c_index, config in enumerate(spec.configs):
        estimator_indices = [
            e_index
            for e_index in range(len(spec.estimators))
            if (c_index, e_index) in wanted
        ]
        if not estimator_indices:
            continue
        fp = deep_config_fingerprint(config)
        if config.kind == "subexpr":
            cap = (
                config.max_subexpr_size
                if config.max_subexpr_size > 0
                else None
            )
            with phase("estimate"):
                subsets = connected_subsets(ws.graph, max_size=cap)
                for e_index in estimator_indices:
                    estimator = spec.estimators[e_index]
                    card = _deep_card(ws, estimator)
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
        else:  # runtime
            from repro.errors import WorkBudgetExceeded
            from repro.execution import (
                EngineConfig,
                ExecutionContext,
                execute_plan,
            )
            from repro.execution.context import WORK_UNITS_PER_MS

            cost_model = resources.cost_model(config.cost_model)
            design = resources.design(config.indexes)
            dp = DPEnumerator(cost_model, design, allow_nlj=config.allow_nlj)
            engine_cfg = (
                EngineConfig(rehash=config.rehash)
                if config.work_budget <= 0
                else EngineConfig(
                    rehash=config.rehash, work_budget=config.work_budget
                )
            )
            for e_index in estimator_indices:
                estimator = spec.estimators[e_index]
                with phase("dp"):
                    card = _deep_card(ws, estimator)
                    plan, est_cost = dp.optimize(ws.context, card)
                    true_cost = plan_cost(plan, cost_model, tcard)
                with phase("execute"):
                    ctx = ExecutionContext(resources.db, design, engine_cfg)
                    try:
                        ms = execute_plan(plan, query, ctx).simulated_ms
                        timed_out = 0
                    except WorkBudgetExceeded:
                        ms = engine_cfg.work_budget / WORK_UNITS_PER_MS
                        timed_out = 1
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
    with phase("store"):
        ws.save_truth()
        ws.release()
    return cells


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #


def run_cells(
    spec,
    kind,
    *,
    processes: int = 1,
    truth_root: str | Path | None = None,
    resources: WorkloadResources | None = None,
    result_root: str | Path | None = None,
    resume: bool = True,
    progress=None,
):
    """Run any kind's grid incrementally: the one orchestration core.

    Every former per-kind driver duty is here exactly once — resume
    delta against the result store, largest-first scheduling through
    :class:`~repro.pipeline.scheduler.CellScheduler`, per-unit persist
    and progress reporting, canonical gathering — parameterised by a
    :class:`~repro.pipeline.kinds.CellKind`.  ``run_sweep`` and
    ``run_deep_sweep`` are thin wrappers.

    ``resources`` may be passed to reuse an already-built workload in
    sequential mode (the parallel path always rebuilds per worker so
    that every process prices the grid against an identical database).
    ``result_root`` attaches a persistent :class:`ResultStore`: cells
    priced by any previous run — any process, ever — are replayed from
    disk instead of recomputed, unless ``resume=False`` forces a full
    re-price (the store is still updated).  ``progress`` is called with
    a :class:`~repro.pipeline.results.UnitReport` (counts and timings)
    as each unit completes.  Rows are gathered once, into the returned
    result, always in canonical grid order, bit-identical across
    sequential, pooled, resumed, and queue-drained runs; the store is
    the run's durable record.
    """
    if resources is not None and truth_root is not None:
        raise ValueError(
            "pass either truth_root or a resources object carrying its own "
            "truth_store, not both"
        )
    if resources is not None and processes > 1:
        raise ValueError(
            "a prebuilt resources object cannot cross process boundaries; "
            "use processes=1 or let workers rebuild from the spec"
        )

    units = kind.decompose(spec)
    store = (
        ResultStore.for_spec(result_root, spec)
        if result_root is not None
        else None
    )

    # (query, store key) -> the cell's priced value (one row for sweep
    # cells, a complete row tuple for deep cells)
    values: dict[tuple[str, object], object] = {}
    cached_cells: dict[str, list] = {u.query: [] for u in units}
    pending_units: list[CellUnit] = []
    # one manifest read answers the whole workload's replay question;
    # only per-query files that actually hold rows get opened
    stored = (
        kind.load_stored(store, [u.query for u in units])
        if store is not None and resume
        else {}
    )
    for unit in units:
        pending = []
        stored_q = stored.get(unit.query, {})
        for cell in unit.cells:
            value = stored_q.get(kind.store_key(cell))
            if value is not None:
                values[(unit.query, kind.store_key(cell))] = value
                cached_cells[unit.query].append(cell)
            else:
                pending.append(cell)
        if pending:
            pending_units.append(replace(unit, cells=tuple(pending)))

    n_cached = sum(len(cells) for cells in cached_cells.values())
    n_priced = sum(len(u.cells) for u in pending_units)
    from repro.pipeline.instrument import COUNTERS

    COUNTERS.rows_replayed += sum(
        len(kind.cell_rows(value)) for value in values.values()
    )
    total_units = len(units)
    completed = 0

    def _report(query: str, priced: int, cached: int, timing: UnitTiming):
        if progress is not None:
            progress(
                UnitReport(
                    query=query,
                    index=completed,
                    total=total_units,
                    priced=priced,
                    cached=cached,
                    unit_seconds=timing.seconds,
                    setup_seconds=timing.setup_seconds,
                    phases=timing.phases,
                )
            )

    # fully cached units complete immediately, in canonical order
    pending_names = {u.query for u in pending_units}
    for unit in units:
        if unit.query in pending_names:
            continue
        completed += 1
        _report(unit.query, 0, len(unit.cells), UnitTiming())

    def _on_complete(unit: CellUnit, raw, timing: UnitTiming) -> None:
        nonlocal completed
        completed += 1
        priced = kind.normalize(unit.cells, raw)
        for cell, value in priced.items():
            values[(unit.query, kind.store_key(cell))] = value
        if store is not None:
            kind.save_stored(
                store,
                unit.query,
                {
                    kind.store_key(cell): value
                    for cell, value in priced.items()
                },
            )
        _report(
            unit.query, len(priced), len(cached_cells[unit.query]), timing
        )

    scheduler = CellScheduler(
        kind,
        spec,
        processes=processes,
        truth_root=truth_root,
        resources=resources,
    )
    scheduler.run(pending_units, _on_complete)

    # every unit's cells are in canonical order (decompose's query →
    # config → estimator nesting), so walking them flattens the grid's
    # rows in output order
    all_rows: list = []
    for unit in units:
        for cell in unit.cells:
            value = values[(unit.query, kind.store_key(cell))]
            all_rows.extend(kind.cell_rows(value))
    return kind.make_result(spec, all_rows, n_priced, n_cached)


def run_sweep(
    spec: SweepSpec,
    processes: int = 1,
    truth_root: str | Path | None = None,
    resources: WorkloadResources | None = None,
    result_root: str | Path | None = None,
    resume: bool = True,
    progress=None,
) -> SweepResult:
    """Run the shallow grid: :func:`run_cells` of the sweep kind."""
    from repro.pipeline.kinds import SWEEP_KIND

    return run_cells(
        spec,
        SWEEP_KIND,
        processes=processes,
        truth_root=truth_root,
        resources=resources,
        result_root=result_root,
        resume=resume,
        progress=progress,
    )


def run_deep_sweep(
    spec: DeepSpec,
    processes: int = 1,
    truth_root: str | Path | None = None,
    resources: WorkloadResources | None = None,
    result_root: str | Path | None = None,
    resume: bool = True,
    progress=None,
) -> DeepResult:
    """Run the deep measurement grid: :func:`run_cells` of the deep kind.

    Deep cells live in the same per-query files as sweep rows but have
    their own identity (:class:`~repro.pipeline.tasks.DeepCellKey`), so
    deep and shallow sweeps warm each other's truth cache without ever
    invalidating each other's rows.
    """
    from repro.pipeline.kinds import DEEP_KIND

    return run_cells(
        spec,
        DEEP_KIND,
        processes=processes,
        truth_root=truth_root,
        resources=resources,
        result_root=result_root,
        resume=resume,
        progress=progress,
    )
