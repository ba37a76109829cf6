"""Scheduler layer: order, fan out, and gather work units of any kind.

Work units (one query each, see :mod:`repro.pipeline.tasks`) run
**largest-first**: descending ``n_relations``, workload order as the
tie-break.  The sweep's wall time under a pool is dominated by its
longest unit, and the long units are the many-relation queries — launch
a 29a-sized straggler last and every other worker idles while it runs;
launch it first and the small queries pack into the tail.  Sequential
runs use the same order so that a resumed run, whatever mode produced
its cached cells, always observes one schedule.

Execution order is therefore *not* output order.  Units report
completion as they finish (that is what makes streaming reports
possible), and the driver re-sorts the collected rows into canonical
cell order at the end — so pooled, resumed, and largest-first runs all
emit bit-identical row sequences.

There is exactly **one** scheduler: :class:`CellScheduler` is
parameterised by a :class:`~repro.pipeline.kinds.CellKind`, which owns
the unit pricing function.  The pool plumbing ships ``(query name,
cell index pairs)`` to workers; workers rebuild the world
deterministically from the (kind name, spec) pair they received at
initialisation — one initializer, one worker shim, for every row kind.

The pooled path (:mod:`repro.pipeline.shmem`) generates the database
**once** in the master, publishes its columnar arrays into a
shared-memory segment, and workers attach zero-copy instead of
regenerating — the scheduler owns the segment's lifecycle (publish
before the pool starts, unlink in a ``finally`` once it drains).
Workers ship their init cost and database-generation
counter back with every unit, so the master can both amortise setup
time honestly (:class:`~repro.pipeline.instrument.UnitTiming`) and
*prove* that a pooled cold sweep generated each database exactly once
(:attr:`CellScheduler.pool_stats`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.pipeline.instrument import UnitTiming
from repro.pipeline.tasks import CellUnit

#: callback invoked as each unit completes: (unit, the kind's raw
#: pricing payload, and a :class:`UnitTiming` measured where the work
#: ran, so pooled units report worker-side time without IPC overhead)
UnitCallback = Callable[[CellUnit, object, UnitTiming], None]


def order_units(units: Sequence[CellUnit]) -> list[CellUnit]:
    """Largest-first schedule: descending ``n_relations``, stable."""
    return sorted(units, key=lambda u: (-u.n_relations, u.workload_index))


def _cell_pairs(cells) -> tuple[tuple[int, int], ...]:
    return tuple((c.config_index, c.estimator_index) for c in cells)


@dataclass
class PoolStats:
    """Worker-side accounting gathered from pooled unit payloads.

    ``db_generations`` maps worker pid -> databases generated *inside*
    that worker since its initializer started (fork-inherited master
    counts excluded); every worker must report 0 — the master generated
    once and published.
    ``init_seconds`` is each worker's one-time initialisation cost
    (database attach plus resource construction).
    """

    db_generations: dict[int, int] = field(default_factory=dict)
    init_seconds: dict[int, float] = field(default_factory=dict)

    @property
    def workers(self) -> int:
        return len(self.init_seconds)

    @property
    def worker_db_generations(self) -> int:
        """Databases generated inside pool workers (expected: 0)."""
        return sum(self.db_generations.values())

    @property
    def total_init_seconds(self) -> float:
        return sum(self.init_seconds.values())

    def note(self, stats: dict) -> None:
        pid = stats["pid"]
        self.db_generations[pid] = stats["db_generations"]
        self.init_seconds[pid] = stats["init_seconds"]


# --------------------------------------------------------------------- #
# multiprocessing plumbing
# --------------------------------------------------------------------- #

#: per-worker state, populated by the pool initializer (works under both
#: fork and spawn start methods)
_WORKER: dict = {}


def _init_worker(
    kind_name: str,
    spec,
    truth_root: str | None,
    manifest,
) -> None:
    from repro.pipeline import shmem
    from repro.pipeline.driver import build_resources
    from repro.pipeline.instrument import COUNTERS, snapshot
    from repro.pipeline.kinds import KINDS
    from repro.util.threads import pin_math_threads

    started = time.perf_counter()
    before = snapshot()
    # the unit pool already owns the machine — one BLAS/OpenMP thread
    # per worker, or the numpy kernels oversubscribe the cores
    pin_math_threads(1)
    _WORKER["kind"] = KINDS[kind_name]
    _WORKER["spec"] = spec
    _WORKER["resources"] = build_resources(
        spec, truth_root, db=shmem.attach_database(manifest)
    )
    _WORKER["init_seconds"] = time.perf_counter() - started
    # fork-started workers inherit the master's counters; everything the
    # *worker* did is the delta against this baseline
    _WORKER["base_generations"] = before.db_generations
    _WORKER["init_pending"] = True


def _run_unit(
    payload: tuple[str, tuple[tuple[int, int], ...]]
) -> tuple[str, object, UnitTiming, dict]:
    """The one pool-worker shim: price any kind's unit, report its time.

    The returned :class:`UnitTiming` carries the unit's pricing wall
    seconds and per-phase breakdown; the worker's one-time init cost is
    amortised onto the first unit it completes (``setup_seconds``).  The
    trailing stats dict ships the worker's process-local counters back
    to the master — counters do not cross process boundaries on their
    own, and the zero-redundancy guarantee is exactly a claim about
    *worker-side* generations.
    """
    from repro.pipeline.instrument import COUNTERS, phase_delta, phase_snapshot

    query_name, pairs = payload
    kind = _WORKER["kind"]
    spec = _WORKER["spec"]
    resources = _WORKER["resources"]
    phases_before = phase_snapshot()
    started = time.perf_counter()
    raw = kind.price_raw(resources, resources.query(query_name), spec, pairs)
    seconds = time.perf_counter() - started
    setup = _WORKER["init_seconds"] if _WORKER.get("init_pending") else 0.0
    _WORKER["init_pending"] = False
    timing = UnitTiming(
        seconds=seconds,
        setup_seconds=setup,
        phases=phase_delta(phases_before),
    )
    stats = {
        "pid": os.getpid(),
        "db_generations": (
            COUNTERS.db_generations - _WORKER["base_generations"]
        ),
        "init_seconds": _WORKER["init_seconds"],
    }
    return query_name, raw, timing, stats


class CellScheduler:
    """Runs pending units — sequentially or across a pool — largest-first.

    The scheduler prices only what it is handed: callers pass units whose
    ``cells`` are the still-unpriced delta (the result store already
    served the rest).  The unit pricing function is the kind's
    (:meth:`~repro.pipeline.kinds.CellKind.price_raw`); everything else —
    ordering, fan-out, oracle policy, completion reporting — is shared by
    every row kind.  Resources for the sequential path are built lazily,
    so a fully cached sweep never generates its database at all.

    After a pooled run, :attr:`pool_stats` holds the workers' reported
    init costs and generation counters.
    """

    def __init__(
        self,
        kind,
        spec,
        processes: int = 1,
        truth_root: str | Path | None = None,
        resources=None,
    ) -> None:
        self.kind = kind
        self.spec = spec
        self.processes = processes
        self.truth_root = truth_root
        self.resources = resources
        self.pool_stats: PoolStats | None = None

    def run(
        self,
        units: Sequence[CellUnit],
        on_complete: UnitCallback | None = None,
    ) -> dict[str, object]:
        """Price every cell of ``units``; report units as they finish.

        Returns the kind's raw pricing payloads keyed by query name.
        ``on_complete`` fires in completion order — under a pool that
        order is nondeterministic, which is why the driver re-sorts into
        canonical cell order before emitting final output.
        """
        ordered = order_units(units)
        if not ordered:
            return {}
        if self.processes <= 1:
            return self._run_sequential(ordered, on_complete)
        return self._run_pooled(ordered, on_complete)

    # ------------------------------------------------------------------ #

    def _run_sequential(
        self, ordered: list[CellUnit], on_complete: UnitCallback | None
    ) -> dict[str, object]:
        from repro.pipeline import driver
        from repro.pipeline.instrument import phase_delta, phase_snapshot

        setup_seconds = 0.0
        resources = self.resources
        if resources is None:
            setup_started = time.perf_counter()
            resources = driver.build_resources(
                self.spec, self.truth_root, shared=True
            )
            setup_seconds = time.perf_counter() - setup_started
            self.resources = resources
        priced: dict[str, object] = {}
        for unit in ordered:
            phases_before = phase_snapshot()
            started = time.perf_counter()
            raw = self.kind.price_raw(
                resources,
                resources.query(unit.query),
                self.spec,
                _cell_pairs(unit.cells),
            )
            elapsed = time.perf_counter() - started
            priced[unit.query] = raw
            if on_complete is not None:
                on_complete(
                    unit,
                    raw,
                    UnitTiming(
                        seconds=elapsed,
                        setup_seconds=setup_seconds,
                        phases=phase_delta(phases_before),
                    ),
                )
            setup_seconds = 0.0  # amortised onto the first unit only
        return priced

    def _publish(self):
        """Publish the grid's database for worker attach.

        Reuses an already-built resources object's database when one is
        attached; otherwise generates (through the shared grid cache, so
        repeated pooled sweeps of one grid point generate once).
        """
        from repro.pipeline import driver, shmem

        db = (
            self.resources.db
            if self.resources is not None
            else driver.grid_database(self.spec)
        )
        return shmem.publish_database(db)

    def _run_pooled(
        self, ordered: list[CellUnit], on_complete: UnitCallback | None
    ) -> dict[str, object]:
        by_query = {unit.query: unit for unit in ordered}
        payloads = [
            (unit.query, _cell_pairs(unit.cells)) for unit in ordered
        ]
        truth_arg = (
            str(self.truth_root) if self.truth_root is not None else None
        )
        ctx = multiprocessing.get_context()
        priced: dict[str, object] = {}
        self.pool_stats = PoolStats()
        published = self._publish()
        try:
            with ctx.Pool(
                processes=min(self.processes, max(len(payloads), 1)),
                initializer=_init_worker,
                initargs=(
                    self.kind.name, self.spec, truth_arg, published.manifest,
                ),
            ) as pool:
                for query_name, raw, timing, stats in pool.imap_unordered(
                    _run_unit, payloads, chunksize=1
                ):
                    priced[query_name] = raw
                    self.pool_stats.note(stats)
                    if on_complete is not None:
                        on_complete(by_query[query_name], raw, timing)
        finally:
            # the publisher owns the segment: unlink exactly once, even
            # when a worker (or a completion callback) raised mid-drain
            published.close()
        return priced
