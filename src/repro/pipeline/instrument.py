"""Process-local counters for the pipeline's expensive operations.

The replay path's contract is *negative*: a warm ``repro report`` must
generate **zero** databases and price **zero** cells.  Negative claims
need instrumentation, not inspection — these counters are incremented at
the two chokepoints every expensive path funnels through
(:func:`~repro.pipeline.tasks.make_database` and
:func:`~repro.pipeline.driver.price_cells`), so a test or the CLI can
snapshot before, run, and assert the delta.

Counters are per-process: work done inside ``multiprocessing`` pool
workers shows up in the workers, not the master.  That is the right
scope for the warm-path guarantee (a fully cached run never spawns
workers at all) and keeps the counters free of cross-process plumbing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Counters:
    """Monotone event counts since process start (or last snapshot)."""

    db_generations: int = 0
    cells_priced: int = 0
    rows_replayed: int = 0
    deep_cells_priced: int = 0

    def __sub__(self, other: "Counters") -> "Counters":
        return Counters(
            db_generations=self.db_generations - other.db_generations,
            cells_priced=self.cells_priced - other.cells_priced,
            rows_replayed=self.rows_replayed - other.rows_replayed,
            deep_cells_priced=(
                self.deep_cells_priced - other.deep_cells_priced
            ),
        )


#: the process-wide counter instance
COUNTERS = Counters()


def snapshot() -> Counters:
    """An immutable copy of the current counts (for later deltas)."""
    return Counters(
        db_generations=COUNTERS.db_generations,
        cells_priced=COUNTERS.cells_priced,
        rows_replayed=COUNTERS.rows_replayed,
        deep_cells_priced=COUNTERS.deep_cells_priced,
    )


# --------------------------------------------------------------------- #
# phase timers
# --------------------------------------------------------------------- #

#: the canonical per-unit phase names, in pipeline order: ``estimate``
#: is the deep subexpression cells' estimator loop, ``dp`` is planning
#: plus true-cardinality recosting, ``execute`` the simulated engine
PHASE_NAMES = (
    "generate", "truth", "enumerate", "estimate", "dp", "execute", "store",
)

#: process-wide monotone per-phase wall seconds, accumulated at the same
#: chokepoints the counters instrument (``make_database`` for
#: ``generate``, ``price_cells`` / ``price_deep_cells`` for the rest)
PHASE_TOTALS: dict[str, float] = {}


@contextmanager
def phase(name: str):
    """Accumulate the block's monotonic wall time under ``name``.

    Nested phases are *not* subtracted from each other — each phase site
    wraps a disjoint pipeline stage, so the per-unit deltas add up to
    (at most) the unit's wall time.  Per-process like the counters:
    pool workers time their own phases and ship the deltas back through
    the scheduler's unit payloads.
    """
    started = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started
        PHASE_TOTALS[name] = PHASE_TOTALS.get(name, 0.0) + elapsed


def phase_snapshot() -> dict[str, float]:
    """An immutable copy of the per-phase totals (for later deltas)."""
    return dict(PHASE_TOTALS)


def phase_delta(before: dict[str, float]) -> tuple[tuple[str, float], ...]:
    """Per-phase seconds since ``before``, in canonical phase order.

    Only phases that actually advanced appear; the tuple-of-pairs shape
    is picklable and hashable, so it rides unchanged inside pooled unit
    payloads and :class:`~repro.pipeline.results.UnitReport`.
    """
    out = []
    for name in PHASE_NAMES:
        delta = PHASE_TOTALS.get(name, 0.0) - before.get(name, 0.0)
        if delta > 0.0:
            out.append((name, delta))
    for name in sorted(PHASE_TOTALS):
        if name not in PHASE_NAMES:
            delta = PHASE_TOTALS.get(name, 0.0) - before.get(name, 0.0)
            if delta > 0.0:
                out.append((name, delta))
    return tuple(out)


@dataclass
class UnitTiming:
    """Where one unit's wall time went, measured where the work ran.

    ``seconds`` is pure pricing time (what ``cells_per_second`` divides
    by); ``setup_seconds`` is one-time worker initialisation —
    database attach/generation, resource construction — amortised onto
    the *first* unit each pool worker completes, so pooled and
    sequential throughput numbers stay comparable.  ``phases`` is the
    per-phase breakdown of the pricing time (see :data:`PHASE_NAMES`).
    """

    seconds: float = 0.0
    setup_seconds: float = 0.0
    phases: tuple[tuple[str, float], ...] = field(default=())
