"""Engine configuration and per-query execution bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.schema import Database
from repro.errors import WorkBudgetExceeded
from repro.physical.design import PhysicalDesign

#: conversion from abstract work units to "milliseconds" of simulated time;
#: arbitrary but fixed, so figures read like the paper's runtime axes.
WORK_UNITS_PER_MS = 20_000.0

#: default per-query work budget — the "timeout".  Well-planned queries in
#: the bundled workloads cost ~1e4–1e6 units; a quadratic nested-loop blowup
#: reaches the budget long before finishing.
DEFAULT_WORK_BUDGET = 5e7


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs the paper varies in Section 4.

    ``rehash``
        When True, hash tables are sized from the *actual* build-side row
        count at runtime (PostgreSQL 9.5 behaviour); when False, from the
        planner's estimate (9.4 behaviour — undersized tables on
        underestimates).
    ``work_budget``
        Simulated-work timeout.
    """

    rehash: bool = False
    work_budget: float = DEFAULT_WORK_BUDGET

    # per-tuple simulated cost constants
    scan_tuple: float = 1.0
    build_tuple: float = 2.0
    probe_tuple: float = 1.5
    output_tuple: float = 0.5
    nlj_pair: float = 0.25
    index_lookup: float = 12.0
    index_fetch: float = 1.5

    #: minimum number of hash buckets regardless of the estimate
    min_buckets: int = 1024


@dataclass
class OperatorStats:
    """Per-operator accounting for debugging and tests."""

    label: str
    in_left: int = 0
    in_right: int = 0
    out_rows: int = 0
    work: float = 0.0


class ExecutionContext:
    """Mutable per-query execution state: work meter + operator stats."""

    def __init__(
        self,
        db: Database,
        design: PhysicalDesign,
        config: EngineConfig | None = None,
    ) -> None:
        self.db = db
        self.design = design
        self.config = config or EngineConfig()
        self.work_done = 0.0
        self.operator_stats: list[OperatorStats] = []

    def charge(self, amount: float) -> None:
        """Add ``amount`` work units; raise on budget exhaustion."""
        if amount < 0:
            raise ValueError("negative work")
        self.work_done += amount
        if self.work_done > self.config.work_budget:
            raise WorkBudgetExceeded(self.work_done, self.config.work_budget)

    def ensure_budget_for(self, amount: float) -> None:
        """Pre-flight check used before quadratic operators materialise
        anything — a nested-loop join over two large inputs must time out
        instead of exhausting memory."""
        if self.work_done + amount > self.config.work_budget:
            raise WorkBudgetExceeded(
                self.work_done + amount, self.config.work_budget
            )

    @property
    def simulated_ms(self) -> float:
        return self.work_done / WORK_UNITS_PER_MS

    def record(self, stats: OperatorStats) -> None:
        self.operator_stats.append(stats)
