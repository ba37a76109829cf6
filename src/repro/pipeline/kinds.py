"""Cell kinds: the one seam between generic orchestration and row kinds.

PR 5 left the pipeline with two parallel stacks — ``run_sweep`` /
``run_deep_sweep``, per-kind scheduler subclasses, per-kind worker
shims — that duplicated resume, pricing, pooling, and merge plumbing.
This module folds the per-kind differences into one strategy object so
that a single driver (:func:`~repro.pipeline.driver.run_cells`), a
single scheduler (:class:`~repro.pipeline.scheduler.CellScheduler`),
and a single work queue (:mod:`repro.pipeline.queue`) execute every row
kind.

A :class:`CellKind` answers exactly the questions the generic layers
need to ask:

* **decompose** a spec into per-query units of addressable cells;
* **price** one unit's cells where the work runs (in-process, pool
  worker, or lease-queue worker) and **normalize** the raw pricing
  result into a per-cell mapping on the master side;
* **identify** a cell within its query's result file (the store key —
  the per-query remainder of the cell's content key);
* **read and write** the :class:`~repro.pipeline.results.ResultStore`
  (replay lookup, merge-discipline save);
* **fold** rows into the kind's streaming aggregator;
* **serialise** a spec to JSON and back, so lease-queue workers in
  other processes — or on other machines sharing a filesystem — can
  rebuild the exact same world.

Kinds are stateless module-level singletons (:data:`SWEEP_KIND`,
:data:`DEEP_KIND`) addressed by name through :data:`KINDS`; pool and
queue workers receive the *name* and look the object up locally, so
nothing but strings crosses process boundaries.

Pricing deliberately dispatches through the :mod:`~repro.pipeline.
driver` module attributes (``driver.price_cells`` /
``driver.price_deep_cells``) rather than direct references: the
zero-pricing warm-path tests monkeypatch those attributes, and the
instrument counters live behind them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.physical import IndexConfig
from repro.pipeline.grid import (
    DeepConfig,
    DeepResult,
    DeepRow,
    DeepSpec,
    EnumeratorConfig,
    SweepResult,
    SweepRow,
    SweepSpec,
)
from repro.pipeline.results import (
    DEEP_ROW_FIELDS,
    ROW_FIELDS,
    deep_cell_key,
)
from repro.pipeline.tasks import CellUnit, decompose, decompose_deep
from repro.plans.shapes import TreeShape

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.pipeline.results import ResultStore


class CellKind:
    """Strategy object for one row kind; see the module docstring.

    Subclasses fill in the per-kind hooks; everything generic — resume
    deltas, largest-first scheduling, pool fan-out, lease queues,
    canonical gathering — lives in the driver/scheduler/queue layers
    and calls through this interface.
    """

    #: registry name; this string is what crosses process boundaries
    name: str
    #: CSV column names of one row (``None`` disables CSV streaming)
    csv_fields: tuple[str, ...]
    #: True when every stored row is exactly one cell (a scan's row
    #: count is then its cell count); False when a cell owns many rows,
    #: making distinct :meth:`cell_identity` values the cell count
    one_row_per_cell: bool

    # -------------------------------------------------------------- #
    # task layer
    # -------------------------------------------------------------- #

    def decompose(self, spec) -> list[CellUnit]:
        """Break a spec into per-query units of addressable cells."""
        raise NotImplementedError

    def store_key(self, cell):
        """The cell's identity within its query's result file."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # pricing
    # -------------------------------------------------------------- #

    def price_raw(self, resources, query, spec, pairs):
        """Price one unit's cells; runs where the work runs.

        Returns the kind's raw pricing payload (a row list for sweep
        cells, a cell-key → row-tuple dict for deep cells) — small and
        picklable, because pool workers ship it back over IPC.
        """
        raise NotImplementedError

    def normalize(self, cells, raw) -> dict:
        """Master-side: map a unit's cells to their priced values."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # cell values
    # -------------------------------------------------------------- #

    def cell_rows(self, value) -> tuple:
        """Flatten one cell's priced value into its row tuple."""
        raise NotImplementedError

    def make_result(self, spec, rows, priced_cells, cached_cells):
        """Wrap gathered rows into the kind's result dataclass."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # store hooks
    # -------------------------------------------------------------- #

    def load_stored(self, store: "ResultStore", query_names) -> dict:
        """Stored cells for many queries: query → store-key → value."""
        raise NotImplementedError

    def save_stored(self, store: "ResultStore", query_name, cells) -> None:
        """Merge freshly priced cells (keyed by store key) to disk."""
        raise NotImplementedError

    def scan(self, store: "ResultStore", predicate=None):
        """Every stored row of this kind, in canonical order."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # aggregation
    # -------------------------------------------------------------- #

    def aggregator(self, **kwargs):
        """A fresh streaming aggregator for this kind's rows."""
        raise NotImplementedError

    def cell_identity(self, row) -> tuple:
        """The cell a stored row belongs to (for replay accounting)."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # spec serialisation (lease-queue workers rebuild from JSON)
    # -------------------------------------------------------------- #

    def spec_payload(self, spec) -> dict:
        """A JSON-safe payload that round-trips the spec exactly."""
        raise NotImplementedError

    def spec_from_payload(self, payload: dict):
        """Rebuild a spec from :meth:`spec_payload` output."""
        raise NotImplementedError


def _tuple_or_none(value):
    return tuple(value) if value is not None else None


def _base_spec_payload(spec) -> dict:
    """The database-identity half both spec kinds share verbatim."""
    return {
        "scale": spec.scale,
        "seed": spec.seed,
        "correlation": spec.correlation,
        "query_names": (
            list(spec.query_names) if spec.query_names is not None else None
        ),
        "estimators": list(spec.estimators),
        "dataset": spec.dataset,
    }


class SweepKind(CellKind):
    """Shallow sweep cells: one :class:`SweepRow` per cell."""

    name = "sweep"
    csv_fields = ROW_FIELDS
    one_row_per_cell = True

    def decompose(self, spec):
        return decompose(spec)

    def store_key(self, cell):
        return (cell.key.estimator, cell.key.config_fingerprint)

    def price_raw(self, resources, query, spec, pairs):
        from repro.pipeline import driver

        return driver.price_cells(resources, query, spec, pairs)

    def normalize(self, cells, raw):
        # price_cells returns rows in canonical cell order — exactly the
        # order a pending unit's cells are in
        if len(cells) != len(raw):
            raise ValueError(
                f"pricer returned {len(raw)} rows for {len(cells)} cells"
            )
        return dict(zip(cells, raw))

    def cell_rows(self, value):
        return (value,)

    def make_result(self, spec, rows, priced_cells, cached_cells):
        return SweepResult(
            spec=spec,
            rows=rows,
            priced_cells=priced_cells,
            cached_cells=cached_cells,
        )

    def load_stored(self, store, query_names):
        return store.load_many(query_names)

    def save_stored(self, store, query_name, cells):
        store.save(query_name, cells)

    def scan(self, store, predicate=None):
        return store.scan(predicate)

    def aggregator(self, exact: bool = True):
        from repro.pipeline.aggregate import StreamingAggregator

        # ``exact`` survives only for benchmarks/e2e/stepwise.py
        if exact is not True:
            raise ValueError(
                f"exact={exact!r}: the exact fold is the only aggregation "
                "mode; pass True"
            )
        return StreamingAggregator()

    def cell_identity(self, row):
        return (row.query, row.estimator, row.config)

    def spec_payload(self, spec):
        payload = _base_spec_payload(spec)
        payload["configs"] = [
            {
                "name": c.name,
                "indexes": c.indexes.name,
                "shape": c.shape.name,
                "allow_nlj": c.allow_nlj,
                "allow_smj": c.allow_smj,
                "cost_model": c.cost_model,
            }
            for c in spec.configs
        ]
        return payload

    def spec_from_payload(self, payload):
        return SweepSpec(
            scale=payload["scale"],
            seed=payload["seed"],
            correlation=payload["correlation"],
            query_names=_tuple_or_none(payload["query_names"]),
            estimators=tuple(payload["estimators"]),
            configs=tuple(
                EnumeratorConfig(
                    name=c["name"],
                    indexes=IndexConfig[c["indexes"]],
                    shape=TreeShape[c["shape"]],
                    allow_nlj=c["allow_nlj"],
                    allow_smj=c["allow_smj"],
                    cost_model=c["cost_model"],
                )
                for c in payload["configs"]
            ),
            dataset=payload["dataset"],
        )


class DeepKind(CellKind):
    """Deep measurement cells: one :class:`DeepRow` tuple per cell."""

    name = "deep"
    csv_fields = DEEP_ROW_FIELDS
    one_row_per_cell = False

    def decompose(self, spec):
        return decompose_deep(spec)

    def store_key(self, cell):
        return deep_cell_key(
            cell.key.kind, cell.key.estimator, cell.key.config_fingerprint
        )

    def price_raw(self, resources, query, spec, pairs):
        from repro.pipeline import driver

        return driver.price_deep_cells(resources, query, spec, pairs)

    def normalize(self, cells, raw):
        return {cell: raw[self.store_key(cell)] for cell in cells}

    def cell_rows(self, value):
        return tuple(value)

    def make_result(self, spec, rows, priced_cells, cached_cells):
        return DeepResult(
            spec=spec,
            rows=rows,
            priced_cells=priced_cells,
            cached_cells=cached_cells,
        )

    def load_stored(self, store, query_names):
        return store.load_many_deep(query_names)

    def save_stored(self, store, query_name, cells):
        store.save_deep(query_name, cells)

    def scan(self, store, predicate=None):
        return store.scan_deep(predicate)

    def aggregator(self):
        from repro.pipeline.aggregate import DeepStreamingAggregator

        return DeepStreamingAggregator()

    def cell_identity(self, row):
        return (row.query, row.kind, row.estimator, row.config)

    def spec_payload(self, spec):
        payload = _base_spec_payload(spec)
        payload["configs"] = [
            {
                "name": c.name,
                "kind": c.kind,
                "max_subexpr_size": c.max_subexpr_size,
                "indexes": c.indexes.name,
                "allow_nlj": c.allow_nlj,
                "rehash": c.rehash,
                "cost_model": c.cost_model,
                "work_budget": c.work_budget,
            }
            for c in spec.configs
        ]
        return payload

    def spec_from_payload(self, payload):
        return DeepSpec(
            scale=payload["scale"],
            seed=payload["seed"],
            correlation=payload["correlation"],
            query_names=_tuple_or_none(payload["query_names"]),
            estimators=tuple(payload["estimators"]),
            configs=tuple(
                DeepConfig(
                    name=c["name"],
                    kind=c["kind"],
                    max_subexpr_size=c["max_subexpr_size"],
                    indexes=IndexConfig[c["indexes"]],
                    allow_nlj=c["allow_nlj"],
                    rehash=c["rehash"],
                    cost_model=c["cost_model"],
                    work_budget=c["work_budget"],
                )
                for c in payload["configs"]
            ),
            dataset=payload["dataset"],
        )


#: the singleton strategy objects the generic layers dispatch through
SWEEP_KIND = SweepKind()
DEEP_KIND = DeepKind()

#: name → kind; the name is the only thing shipped across processes
KINDS: dict[str, CellKind] = {k.name: k for k in (SWEEP_KIND, DEEP_KIND)}


def kind_for_spec(spec) -> CellKind:
    """The kind a spec belongs to, by spec type."""
    if isinstance(spec, DeepSpec):
        return DEEP_KIND
    if isinstance(spec, SweepSpec):
        return SWEEP_KIND
    raise TypeError(f"no cell kind for spec of type {type(spec).__name__}")


def spec_digest(kind: CellKind, spec) -> str:
    """Stable short hash identifying (kind, spec) — the queue's spec key."""
    blob = json.dumps(
        {"kind": kind.name, "spec": kind.spec_payload(spec)}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def unit_digest(kind: CellKind, unit: CellUnit) -> str:
    """Content key of one work unit: a hash over its cells' identities.

    Two enqueues of the same grid delta produce the same unit ids, which
    is what makes re-enqueueing idempotent.
    """
    blob = json.dumps(
        {
            "kind": kind.name,
            "cells": [asdict(cell.key) for cell in unit.cells],
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
