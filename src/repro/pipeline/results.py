"""Result store + progress reports: persist and replay priced cells.

The :class:`ResultStore` is to :class:`~repro.pipeline.grid.SweepRow`
what the :class:`~repro.pipeline.truthstore.TruthStore` is to exact
counts: a per-query JSON file under a directory that encodes the
database identity, written with the same atomic temp-file + rename +
per-query ``flock`` discipline, living side by side with the truth files
(``<db-key>/results/<query>.json`` next to ``<db-key>/<query>.json``).
Within a file, rows are keyed by ``estimator|config-fingerprint`` — the
per-query remainder of the cell's
:class:`~repro.pipeline.tasks.CellKey` — so a re-run of an identical
spec replays every cell from disk and a changed spec recomputes exactly
the cells whose identity changed.

Since format version 2 the same per-query file also carries the *deep*
row kind (:class:`~repro.pipeline.grid.DeepRow`): subexpression-level
observations and simulated-runtime observations, grouped into complete
cells keyed by ``kind|estimator|deep-config-fingerprint``
(:func:`deep_cell_key`).  A deep cell is the replay unit — either all
of its rows are present or the cell is re-priced — and deep identity is
disjoint from shallow identity, so the two sweep kinds share files and
truth caches without ever invalidating each other.  Version-1 files
stay readable (they simply hold no deep cells) and are upgraded in
place on their next save.

Floats survive the JSON round trip exactly (``json`` serialises via
``repr``), so replayed rows are bit-identical to freshly priced ones —
including in CSV output.

Batch access goes through the directory's manifest
(:class:`~repro.pipeline.index.StoreIndex`): :meth:`ResultStore.load_many`
answers a whole workload's replay question with one index read, and
:meth:`ResultStore.scan` streams every stored row in deterministic order
for batch aggregation.  Per-file staleness checks keep the manifest
honest under concurrent sweeps.

:class:`UnitReport` is the progress event handed to
``run_sweep(progress=...)`` callbacks as each unit completes: counts and
timings only — the rows themselves are the store's and the finished
result's.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, fields
from dataclasses import field as dataclass_field
from pathlib import Path

from repro.pipeline.grid import DeepRow, DeepSpec, SweepRow, SweepSpec
from repro.pipeline.index import StoreIndex
from repro.pipeline.truthstore import atomic_write_json, db_key, locked

log = logging.getLogger(__name__)

#: the version this store writes; version-1 files (sweep rows only, no
#: per-kind index) remain readable — they simply hold no deep cells
_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)

#: SweepRow field names, in dataclass order
ROW_FIELDS = tuple(f.name for f in fields(SweepRow))

_FLOAT_FIELDS = tuple(
    f.name for f in fields(SweepRow) if f.type in ("float", float)
)

#: DeepRow field names, in dataclass order
DEEP_ROW_FIELDS = tuple(f.name for f in fields(DeepRow))

_DEEP_FLOAT_FIELDS = frozenset(
    f.name for f in fields(DeepRow) if f.type in ("float", float)
)
_DEEP_INT_FIELDS = frozenset(
    f.name for f in fields(DeepRow) if f.type in ("int", int)
)


def _row_key(estimator: str, config_fingerprint: str) -> str:
    return f"{estimator}|{config_fingerprint}"


def deep_cell_key(kind: str, estimator: str, config_fingerprint: str) -> str:
    """The store's (and manifest's) key of one deep measurement cell."""
    return f"{kind}|{estimator}|{config_fingerprint}"


def _parse_deep_row(payload: dict) -> DeepRow:
    return DeepRow(**{
        name: (
            float(payload[name]) if name in _DEEP_FLOAT_FIELDS
            else int(payload[name]) if name in _DEEP_INT_FIELDS
            else str(payload[name])
        )
        for name in DEEP_ROW_FIELDS
    })


@dataclass
class StoredRows:
    """Everything one per-query result file holds, parsed once.

    ``rows`` are the shallow sweep cells keyed by ``(estimator,
    fingerprint)``; ``deep`` maps a deep cell key (see
    :func:`deep_cell_key`) to the cell's *complete* row tuple — a deep
    cell is the unit of replay, so a cell is either entirely present or
    entirely absent (a malformed row invalidates its whole cell, which
    the next deep sweep re-prices).
    """

    rows: dict[tuple[str, str], SweepRow] = dataclass_field(
        default_factory=dict
    )
    deep: dict[str, tuple[DeepRow, ...]] = dataclass_field(
        default_factory=dict
    )


class ResultStore:
    """One directory of per-query priced-row files for one database.

    The directory key matches the :class:`TruthStore`'s — generator and
    workload versions included — because a row is only replayable against
    the exact data and query shapes it was priced for.
    """

    def __init__(
        self,
        root: str | Path,
        scale: str,
        seed: int,
        correlation: float = 0.8,
        dataset: str = "imdb",
    ) -> None:
        self.root = Path(root)
        self.directory = (
            self.root
            / db_key(scale, seed, correlation=correlation, dataset=dataset)
            / "results"
        )
        self._index: StoreIndex | None = None
        #: malformed sweep rows skipped by :meth:`load` over this
        #: instance's lifetime (each one is also logged at WARNING)
        self.dropped_rows = 0
        #: deep cells invalidated by a malformed deep row (cell-wise:
        #: a deep cell is the replay unit, so one bad row drops — and
        #: re-prices — exactly its cell)
        self.dropped_deep_cells = 0

    @property
    def index(self) -> StoreIndex:
        """The directory's manifest index (built lazily, refreshed on use)."""
        if self._index is None:
            self._index = StoreIndex(self)
        return self._index

    @classmethod
    def for_spec(
        cls,
        root: str | Path,
        spec: SweepSpec | DeepSpec,
    ) -> "ResultStore":
        return cls(
            root,
            spec.scale,
            spec.seed,
            correlation=spec.correlation,
            dataset=spec.dataset,
        )

    def path(self, query_name: str) -> Path:
        return self.directory / f"{query_name}.json"

    # ------------------------------------------------------------------ #

    def load_all(self, query_name: str) -> StoredRows:
        """Everything stored for one query — both row kinds, parsed once.

        Corrupt, incompatible, or missing files read as empty.  A
        malformed *sweep row* drops only itself; a malformed *deep row*
        drops its whole cell (the cell is the deep replay unit).  Either
        way the remaining content still replays, the next sweep re-prices
        exactly what was dropped, and every drop is counted
        (:attr:`dropped_rows` / :attr:`dropped_deep_cells`) and logged.
        Version-1 files (sweep rows only) stay readable and simply hold
        no deep cells.
        """
        try:
            raw = json.loads(self.path(query_name).read_text())
        except (OSError, ValueError):
            return StoredRows()
        if (
            not isinstance(raw, dict)
            or raw.get("version") not in _READABLE_VERSIONS
        ):
            return StoredRows()
        rows: dict[tuple[str, str], SweepRow] = {}
        dropped = 0
        raw_rows = raw.get("rows", {})
        if not isinstance(raw_rows, dict):
            raw_rows = {}
        for key, payload in raw_rows.items():
            estimator, _, fingerprint = key.partition("|")
            try:
                row = SweepRow(**{
                    name: (
                        float(payload[name]) if name in _FLOAT_FIELDS
                        else str(payload[name])
                    )
                    for name in ROW_FIELDS
                })
            except (KeyError, TypeError, ValueError):
                dropped += 1
                continue
            rows[(estimator, fingerprint)] = row
        deep: dict[str, tuple[DeepRow, ...]] = {}
        dropped_cells = 0
        raw_deep = raw.get("deep", {})
        if not isinstance(raw_deep, dict):
            raw_deep = {}
        for cell_key, payloads in raw_deep.items():
            try:
                if not isinstance(payloads, list):
                    raise TypeError("deep cell payload is not a list")
                deep[str(cell_key)] = tuple(
                    _parse_deep_row(p) for p in payloads
                )
            except (KeyError, TypeError, ValueError):
                dropped_cells += 1
                continue
        stored = StoredRows(rows=rows, deep=deep)
        if dropped:
            self.dropped_rows += dropped
            log.warning(
                "result store %s: skipped %d malformed row(s) of %s "
                "(%d intact rows kept; the sweep will re-price the drops)",
                self.directory,
                dropped,
                query_name,
                len(stored.rows),
            )
        if dropped_cells:
            self.dropped_deep_cells += dropped_cells
            log.warning(
                "result store %s: dropped %d malformed deep cell(s) of %s "
                "(%d intact cells kept; the next deep sweep re-prices "
                "the drops)",
                self.directory,
                dropped_cells,
                query_name,
                len(stored.deep),
            )
        return stored

    def load(self, query_name: str) -> dict[tuple[str, str], SweepRow]:
        """Stored sweep rows for one query, keyed by (estimator, fp)."""
        return self.load_all(query_name).rows

    def load_deep(self, query_name: str) -> dict[str, tuple[DeepRow, ...]]:
        """Stored deep cells for one query, keyed by deep cell key."""
        return self.load_all(query_name).deep

    def _load_indexed(
        self, query_names: Iterable[str]
    ) -> dict[str, StoredRows]:
        """Parsed content for many queries via one manifest read.

        The index answers "which of these queries have rows at all" from
        a single (staleness-checked) manifest, so only files that hold
        rows are opened — on a thousand-query workload whose store covers
        a fraction of the grid, that is one index read plus a handful of
        file opens instead of a thousand opens.  Files the refresh just
        re-parsed (stale or new entries) are served from that parse
        rather than being opened a second time.
        """
        indexed, parsed = self.index.refresh_with_rows()
        return {
            name: (
                parsed[name] if name in parsed
                else self.load_all(name) if name in indexed
                else StoredRows()
            )
            for name in query_names
        }

    def load_many(
        self, query_names: Iterable[str]
    ) -> dict[str, dict[tuple[str, str], SweepRow]]:
        """Stored sweep rows for many queries via one manifest read."""
        return {
            name: stored.rows
            for name, stored in self._load_indexed(query_names).items()
        }

    def load_many_deep(
        self, query_names: Iterable[str]
    ) -> dict[str, dict[str, tuple[DeepRow, ...]]]:
        """Stored deep cells for many queries via one manifest read."""
        return {
            name: stored.deep
            for name, stored in self._load_indexed(query_names).items()
        }

    def scan(
        self, predicate: Callable[[SweepRow], bool] | None = None
    ) -> Iterator[SweepRow]:
        """Every stored sweep row (optionally filtered), in canonical order.

        Order is deterministic — queries sorted by name, rows sorted by
        ``(estimator, fingerprint)`` within a query — so batch folds over
        a scan are reproducible run to run.
        """
        indexed, parsed = self.index.refresh_with_rows()
        for query_name in sorted(indexed):
            rows = (
                parsed[query_name].rows if query_name in parsed
                else self.load(query_name)
            )
            for key in sorted(rows):
                row = rows[key]
                if predicate is None or predicate(row):
                    yield row

    def scan_deep(
        self, predicate: Callable[[DeepRow], bool] | None = None
    ) -> Iterator[DeepRow]:
        """Every stored deep row (optionally filtered), in canonical order.

        Queries sorted by name, cells sorted by deep cell key, rows in
        their cell's stored (= pricing) order.
        """
        indexed, parsed = self.index.refresh_with_rows()
        for query_name in sorted(indexed):
            deep = (
                parsed[query_name].deep if query_name in parsed
                else self.load_deep(query_name)
            )
            for cell_key in sorted(deep):
                for row in deep[cell_key]:
                    if predicate is None or predicate(row):
                        yield row

    def _write_merged(self, query_name: str, merged: StoredRows) -> Path:
        path = self.path(query_name)
        payload = {
            "version": _FORMAT_VERSION,
            "rows": {
                _row_key(estimator, fingerprint): asdict(row)
                for (estimator, fingerprint), row in sorted(
                    merged.rows.items()
                )
            },
            "deep": {
                cell_key: [asdict(row) for row in merged.deep[cell_key]]
                for cell_key in sorted(merged.deep)
            },
        }
        atomic_write_json(path, payload)
        return path

    def save(
        self,
        query_name: str,
        rows: dict[tuple[str, str], SweepRow],
    ) -> Path | None:
        """Atomically merge sweep ``rows`` into the query's file.

        The per-query ``flock`` makes the load-merge-write sequence safe
        against a concurrent sweep saving the same query: neither writer
        can drop the other's cells.  Deep cells already in the file are
        carried over untouched (and vice versa for :meth:`save_deep`);
        a version-1 file is upgraded to the current format on its first
        rewrite.
        """
        if not rows:
            return None
        path = self.path(query_name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with locked(path.parent / f".{query_name}.lock"):
            merged = self.load_all(query_name)
            merged.rows.update(rows)
            return self._write_merged(query_name, merged)

    def save_deep(
        self,
        query_name: str,
        cells: dict[str, tuple[DeepRow, ...]],
    ) -> Path | None:
        """Atomically merge complete deep ``cells`` into the query's file.

        Each value must be the cell's *complete* row tuple — the cell is
        the deep replay unit.  Sweep rows already in the file are carried
        over untouched, under the same per-query ``flock`` discipline.
        """
        if not cells:
            return None
        path = self.path(query_name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with locked(path.parent / f".{query_name}.lock"):
            merged = self.load_all(query_name)
            merged.deep.update(
                (key, tuple(rows)) for key, rows in cells.items()
            )
            return self._write_merged(query_name, merged)

    def known_queries(self) -> list[str]:
        """Names of queries with stored rows, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(
            p.stem
            for p in self.directory.glob("*.json")
            if not p.name.startswith(".")  # manifest, locks, temp files
        )


# --------------------------------------------------------------------- #
# progress reports
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class UnitReport:
    """Progress event for one completed work unit (= one query).

    ``index`` counts completions (1-based) out of ``total`` units;
    ``priced`` and ``cached`` split the unit's cells into freshly
    computed versus replayed from the result store.  ``unit_seconds`` is
    the unit's pricing wall time (0.0 for fully replayed units), measured
    where the work ran — inside the pool worker for pooled sweeps — so
    throughput numbers exclude IPC overhead.  ``setup_seconds`` is the
    one-time resource-construction cost (database generation or
    shared-memory attach, estimator builds) amortised onto the first unit
    its process completed: it is reported but **excluded** from
    ``cells_per_second``, which keeps sequential and pooled throughput
    comparable.  ``phases`` breaks the pricing seconds down by pipeline
    stage (:data:`~repro.pipeline.instrument.PHASE_NAMES`).
    """

    query: str
    index: int
    total: int
    priced: int
    cached: int
    unit_seconds: float = 0.0
    setup_seconds: float = 0.0
    phases: tuple[tuple[str, float], ...] = ()

    @property
    def cells_per_second(self) -> float:
        """Pricing throughput (0.0 for fully replayed units)."""
        if self.priced == 0 or self.unit_seconds <= 0:
            return 0.0
        return self.priced / self.unit_seconds

    def render(self) -> str:
        source = "result cache" if self.priced == 0 else (
            f"priced {self.priced}"
            + (f", {self.cached} cached" if self.cached else "")
        )
        timing = (
            f" in {self.unit_seconds:.2f}s"
            f" ({self.cells_per_second:.1f} cells/s)"
            if self.priced and self.unit_seconds > 0
            else ""
        )
        setup = (
            f" +{self.setup_seconds:.2f}s setup"
            if self.setup_seconds > 0
            else ""
        )
        breakdown = (
            " [" + " ".join(f"{n}={s:.2f}s" for n, s in self.phases) + "]"
            if self.phases
            else ""
        )
        return (
            f"[{self.index}/{self.total}] {self.query}: "
            f"{source}{timing}{setup}{breakdown}"
        )
