"""SQLite backend for the result and truth stores.

The JSON backend (one atomic-rename file per query) is the format of
record and stays the default; this module is the **serving** backend the
ROADMAP's estimation-as-a-service item asks for: one ``store.sqlite``
per database-key directory holding both stores' content in indexed
tables, opened in WAL mode so any number of concurrent readers replay
artifacts while writers merge — no per-file parses, no flock ladders,
no manifest staleness races.

Schema (see SNIPPETS Snippet 1 / Paper-Scanner for the idiom):

* ``sweep_rows(query, row_key, payload)`` — one shallow sweep cell per
  row, keyed by the ``estimator|config-fingerprint`` remainder of the
  cell's content key; ``payload`` is the row's JSON object, exactly the
  value the JSON backend keeps under the same key, so floats round-trip
  through ``repr`` identically in both backends.
* ``deep_cells(query, cell_key, payload)`` — one *complete* deep cell
  per row (the cell is the replay unit and the transaction unit);
  ``payload`` is the cell's JSON row list.
* ``truth_queries`` / ``truth_counts`` / ``truth_unfiltered`` — the
  truth store's coverage stamps and exact counts.  Subsets and counts
  are stored as TEXT: subset bitsets reach bit 63 (past SQLite's signed
  integer range) and exact cardinalities are unbounded Python ints.
* ``manifest(query, row_count, keys, deep_count, deep_keys)`` — the
  materialised per-query listing that replaces the ``.index.json``
  scan; updated in the same transaction as every merge, so it is never
  stale by construction.

Pragmas: ``journal_mode=WAL`` (readers never block writers),
``synchronous=NORMAL`` (a power loss may drop the last commits but can
never corrupt the database), ``busy_timeout`` (writers queue instead of
failing), ``foreign_keys=ON``.

Backend selection: the ``REPRO_STORE`` environment variable (``json``
| ``sqlite``) is the ambient default, every store constructor takes an
explicit ``backend=`` override, and :func:`set_store_backend` exports
the choice to the environment so pool and queue workers — fork and
spawn alike — inherit it.  The backend is
pure storage policy: both backends hold bit-identical rows, so it is
never part of a cell key or spec fingerprint.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.pipeline.truthstore import (
    TruthPayload,
    merged_truth,
    parse_truth_raw,
    truth_payload_dict,
)

#: environment variable naming the ambient store backend
STORE_ENV = "REPRO_STORE"

#: the backends a store constructor accepts
STORE_BACKENDS = ("json", "sqlite")

#: one shared database file per db-key directory, next to the JSON files
STORE_FILENAME = "store.sqlite"

#: seconds a writer waits on a locked database before giving up
BUSY_TIMEOUT_S = 30.0

#: schema version stamped into ``meta``; bumped on incompatible changes
_SQL_FORMAT_VERSION = 1

#: the store's per-query payload format (matches the JSON backend's)
_RESULT_VERSION = 2

_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS sweep_rows (
        query TEXT NOT NULL,
        row_key TEXT NOT NULL,
        payload TEXT NOT NULL,
        PRIMARY KEY (query, row_key)
    )""",
    """CREATE TABLE IF NOT EXISTS deep_cells (
        query TEXT NOT NULL,
        cell_key TEXT NOT NULL,
        payload TEXT NOT NULL,
        PRIMARY KEY (query, cell_key)
    )""",
    """CREATE TABLE IF NOT EXISTS manifest (
        query TEXT PRIMARY KEY,
        row_count INTEGER NOT NULL DEFAULT 0,
        keys TEXT NOT NULL DEFAULT '[]',
        deep_count INTEGER NOT NULL DEFAULT 0,
        deep_keys TEXT NOT NULL DEFAULT '[]'
    )""",
    """CREATE TABLE IF NOT EXISTS truth_queries (
        query TEXT PRIMARY KEY,
        max_size INTEGER
    )""",
    """CREATE TABLE IF NOT EXISTS truth_counts (
        query TEXT NOT NULL
            REFERENCES truth_queries(query) ON DELETE CASCADE,
        subset TEXT NOT NULL,
        count TEXT NOT NULL,
        PRIMARY KEY (query, subset)
    )""",
    """CREATE TABLE IF NOT EXISTS truth_unfiltered (
        query TEXT NOT NULL
            REFERENCES truth_queries(query) ON DELETE CASCADE,
        subset TEXT NOT NULL,
        alias TEXT NOT NULL,
        count TEXT NOT NULL,
        PRIMARY KEY (query, subset, alias)
    )""",
)


def resolve_store_backend(backend: str | None = None) -> str:
    """The effective store backend: explicit choice, else ``$REPRO_STORE``,
    else ``json``."""
    resolved = backend or os.environ.get(STORE_ENV) or "json"
    if resolved not in STORE_BACKENDS:
        raise ValueError(
            f"unknown store backend {resolved!r}; "
            f"choose from: {', '.join(STORE_BACKENDS)}"
        )
    return resolved


def set_store_backend(backend: str | None) -> str:
    """Pin the ambient backend (exported to the environment so pool and
    queue workers, fork and spawn alike, inherit the choice)."""
    resolved = resolve_store_backend(backend)
    os.environ[STORE_ENV] = resolved
    return resolved


def sqlite_path(db_directory: str | Path) -> Path:
    """Where a db-key directory's shared SQLite store lives."""
    return Path(db_directory) / STORE_FILENAME


class SqlStoreError(RuntimeError):
    """An incompatible or inconsistent SQLite store file."""


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s database to WAL, waiting out racing switchers.

    Several processes opening a fresh file at once all ask for the
    journal-mode change, which needs an exclusive lock; SQLite reports
    the loser's collision as "database is locked" without consulting the
    busy handler, so the wait is done here, bounded by the same timeout.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
            time.sleep(0.01)


class SqlStore:
    """One ``store.sqlite``: the SQLite face of both stores' content.

    Connections are per-thread and per-process (``sqlite3`` connections
    survive neither a fork nor cross-thread use), opened lazily so a
    store object can be constructed cheaply, pickled conceptually (it
    carries only a path), and handed to pool workers.  All writes run
    inside ``BEGIN IMMEDIATE`` transactions: a merge is atomic, durable
    to WAL semantics, and two concurrent mergers queue on the write lock
    instead of losing updates.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # connection management
    # ------------------------------------------------------------------ #

    def _connect(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is not None and self._local.pid == os.getpid():
            return conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            self.path, timeout=BUSY_TIMEOUT_S, isolation_level=None
        )
        _enable_wal(conn)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
        conn.execute("BEGIN IMMEDIATE")
        try:
            for statement in _SCHEMA:
                conn.execute(statement)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'format'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('format', ?)",
                    (str(_SQL_FORMAT_VERSION),),
                )
            elif row[0] != str(_SQL_FORMAT_VERSION):
                raise SqlStoreError(
                    f"sqlite store {self.path} has format version "
                    f"{row[0]!r}; this build reads {_SQL_FORMAT_VERSION}"
                )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            conn.close()
            raise
        self._local.conn = conn
        self._local.pid = os.getpid()
        return conn

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None and self._local.pid == os.getpid():
            conn.close()
        self._local.conn = None

    def _execute_txn(self, work) -> None:
        """Run ``work(conn)`` inside one immediate (write) transaction."""
        conn = self._connect()
        conn.execute("BEGIN IMMEDIATE")
        try:
            work(conn)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------------ #
    # result half
    # ------------------------------------------------------------------ #

    def load_query_raw(self, query: str) -> dict | None:
        """One query's raw payload, shaped exactly like a JSON store file
        (``{"version": 2, "rows": {...}, "deep": {...}}``), or ``None``.
        """
        if not self.path.exists():
            return None
        conn = self._connect()
        rows = {
            key: json.loads(payload)
            for key, payload in conn.execute(
                "SELECT row_key, payload FROM sweep_rows WHERE query = ?",
                (query,),
            )
        }
        deep = {
            key: json.loads(payload)
            for key, payload in conn.execute(
                "SELECT cell_key, payload FROM deep_cells WHERE query = ?",
                (query,),
            )
        }
        if not rows and not deep:
            return None
        return {"version": _RESULT_VERSION, "rows": rows, "deep": deep}

    @staticmethod
    def _refresh_manifest(conn: sqlite3.Connection, query: str) -> None:
        """Rebuild one query's materialised listing inside the caller's
        transaction — the manifest can never be stale or torn."""
        keys = sorted(
            k
            for (k,) in conn.execute(
                "SELECT row_key FROM sweep_rows WHERE query = ?", (query,)
            )
        )
        deep = [
            (key, len(json.loads(payload)))
            for key, payload in conn.execute(
                "SELECT cell_key, payload FROM deep_cells WHERE query = ?",
                (query,),
            )
        ]
        deep.sort()
        conn.execute(
            "INSERT OR REPLACE INTO manifest "
            "(query, row_count, keys, deep_count, deep_keys) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                query,
                len(keys),
                json.dumps(keys),
                sum(n for _, n in deep),
                json.dumps([key for key, _ in deep]),
            ),
        )

    def merge_rows(self, query: str, payloads: dict[str, dict]) -> None:
        """Upsert sweep-row payloads (keyed by row key) in one transaction."""

        def work(conn: sqlite3.Connection) -> None:
            conn.executemany(
                "INSERT OR REPLACE INTO sweep_rows (query, row_key, payload)"
                " VALUES (?, ?, ?)",
                [
                    (query, key, json.dumps(payload))
                    for key, payload in payloads.items()
                ],
            )
            self._refresh_manifest(conn, query)

        self._execute_txn(work)

    def merge_deep(self, query: str, payloads: dict[str, list]) -> None:
        """Upsert complete deep-cell payloads in one transaction (the
        cell is the replay unit, so it is also the write unit)."""

        def work(conn: sqlite3.Connection) -> None:
            conn.executemany(
                "INSERT OR REPLACE INTO deep_cells (query, cell_key, payload)"
                " VALUES (?, ?, ?)",
                [
                    (query, key, json.dumps(payload))
                    for key, payload in payloads.items()
                ],
            )
            self._refresh_manifest(conn, query)

        self._execute_txn(work)

    def manifest(self) -> dict[str, dict]:
        """Every query's listing entry — the indexed replacement for the
        JSON backend's ``.index.json`` scan."""
        if not self.path.exists():
            return {}
        conn = self._connect()
        return {
            query: {
                "row_count": row_count,
                "keys": json.loads(keys),
                "deep_count": deep_count,
                "deep_keys": json.loads(deep_keys),
            }
            for query, row_count, keys, deep_count, deep_keys in conn.execute(
                "SELECT query, row_count, keys, deep_count, deep_keys "
                "FROM manifest ORDER BY query"
            )
        }

    def result_queries(self) -> list[str]:
        """Queries with at least one stored row of either kind, sorted."""
        return sorted(
            q
            for q, e in self.manifest().items()
            if e["row_count"] or e["deep_count"]
        )

    # ------------------------------------------------------------------ #
    # truth half
    # ------------------------------------------------------------------ #

    def _load_truth_conn(
        self, conn: sqlite3.Connection, query: str
    ) -> TruthPayload | None:
        row = conn.execute(
            "SELECT max_size FROM truth_queries WHERE query = ?", (query,)
        ).fetchone()
        if row is None:
            return None
        counts = {
            int(subset): int(count)
            for subset, count in conn.execute(
                "SELECT subset, count FROM truth_counts WHERE query = ?",
                (query,),
            )
        }
        unfiltered = {
            (int(subset), alias): int(count)
            for subset, alias, count in conn.execute(
                "SELECT subset, alias, count FROM truth_unfiltered "
                "WHERE query = ?",
                (query,),
            )
        }
        return TruthPayload(
            counts=counts, unfiltered=unfiltered, max_size=row[0]
        )

    def load_truth(self, query: str) -> TruthPayload | None:
        if not self.path.exists():
            return None
        return self._load_truth_conn(self._connect(), query)

    def merge_truth(
        self,
        query: str,
        counts: dict[int, int],
        unfiltered: dict[tuple[int, str], int],
        max_size: int | None,
    ) -> None:
        """Merge one query's counts under the shared union rule, as one
        immediate transaction (the sqlite analogue of the JSON backend's
        flock'd load-merge-rename)."""

        def work(conn: sqlite3.Connection) -> None:
            existing = self._load_truth_conn(conn, query)
            _, _, cover = merged_truth(existing, counts, unfiltered, max_size)
            # a real upsert, not INSERT OR REPLACE: REPLACE deletes the
            # parent row first, and ON DELETE CASCADE would silently wipe
            # every existing count of the query
            conn.execute(
                "INSERT INTO truth_queries (query, max_size) VALUES (?, ?) "
                "ON CONFLICT(query) DO UPDATE SET max_size = excluded.max_size",
                (query, cover),
            )
            conn.executemany(
                "INSERT OR REPLACE INTO truth_counts (query, subset, count)"
                " VALUES (?, ?, ?)",
                [
                    (query, str(subset), str(count))
                    for subset, count in counts.items()
                ],
            )
            conn.executemany(
                "INSERT OR REPLACE INTO truth_unfiltered "
                "(query, subset, alias, count) VALUES (?, ?, ?, ?)",
                [
                    (query, str(subset), alias, str(count))
                    for (subset, alias), count in unfiltered.items()
                ],
            )

        self._execute_txn(work)

    def truth_queries(self) -> list[str]:
        """Names of queries with stored truth, sorted."""
        if not self.path.exists():
            return []
        conn = self._connect()
        return sorted(
            q
            for (q,) in conn.execute("SELECT query FROM truth_queries")
        )


# --------------------------------------------------------------------- #
# migration
# --------------------------------------------------------------------- #


class MigrationError(RuntimeError):
    """A migrated store failed its row-count or content verification."""


@dataclass
class MigrateStats:
    """What migrating one db-key directory moved (and verified)."""

    directory: str
    truth_queries: int = 0
    truth_counts: int = 0
    result_queries: int = 0
    sweep_rows: int = 0
    deep_rows: int = 0

    def render(self) -> str:
        return (
            f"{self.directory}: migrated {self.truth_queries} truth "
            f"file(s) / {self.truth_counts} count(s), "
            f"{self.result_queries} result file(s) / {self.sweep_rows} "
            f"sweep row(s) / {self.deep_rows} deep row(s); verified"
        )


def migrate_directory(db_directory: str | Path) -> MigrateStats:
    """Convert one db-key directory's JSON stores into its ``store.sqlite``.

    Idempotent (merges are upserts) and verifying: after the copy, every
    query is read back through the SQLite backend and compared — parsed
    payload for parsed payload, row ``repr`` for row ``repr`` — against
    what the JSON backend serves.  Any mismatch raises
    :class:`MigrationError` and the JSON files are never touched.
    """
    from repro.pipeline.results import parse_stored_raw

    directory = Path(db_directory)
    sql = SqlStore(sqlite_path(directory))
    stats = MigrateStats(directory=str(directory))

    for path in sorted(directory.glob("*.json")):
        if path.name.startswith("."):
            continue
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        payload = parse_truth_raw(raw)
        if payload is None:
            continue
        sql.merge_truth(
            path.stem, payload.counts, payload.unfiltered, payload.max_size
        )
        migrated = sql.load_truth(path.stem)
        if migrated != payload:
            raise MigrationError(
                f"truth payload mismatch after migrating {path}"
            )
        stats.truth_queries += 1
        stats.truth_counts += len(payload.counts)

    results_dir = directory / "results"
    if results_dir.is_dir():
        for path in sorted(results_dir.glob("*.json")):
            if path.name.startswith("."):
                continue
            try:
                raw = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            stored, _, _ = parse_stored_raw(raw)
            if not stored.rows and not stored.deep:
                continue
            from dataclasses import asdict

            if stored.rows:
                sql.merge_rows(
                    path.stem,
                    {
                        f"{estimator}|{fingerprint}": asdict(row)
                        for (estimator, fingerprint), row in
                        stored.rows.items()
                    },
                )
            if stored.deep:
                sql.merge_deep(
                    path.stem,
                    {
                        key: [asdict(row) for row in rows]
                        for key, rows in stored.deep.items()
                    },
                )
            migrated, _, _ = parse_stored_raw(sql.load_query_raw(path.stem))
            same_rows = {
                key: repr(row) for key, row in migrated.rows.items()
            } == {key: repr(row) for key, row in stored.rows.items()}
            same_deep = {
                key: tuple(repr(row) for row in rows)
                for key, rows in migrated.deep.items()
            } == {
                key: tuple(repr(row) for row in rows)
                for key, rows in stored.deep.items()
            }
            if not (same_rows and same_deep):
                raise MigrationError(
                    f"result content mismatch after migrating {path}"
                )
            stats.result_queries += 1
            stats.sweep_rows += len(stored.rows)
            stats.deep_rows += sum(len(r) for r in stored.deep.values())

    return stats


def migrate_root(root: str | Path) -> list[MigrateStats]:
    """Migrate every db-key directory under a cache root; see
    :func:`migrate_directory`."""
    root = Path(root)
    stats = []
    for directory in sorted(p for p in root.iterdir() if p.is_dir()):
        stats.append(migrate_directory(directory))
    return stats
