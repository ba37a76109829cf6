"""Manifest index over a :class:`ResultStore` directory.

A sweep over a thousand-query workload used to open (and JSON-parse)
one per-query result file per query just to discover which cells it
could replay.  The :class:`StoreIndex` collapses that discovery into one
manifest read: a single ``.index.json`` file in the store directory maps
``query -> (file, mtime_ns, size, row count, row keys)``, where a row
key is the ``estimator|config-fingerprint`` remainder of the cell's
:class:`~repro.pipeline.tasks.CellKey`.  Coverage questions ("which of
these cells exist?") are answered from the manifest alone; only files
that actually hold wanted rows are opened.

Staleness is checked per file, not trusted: every :meth:`refresh` stats
the directory's row files and rebuilds the entry of any file whose
``(mtime_ns, size)`` no longer matches the manifest — so a concurrent
sweep appending rows through its own store handle can never cause stale
lookups here, it only costs one re-read of the changed file.  A matching
stat is still not proof: a same-size rewrite landing within the
filesystem's mtime granularity of the original write is invisible to
``(mtime_ns, size)``.  Entries therefore also record *when* they were
indexed, and a file whose mtime is not strictly older than its entry's
index time is treated as unverified and re-parsed (the same "racy
clean" rule git's index applies).  Entries of deleted files are
dropped; files the manifest has never seen are indexed.

The manifest is a cache of the directory, never a source of truth: a
missing, corrupt, or version-incompatible manifest is simply rebuilt
from the row files.  Writes are atomic snapshots (temp file + rename,
serialised by a per-directory ``flock``), so readers never see a torn
manifest; two *concurrent* refreshes may each persist their own view
and the later one wins, which at worst costs the loser's entries a
re-parse on the next read — correctness always comes from the per-file
stat check, not from the manifest being current.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.pipeline.truthstore import atomic_write_json, locked

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.pipeline.results import ResultStore

#: version 3 adds ``indexed_at_ns`` (the racy-clean staleness stamp);
#: older manifests are simply rebuilt from the row files — the row
#: files, not the manifest, are the source of truth
_INDEX_VERSION = 3

#: manifest filename; dot-prefixed so per-query globs can skip it
INDEX_FILENAME = ".index.json"


def _index_clock_ns() -> int:
    """The staleness stamp's clock, comparable against file mtimes.

    File timestamps come from the kernel's *coarse* (tick-granular)
    clock, which can lag ``time.time_ns()`` by a tick — stamping entries
    from the fine clock would let a write landing just after a refresh
    carry an mtime below the stamp and be wrongly trusted.  Reading the
    coarse clock itself makes the comparison sound: any write after the
    stamp gets ``mtime >= stamp``.
    """
    coarse = getattr(time, "CLOCK_REALTIME_COARSE", None)
    if coarse is not None:
        return time.clock_gettime_ns(coarse)
    return time.time_ns()  # pragma: no cover - non-Linux fallback


def row_key(estimator: str, config_fingerprint: str) -> str:
    """The manifest's per-file row key (matches the store's row keys)."""
    return f"{estimator}|{config_fingerprint}"


class StoreIndex:
    """Lazily maintained manifest of one result-store directory.

    ``entries`` maps query name to a dict with keys ``file`` (name of the
    per-query row file), ``mtime_ns`` / ``size`` (the stat the entry was
    built from), ``row_count``, and ``keys`` (sorted row keys).  All
    read APIs call :meth:`refresh` first, so callers always observe the
    directory's current contents.
    """

    def __init__(self, store: "ResultStore") -> None:
        self.store = store
        self.path = store.directory / INDEX_FILENAME
        self._entries: dict[str, dict] | None = None
        #: manifest rebuilds performed over this instance's lifetime
        #: (file-level: one stale or new file = one rebuild)
        self.rebuilt_entries = 0

    # ------------------------------------------------------------------ #
    # manifest I/O
    # ------------------------------------------------------------------ #

    def _read_manifest(self) -> dict[str, dict]:
        import json

        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict) or raw.get("version") != _INDEX_VERSION:
            return {}
        files = raw.get("files")
        return files if isinstance(files, dict) else {}

    def _write_manifest(self, entries: dict[str, dict]) -> None:
        with locked(self.store.directory / ".index.lock"):
            atomic_write_json(
                self.path, {"version": _INDEX_VERSION, "files": entries}
            )

    # ------------------------------------------------------------------ #

    def refresh(self) -> dict[str, dict]:
        """Bring the manifest up to date with the directory; return it."""
        entries, _ = self.refresh_with_rows()
        return entries

    def refresh_with_rows(self) -> tuple[dict[str, dict], dict[str, "object"]]:
        """Refresh the manifest; also return rows parsed while rebuilding.

        Fresh entries (matching ``mtime_ns`` and ``size``) are served
        from the manifest without opening their row files; stale or new
        files are re-read and their entries rebuilt; entries of deleted
        files are dropped.  The manifest is rewritten only when something
        changed.

        Rebuilding an entry costs a full parse of its row file — the
        second return value hands the already-parsed
        :class:`~repro.pipeline.results.StoredRows` back so
        ``load_many``/``scan`` (and their deep counterparts) can serve
        them without parsing (or drop-counting malformed rows) a second
        time.
        """
        directory = self.store.directory
        if not directory.is_dir():
            self._entries = {}
            return {}, {}
        manifest = (
            self._entries if self._entries is not None
            else self._read_manifest()
        )
        entries: dict[str, dict] = {}
        parsed_rows: dict[str, object] = {}
        changed = False
        # captured before any stat: an entry is only trustworthy if its
        # file's mtime is strictly older than when the entry was indexed
        # (a same-size rewrite inside mtime granularity is otherwise
        # indistinguishable from the indexed content)
        now_ns = _index_clock_ns()
        for path in sorted(directory.glob("*.json")):
            if path.name.startswith("."):
                continue  # the manifest itself, lock files, temp files
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted between glob and stat
            query = path.stem
            old = manifest.get(query)
            if (
                isinstance(old, dict)
                and old.get("mtime_ns") == stat.st_mtime_ns
                and old.get("size") == stat.st_size
                and stat.st_mtime_ns < old.get("indexed_at_ns", 0)
            ):
                entries[query] = old
                continue
            stored = self.store.load_all(query)
            parsed_rows[query] = stored
            entries[query] = {
                "file": path.name,
                "mtime_ns": stat.st_mtime_ns,
                "size": stat.st_size,
                "indexed_at_ns": now_ns,
                "row_count": len(stored.rows),
                "keys": sorted(row_key(e, f) for (e, f) in stored.rows),
                "deep_count": sum(
                    len(rows) for rows in stored.deep.values()
                ),
                "deep_keys": sorted(stored.deep),
            }
            self.rebuilt_entries += 1
            changed = True
        if set(manifest) != set(entries):
            changed = True
        if changed:
            self._write_manifest(entries)
        self._entries = entries
        return entries, parsed_rows

    # ------------------------------------------------------------------ #
    # lookups (all refresh first)
    # ------------------------------------------------------------------ #

    def queries(self) -> list[str]:
        """Queries with at least one stored row, sorted."""
        return sorted(self.refresh())

    def row_keys(self, query: str) -> tuple[str, ...]:
        """Row keys stored for ``query`` (empty if none)."""
        entry = self.refresh().get(query)
        return tuple(entry["keys"]) if entry else ()

    def lookup(self, query: str, estimator: str, fingerprint: str) -> bool:
        """Does the store hold this cell's row (per the fresh manifest)?"""
        entry = self.refresh().get(query)
        return entry is not None and row_key(estimator, fingerprint) in entry["keys"]

    def deep_keys(self, query: str) -> tuple[str, ...]:
        """Deep cell keys stored for ``query`` (empty if none)."""
        entry = self.refresh().get(query)
        return tuple(entry.get("deep_keys", ())) if entry else ()

    def lookup_deep(self, query: str, cell_key: str) -> bool:
        """Does the store hold this complete deep cell (per the manifest)?"""
        entry = self.refresh().get(query)
        return entry is not None and cell_key in entry.get("deep_keys", ())

    def invalidate(self) -> None:
        """Drop the in-memory manifest; the next read re-stats everything.

        (Reads always re-stat row files anyway — this additionally forces
        the on-disk manifest to be re-read, e.g. after tests tamper with
        it directly.)
        """
        self._entries = None

    def total_rows(self) -> int:
        """Total stored sweep rows across the directory, from the manifest."""
        return sum(e["row_count"] for e in self.refresh().values())

    def total_deep_rows(self) -> int:
        """Total stored deep rows across the directory, from the manifest."""
        return sum(e.get("deep_count", 0) for e in self.refresh().values())
