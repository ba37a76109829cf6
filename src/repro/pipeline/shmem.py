"""Shared-memory database shipping for pooled sweeps.

A pooled sweep used to pay a hidden multiplier: every pool worker's
initializer rebuilt the workload from scratch, so N workers meant N
generations of the *same* deterministic database.  This module ships the
master's already-generated database instead — the shared-nothing
replication of immutable inputs that large-scale designs avoid (ship
immutable column data once, fan out compute):

* :func:`publish_database` serialises the database's columnar arrays
  (``int64`` values, ``int32`` dictionary codes) into **one**
  ``multiprocessing.shared_memory`` segment and pickles the small
  remainder (table/column skeleton, string dictionaries, foreign keys,
  ANALYZE statistics) into a :class:`DatabaseManifest` that crosses the
  pool boundary through the initializer's args;
* :func:`attach_database` maps the segment back into numpy views —
  zero-copy, read-only, so a stray in-place write in any worker raises
  instead of corrupting every other worker's data — and rebuilds an
  identical :class:`~repro.catalog.schema.Database` around them;
* when shared memory is unavailable (platform, permissions, a full
  ``/dev/shm``) publishing falls back to pickling the whole database
  into the manifest — still shipped once, still zero worker-side
  generations, just not zero-copy.

Lifecycle discipline: the **publisher owns the segment**.  Workers
attach and close; only :meth:`PublishedDatabase.close` unlinks.  Each
attach immediately unregisters the segment from the worker's
``resource_tracker`` so a worker exiting cannot unlink a segment the
master and its siblings still use (CPython registers attaches and
creates alike).  The master additionally registers the segment with its
*own* tracker at creation, so even a master killed mid-sweep leaves no
leaked ``/dev/shm`` entry behind.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.catalog.column import Column
from repro.catalog.schema import Database, ForeignKey
from repro.catalog.table import Table

#: segment alignment for the int64 views
_ALIGN = 16


@dataclass(frozen=True)
class DatabaseManifest:
    """Everything a worker needs to reconstruct the published database.

    ``mode`` is ``"shm"`` (arrays live in the named ``segment``;
    ``payload`` pickles the skeleton) or ``"pickle"`` (``payload``
    pickles the whole database; ``segment`` is ``None``).  The manifest
    itself is small and picklable — it rides in the pool initializer's
    args under both fork and spawn start methods.
    """

    mode: str
    segment: str | None
    #: per-array records: (table, column, dtype str, offset, length)
    arrays: tuple
    payload: bytes


class PublishedDatabase:
    """The publisher's handle: the manifest plus segment ownership."""

    def __init__(self, manifest: DatabaseManifest, shm=None) -> None:
        self.manifest = manifest
        self._shm = shm

    def close(self) -> None:
        """Close *and unlink* the segment (idempotent, publisher-only)."""
        if self._shm is not None:
            shm, self._shm = self._shm, None
            try:
                shm.close()
            finally:
                shm.unlink()


def _skeleton(db: Database) -> dict:
    """The database minus its big arrays (picklable, small)."""
    tables = []
    for table in db.tables.values():
        columns = []
        for col in table.columns.values():
            dictionary = (
                None if col.dictionary is None else list(col.dictionary)
            )
            columns.append((col.name, col.kind, dictionary))
        tables.append((table.name, table.primary_key, columns))
    return {
        "name": db.name,
        "tables": tables,
        "foreign_keys": [
            (fk.table, fk.column, fk.ref_table, fk.ref_column)
            for fk in db.foreign_keys
        ],
        "statistics": db.statistics,
    }


def _pickle_manifest(db: Database) -> PublishedDatabase:
    payload = pickle.dumps(db, protocol=pickle.HIGHEST_PROTOCOL)
    return PublishedDatabase(
        DatabaseManifest(mode="pickle", segment=None, arrays=(), payload=payload)
    )


def publish_database(db: Database) -> PublishedDatabase:
    """Serialise ``db`` for zero-copy worker attach; see module docs.

    Falls back to the whole-database pickle manifest when the shared
    memory segment cannot be created (or the stdlib module is missing) —
    the caller never needs to care which mode it got.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError:
        return _pickle_manifest(db)

    records = []
    total = 0
    for table in db.tables.values():
        for col in table.columns.values():
            arr = np.ascontiguousarray(col.values)
            offset = (total + _ALIGN - 1) // _ALIGN * _ALIGN
            records.append((table.name, col.name, arr))
            total = offset + arr.nbytes
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    except OSError:
        return _pickle_manifest(db)
    try:
        arrays = []
        offset = 0
        for tname, cname, arr in records:
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            view = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset
            )
            view[:] = arr
            arrays.append(
                (tname, cname, arr.dtype.str, offset, int(arr.shape[0]))
            )
            offset += arr.nbytes
        payload = pickle.dumps(
            _skeleton(db), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception:
        shm.close()
        shm.unlink()
        raise
    return PublishedDatabase(
        DatabaseManifest(
            mode="shm", segment=shm.name, arrays=tuple(arrays),
            payload=payload,
        ),
        shm=shm,
    )


def _attach_segment(name: str):
    """Open an existing segment without adopting unlink responsibility.

    CPython (< 3.13) registers *attaches* with the resource tracker
    exactly like creates, so an attaching worker would — under the spawn
    start method, where it has a tracker of its own — unlink the
    master's live segment when it exits.  Unregistering after the fact
    is wrong too: under fork the workers share the master's tracker, so
    a worker's unregister would strip the master's own crash backstop
    (and double-unregisters make the tracker complain).  Suppressing the
    registration for the duration of the attach leaves exactly one
    registration alive — the publisher's — under both start methods.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _rebuild_column(name, kind, dictionary, values) -> Column:
    col = Column.__new__(Column)
    col.name = name
    col.kind = kind
    col.values = values
    if dictionary is None:
        col.dictionary = None
    else:
        d = np.empty(len(dictionary), dtype=object)
        d[:] = dictionary
        col.dictionary = d
    col._null_mask = None
    return col


def attach_database(manifest: DatabaseManifest) -> Database:
    """Reconstruct the published database in this process.

    In ``shm`` mode the column arrays are read-only views into the
    shared segment — no copy, no generation.  The attached segment
    handle is kept alive on the returned database (``_shm_handle``), so
    the views stay valid for the database's lifetime; workers never
    unlink.  In ``pickle`` mode the payload simply unpickles.
    """
    if manifest.mode == "pickle":
        return pickle.loads(manifest.payload)
    shm = _attach_segment(manifest.segment)
    skeleton = pickle.loads(manifest.payload)
    views: dict[tuple[str, str], np.ndarray] = {}
    for tname, cname, dtype, offset, length in manifest.arrays:
        view = np.ndarray(
            (length,), dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
        )
        view.flags.writeable = False
        views[(tname, cname)] = view
    db = Database(skeleton["name"])
    for tname, primary_key, columns in skeleton["tables"]:
        cols = [
            _rebuild_column(cname, kind, dictionary, views[(tname, cname)])
            for cname, kind, dictionary in columns
        ]
        db.add_table(Table(tname, cols, primary_key=primary_key))
    for tname, column, ref_table, ref_column in skeleton["foreign_keys"]:
        db.foreign_keys.append(
            ForeignKey(
                table=tname, column=column,
                ref_table=ref_table, ref_column=ref_column,
            )
        )
    db.statistics = skeleton["statistics"]
    db._shm_handle = shm
    return db
