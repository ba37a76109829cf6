"""Disk-persistable exact-cardinality cache.

The exhaustive truth oracle is by far the most expensive part of the
reproduction: every connected subexpression of every query is
materialised bottom-up.  Its *outputs*, however, are plain integers that
depend only on the database — which for generated instances is fully
determined by ``(scale, seed, correlation)`` — and the query name.  A
:class:`TruthStore` persists those counts to disk under exactly that key,
so the truth oracle for a given database is computed **once per database
ever**, not once per process: every later run (including every worker of
a multiprocessing sweep) preloads the counts in milliseconds.

Layout: ``root/imdb-<scale>-seed<seed>-corr<correlation>/<query>.json``,
one self-contained JSON file per query so that parallel workers touching
different queries never contend.  Writes are atomic (temp file + rename)
and merging: saving a payload unions its counts with whatever is already
on disk and keeps the wider coverage, so a size-capped Figure 3 run and a
full enumeration run accumulate into one file.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

#: re-export: the coverage rule is shared with the truth oracle's
#: cache-completeness claims, see :mod:`repro.util.coverage`
from repro.util.coverage import covers  # noqa: F401

try:  # pragma: no cover - always available on the supported platforms
    import fcntl
except ImportError:  # Windows: fall back to atomic-rename-only semantics
    fcntl = None  # type: ignore[assignment]

_FORMAT_VERSION = 1


@contextmanager
def locked(lock_path: Path):
    """Exclusive advisory lock held for a load-merge-write sequence.

    ``os.replace`` alone makes individual writes atomic but not the
    *merge*: two processes that both load, union, and rename can each
    persist a file missing the other's additions (a classic lost
    update).  Serialising the whole sequence on a per-query ``flock``
    closes that window; the lock file itself is empty and never removed
    (removing it would race lockers on the old inode).

    The guarantee is POSIX-scoped: where ``fcntl`` is unavailable
    (Windows), this degrades to atomic-rename-only semantics — writes
    never corrupt, but concurrent merges may lose cells and re-price
    them on the next run.
    """
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "a") as handle:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle, fcntl.LOCK_UN)

def _fsync_directory(path: Path) -> None:
    """Flush a directory's entries to disk (no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. Windows
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - some filesystems refuse
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, write: Callable[[TextIO], None]) -> None:
    """Write a text file via temp file + rename, durably.

    ``write`` fills the open temp file.  ``os.replace`` alone keeps
    *live* readers safe (they see the old or the new file, never a torn
    one) but says nothing about a crash: without an ``fsync`` of the
    temp file's data before the rename, the final name can point at an
    empty or truncated inode after a power loss — which reads as corrupt
    and silently re-prices everything the file held.  So: flush and
    fsync the data first, rename, then fsync the parent directory so
    the rename itself survives the crash.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.stem}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        # mkstemp creates 0600 files; a shared cache directory must be
        # readable by other users, so restore the umask-derived mode
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
        _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: Path, payload: dict) -> None:
    """:func:`atomic_write` of ``payload`` as JSON."""
    atomic_write(path, lambda handle: json.dump(payload, handle))


def db_key(
    scale: str, seed: int, correlation: float = 0.8, dataset: str = "imdb"
) -> str:
    """The directory name encoding one generated database's identity.

    Generator and workload versions are part of the key: counts and
    priced rows are only valid for the data a specific generator
    produced AND the query shapes they were computed for.  The truth
    store and the result store share this key so their files live side
    by side.
    """
    from repro.datagen import DATAGEN_VERSION
    from repro.workloads import WORKLOAD_VERSION

    return (
        f"{dataset}-{scale}-seed{seed}-corr{correlation:g}"
        f"-gen{DATAGEN_VERSION}-wl{WORKLOAD_VERSION}"
    )


@dataclass
class TruthPayload:
    """Exact counts previously computed for one query.

    ``max_size`` is the subset-size cap the counts cover (``None`` means
    every connected subset was enumerated).
    """

    counts: dict[int, int]
    unfiltered: dict[tuple[int, str], int]
    max_size: int | None

    def covers(self, max_size: int | None, full: int | None = None) -> bool:
        return covers(self.max_size, max_size, full)


class TruthStore:
    """One directory of per-query truth files for one generated database.

    Each query's counts live in one atomic-rename JSON file; merges are
    serialised by a per-query ``flock``.
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
        self.directory = self.root / db_key(
            scale, seed, correlation=correlation, dataset=dataset
        )

    def path(self, query_name: str) -> Path:
        return self.directory / f"{query_name}.json"

    # ------------------------------------------------------------------ #

    def load(self, query_name: str) -> TruthPayload | None:
        """The stored payload for ``query_name``, or ``None``.

        Corrupt or incompatible files are treated as absent — the sweep
        recomputes and overwrites them.
        """
        try:
            raw = json.loads(self.path(query_name).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict) or raw.get("version") != _FORMAT_VERSION:
            return None
        try:
            counts = {int(k): int(v) for k, v in raw["counts"].items()}
            unfiltered = {}
            for key, value in raw.get("unfiltered", {}).items():
                subset, _, alias = key.partition(":")
                unfiltered[(int(subset), alias)] = int(value)
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
        return TruthPayload(
            counts=counts, unfiltered=unfiltered, max_size=raw.get("max_size")
        )

    def save(
        self,
        query_name: str,
        counts: dict[int, int],
        unfiltered: dict[tuple[int, str], int] | None = None,
        max_size: int | None = None,
    ) -> Path:
        """Merge-and-write the counts for ``query_name``, atomically and
        under a per-query exclusive lock (two workers saving the same
        query cannot drop each other's counts).

        New values win on key conflicts (they are recomputations of the
        same exact quantity) and the wider coverage claim is kept, so a
        size-capped run and a full enumeration accumulate into one file.
        """
        path = self.path(query_name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with locked(path.parent / f".{query_name}.lock"):
            existing = self.load(query_name)
            unfiltered = unfiltered or {}
            if existing is not None:
                counts = {**existing.counts, **counts}
                unfiltered = {**existing.unfiltered, **unfiltered}
                if existing.covers(max_size):
                    max_size = existing.max_size
            atomic_write_json(path, {
                "version": _FORMAT_VERSION,
                "max_size": max_size,
                "counts": {str(k): v for k, v in sorted(counts.items())},
                "unfiltered": {
                    f"{subset}:{alias}": v
                    for (subset, alias), v in sorted(unfiltered.items())
                },
            })
        return path

    def known_queries(self) -> list[str]:
        """Names of queries with stored truth, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(p.stem for p in self.directory.glob("*.json"))
