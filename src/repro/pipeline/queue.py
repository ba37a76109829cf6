"""Lease-based work queue: drain any kind's sweep with N processes.

The pool scheduler (:class:`~repro.pipeline.scheduler.CellScheduler`)
parallelises *within* one driver process; this module parallelises
*across* processes that share nothing but a filesystem — the LSST-style
shape where derived products are first-class partitioned data produced
by workers leasing well-defined units of work.

A :class:`WorkQueue` is a directory.  ``repro work enqueue`` decomposes
a spec through its :class:`~repro.pipeline.kinds.CellKind`, subtracts
cells the result store already holds, and writes one JSON file per
still-unpriced unit into ``pending/``; the file *name* carries the
largest-first schedule (``999 - n_relations`` then workload index, so a
plain sorted directory listing is the claim order) and the unit's
content digest (so re-enqueueing the same grid delta is idempotent).
Workers claim by renaming ``pending/ → leased/`` under a per-unit
``flock`` — rename is atomic, the flock serialises the check-then-rename
— and stamp a heartbeat file.  A worker that dies mid-unit simply stops
heartbeating; once the stamp is older than the queue's ``lease_ttl``
any other worker reclaims the unit back to ``pending/`` under the same
lock.  Completion renames ``leased/ → done/``.

Workers ship rows through the :class:`~repro.pipeline.results.
ResultStore`'s existing merge discipline (per-query flock,
load-merge-write, sorted serialisation), which is what makes the whole
protocol idempotent: if a lease expires mid-pricing and two workers
price the same unit, both merge bit-identical rows into the same keys
and exactly one wins the ``complete`` rename.  A drained queue leaves
the store byte-identical to a sequential ``run_cells`` of the same
spec.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.pipeline.kinds import KINDS, CellKind, spec_digest, unit_digest
from repro.pipeline.results import ResultStore
from repro.pipeline.tasks import CellUnit
from repro.pipeline.truthstore import atomic_write_json, locked

#: queue directory format version; version 3 spec files carry no oracle
#: process count and version 2 ones no store engine, so an older queue
#: (which may name either) is refused
_QUEUE_VERSION = 3

#: default seconds a silent lease survives before any worker reclaims it
DEFAULT_LEASE_TTL = 120.0

#: default seconds of wall-clock disagreement tolerated between workers
#: sharing a queue (heartbeat stamps are absolute ``time.time()`` values,
#: so cross-machine skew directly widens or narrows every lease)
DEFAULT_CLOCK_SKEW = 5.0


@dataclass(frozen=True)
class Lease:
    """One claimed unit: the ticket a worker holds while pricing it."""

    unit_id: str
    filename: str
    payload: dict
    worker_id: str


@dataclass(frozen=True)
class EnqueueStats:
    """What one enqueue call did (everything counted in cells/units)."""

    spec_key: str
    enqueued_units: int
    enqueued_cells: int
    cached_cells: int
    already_queued_units: int

    def render(self) -> str:
        return (
            f"spec {self.spec_key}: enqueued {self.enqueued_units} unit(s) "
            f"/ {self.enqueued_cells} cell(s), {self.cached_cells} cell(s) "
            f"already stored, {self.already_queued_units} unit(s) already "
            f"queued"
        )


class WorkQueue:
    """A filesystem directory of leasable work units; see module docs.

    Safe for any number of concurrent enqueuers and workers on one
    machine or on several sharing the filesystem (the protocol uses only
    atomic rename + ``flock``, both NFS-workable where flock is).
    """

    def __init__(
        self,
        root: str | Path,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock_skew: float = DEFAULT_CLOCK_SKEW,
    ) -> None:
        self.root = Path(root)
        for sub in ("specs", "pending", "leased", "done", "leases", "locks"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        config_path = self.root / "queue.json"
        if config_path.exists():
            config = json.loads(config_path.read_text())
            if config.get("version") != _QUEUE_VERSION:
                raise ValueError(
                    f"work queue {self.root} has format version "
                    f"{config.get('version')!r}; this build reads "
                    f"{_QUEUE_VERSION}"
                )
            # the directory's ttl (and skew tolerance) wins: every worker
            # must agree on when a lease is stale, whatever their local
            # defaults are; queues from before the skew field default it
            self.lease_ttl = float(config["lease_ttl"])
            self.clock_skew = float(
                config.get("clock_skew", DEFAULT_CLOCK_SKEW)
            )
        else:
            self.lease_ttl = float(lease_ttl)
            self.clock_skew = float(clock_skew)
            atomic_write_json(
                config_path,
                {
                    "version": _QUEUE_VERSION,
                    "lease_ttl": self.lease_ttl,
                    "clock_skew": self.clock_skew,
                },
            )

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #

    def _lock(self, unit_id: str) -> Path:
        return self.root / "locks" / f"{unit_id}.lock"

    def _lease_path(self, unit_id: str) -> Path:
        return self.root / "leases" / f"{unit_id}.json"

    def _queued_ids(self) -> set[str]:
        ids: set[str] = set()
        for state in ("pending", "leased", "done"):
            for path in (self.root / state).glob("*.json"):
                ids.add(path.stem.rsplit("-", 1)[-1])
        return ids

    @staticmethod
    def _unit_filename(unit: CellUnit, unit_id: str) -> str:
        # lexicographic claim order == the scheduler's largest-first
        # order: descending n_relations, then workload index
        return (
            f"{999 - unit.n_relations:03d}-{unit.workload_index:05d}"
            f"-{unit_id}.json"
        )

    # ------------------------------------------------------------------ #
    # enqueue
    # ------------------------------------------------------------------ #

    def enqueue(
        self,
        spec,
        kind: CellKind,
        result_root: str | Path,
        truth_root: str | Path | None = None,
        resume: bool = True,
    ) -> EnqueueStats:
        """Queue a spec's still-unpriced units; idempotent per grid delta.

        ``result_root`` is mandatory — workers ship rows back through
        the result store, so a queue drain without one would compute and
        discard.  With ``resume`` (the default) cells the store already
        holds are subtracted exactly like a driver resume; units whose
        every cell is stored are not queued at all.  Re-enqueueing the
        same delta is a no-op: unit files are content-keyed by
        :func:`~repro.pipeline.kinds.unit_digest`.
        """
        spec_key = spec_digest(kind, spec)
        atomic_write_json(
            self.root / "specs" / f"{spec_key}.json",
            {
                "version": _QUEUE_VERSION,
                "kind": kind.name,
                "spec": kind.spec_payload(spec),
                "result_root": str(result_root),
                "truth_root": (
                    str(truth_root) if truth_root is not None else None
                ),
            },
        )

        units = kind.decompose(spec)
        store = ResultStore.for_spec(result_root, spec)
        stored = (
            kind.load_stored(store, [u.query for u in units])
            if resume
            else {}
        )
        queued = self._queued_ids()
        enqueued_units = enqueued_cells = cached = already = 0
        for unit in units:
            stored_q = stored.get(unit.query, {})
            pending = tuple(
                cell
                for cell in unit.cells
                if stored_q.get(kind.store_key(cell)) is None
            )
            cached += len(unit.cells) - len(pending)
            if not pending:
                continue
            delta = CellUnit(
                query=unit.query,
                n_relations=unit.n_relations,
                workload_index=unit.workload_index,
                cells=pending,
            )
            unit_id = unit_digest(kind, delta)
            if unit_id in queued:
                already += 1
                continue
            atomic_write_json(
                self.root / "pending" / self._unit_filename(delta, unit_id),
                {
                    "id": unit_id,
                    "spec": spec_key,
                    "query": delta.query,
                    "n_relations": delta.n_relations,
                    "workload_index": delta.workload_index,
                    "pairs": [
                        [c.config_index, c.estimator_index]
                        for c in delta.cells
                    ],
                },
            )
            queued.add(unit_id)
            enqueued_units += 1
            enqueued_cells += len(pending)
        return EnqueueStats(
            spec_key=spec_key,
            enqueued_units=enqueued_units,
            enqueued_cells=enqueued_cells,
            cached_cells=cached,
            already_queued_units=already,
        )

    def spec_info(self, spec_key: str) -> dict:
        """The enqueue-time context of one spec (kind, payload, roots)."""
        return json.loads(
            (self.root / "specs" / f"{spec_key}.json").read_text()
        )

    # ------------------------------------------------------------------ #
    # lease protocol
    # ------------------------------------------------------------------ #

    def _lease_stamp(self, unit_id: str) -> float | None:
        try:
            return float(
                json.loads(self._lease_path(unit_id).read_text())["stamp"]
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _lease_expired(self, stamp: float | None, now: float) -> bool:
        """Is a heartbeat stamp too old (or too strange) to trust?

        Stamps are absolute wall-clock values written by whichever
        machine holds the lease, so cross-machine skew must be budgeted
        on both sides: a stamp *ahead* of ``now`` by more than
        ``clock_skew`` comes from a clock too fast to reason about — a
        naive age comparison would make that claimer look permanently
        fresh even after it died — and is treated as expired; a stamp
        *behind* ``now`` gets ``clock_skew`` of extra grace on top of
        the ttl so a live worker on a slightly slow clock does not get
        its lease stolen mid-unit.
        """
        if stamp is None:
            return True
        if stamp - now > self.clock_skew:
            return True
        return max(now - stamp, 0.0) > self.lease_ttl + self.clock_skew

    def _holds(self, lease: Lease) -> bool:
        """Caller must hold the unit's flock.  A lease is held while the
        unit file sits in ``leased/`` *and* the heartbeat names this
        worker — after a steal the file reappears under the thief's
        name, and the original holder must see its lease as lost."""
        if not (self.root / "leased" / lease.filename).exists():
            return False
        try:
            owner = json.loads(
                self._lease_path(lease.unit_id).read_text()
            )["worker"]
        except (OSError, ValueError, KeyError):
            return False
        return owner == lease.worker_id

    def reclaim_expired(self) -> int:
        """Move every expired lease back to ``pending``; count them.

        A lease is expired when its heartbeat stamp is older than the
        queue's ``lease_ttl`` (plus the skew tolerance — see
        :meth:`_lease_expired`) — or missing entirely, which covers a
        claimer that died between the rename and its first stamp.  The
        check-and-rename runs under the unit's flock, so it cannot race
        a live claim, heartbeat, or completion of the same unit.
        """
        reclaimed = 0
        for path in sorted((self.root / "leased").glob("*.json")):
            unit_id = path.stem.rsplit("-", 1)[-1]
            with locked(self._lock(unit_id)):
                if not path.exists():  # completed or already reclaimed
                    continue
                # read the clock under the lock: a stamp written by a
                # claim that held it before us is then never "ahead"
                now = time.time()
                if not self._lease_expired(self._lease_stamp(unit_id), now):
                    continue
                os.replace(path, self.root / "pending" / path.name)
                self._lease_path(unit_id).unlink(missing_ok=True)
                reclaimed += 1
        return reclaimed

    def claim(self, worker_id: str) -> Lease | None:
        """Claim the schedule's next pending unit; None when none remain.

        Reclaims expired leases first, then walks ``pending/`` in
        lexicographic (= largest-first) order.  The winning rename and
        the heartbeat stamp happen under the unit's flock, so two
        workers racing one unit see exactly one winner.
        """
        self.reclaim_expired()
        for path in sorted((self.root / "pending").glob("*.json")):
            unit_id = path.stem.rsplit("-", 1)[-1]
            with locked(self._lock(unit_id)):
                if not path.exists():  # lost the race for this unit
                    continue
                payload = json.loads(path.read_text())
                os.replace(path, self.root / "leased" / path.name)
                atomic_write_json(
                    self._lease_path(unit_id),
                    {"worker": worker_id, "stamp": time.time()},
                )
            return Lease(
                unit_id=unit_id,
                filename=path.name,
                payload=payload,
                worker_id=worker_id,
            )
        return None

    def heartbeat(self, lease: Lease) -> bool:
        """Re-stamp a held lease; False when the lease has been lost."""
        with locked(self._lock(lease.unit_id)):
            if not self._holds(lease):
                return False
            atomic_write_json(
                self._lease_path(lease.unit_id),
                {"worker": lease.worker_id, "stamp": time.time()},
            )
        return True

    def complete(self, lease: Lease) -> bool:
        """Mark a leased unit done; False when the lease was stolen.

        A stolen lease is not an error: the rows were already merged
        idempotently through the result store, the thief (or its
        successor) will merge bit-identical ones, and exactly one of
        them wins this rename.
        """
        leased = self.root / "leased" / lease.filename
        with locked(self._lock(lease.unit_id)):
            if not self._holds(lease):
                return False
            os.replace(leased, self.root / "done" / lease.filename)
            self._lease_path(lease.unit_id).unlink(missing_ok=True)
        return True

    def release(self, lease: Lease) -> bool:
        """Put a held lease back in ``pending`` (graceful worker exit)."""
        leased = self.root / "leased" / lease.filename
        with locked(self._lock(lease.unit_id)):
            if not self._holds(lease):
                return False
            os.replace(leased, self.root / "pending" / lease.filename)
            self._lease_path(lease.unit_id).unlink(missing_ok=True)
        return True

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def status(self) -> dict:
        """Counts per state (``expired`` counts stale leases, included
        in ``leased``)."""
        now = time.time()
        expired = 0
        leased_paths = list((self.root / "leased").glob("*.json"))
        for path in leased_paths:
            stamp = self._lease_stamp(path.stem.rsplit("-", 1)[-1])
            if self._lease_expired(stamp, now):
                expired += 1
        return {
            "specs": len(list((self.root / "specs").glob("*.json"))),
            "pending": len(list((self.root / "pending").glob("*.json"))),
            "leased": len(leased_paths),
            "expired": expired,
            "done": len(list((self.root / "done").glob("*.json"))),
        }

    def drained(self) -> bool:
        """True when nothing is pending or leased (all work is done)."""
        status = self.status()
        return status["pending"] == 0 and status["leased"] == 0


# --------------------------------------------------------------------- #
# worker loop
# --------------------------------------------------------------------- #


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _SpecContext:
    """One worker's cached world for one enqueued spec.

    Built on first claim of a unit of that spec: kind and spec are
    rebuilt from the queue's JSON, the grid re-decomposed (cells are
    pure functions of the spec, so every worker sees identical units),
    resources and the result store attached.  Reused across units so a
    worker draining many units of one spec generates its database once —
    and, through the driver's shared grid-point cache (``shared=True``),
    a worker draining many *specs* of one grid point generates it once
    too.
    """

    def __init__(self, info: dict) -> None:
        from repro.pipeline.driver import build_resources

        self.kind = KINDS[info["kind"]]
        self.spec = self.kind.spec_from_payload(info["spec"])
        self.units = {u.query: u for u in self.kind.decompose(self.spec)}
        self.store = ResultStore.for_spec(info["result_root"], self.spec)
        self.resources = build_resources(
            self.spec, info["truth_root"], shared=True
        )


@dataclass
class WorkerStats:
    """What one worker-loop invocation accomplished."""

    worker_id: str
    units_done: int = 0
    cells_priced: int = 0
    leases_lost: int = 0

    def render(self) -> str:
        return (
            f"worker {self.worker_id}: {self.units_done} unit(s), "
            f"{self.cells_priced} cell(s) priced, "
            f"{self.leases_lost} lease(s) lost"
        )


def run_worker(
    queue: WorkQueue,
    worker_id: str | None = None,
    max_units: int | None = None,
    poll: float = 0.5,
    progress=None,
) -> WorkerStats:
    """Drain a queue: claim, price, merge, complete — until it is empty.

    The worker loop is the third face of the same orchestration core:
    it rebuilds (kind, spec) from the queue's JSON, prices each claimed
    unit through :meth:`CellKind.price_raw`, and ships rows through the
    result store's merge discipline — so a queue drained by any number
    of workers leaves the store byte-identical to a sequential
    :func:`~repro.pipeline.driver.run_cells` of the same spec.  While a
    unit prices, a daemon thread re-stamps the lease at ``lease_ttl/4``
    so slow units (one query's pricing is a single indivisible call)
    are not reclaimed from under a live worker.

    Exits when the queue is drained, or after ``max_units`` completions.
    When other workers hold live leases, sleeps ``poll`` seconds between
    claim attempts (one of those leases may yet be released or expire).
    ``progress`` is called with a short line per completed unit.
    """
    stats = WorkerStats(worker_id=worker_id or default_worker_id())
    contexts: dict[str, _SpecContext] = {}
    while max_units is None or stats.units_done < max_units:
        lease = queue.claim(stats.worker_id)
        if lease is None:
            if queue.drained():
                break
            time.sleep(poll)
            continue
        context = contexts.get(lease.payload["spec"])
        if context is None:
            context = _SpecContext(queue.spec_info(lease.payload["spec"]))
            contexts[lease.payload["spec"]] = context
        kind, spec = context.kind, context.spec
        pairs = tuple(
            (int(c), int(e)) for c, e in lease.payload["pairs"]
        )
        unit = context.units[lease.payload["query"]].restrict(pairs)

        stop = threading.Event()
        beat_every = max(queue.lease_ttl / 4.0, 0.05)

        def _beat() -> None:
            while not stop.wait(beat_every):
                if not queue.heartbeat(lease):
                    return  # lease stolen; pricing finishes anyway

        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
        try:
            started = time.perf_counter()
            raw = kind.price_raw(
                context.resources,
                context.resources.query(unit.query),
                spec,
                pairs,
            )
            seconds = time.perf_counter() - started
        finally:
            stop.set()
            beater.join()
        priced = kind.normalize(unit.cells, raw)
        kind.save_stored(
            context.store,
            unit.query,
            {kind.store_key(c): v for c, v in priced.items()},
        )
        if queue.complete(lease):
            stats.units_done += 1
        else:
            stats.leases_lost += 1
        stats.cells_priced += len(priced)
        if progress is not None:
            progress(
                f"[{stats.worker_id}] {unit.query}: "
                f"{len(priced)} cell(s) in {seconds:.2f}s"
            )
    return stats
