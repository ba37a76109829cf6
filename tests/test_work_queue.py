"""Lease queue: claim races, expiry, reclaim, and drain parity.

The acceptance bar of the work-queue layer:

* enqueue is idempotent per grid delta (content-keyed unit files) and
  subtracts cells the result store already holds, exactly like a driver
  resume;
* two workers racing one unit see exactly one claim winner, a worker
  that dies mid-unit (or before its first heartbeat) is reclaimed once
  its lease expires, and a stolen lease loses the ``complete`` rename
  without corrupting the store;
* a queue drained by two concurrent workers leaves the result store
  **byte-identical** to a sequential ``repro sweep`` of the same spec,
  with zero duplicate pricings.
"""

import json
import threading
import time

import pytest

from repro.cli import main
from repro.pipeline import (
    DEEP_KIND,
    SWEEP_KIND,
    DeepSpec,
    ResultStore,
    SweepSpec,
    WorkQueue,
    run_deep_sweep,
    run_sweep,
    run_worker,
    subexpr_deep_config,
)
from repro.pipeline.grid import TRUE_SOURCE

SPEC = SweepSpec(
    scale="tiny",
    seed=42,
    query_names=("1a", "4a"),
    estimators=("PostgreSQL", "HyPer"),
)


class TestEnqueue:
    def test_enqueue_then_reenqueue_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        stats = queue.enqueue(SPEC, SWEEP_KIND, tmp_path / "store")
        assert stats.enqueued_units == 2 and stats.enqueued_cells == 8
        assert queue.status()["pending"] == 2
        again = queue.enqueue(SPEC, SWEEP_KIND, tmp_path / "store")
        assert again.enqueued_units == 0
        assert again.already_queued_units == 2
        assert queue.status()["pending"] == 2

    def test_warm_store_enqueues_nothing(self, tmp_path):
        run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path / "store")
        queue = WorkQueue(tmp_path / "q")
        stats = queue.enqueue(SPEC, SWEEP_KIND, tmp_path / "store")
        assert stats.enqueued_units == 0 and stats.cached_cells == 8
        assert queue.drained()

    def test_partial_store_enqueues_exactly_the_delta(self, tmp_path):
        narrow = SweepSpec(
            scale="tiny",
            seed=42,
            query_names=("4a",),
            estimators=("PostgreSQL", "HyPer"),
        )
        run_sweep(narrow, truth_root=tmp_path, result_root=tmp_path / "s")
        queue = WorkQueue(tmp_path / "q")
        stats = queue.enqueue(SPEC, SWEEP_KIND, tmp_path / "s")
        assert stats.enqueued_units == 1 and stats.enqueued_cells == 4
        assert stats.cached_cells == 4
        lease = queue.claim("w")
        assert lease.payload["query"] == "1a"

    def test_claim_order_is_largest_first(self, tmp_path):
        spec = SweepSpec(
            scale="tiny",
            seed=42,
            query_names=("1a", "13a", "6a"),
            estimators=("PostgreSQL",),
        )
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(spec, SWEEP_KIND, tmp_path / "store")
        order = [queue.claim("w").payload["query"] for _ in range(3)]
        assert order == ["13a", "1a", "6a"]

    # 1: queues enqueued before spec files stopped naming a store engine;
    # 2: before they stopped carrying an oracle process count
    @pytest.mark.parametrize("version", [99, 1, 2])
    def test_version_mismatch_rejected(self, tmp_path, version):
        WorkQueue(tmp_path / "q")
        config = tmp_path / "q" / "queue.json"
        config.write_text(json.dumps({"version": version, "lease_ttl": 1.0}))
        with pytest.raises(ValueError, match="format version"):
            WorkQueue(tmp_path / "q")


class TestLeaseProtocol:
    def _queued(self, tmp_path, lease_ttl=60.0, clock_skew=0.0):
        # skew tolerance is zeroed by default: these tests manufacture
        # sub-second expiries and must not wait out the real-world grace
        queue = WorkQueue(
            tmp_path / "q", lease_ttl=lease_ttl, clock_skew=clock_skew
        )
        queue.enqueue(SPEC, SWEEP_KIND, tmp_path / "store")
        return queue

    def test_two_workers_racing_one_unit_one_winner(self, tmp_path):
        queue = self._queued(tmp_path)
        barrier = threading.Barrier(2)
        leases = []

        def contend(worker_id):
            barrier.wait()
            leases.append(queue.claim(worker_id))

        threads = [
            threading.Thread(target=contend, args=(w,)) for w in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # both claims succeed but they win *different* units
        assert sorted(lease.payload["query"] for lease in leases) == [
            "1a", "4a",
        ]
        assert queue.status()["pending"] == 0
        assert queue.claim("c") is None

    def test_live_lease_is_not_reclaimed(self, tmp_path):
        queue = self._queued(tmp_path)
        lease = queue.claim("a")
        assert queue.reclaim_expired() == 0
        assert queue.heartbeat(lease)
        assert queue.status()["leased"] == 1

    def test_expired_lease_is_stolen_and_completion_loses(self, tmp_path):
        queue = self._queued(tmp_path, lease_ttl=0.05)
        first = queue.claim("a")
        queue.claim("a")  # drain the second unit so only one is at stake
        time.sleep(0.1)  # the ttl passes with no heartbeat
        stolen = queue.claim("b")
        assert stolen.unit_id == first.unit_id
        # the original holder's completion loses; the thief's wins
        assert queue.complete(first) is False
        assert queue.complete(stolen) is True
        assert queue.status()["done"] == 1

    def test_crash_before_first_heartbeat_is_reclaimable(self, tmp_path):
        queue = self._queued(tmp_path, lease_ttl=30.0)
        lease = queue.claim("a")
        # a claimer that died between the rename and its first stamp
        # leaves no heartbeat at all — that must read as expired
        queue._lease_path(lease.unit_id).unlink()
        assert queue.reclaim_expired() == 1
        assert queue.status() == {
            "specs": 1, "pending": 2, "leased": 0, "expired": 0, "done": 0,
        }

    def test_release_returns_unit_to_pending(self, tmp_path):
        queue = self._queued(tmp_path)
        lease = queue.claim("a")
        assert queue.release(lease) is True
        assert queue.status()["pending"] == 2
        assert queue.claim("b").unit_id == lease.unit_id

    def test_ttl_recorded_in_queue_wins_over_local_default(self, tmp_path):
        WorkQueue(tmp_path / "q", lease_ttl=7.0)
        assert WorkQueue(tmp_path / "q", lease_ttl=99.0).lease_ttl == 7.0

    def _stamp(self, queue, lease, stamp):
        """Overwrite a lease's heartbeat stamp (simulating a claimer
        whose wall clock disagrees with ours)."""
        queue._lease_path(lease.unit_id).write_text(
            json.dumps({"worker": lease.worker_id, "stamp": stamp})
        )

    def test_future_stamp_beyond_skew_is_reclaimed(self, tmp_path):
        # a claimer on a fast clock stamps an hour into our future; a
        # naive `now - stamp <= ttl` check sees a negative age and calls
        # it permanently fresh, so the unit would never be reclaimed
        # after that claimer dies
        queue = self._queued(tmp_path, lease_ttl=60.0, clock_skew=5.0)
        lease = queue.claim("fast-clock")
        self._stamp(queue, lease, time.time() + 3600.0)
        assert queue.status()["expired"] == 1
        assert queue.reclaim_expired() == 1
        assert queue.status()["leased"] == 0

    def test_future_stamp_within_skew_is_live(self, tmp_path):
        queue = self._queued(tmp_path, lease_ttl=60.0, clock_skew=5.0)
        lease = queue.claim("slightly-fast")
        self._stamp(queue, lease, time.time() + 2.0)
        assert queue.status()["expired"] == 0
        assert queue.reclaim_expired() == 0

    def test_stale_stamp_within_skew_grace_is_not_stolen(self, tmp_path):
        # a live worker on a clock `skew` seconds slow writes stamps
        # that look (ttl, ttl+skew] old here; stealing its lease would
        # double-price the unit, so the grace must hold it
        queue = self._queued(tmp_path, lease_ttl=60.0, clock_skew=5.0)
        lease = queue.claim("slow-clock")
        self._stamp(queue, lease, time.time() - 63.0)
        assert queue.status()["expired"] == 0
        assert queue.reclaim_expired() == 0
        # ...but past ttl + skew the lease really is dead
        self._stamp(queue, lease, time.time() - 66.0)
        assert queue.status()["expired"] == 1
        assert queue.reclaim_expired() == 1

    def test_skew_recorded_in_queue_wins_over_local_default(self, tmp_path):
        WorkQueue(tmp_path / "q", clock_skew=9.0)
        assert WorkQueue(tmp_path / "q", clock_skew=1.0).clock_skew == 9.0

    def test_queue_from_before_skew_field_gets_default(self, tmp_path):
        from repro.pipeline.queue import DEFAULT_CLOCK_SKEW

        WorkQueue(tmp_path / "q", lease_ttl=7.0)
        config = tmp_path / "q" / "queue.json"
        payload = json.loads(config.read_text())
        del payload["clock_skew"]
        config.write_text(json.dumps(payload))
        assert WorkQueue(tmp_path / "q").clock_skew == DEFAULT_CLOCK_SKEW


class TestDrainParity:
    def test_two_workers_drain_bit_identically_to_sequential(self, tmp_path):
        sequential = run_sweep(
            SPEC, truth_root=tmp_path, result_root=tmp_path / "seq"
        )
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(
            SPEC, SWEEP_KIND, tmp_path / "par", truth_root=tmp_path
        )
        stats = []

        def drain(worker_id):
            stats.append(run_worker(queue, worker_id=worker_id, poll=0.05))

        threads = [
            threading.Thread(target=drain, args=(w,)) for w in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert queue.drained() and queue.status()["done"] == 2
        # zero duplicate pricings across the fleet
        assert sum(s.cells_priced for s in stats) == 8
        assert sum(s.units_done for s in stats) == 2
        assert all(s.leases_lost == 0 for s in stats)
        seq_store = ResultStore.for_spec(tmp_path / "seq", SPEC)
        par_store = ResultStore.for_spec(tmp_path / "par", SPEC)
        for query in ("1a", "4a"):
            assert (
                par_store.path(query).read_bytes()
                == seq_store.path(query).read_bytes()
            )
            assert par_store.load(query) == seq_store.load(query)
        drained_rows = run_sweep(
            SPEC, truth_root=tmp_path, result_root=tmp_path / "par"
        )
        assert drained_rows.priced_cells == 0
        assert drained_rows.rows == sequential.rows

    def test_deep_kind_drains_through_the_same_queue(self, tmp_path):
        spec = DeepSpec(
            scale="tiny",
            seed=42,
            query_names=("1a",),
            estimators=("PostgreSQL", TRUE_SOURCE),
            configs=(subexpr_deep_config(4),),
        )
        sequential = run_deep_sweep(
            spec, truth_root=tmp_path, result_root=tmp_path / "seq"
        )
        queue = WorkQueue(tmp_path / "q")
        enq = queue.enqueue(
            spec, DEEP_KIND, tmp_path / "par", truth_root=tmp_path
        )
        assert enq.enqueued_cells == 2
        stats = run_worker(queue, worker_id="w")
        assert stats.cells_priced == 2 and queue.drained()
        seq_store = ResultStore.for_spec(tmp_path / "seq", spec)
        par_store = ResultStore.for_spec(tmp_path / "par", spec)
        assert (
            par_store.path("1a").read_bytes()
            == seq_store.path("1a").read_bytes()
        )
        replayed = run_deep_sweep(
            spec, truth_root=tmp_path, result_root=tmp_path / "par"
        )
        assert replayed.priced_cells == 0
        assert replayed.rows == sequential.rows

    def test_max_units_stops_early(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(
            SPEC, SWEEP_KIND, tmp_path / "store", truth_root=tmp_path
        )
        stats = run_worker(queue, worker_id="w", max_units=1)
        assert stats.units_done == 1
        assert queue.status()["pending"] == 1


class TestWorkCli:
    def test_enqueue_worker_status_round_trip(self, tmp_path, capsys):
        argv = [
            "work", "enqueue",
            "--scale", "tiny", "--queries", "1a",
            "--estimators", "PostgreSQL", "--indexes", "PK",
            "--queue", str(tmp_path / "q"),
            "--result-cache", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        assert "enqueued 1 unit(s) / 1 cell(s)" in capsys.readouterr().out
        assert main(["work", "status", "--queue", str(tmp_path / "q")]) == 0
        assert "pending  1" in capsys.readouterr().out
        assert main(["work", "worker", "--queue", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "1 unit(s), 1 cell(s) priced" in out
        assert main(["work", "status", "--queue", str(tmp_path / "q")]) == 0
        assert "queue is drained" in capsys.readouterr().out

    def test_enqueue_requires_result_cache(self, tmp_path, capsys):
        argv = [
            "work", "enqueue",
            "--scale", "tiny", "--queries", "1a",
            "--queue", str(tmp_path / "q"),
        ]
        assert main(argv) == 2
        assert "needs --result-cache" in capsys.readouterr().err
