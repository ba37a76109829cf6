"""Shared-memory database shipping: roundtrip, lifecycle, zero redundancy.

The tentpole claim is *negative* — a pooled cold sweep generates each
database exactly once, workers attach instead of regenerating, and no
``/dev/shm`` segment outlives its sweep (even a killed one).  Negative
claims need instrumentation: these tests assert the master/worker
``db_generations`` counters through :class:`CellScheduler.pool_stats`,
walk ``/dev/shm`` before and after, and SIGKILL a publishing process to
prove the resource-tracker backstop unlinks what the publisher no longer
can.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.datagen import generate_imdb
from repro.pipeline import shmem
from repro.pipeline.grid import SweepSpec
from repro.pipeline.kinds import SWEEP_KIND
from repro.pipeline.scheduler import CellScheduler


def _shm_entries() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/*psm*"))


def _column_pairs(db):
    for table in db.tables.values():
        for col in table.columns.values():
            yield table.name, col


class TestPublishAttachRoundtrip:
    def test_attached_database_is_identical(self, imdb_tiny):
        published = shmem.publish_database(imdb_tiny)
        try:
            assert published.manifest.mode == "shm"
            attached = shmem.attach_database(published.manifest)
            assert attached.name == imdb_tiny.name
            assert set(attached.tables) == set(imdb_tiny.tables)
            for tname, col in _column_pairs(imdb_tiny):
                twin = attached.table(tname).column(col.name)
                assert twin.kind == col.kind
                assert np.array_equal(twin.values, col.values)
                if col.dictionary is None:
                    assert twin.dictionary is None
                else:
                    assert list(twin.dictionary) == list(col.dictionary)
            assert [
                (fk.table, fk.column, fk.ref_table, fk.ref_column)
                for fk in attached.foreign_keys
            ] == [
                (fk.table, fk.column, fk.ref_table, fk.ref_column)
                for fk in imdb_tiny.foreign_keys
            ]
            assert set(attached.statistics) == set(imdb_tiny.statistics)
        finally:
            published.close()

    def test_attached_views_are_zero_copy_and_read_only(self, imdb_tiny):
        published = shmem.publish_database(imdb_tiny)
        try:
            attached = shmem.attach_database(published.manifest)
            col = next(iter(attached.tables.values())).columns
            arr = next(iter(col.values())).values
            # a view into the segment, not a worker-side copy
            assert not arr.flags.owndata
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 123
        finally:
            published.close()

    def test_attached_database_estimates_identically(self, imdb_tiny):
        from repro.cardinality import PostgresEstimator
        from repro.workloads import job_query

        query = job_query("3a")
        reference = PostgresEstimator(imdb_tiny).bind(query)
        published = shmem.publish_database(imdb_tiny)
        try:
            attached = shmem.attach_database(published.manifest)
            twin = PostgresEstimator(attached).bind(query)
            for subset in (1, 2, 3, 5, 7, query.all_mask):
                assert twin(subset) == reference(subset)
        finally:
            published.close()


class TestLifecycle:
    def test_close_unlinks_segment_and_is_idempotent(self, imdb_tiny):
        published = shmem.publish_database(imdb_tiny)
        name = published.manifest.segment
        assert os.path.exists(f"/dev/shm/{name}")
        published.close()
        assert not os.path.exists(f"/dev/shm/{name}")
        published.close()  # idempotent

    def test_attach_does_not_adopt_unlink_responsibility(self, imdb_tiny):
        published = shmem.publish_database(imdb_tiny)
        try:
            name = published.manifest.segment
            attached = shmem.attach_database(published.manifest)
            del attached
            import gc

            gc.collect()
            # the attacher is gone; the publisher's segment must survive
            assert os.path.exists(f"/dev/shm/{name}")
        finally:
            published.close()

    def test_pickle_fallback_when_shm_unavailable(self, imdb_tiny, monkeypatch):
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise OSError("no shm for you")

        monkeypatch.setattr(shared_memory.SharedMemory, "__init__", refuse)
        published = shmem.publish_database(imdb_tiny)
        assert published.manifest.mode == "pickle"
        monkeypatch.undo()
        attached = shmem.attach_database(published.manifest)
        for tname, col in _column_pairs(imdb_tiny):
            twin = attached.table(tname).column(col.name)
            assert np.array_equal(twin.values, col.values)
        published.close()  # no segment: a no-op


@pytest.mark.skipif(sys.platform != "linux", reason="/dev/shm is Linux")
class TestCrashSafety:
    def test_sigkill_mid_publish_leaks_no_segment(self, tmp_path):
        """SIGKILL the publisher: the tracker backstop unlinks for it."""
        script = textwrap.dedent(
            """
            import os, sys
            from repro.datagen import generate_imdb
            from repro.pipeline import shmem

            published = shmem.publish_database(generate_imdb("tiny", seed=42))
            print(published.manifest.segment, flush=True)
            os.kill(os.getpid(), 9)
            """
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        segment = proc.stdout.readline().strip()
        proc.wait()
        assert proc.returncode == -signal.SIGKILL
        assert segment
        # the resource tracker is a separate process: give it a beat to
        # notice the publisher died and unlink the registered segment
        import time

        for _ in range(50):
            if not os.path.exists(f"/dev/shm/{segment}"):
                break
            time.sleep(0.1)
        assert not os.path.exists(f"/dev/shm/{segment}")


class TestPooledZeroRedundancy:
    def _run(self, spec, processes=2):
        scheduler = CellScheduler(SWEEP_KIND, spec, processes=processes)
        units = SWEEP_KIND.decompose(spec)
        raw = scheduler.run(units)
        return scheduler, raw

    def test_shm_pool_workers_generate_nothing(self):
        from repro.pipeline.driver import clear_grid_caches
        from repro.pipeline.instrument import snapshot

        spec = SweepSpec(scale="tiny", seed=42, query_names=("3a", "6a"))
        # earlier tests may have warmed the grid-point cache; the "master
        # generates exactly once" claim is about a cold pooled sweep
        clear_grid_caches()
        before = snapshot()
        entries = _shm_entries()
        scheduler, raw = self._run(spec)
        after = snapshot()
        assert set(raw) == {"3a", "6a"}
        # master generated exactly once...
        assert (after - before).db_generations == 1
        # ...and every worker attached instead of regenerating
        assert scheduler.pool_stats is not None
        assert scheduler.pool_stats.workers >= 1
        assert scheduler.pool_stats.worker_db_generations == 0
        # the published segment did not outlive the sweep
        assert _shm_entries() - entries == set()

    def test_pool_rows_match_sequential_rows(self):
        from repro.pipeline.driver import clear_grid_caches

        spec = SweepSpec(scale="tiny", seed=42, query_names=("3a", "6a"))
        clear_grid_caches()
        _, pooled = self._run(spec)
        clear_grid_caches()
        _, sequential = self._run(spec, processes=1)
        # attached workers price exactly what a fresh build prices
        assert pooled == sequential
        clear_grid_caches()
