"""Incremental sweep: task graph, scheduler, result store, reports.

The acceptance bar: a re-run of an identical spec prices **zero** cells
(every row replayed from the result store, bit-identically), a changed
spec prices exactly the cells its change invalidated, and ``sweep
--csv`` writes the finished rows once, atomically.
"""

import csv
import json
import multiprocessing
import os
import stat
import threading
import time

import pytest

from repro.pipeline import (
    DEFAULT_CONFIGS,
    EnumeratorConfig,
    ResultStore,
    SweepSpec,
    TruthStore,
    build_resources,
    config_fingerprint,
    decompose,
    order_units,
    run_sweep,
)
from repro.pipeline import driver as driver_module
from repro.physical import IndexConfig

SPEC = SweepSpec(
    scale="tiny",
    seed=42,
    query_names=("1a", "4a", "6a"),
    estimators=("PostgreSQL", "HyPer"),
)


class TestTaskLayer:
    def test_decompose_covers_grid_in_canonical_order(self):
        units = decompose(SPEC)
        assert [u.query for u in units] == ["1a", "4a", "6a"]
        assert all(len(u.cells) == 4 for u in units)
        orders = [c.order for u in units for c in u.cells]
        assert orders == list(range(12))
        first = units[0].cells
        # config-major, estimator-minor: the sequential loop nesting
        assert [(c.config_index, c.estimator_index) for c in first] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_cell_keys_carry_full_identity(self):
        cell = decompose(SPEC)[0].cells[0]
        key = cell.key
        assert (key.dataset, key.scale, key.seed) == ("imdb", "tiny", 42)
        assert key.query == "1a" and key.estimator == "PostgreSQL"
        assert key.datagen_version >= 1 and key.workload_version >= 1

    def test_fingerprint_stable_and_sensitive(self):
        a = EnumeratorConfig("pk", indexes=IndexConfig.PK)
        assert config_fingerprint(a) == config_fingerprint(
            EnumeratorConfig("pk", indexes=IndexConfig.PK)
        )
        for variant in (
            EnumeratorConfig("pk2", indexes=IndexConfig.PK),
            EnumeratorConfig("pk", indexes=IndexConfig.PK_FK),
            EnumeratorConfig("pk", indexes=IndexConfig.PK, allow_nlj=True),
            EnumeratorConfig("pk", indexes=IndexConfig.PK, cost_model="tuned"),
        ):
            assert config_fingerprint(variant) != config_fingerprint(a)

    def test_fingerprint_bytes_pinned(self):
        """Stored cells are keyed by these hex strings: an edit that
        changes one (a renamed, added or dropped config field) would
        re-price every stored cell of that config, so it must fail
        here first."""
        from repro.experiments.fig8 import report_specs

        assert [config_fingerprint(c) for c in DEFAULT_CONFIGS] == [
            "55aa96ab677d", "88d2dc0f9e04",
        ]
        replay = {
            c.name: config_fingerprint(c)
            for c in report_specs(SweepSpec())[0].configs
        }
        assert replay["tuned"] == "ff6642fbadbb"

    def test_sort_merge_config_rejected(self):
        with pytest.raises(ValueError, match="allow_smj"):
            EnumeratorConfig("x", allow_smj=True)

    def test_duplicate_config_names_rejected(self):
        spec = SweepSpec(
            query_names=("1a",),
            configs=(
                EnumeratorConfig("pk", indexes=IndexConfig.PK),
                EnumeratorConfig("pk", indexes=IndexConfig.PK_FK),
            ),
        )
        with pytest.raises(ValueError, match="share a name"):
            decompose(spec)

    def test_order_units_largest_first_stable(self):
        spec = SweepSpec(query_names=("1a", "13a", "6a"))
        ordered = order_units(decompose(spec))
        sizes = [u.n_relations for u in ordered]
        assert sizes == sorted(sizes, reverse=True)
        assert ordered[0].query == "13a"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            decompose(SweepSpec(dataset="mysterydb"))


class TestResultStoreReplay:
    def test_identical_spec_rerun_prices_nothing(self, tmp_path, monkeypatch):
        first = run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        assert first.priced_cells == 12 and first.cached_cells == 0

        def _no_pricing(*args, **kwargs):
            raise AssertionError("a fully cached sweep must not price cells")

        monkeypatch.setattr(driver_module, "price_cells", _no_pricing)
        monkeypatch.setattr(driver_module, "sweep_query", _no_pricing)
        monkeypatch.setattr(driver_module, "build_resources", _no_pricing)
        second = run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        assert second.priced_cells == 0 and second.cached_cells == 12
        assert second.rows == first.rows

    def test_changed_config_invalidates_exactly_its_cells(self, tmp_path):
        run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        changed = SweepSpec(
            scale="tiny",
            seed=42,
            query_names=("1a", "4a", "6a"),
            estimators=("PostgreSQL", "HyPer"),
            configs=(
                EnumeratorConfig("pk", indexes=IndexConfig.PK),
                EnumeratorConfig(
                    "pk+fk", indexes=IndexConfig.PK_FK, allow_nlj=True
                ),
            ),
        )
        priced_pairs = []
        original = driver_module.price_cells

        def recording(resources, query, spec, pairs):
            priced_pairs.append((query.name, tuple(sorted(pairs))))
            return original(resources, query, spec, pairs)

        try:
            driver_module.price_cells = recording
            result = run_sweep(
                changed, truth_root=tmp_path, result_root=tmp_path
            )
        finally:
            driver_module.price_cells = original
        # only the changed config's (query × estimator) cells re-price
        assert result.priced_cells == 6 and result.cached_cells == 6
        assert sorted(priced_pairs) == [
            ("1a", ((1, 0), (1, 1))),
            ("4a", ((1, 0), (1, 1))),
            ("6a", ((1, 0), (1, 1))),
        ]
        assert result.rows == run_sweep(changed).rows

    def test_changed_estimators_reuse_overlap(self, tmp_path):
        run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        wider = SweepSpec(
            scale="tiny",
            seed=42,
            query_names=("1a", "4a", "6a"),
            estimators=("PostgreSQL", "DBMS A", "HyPer"),
        )
        result = run_sweep(wider, truth_root=tmp_path, result_root=tmp_path)
        assert result.priced_cells == 6  # only the DBMS A cells are new
        assert result.cached_cells == 12
        assert result.rows == run_sweep(wider).rows

    def test_no_resume_reprices_but_still_persists(self, tmp_path):
        run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        forced = run_sweep(
            SPEC, truth_root=tmp_path, result_root=tmp_path, resume=False
        )
        assert forced.priced_cells == 12 and forced.cached_cells == 0
        warm = run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        assert warm.priced_cells == 0

    def test_parallel_partial_cache_matches_sequential(self, tmp_path):
        partial = SweepSpec(
            scale="tiny", seed=42, query_names=("4a",),
            estimators=("PostgreSQL", "HyPer"),
        )
        run_sweep(partial, truth_root=tmp_path, result_root=tmp_path)
        pooled = run_sweep(
            SPEC, processes=2, truth_root=tmp_path, result_root=tmp_path
        )
        assert pooled.priced_cells == 8 and pooled.cached_cells == 4
        assert pooled.rows == run_sweep(SPEC).rows

    def test_corrupt_result_file_reprices(self, tmp_path):
        run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        store = ResultStore.for_spec(tmp_path, SPEC)
        store.path("4a").write_text("not json{")
        result = run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        assert result.priced_cells == 4 and result.cached_cells == 8

    def test_store_roundtrip_is_exact(self, tmp_path):
        first = run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        store = ResultStore.for_spec(tmp_path, SPEC)
        assert store.known_queries() == ["1a", "4a", "6a"]
        fp = config_fingerprint(SPEC.configs[0])
        replayed = store.load("1a")[("PostgreSQL", fp)]
        assert replayed == first.row("1a", "PostgreSQL", "pk")


class TestStreamingReports:
    @staticmethod
    def _sweep_csv(path, *flags):
        from repro.cli import main

        argv = [
            "sweep", "--scale", "tiny", "--queries", "1a,4a,6a",
            "--estimators", "PostgreSQL,HyPer", "--no-result-cache",
            "--csv", str(path), *flags,
        ]
        assert main(argv) == 0
        return argv

    def test_sweep_csv_equals_result_to_csv(self, tmp_path, capsys):
        """``sweep --csv`` writes ``result.to_csv`` once, after the run,
        leaving no temp file behind."""
        from repro.cli import _build_sweep_spec, build_parser

        out = tmp_path / "out"
        out.mkdir()
        argv = self._sweep_csv(out / "sweep.csv")
        assert "wrote 12 rows to" in capsys.readouterr().out
        assert [p.name for p in out.iterdir()] == ["sweep.csv"]
        spec, _ = _build_sweep_spec(build_parser().parse_args(argv))
        batch = run_sweep(spec).to_csv(tmp_path / "batch.csv")
        assert (out / "sweep.csv").read_bytes() == batch.read_bytes()
        with (out / "sweep.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12
        assert all(float(row["q_error"]) >= 1.0 for row in rows)

    def test_sweep_csv_pooled_equals_sequential(self, tmp_path, capsys):
        self._sweep_csv(tmp_path / "seq.csv")
        self._sweep_csv(tmp_path / "par.csv", "--processes", "2")
        assert (tmp_path / "seq.csv").read_bytes() == (
            tmp_path / "par.csv"
        ).read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "par.csv", "seq.csv",
        ]

    def test_failed_csv_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A CSV write dying before its rename leaves the previous file
        untouched and no temp debris behind."""
        result = run_sweep(SPEC)
        path = tmp_path / "sweep.csv"
        path.write_text("old\n")

        def exploding_fsync(fd):
            raise OSError("simulated crash mid-flush")

        monkeypatch.setattr(
            "repro.pipeline.truthstore.os.fsync", exploding_fsync
        )
        with pytest.raises(OSError, match="simulated crash"):
            result.to_csv(path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_progress_events_carry_no_rows(self):
        """Rows reach callers through the result alone: neither a
        progress event nor the driver takes a row channel."""
        from repro.pipeline import SWEEP_KIND, UnitReport, run_cells

        with pytest.raises(TypeError):
            UnitReport(
                query="1a", index=1, total=1, priced=0, cached=0, rows=()
            )
        with pytest.raises(TypeError):
            run_cells(SPEC, SWEEP_KIND, stream_csv="sweep.csv")

    def test_progress_reports_cache_hits(self, tmp_path):
        run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        reports = []
        run_sweep(
            SPEC,
            truth_root=tmp_path,
            result_root=tmp_path,
            progress=reports.append,
        )
        assert [r.query for r in reports] == ["1a", "4a", "6a"]
        assert all(r.priced == 0 and r.cached == 4 for r in reports)
        assert "result cache" in reports[0].render()


class TestDatasetThreading:
    def test_tpch_sweep_and_stores(self, tmp_path):
        spec = SweepSpec(
            scale="tiny", seed=7, dataset="tpch",
            estimators=("PostgreSQL",),
            configs=(EnumeratorConfig("pk", indexes=IndexConfig.PK),),
        )
        result = run_sweep(spec, truth_root=tmp_path, result_root=tmp_path)
        assert {r.query for r in result.rows} == {"tpch5", "tpch8", "tpch10"}
        truth = TruthStore(tmp_path, "tiny", 7, dataset="tpch")
        assert truth.known_queries() == ["tpch10", "tpch5", "tpch8"]
        assert "tpch-tiny" in str(truth.directory)
        warm = run_sweep(spec, truth_root=tmp_path, result_root=tmp_path)
        assert warm.priced_cells == 0 and warm.rows == result.rows

    def test_tpch_and_imdb_stores_do_not_collide(self, tmp_path):
        a = TruthStore(tmp_path, "tiny", 42, dataset="imdb")
        b = TruthStore(tmp_path, "tiny", 42, dataset="tpch")
        a.save("q", {1: 10})
        assert b.load("q") is None

    def test_build_resources_rejects_unknown_dataset(self):
        spec = SweepSpec(dataset="oracle12c")
        with pytest.raises(ValueError, match="unknown dataset"):
            build_resources(spec)

    def test_suite_accepts_dataset(self):
        from repro.experiments import ExperimentSuite

        suite = ExperimentSuite(
            scale="tiny", seed=7, dataset="tpch", query_names=["tpch5"]
        )
        assert suite.db.name == "tpch"
        assert [q.name for q in suite.queries] == ["tpch5"]


class TestSatelliteFixes:
    def test_export_counts_does_not_allocate_state(self):
        resources = build_resources(
            SweepSpec(scale="tiny", query_names=("1a",))
        )
        oracle = resources.truth
        query = resources.query("1a")
        assert oracle.cached_state_count() == 0
        counts, unfiltered = oracle.export_counts(query)
        assert counts == {} and unfiltered == {}
        assert oracle.cached_state_count() == 0  # no allocation, no pin

    def test_release_unseen_query_is_noop(self):
        resources = build_resources(
            SweepSpec(scale="tiny", query_names=("1a",))
        )
        resources.truth.release(resources.query("1a"))
        assert resources.truth.cached_state_count() == 0

    def test_cost_models_shared_per_workload(self):
        resources = build_resources(
            SweepSpec(scale="tiny", query_names=("1a",))
        )
        assert resources.cost_model("simple") is resources.cost_model("simple")
        assert resources.cost_model("tuned") is not resources.cost_model(
            "simple"
        )

    def test_truthstore_concurrent_saves_do_not_lose_updates(self, tmp_path):
        """Two slow-merging savers must union, not clobber: the per-query
        flock serialises the whole load-merge-write sequence."""

        class SlowLoadStore(TruthStore):
            def load(self, query_name):
                payload = super().load(query_name)
                time.sleep(0.05)  # widen the race window
                return payload

        store = SlowLoadStore(tmp_path, "tiny", 42)
        errors = []

        def save(offset):
            try:
                store.save("1a", {offset: offset + 1}, max_size=2)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=save, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        payload = store.load("1a")
        assert payload.counts == {0: 1, 1: 2, 2: 3, 3: 4}

    def test_atomic_write_fsyncs_data_before_rename_and_dir_after(
        self, tmp_path, monkeypatch
    ):
        """The rename alone is not crash-durable: the temp file's data
        must be fsync'd before ``os.replace`` (or the final name can
        point at a truncated inode after power loss) and the directory
        after (or the rename itself can vanish)."""
        from repro.pipeline.truthstore import atomic_write_json

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(("fsync", kind))
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace", None))
            return real_replace(src, dst)

        monkeypatch.setattr("repro.pipeline.truthstore.os.fsync", spy_fsync)
        monkeypatch.setattr(
            "repro.pipeline.truthstore.os.replace", spy_replace
        )
        atomic_write_json(tmp_path / "q.json", {"v": 1})
        replace_at = events.index(("replace", None))
        assert ("fsync", "file") in events[:replace_at]
        assert ("fsync", "dir") in events[replace_at + 1:]

    def test_failed_flush_never_clobbers_existing_payload(
        self, tmp_path, monkeypatch
    ):
        """A writer dying mid-flush (simulated: fsync raises) must leave
        the previously stored payload untouched at the final path and no
        temp debris behind."""
        from repro.pipeline.truthstore import atomic_write_json

        path = tmp_path / "q.json"
        atomic_write_json(path, {"old": 1})

        def exploding_fsync(fd):
            raise OSError("simulated crash mid-flush")

        monkeypatch.setattr(
            "repro.pipeline.truthstore.os.fsync", exploding_fsync
        )
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_json(path, {"new": 2})
        assert json.loads(path.read_text()) == {"old": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["q.json"]


def _torture_writer(args):
    """One torture process: interleaved sweep-row / deep-cell / truth
    saves to the same query (module-level so the pool can pickle it)."""
    from repro.pipeline.grid import DeepRow, SweepRow

    root, worker_index, per_worker = args
    store = ResultStore(root, "tiny", 42)
    truth = TruthStore(root, "tiny", 42)
    for i in range(per_worker):
        n = worker_index * per_worker + i
        store.save(
            "1a",
            {(f"est{n:03d}", "fp"): SweepRow(
                query="1a", estimator=f"est{n:03d}", config="c",
                est_cost=float(n) + 0.25, true_cost=1.0, optimal_cost=1.0,
                slowdown=1.0, q_error=1.0,
            )},
        )
        store.save_deep(
            "1a",
            {f"subexpr|est{n:03d}|fp": (DeepRow(
                kind="subexpr", query="1a", estimator=f"est{n:03d}",
                config="c", subset=3, true_card=float(n), est_card=0.5,
            ),)},
        )
        truth.save("1a", {n: n + 1}, max_size=2)
    return worker_index


class TestConcurrentWriterTorture:
    """N processes hammering one query must union losslessly through the
    per-query flock."""

    WORKERS = 4
    PER_WORKER = 6

    def test_interleaved_process_saves_union_losslessly(self, tmp_path):
        total = self.WORKERS * self.PER_WORKER
        jobs = [
            (str(tmp_path), w, self.PER_WORKER)
            for w in range(self.WORKERS)
        ]
        with multiprocessing.get_context().Pool(self.WORKERS) as pool:
            done = pool.map(_torture_writer, jobs)
        assert sorted(done) == list(range(self.WORKERS))

        store = ResultStore(tmp_path, "tiny", 42)
        stored = store.load_all("1a")
        assert len(stored.rows) == total
        assert {e for (e, _) in stored.rows} == {
            f"est{n:03d}" for n in range(total)
        }
        assert len(stored.deep) == total
        truth = TruthStore(tmp_path, "tiny", 42)
        payload = truth.load("1a")
        assert payload.counts == {n: n + 1 for n in range(total)}
        # the manifest agrees with the union (indexed queries, both kinds)
        assert store.index.total_rows() == total
        assert store.index.total_deep_rows() == total

    def test_interleaved_thread_saves_union_losslessly(self, tmp_path):
        """Same torture with threads in one process: concurrent writers
        to the same files must union."""
        store = ResultStore(tmp_path, "tiny", 42)
        truth = TruthStore(tmp_path, "tiny", 42)
        errors = []

        def writer(worker_index):
            try:
                _torture_writer(
                    (str(tmp_path), worker_index, self.PER_WORKER)
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,))
            for w in range(self.WORKERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = self.WORKERS * self.PER_WORKER
        assert len(store.load_all("1a").rows) == total
        assert len(store.load_all("1a").deep) == total
        assert truth.load("1a").counts == {n: n + 1 for n in range(total)}


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-v"])
