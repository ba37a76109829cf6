"""Replayable analytics: store index, streaming aggregation, report parity.

The acceptance bar of the replay layer:

* every registered figure/table renders **byte-identical** text whether
  its frame was replayed from a warm :class:`ResultStore` or recomputed
  from scratch, and the warm path performs **zero database generation
  and zero cell pricing** (asserted via the instrument counters);
* the store's manifest index never serves stale lookups — externally
  appended rows invalidate and rebuild the affected entry;
* a :class:`StreamingAggregator` fed rows in any completion order
  produces the bit-identical summary of a batch fold in canonical
  order;
* a malformed row in a per-query file drops only itself.
"""

import json
import os
import random

import pytest

from repro.experiments import frame as frame_mod
from repro.pipeline import (
    EnumeratorConfig,
    ResultStore,
    StreamingAggregator,
    SweepSpec,
    aggregate_store,
    config_fingerprint,
    run_sweep,
)
from repro.pipeline import instrument
from repro.pipeline.index import INDEX_FILENAME
from repro.physical import IndexConfig

SPEC = SweepSpec(
    scale="tiny",
    seed=42,
    query_names=("1a", "4a", "6a"),
    estimators=("PostgreSQL", "HyPer"),
)


@pytest.fixture()
def warm_store(tmp_path):
    """A store fully covering SPEC, plus its directory root."""
    run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
    return ResultStore.for_spec(tmp_path, SPEC), tmp_path


# --------------------------------------------------------------------- #
# satellite: ResultStore.load drops only the malformed row
# --------------------------------------------------------------------- #


class TestRowLevelCorruption:
    def _corrupt_one_row(self, store, query):
        path = store.path(query)
        raw = json.loads(path.read_text())
        key = sorted(raw["rows"])[0]
        raw["rows"][key]["q_error"] = "not-a-float"
        path.write_text(json.dumps(raw))
        return key

    def test_load_keeps_intact_rows(self, warm_store):
        store, _ = warm_store
        bad_key = self._corrupt_one_row(store, "4a")
        rows = store.load("4a")
        assert len(rows) == 3  # 4 cells, one dropped
        estimator, _, fingerprint = bad_key.partition("|")
        assert (estimator, fingerprint) not in rows
        assert store.dropped_rows == 1

    def test_sweep_reprices_exactly_the_dropped_cell(self, warm_store):
        store, root = warm_store
        self._corrupt_one_row(store, "4a")
        result = run_sweep(SPEC, truth_root=root, result_root=root)
        assert result.priced_cells == 1 and result.cached_cells == 11
        assert result.rows == run_sweep(SPEC).rows

    def test_whole_file_corruption_still_reads_empty(self, warm_store):
        store, _ = warm_store
        store.path("4a").write_text("not json{")
        assert store.load("4a") == {}

    def test_load_many_counts_each_drop_once(self, warm_store):
        """The index rebuild's parse is reused by load_many, so one
        malformed row is counted (and logged) exactly once."""
        store, _ = warm_store
        self._corrupt_one_row(store, "4a")
        loaded = store.load_many(["1a", "4a", "6a"])
        assert len(loaded["4a"]) == 3
        assert store.dropped_rows == 1


# --------------------------------------------------------------------- #
# storage layer: manifest index
# --------------------------------------------------------------------- #


class TestStoreIndex:
    def test_load_many_serves_all_queries_via_manifest(self, warm_store):
        store, _ = warm_store
        loaded = store.load_many(["1a", "4a", "6a", "13d"])
        assert set(loaded) == {"1a", "4a", "6a", "13d"}
        assert all(len(loaded[q]) == 4 for q in ("1a", "4a", "6a"))
        assert loaded["13d"] == {}  # absent per the index: no file open
        assert (store.directory / INDEX_FILENAME).exists()

    def test_load_many_matches_per_file_loads(self, warm_store):
        store, _ = warm_store
        batch = store.load_many(["1a", "4a", "6a"])
        assert batch == {q: store.load(q) for q in ("1a", "4a", "6a")}

    def test_manifest_maps_cells_to_row_keys(self, warm_store):
        store, _ = warm_store
        fp = config_fingerprint(SPEC.configs[0])
        assert store.index.lookup("1a", "PostgreSQL", fp)
        assert not store.index.lookup("1a", "PostgreSQL", "0" * 12)
        assert not store.index.lookup("13d", "PostgreSQL", fp)
        assert store.index.total_rows() == 12

    def test_external_append_invalidates_and_rebuilds(self, warm_store):
        """A concurrent sweep writing through its *own* store handle must
        be visible here: per-file mtime/size staleness beats the cached
        manifest, so lookups are never stale."""
        store, root = warm_store
        keys_before = store.index.row_keys("4a")

        wider = SweepSpec(
            scale="tiny",
            seed=42,
            query_names=("4a",),
            estimators=("PostgreSQL", "HyPer", "DBMS A"),
        )
        run_sweep(wider, truth_root=root, result_root=root)  # other handle

        keys_after = store.index.row_keys("4a")
        assert len(keys_after) == 6 and set(keys_before) < set(keys_after)
        fp = config_fingerprint(SPEC.configs[0])
        assert store.index.lookup("4a", "DBMS A", fp)
        # the rebuilt manifest was persisted, not just held in memory
        manifest = json.loads(
            (store.directory / INDEX_FILENAME).read_text()
        )
        assert len(manifest["files"]["4a"]["keys"]) == 6

    def test_deleted_file_drops_out_of_manifest(self, warm_store):
        store, _ = warm_store
        store.index.refresh()
        store.path("4a").unlink()
        assert "4a" not in store.index.refresh()
        assert store.load_many(["4a"]) == {"4a": {}}

    def test_corrupt_manifest_is_rebuilt(self, warm_store):
        store, _ = warm_store
        store.index.refresh()
        (store.directory / INDEX_FILENAME).write_text("}{")
        store.index.invalidate()
        assert sorted(store.index.refresh()) == ["1a", "4a", "6a"]

    def test_manifest_not_listed_as_query(self, warm_store):
        store, _ = warm_store
        store.index.refresh()
        assert store.known_queries() == ["1a", "4a", "6a"]

    def test_same_size_rewrite_within_mtime_granularity_is_not_stale(
        self, warm_store
    ):
        """A rewrite that keeps the file's size AND lands inside the
        filesystem's mtime granularity is invisible to a pure
        ``(mtime_ns, size)`` check — the index must treat entries whose
        mtime is not strictly older than their index stamp as
        unverified and re-parse them."""
        store, _ = warm_store
        path = store.path("4a")
        keys_before = store.index.row_keys("4a")
        assert len(keys_before) == 4

        # freeze the file's stamp ahead of the clock so the indexing
        # below and the rewrite after it land in one mtime granule (the
        # deterministic version of an unlucky same-tick rewrite)
        frozen = path.stat().st_mtime_ns + 2 * 10**9
        os.utime(path, ns=(frozen, frozen))
        store.index.refresh()

        # same-size rewrite: swap one row key's fingerprint for an
        # equal-length marker, byte count unchanged
        old_key = keys_before[0]
        estimator, _, fingerprint = old_key.partition("|")
        new_key = f"{estimator}|{'f' * len(fingerprint)}"
        text = path.read_text()
        rewritten = text.replace(f'"{old_key}"', f'"{new_key}"')
        assert len(rewritten) == len(text) and rewritten != text
        path.write_text(rewritten)
        os.utime(path, ns=(frozen, frozen))  # identical stat, new content

        keys_after = store.index.row_keys("4a")
        assert new_key in keys_after and old_key not in keys_after

    def test_scan_is_deterministic_and_filterable(self, warm_store):
        store, _ = warm_store
        rows = list(store.scan())
        assert len(rows) == 12
        assert rows == list(store.scan())
        pg = list(store.scan(lambda r: r.estimator == "PostgreSQL"))
        assert len(pg) == 6
        assert all(r.estimator == "PostgreSQL" for r in pg)


# --------------------------------------------------------------------- #
# aggregation layer
# --------------------------------------------------------------------- #


class TestStreamingAggregation:
    def test_streaming_equals_batch_in_any_order(self, warm_store):
        """Satellite: random completion order must fold to the same
        summary as the canonical batch order, bit for bit."""
        store, _ = warm_store
        rows = list(store.scan())
        batch = StreamingAggregator()
        batch.add_many(rows)
        for seed in (0, 1, 2):
            shuffled = rows[:]
            random.Random(seed).shuffle(shuffled)
            streaming = StreamingAggregator()
            streaming.add_many(shuffled)
            assert streaming.summary() == batch.summary()
            assert streaming.summary().render() == batch.summary().render()

    def test_sketch_mode_rejected(self):
        """The exact fold is the only mode; the ``exact`` keyword stays
        only so callers passing ``exact=True`` keep working."""
        from repro.pipeline.kinds import SWEEP_KIND

        assert isinstance(SWEEP_KIND.aggregator(exact=True),
                          StreamingAggregator)
        with pytest.raises(ValueError, match="exact"):
            SWEEP_KIND.aggregator(exact=False)

    def test_aggregator_as_progress_callback(self, warm_store):
        """The aggregator consumes UnitReports directly; a fully
        replayed sweep folds the same summary as the store scan."""
        store, root = warm_store
        streaming = StreamingAggregator()
        result = run_sweep(
            SPEC, truth_root=root, result_root=root, progress=streaming
        )
        assert result.priced_cells == 0
        summary = streaming.summary()
        assert summary.n_rows == 12 and summary.n_queries == 3
        assert summary.replayed_cells == 12 and summary.priced_cells == 0
        batch = aggregate_store(store)
        assert summary.by_estimator == batch.by_estimator
        assert summary.by_config == batch.by_config

    def test_parallel_and_sequential_summaries_identical(self, tmp_path):
        sequential = StreamingAggregator()
        run_sweep(SPEC, truth_root=tmp_path / "seq", progress=sequential)
        pooled = StreamingAggregator()
        run_sweep(
            SPEC,
            processes=2,
            truth_root=tmp_path / "par",
            progress=pooled,
        )
        assert (
            sequential.summary().by_estimator
            == pooled.summary().by_estimator
        )
        assert sequential.summary().by_config == pooled.summary().by_config

    def test_unit_seconds_threaded_through_reports(self, tmp_path):
        """Satellite: UnitReport carries pricing wall time; replayed
        units report zero, priced units report positive seconds."""
        cold_reports = []
        run_sweep(
            SPEC,
            truth_root=tmp_path,
            result_root=tmp_path,
            progress=cold_reports.append,
        )
        assert all(r.unit_seconds > 0 for r in cold_reports)
        assert all(r.cells_per_second > 0 for r in cold_reports)
        assert all(len(r.rows) == 4 for r in cold_reports)
        assert "cells/s" in cold_reports[0].render()
        warm_reports = []
        run_sweep(
            SPEC,
            truth_root=tmp_path,
            result_root=tmp_path,
            progress=warm_reports.append,
        )
        assert all(r.unit_seconds == 0.0 for r in warm_reports)
        assert all(len(r.rows) == 4 for r in warm_reports)


# --------------------------------------------------------------------- #
# presentation layer: replay/recompute parity for every artifact
# --------------------------------------------------------------------- #

BASE = SweepSpec(scale="tiny", seed=42, query_names=("1a", "4a", "6a"))


@pytest.fixture(scope="module")
def report_root(tmp_path_factory):
    """One shared store; the first pass over the registry warms it."""
    return tmp_path_factory.mktemp("report-store")


@pytest.mark.parametrize("name", [
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "table1", "table2", "table3", "ablation",
])
class TestReportParity:
    def test_replay_matches_recompute_byte_identically(
        self, name, report_root
    ):
        cold = frame_mod.run_report(
            name, BASE, result_root=report_root, truth_root=report_root
        )
        before = instrument.snapshot()
        warm = frame_mod.run_report(
            name, BASE, result_root=report_root, truth_root=report_root
        )
        delta = instrument.snapshot() - before
        # the warm path replays every cell: no pricing, no generation
        assert warm.priced_cells == 0
        assert warm.replayed_cells == cold.priced_cells + cold.replayed_cells
        assert delta.cells_priced == 0 and delta.db_generations == 0
        assert warm.text == cold.text
        # the recompute path (no store) renders the same bytes
        recompute = frame_mod.run_report(
            name, BASE, result_root=None, truth_root=report_root
        )
        assert recompute.replayed_cells == 0
        assert recompute.text == warm.text


def test_all_sixteen_artifacts_replay_from_one_store(tmp_path):
    """Sweep and deep artifacts share one store's per-query files: after
    one cold pass over the registry, a warm pass replays every artifact
    byte-identically with no pricing of either kind and no database
    generation."""
    names = frame_mod.available_reports()
    assert len(names) == 16
    spec = SweepSpec(scale="tiny", seed=42, query_names=("1a", "4a"))
    cold = {
        name: frame_mod.run_report(
            name, spec, result_root=tmp_path, truth_root=tmp_path
        ).text
        for name in names
    }
    for name in names:
        before = instrument.snapshot()
        warm = frame_mod.run_report(
            name, spec, result_root=tmp_path, truth_root=tmp_path
        )
        delta = instrument.snapshot() - before
        assert warm.text == cold[name]
        assert warm.priced_cells == 0
        assert delta.cells_priced == 0
        assert delta.deep_cells_priced == 0
        assert delta.db_generations == 0


class TestReportRegistry:
    def test_known_names_in_paper_order(self):
        assert frame_mod.available_reports() == [
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "table1", "table2", "table3", "ablation",
            "fig3-deep", "fig5-deep", "fig6-deep", "fig7-deep", "fig8-deep",
        ]

    def test_unknown_report_rejected(self):
        with pytest.raises(KeyError, match="unknown report"):
            frame_mod.run_report("fig99", BASE)

    def test_extended_estimator_resolves_for_fig5(self, report_root):
        run = frame_mod.run_report(
            "fig5", BASE, result_root=report_root, truth_root=report_root
        )
        assert "true distincts" in run.text

    def test_fig8_degrades_gracefully_below_fit_minimum(self, tmp_path):
        """A 2-query smoke grid cannot support a 3-point log-log fit;
        the replay must render '-' cells, not crash."""
        two = SweepSpec(scale="tiny", seed=42, query_names=("1a", "4a"))
        run = frame_mod.run_report(
            "fig8", two, result_root=tmp_path, truth_root=tmp_path
        )
        assert "Figure 8 (sweep replay)" in run.text
        assert "-" in run.text


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestReportCli:
    def test_report_warm_path_and_parity(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path)
        args = ["report", "fig6", "--scale", "tiny", "--queries", "1a,4a",
                "--result-cache", root]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "Section 4.1 (sweep replay)" in cold.out
        assert "priced 10" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "replayed 10 cells, priced 0" in warm.err
        assert "databases generated: 0" in warm.err

    FIG6 = ["report", "fig6", "--scale", "tiny", "--queries", "1a,4a"]

    def test_report_truth_cache_alone_is_the_result_store(
        self, tmp_path, capsys
    ):
        """Like sweep, report stores priced rows under --truth-cache when
        no --result-cache is given, so the second run replays them."""
        from repro.cli import main
        from repro.pipeline.driver import clear_grid_caches

        clear_grid_caches()
        args = self.FIG6 + ["--truth-cache", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert warm.err.splitlines()[-1] == (
            "replayed 10 cells, priced 0; databases generated: 0"
        )

    def test_pooled_cold_report_counts_the_one_generation(
        self, tmp_path, capsys
    ):
        """Pool workers attach the master's database and generate none,
        so the master's count is the whole count."""
        from repro.cli import main
        from repro.pipeline.driver import clear_grid_caches

        clear_grid_caches()
        assert main(self.FIG6 + ["--processes", "2"]) == 0
        assert capsys.readouterr().err.splitlines()[-1] == (
            "replayed 0 cells, priced 10; databases generated: 1"
        )

    def test_report_summary_folds_store(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path)
        run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        assert main(["report", "summary", "--scale", "tiny",
                     "--result-cache", root]) == 0
        out = capsys.readouterr().out
        assert "Sweep aggregate (exact): 12 rows over 3 queries" in out
        assert "PostgreSQL" in out and "HyPer" in out

    def test_report_summary_defaults_to_truth_cache(self, tmp_path, capsys):
        from repro.cli import main

        run_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        assert main(["report", "summary", "--scale", "tiny",
                     "--truth-cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Sweep aggregate (exact): 12 rows over 3 queries" in out

    def test_report_unknown_artifact_rejected(self, capsys):
        from repro.cli import main

        assert main(["report", "fig99"]) == 2
        assert "unknown report" in capsys.readouterr().err

    def test_sweep_summary_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--scale", "tiny", "--queries", "1a,4a",
            "--estimators", "PostgreSQL,HyPer",
            "--truth-cache", str(tmp_path), "--summary",
        ]) == 0
        out = capsys.readouterr().out
        assert "Sweep aggregate (exact): 8 rows over 2 queries" in out
        assert "priced 8 cells" in out


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-v"])
