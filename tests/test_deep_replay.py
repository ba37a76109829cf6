"""Deep-artifact replay: DeepRow store, deep pricing, report parity.

The acceptance bar of the deep replay layer:

* every deep artifact (``fig3-deep``/``fig5-deep`` subexpression
  distributions, ``fig6-deep``–``fig8-deep`` simulated runtimes) renders
  **byte-identical** text whether its frame was replayed from a warm
  store or recomputed, and the warm path performs **zero database
  generation, zero shallow pricing, and zero deep pricing** (instrument
  counters);
* the deep folds are byte-identical to the live reference loops
  (``reference.experiments.run_fig3``, ``run_injection`` …) on the
  same grid;
* randomized :class:`DeepRow`\\ s survive the JSON store round trip
  bit-exactly, and mixed sweep/deep files route each kind correctly;
* a pre-existing version-1 store replays all shallow artifacts unchanged
  and prices exactly the deep delta; corrupt deep cells drop (and
  re-price) only themselves;
* the deep aggregator folds bit-identically in any arrival order.
"""

import json
import random
from dataclasses import replace

import pytest

from reference import experiments as reference
from repro.experiments import ExperimentSuite, fig3, fig5
from repro.experiments import frame as frame_mod
from repro.pipeline import (
    DeepRow,
    DeepSpec,
    DeepStreamingAggregator,
    ResultStore,
    SweepSpec,
    aggregate_deep_store,
    deep_cell_key,
    deep_config_fingerprint,
    run_deep_sweep,
    run_sweep,
    subexpr_deep_config,
)
from repro.pipeline import instrument
from repro.pipeline.grid import TRUE_SOURCE, DeepConfig
from repro.physical import IndexConfig

QUERIES = ("1a", "4a", "6a")
BASE = SweepSpec(scale="tiny", seed=42, query_names=QUERIES)

DEEP_ARTIFACTS = [
    "fig3-deep", "fig5-deep", "fig6-deep", "fig7-deep", "fig8-deep",
]

#: a small mixed-kind deep spec used by the storage-layer tests
SPEC = DeepSpec(
    scale="tiny",
    seed=42,
    query_names=("1a", "4a"),
    estimators=("PostgreSQL", TRUE_SOURCE),
    configs=(
        subexpr_deep_config(4),
        DeepConfig(
            name="pk/no-nlj+rehash/tuned",
            kind="runtime",
            indexes=IndexConfig.PK,
            allow_nlj=False,
            rehash=True,
        ),
    ),
)

SHALLOW = SweepSpec(
    scale="tiny",
    seed=42,
    query_names=("1a", "4a"),
    estimators=("PostgreSQL", "HyPer"),
)


# --------------------------------------------------------------------- #
# presentation layer: replay/recompute parity for every deep artifact
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def deep_root(tmp_path_factory):
    """One shared store; the first pass over the artifacts warms it."""
    return tmp_path_factory.mktemp("deep-store")


@pytest.mark.parametrize("name", DEEP_ARTIFACTS)
class TestDeepReportParity:
    def test_replay_matches_recompute_byte_identically(
        self, name, deep_root
    ):
        cold = frame_mod.run_report(
            name, BASE, result_root=deep_root, truth_root=deep_root
        )
        before = instrument.snapshot()
        warm = frame_mod.run_report(
            name, BASE, result_root=deep_root, truth_root=deep_root
        )
        delta = instrument.snapshot() - before
        # the warm path replays every deep cell: no pricing of either
        # kind, no database generation
        assert warm.priced_cells == 0
        assert warm.replayed_cells == cold.priced_cells + cold.replayed_cells
        assert delta.deep_cells_priced == 0
        assert delta.cells_priced == 0 and delta.db_generations == 0
        assert warm.text == cold.text
        # the recompute path (no store) renders the same bytes
        recompute = frame_mod.run_report(
            name, BASE, result_root=None, truth_root=deep_root
        )
        assert recompute.replayed_cells == 0
        assert recompute.text == warm.text


class TestDeepMatchesLiveRun:
    """The deep folds ARE the paper-faithful measurements: byte-identical
    to the live reference loops on the same grid."""

    @pytest.fixture(scope="class")
    def suite(self):
        return ExperimentSuite(
            scale="tiny", seed=42, query_names=list(QUERIES)
        )

    def test_fig3(self, deep_root, suite):
        run = frame_mod.run_report(
            "fig3-deep", BASE, result_root=deep_root, truth_root=deep_root
        )
        assert run.text == reference.run_fig3(
            suite, max_subexpr_size=fig3.DEEP_MAX_SUBEXPR_SIZE
        ).render()

    def test_fig5(self, deep_root, suite):
        run = frame_mod.run_report(
            "fig5-deep", BASE, result_root=deep_root, truth_root=deep_root
        )
        assert run.text == reference.run_fig5(
            suite, max_subexpr_size=fig5.DEEP_MAX_SUBEXPR_SIZE
        ).render()

    def test_fig6(self, deep_root, suite):
        run = frame_mod.run_report(
            "fig6-deep", BASE, result_root=deep_root, truth_root=deep_root
        )
        expected = (
            reference.run_injection(suite).render()
            + "\n\n"
            + reference.run_engine_ablation(suite).render()
        )
        assert run.text == expected

    def test_fig7(self, deep_root, suite):
        run = frame_mod.run_report(
            "fig7-deep", BASE, result_root=deep_root, truth_root=deep_root
        )
        assert run.text == reference.run_fig7(suite).render()

    def test_fig8(self, deep_root, suite):
        run = frame_mod.run_report(
            "fig8-deep", BASE, result_root=deep_root, truth_root=deep_root
        )
        assert run.text == reference.run_fig8(suite).render()

    def test_fig8_degrades_gracefully_below_fit_minimum(self, tmp_path):
        """A 2-query grid cannot support a 3-point log-log fit; the deep
        fold must render '-' fit cells, not crash."""
        two = SweepSpec(scale="tiny", seed=42, query_names=("1a", "4a"))
        run = frame_mod.run_report(
            "fig8-deep", two, result_root=tmp_path, truth_root=tmp_path
        )
        assert "Figure 8: cost model vs simulated runtime" in run.text
        assert "-" in run.text and "nan" not in run.text


# --------------------------------------------------------------------- #
# storage layer: round trips and kind routing
# --------------------------------------------------------------------- #


def _random_deep_row(rng: random.Random, i: int) -> DeepRow:
    """A randomized row exercising float extremes and both kinds."""
    def f():
        return rng.choice([
            rng.random(),
            rng.random() * 10 ** rng.randint(-300, 300),
            -rng.random() * 10 ** rng.randint(-10, 10),
            float(rng.randint(0, 2**62)),
            0.0,
        ])

    if i % 2 == 0:
        return DeepRow(
            kind="subexpr",
            query=f"q{i}",
            estimator=rng.choice(["PostgreSQL", "DBMS A", "HyPer"]),
            config="subexpr7",
            subset=rng.randint(1, 2**40),
            true_card=f(),
            est_card=f(),
        )
    return DeepRow(
        kind="runtime",
        query=f"q{i}",
        estimator=rng.choice(["PostgreSQL", TRUE_SOURCE]),
        config="pk/default/tuned",
        plan_cost_true=f(),
        plan_cost_est=f(),
        sim_runtime_ms=f(),
        timed_out=rng.randint(0, 1),
    )


class TestDeepRowRoundTrip:
    def test_randomized_rows_survive_json_bit_exactly(self, tmp_path):
        rng = random.Random(99)
        store = ResultStore(tmp_path, "tiny", 42)
        cells = {}
        for c in range(8):
            rows = tuple(
                _random_deep_row(rng, c * 10 + i) for i in range(5)
            )
            cells[f"kind|est{c}|fp{c:04d}"] = rows
        store.save_deep("qx", cells)
        loaded = store.load_deep("qx")
        assert loaded == cells
        # bit-exact, not just ==: -0.0 vs 0.0 or lost ulps would differ
        # in repr even where == passes
        assert {
            k: [repr(r) for r in v] for k, v in loaded.items()
        } == {
            k: [repr(r) for r in v] for k, v in cells.items()
        }

    def test_save_deep_merges_and_preserves_cells(self, tmp_path):
        rng = random.Random(7)
        store = ResultStore(tmp_path, "tiny", 42)
        first = {"a|x|1": (_random_deep_row(rng, 0),)}
        second = {"b|y|2": (_random_deep_row(rng, 1),)}
        store.save_deep("qx", first)
        store.save_deep("qx", second)
        assert store.load_deep("qx") == {**first, **second}

    def test_mixed_file_routes_each_kind(self, tmp_path):
        """Sweep rows and deep cells share one per-query file; each API
        sees only its kind and neither save path drops the other's."""
        shallow = run_sweep(SHALLOW, truth_root=tmp_path, result_root=tmp_path)
        deep = run_deep_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        store = ResultStore.for_spec(tmp_path, SHALLOW)
        for query in ("1a", "4a"):
            stored = store.load_all(query)
            assert len(stored.rows) == 4  # 2 estimators x 2 configs
            assert len(stored.deep) == 4  # 2 sources x 2 deep configs
        # scans route kinds
        assert {type(r) for r in store.scan()} == {type(shallow.rows[0])}
        deep_rows = list(store.scan_deep())
        assert all(isinstance(r, DeepRow) for r in deep_rows)
        assert sorted({r.kind for r in deep_rows}) == ["runtime", "subexpr"]
        # the manifest indexes both kinds, answering per-cell coverage
        # questions without opening row files
        entry = store.index.refresh()["1a"]
        assert len(entry["keys"]) == 4 and len(entry["deep_keys"]) == 4
        assert store.index.total_deep_rows() == len(deep_rows)
        assert store.index.deep_keys("1a") == tuple(entry["deep_keys"])
        assert store.index.deep_keys("13d") == ()
        subexpr_fp = deep_config_fingerprint(SPEC.configs[0])
        assert store.index.lookup_deep(
            "1a", deep_cell_key("subexpr", "PostgreSQL", subexpr_fp)
        )
        assert not store.index.lookup_deep(
            "1a", deep_cell_key("subexpr", "PostgreSQL", "0" * 12)
        )
        # and both sweeps replay fully from the mixed file
        assert run_sweep(
            SHALLOW, truth_root=tmp_path, result_root=tmp_path
        ).priced_cells == 0
        warm = run_deep_sweep(
            SPEC, truth_root=tmp_path, result_root=tmp_path
        )
        assert warm.priced_cells == 0
        assert warm.rows == deep.rows

    def test_deep_cells_excluded_from_shallow_identity(self, tmp_path):
        """Growing the deep grid must leave every shallow cache warm and
        vice versa — the two kinds have disjoint cell identities."""
        run_sweep(SHALLOW, truth_root=tmp_path, result_root=tmp_path)
        run_deep_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        wider = replace(
            SPEC,
            configs=SPEC.configs + (subexpr_deep_config(3),),
        )
        grown = run_deep_sweep(
            wider, truth_root=tmp_path, result_root=tmp_path
        )
        # only the new config's cells priced; old deep cells replayed
        assert grown.priced_cells == 4 and grown.cached_cells == 8
        assert run_sweep(
            SHALLOW, truth_root=tmp_path, result_root=tmp_path
        ).priced_cells == 0


# --------------------------------------------------------------------- #
# store-version migration
# --------------------------------------------------------------------- #


def _downgrade_to_v1(store: ResultStore, query: str) -> None:
    """Rewrite a per-query file exactly as the PR-4-era store wrote it."""
    path = store.path(query)
    raw = json.loads(path.read_text())
    path.write_text(json.dumps({"version": 1, "rows": raw["rows"]}))
    store.index.invalidate()


class TestStoreVersionMigration:
    @pytest.fixture()
    def v1_root(self, tmp_path):
        """A store holding only version-1 files (no deep rows)."""
        run_sweep(SHALLOW, truth_root=tmp_path, result_root=tmp_path)
        store = ResultStore.for_spec(tmp_path, SHALLOW)
        for query in ("1a", "4a"):
            _downgrade_to_v1(store, query)
        return tmp_path

    def test_v1_store_replays_shallow_unchanged(self, v1_root):
        result = run_sweep(SHALLOW, truth_root=v1_root, result_root=v1_root)
        assert result.priced_cells == 0 and result.cached_cells == 8
        assert result.rows == run_sweep(SHALLOW).rows

    def test_v1_store_prices_exactly_the_deep_delta(self, v1_root):
        before = instrument.snapshot()
        deep = run_deep_sweep(SPEC, truth_root=v1_root, result_root=v1_root)
        delta = instrument.snapshot() - before
        assert deep.cached_cells == 0
        assert deep.priced_cells == 8 == delta.deep_cells_priced
        assert delta.cells_priced == 0  # no shallow re-pricing
        # the rewrite upgraded the files; both kinds now replay
        assert run_sweep(
            SHALLOW, truth_root=v1_root, result_root=v1_root
        ).priced_cells == 0
        assert run_deep_sweep(
            SPEC, truth_root=v1_root, result_root=v1_root
        ).priced_cells == 0

    def test_corrupt_deep_cell_dropped_and_repriced(self, tmp_path):
        run_deep_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        reference = run_deep_sweep(
            SPEC, truth_root=tmp_path, result_root=tmp_path
        )
        store = ResultStore.for_spec(tmp_path, SPEC)
        path = store.path("1a")
        raw = json.loads(path.read_text())
        bad_key = sorted(raw["deep"])[0]
        raw["deep"][bad_key][0]["est_card"] = "not-a-float"
        path.write_text(json.dumps(raw))
        # cell-wise drop: only the tampered cell is gone
        loaded = store.load_deep("1a")
        assert bad_key not in loaded and len(loaded) == 3
        assert store.dropped_deep_cells == 1
        # ... and exactly that cell is re-priced, bit-identically
        repaired = run_deep_sweep(
            SPEC, truth_root=tmp_path, result_root=tmp_path
        )
        assert repaired.priced_cells == 1 and repaired.cached_cells == 7
        assert repaired.rows == reference.rows

    def test_unknown_version_reads_empty_and_reprices(self, tmp_path):
        run_deep_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        store = ResultStore.for_spec(tmp_path, SPEC)
        for query in ("1a", "4a"):
            path = store.path(query)
            raw = json.loads(path.read_text())
            raw["version"] = 99
            path.write_text(json.dumps(raw))
        store.index.invalidate()
        assert store.load_all("1a").rows == {}
        assert store.load_all("1a").deep == {}
        result = run_deep_sweep(
            SPEC, truth_root=tmp_path, result_root=tmp_path
        )
        assert result.priced_cells == 8 and result.cached_cells == 0

    def test_non_dict_sections_read_empty(self, tmp_path):
        store = ResultStore(tmp_path, "tiny", 42)
        store.directory.mkdir(parents=True)
        store.path("qx").write_text(
            json.dumps({"version": 2, "rows": [1, 2], "deep": "nope"})
        )
        assert store.load_all("qx").rows == {}
        assert store.load_all("qx").deep == {}


# --------------------------------------------------------------------- #
# aggregation layer
# --------------------------------------------------------------------- #


class TestDeepAggregation:
    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("deep-agg")
        run_deep_sweep(SPEC, truth_root=root, result_root=root)
        return ResultStore.for_spec(root, SPEC), root

    def test_any_order_folds_bit_identically(self, warm):
        store, _ = warm
        rows = list(store.scan_deep())
        batch = DeepStreamingAggregator()
        batch.add_many(rows)
        for seed in (0, 1, 2):
            shuffled = rows[:]
            random.Random(seed).shuffle(shuffled)
            streaming = DeepStreamingAggregator()
            streaming.add_many(shuffled)
            assert streaming.summary() == batch.summary()
            assert streaming.summary().render() == batch.summary().render()

    def test_store_fold_matches_streaming(self, warm):
        store, root = warm
        result = run_deep_sweep(SPEC, truth_root=root, result_root=root)
        assert result.priced_cells == 0
        folded = DeepStreamingAggregator()
        folded.add_many(result.rows)
        folded.replayed_cells = result.cached_cells
        summary = folded.summary()
        batch = aggregate_deep_store(store)
        assert summary.subexpr == batch.subexpr
        assert summary.runtime == batch.runtime
        assert summary.n_rows == batch.n_rows
        # both count *cells*, not rows (a subexpr cell owns many rows)
        assert batch.replayed_cells == summary.replayed_cells == 8

    def test_summary_contents(self, warm):
        store, _ = warm
        summary = aggregate_deep_store(store)
        # subexpr stats for both sources; the truth source has q-error 1
        by_est = {s.estimator: s for s in summary.subexpr}
        assert by_est[TRUE_SOURCE].q_error_median == 1.0
        assert by_est["PostgreSQL"].q_error_median >= 1.0
        # runtime stats pair PostgreSQL against the truth plan
        assert [
            (s.config, s.estimator) for s in summary.runtime
        ] == [("pk/no-nlj+rehash/tuned", "PostgreSQL")]
        assert summary.runtime[0].n == 2
        assert "Deep aggregate" in summary.render()


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestDeepCli:
    def test_unknown_artifact_lists_deep_variants(self, capsys):
        from repro.cli import main

        assert main(["report", "fig3-depe"]) == 2
        err = capsys.readouterr().err
        assert "unknown report" in err
        assert "fig3-deep" in err and "fig8-deep" in err
        assert "did you mean 'fig3-deep'?" in err

    def test_deep_report_warm_path_and_parity(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path)
        args = ["report", "fig3-deep", "--scale", "tiny",
                "--queries", "1a,4a", "--result-cache", root]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "Figure 3 (PostgreSQL)" in cold.out
        assert "priced 10" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "replayed 10 cells, priced 0" in warm.err
        assert "databases generated: 0" in warm.err

    def test_report_summary_includes_deep_rows(self, tmp_path, capsys):
        from repro.cli import main

        run_deep_sweep(SPEC, truth_root=tmp_path, result_root=tmp_path)
        assert main(["report", "summary", "--scale", "tiny",
                     "--result-cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Deep aggregate (subexpressions)" in out
        assert "Deep aggregate (simulated runtimes)" in out

    def test_summary_combines_with_artifacts(self, tmp_path, capsys):
        """'report summary fig3-deep' renders both, in one invocation."""
        from repro.cli import main

        root = str(tmp_path)
        assert main(["report", "summary", "fig3-deep", "--scale", "tiny",
                     "--queries", "1a,4a", "--result-cache", root]) == 0
        out = capsys.readouterr().out
        assert "Sweep aggregate" in out
        assert "Figure 3 (PostgreSQL)" in out


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-v"])
