"""Pipeline: grid parity (sequential ≡ parallel ≡ legacy suite), truth store.

The acceptance bar for the sweep driver is *bit-identical* results: the
multiprocessing path must produce exactly the per-query (plan cost,
q-error) floats of the sequential path, which in turn must match what a
hand-rolled loop over the ``ExperimentSuite`` accessors computes.
"""

import json

import pytest

from repro.cost.base import plan_cost
from repro.cardinality.qerror import q_error
from repro.enumeration.dp import DPEnumerator
from repro.experiments import ExperimentSuite
from repro.pipeline import (
    SweepSpec,
    TruthStore,
    build_resources,
    run_sweep,
    sweep_query,
)
from repro.pipeline.grid import make_cost_model

SPEC = SweepSpec(
    scale="tiny",
    seed=42,
    query_names=("1a", "4a", "6a"),
    estimators=("PostgreSQL", "HyPer"),
)


@pytest.fixture(scope="module")
def sequential():
    return run_sweep(SPEC)


class TestGridShape:
    def test_full_cross_product(self, sequential):
        assert len(sequential.rows) == 3 * 2 * 2
        keys = [(r.query, r.estimator, r.config) for r in sequential.rows]
        assert len(set(keys)) == len(keys)
        assert {r.query for r in sequential.rows} == {"1a", "4a", "6a"}

    def test_rows_sane(self, sequential):
        for row in sequential.rows:
            assert row.est_cost > 0
            assert row.true_cost > 0
            assert row.optimal_cost > 0
            assert row.slowdown >= 1.0 - 1e-9
            assert row.q_error >= 1.0

    def test_render_and_csv(self, sequential, tmp_path):
        text = sequential.render()
        assert "Sweep" in text and "q-error" in text
        path = sequential.to_csv(tmp_path / "rows.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(sequential.rows)
        assert lines[0].startswith("query,estimator,config")


class TestParity:
    def test_sequential_matches_legacy_suite_path(self, sequential):
        """Replicate the sweep with the plain ExperimentSuite accessors —
        every float must agree exactly."""
        suite = ExperimentSuite(
            scale=SPEC.scale, seed=SPEC.seed,
            query_names=list(SPEC.query_names),
        )
        expected = {}
        for config in SPEC.configs:
            cost_model = make_cost_model(config.cost_model, suite.db)
            dp = DPEnumerator(
                cost_model, suite.design(config.indexes), allow_nlj=False
            )
            for query in suite.queries:
                ctx = suite.workspace(query).context
                tcard = suite.workspace(query).true_card
                _, optimal = dp.optimize(ctx, tcard)
                for estimator in SPEC.estimators:
                    card = suite.workspace(query).card(estimator)
                    plan, est_cost = dp.optimize(ctx, card)
                    expected[(query.name, estimator, config.name)] = (
                        est_cost,
                        plan_cost(plan, cost_model, tcard),
                        q_error(card(query.all_mask), tcard(query.all_mask)),
                    )
        assert len(expected) == len(sequential.rows)
        for row in sequential.rows:
            est_cost, true_cost, qerr = expected[
                (row.query, row.estimator, row.config)
            ]
            assert row.est_cost == est_cost
            assert row.true_cost == true_cost
            assert row.q_error == qerr

    def test_parallel_bit_identical(self, sequential, tmp_path):
        parallel = run_sweep(SPEC, processes=2, truth_root=tmp_path)
        assert parallel.rows == sequential.rows

    def test_parallel_reruns_from_store_identically(self, tmp_path):
        """Second parallel run hits the disk store and must not drift."""
        first = run_sweep(SPEC, processes=2, truth_root=tmp_path)
        second = run_sweep(SPEC, processes=2, truth_root=tmp_path)
        assert first.rows == second.rows


class TestWorkspaceSharing:
    def test_one_card_per_query_estimator(self):
        resources = build_resources(SPEC)
        query = resources.query("1a")
        ws = resources.workspace(query)
        assert ws.card("PostgreSQL") is ws.card("PostgreSQL")
        assert resources.workspace(query) is ws
        assert ws.context.catalog is ws.catalog

    def test_workspace_pins_truth_state_across_churn(self):
        """A workspace must keep its query's truth counts alive even when
        other queries churn through the oracle's bounded LRU."""
        resources = build_resources(SPEC)
        resources.truth.max_cached_queries = 1
        ws1 = resources.workspace(resources.query("1a"))
        counts = ws1.compute_truth()
        for name in ("4a", "6a"):
            resources.workspace(resources.query(name)).compute_truth()
        resources.truth.max_rows = 0  # any re-materialisation would raise
        assert ws1.true_card(ws1.query.all_mask) == float(
            counts[ws1.query.all_mask]
        )

    def test_store_preload_survives_lru_churn(self, tmp_path):
        """Disk-preloaded counts must not be lost to LRU eviction and then
        silently recomputed (the store is checked once per workspace)."""
        spec = SweepSpec(
            scale="tiny", seed=42, query_names=("1a",),
            estimators=("PostgreSQL",),
        )
        run_sweep(spec, truth_root=tmp_path)  # populate the store
        resources = build_resources(SPEC, truth_root=tmp_path)
        resources.truth.max_cached_queries = 1
        ws = resources.workspace(resources.query("1a"))
        ws.compute_truth()  # preloaded from disk
        for name in ("4a", "6a"):
            resources.workspace(resources.query(name)).compute_truth()
        resources.truth.max_rows = 0
        ws.compute_truth()  # cached counts only — must not raise

    def test_catalog_pair_edges_match_loop_derivation(self):
        """pair_edges must be exactly the non-empty edges_between results,
        in pairs order — the DP loop's previous derivation."""
        resources = build_resources(SPEC)
        ws = resources.workspace(resources.query("6a"))
        catalog, graph = ws.catalog, ws.graph
        derived = [
            (s1, s2, graph.edges_between(s1, s2))
            for s1, s2 in catalog.pairs
            if graph.edges_between(s1, s2)
        ]
        assert catalog.pair_edges == derived


class TestTruthStore:
    def test_roundtrip(self, tmp_path):
        store = TruthStore(tmp_path, "tiny", 42)
        store.save("1a", {1: 10, 3: 4}, {(3, "t"): 7}, max_size=2)
        payload = store.load("1a")
        assert payload.counts == {1: 10, 3: 4}
        assert payload.unfiltered == {(3, "t"): 7}
        assert payload.max_size == 2
        assert payload.covers(2) and not payload.covers(3)
        assert not payload.covers(None)

    def test_merge_widens_coverage(self, tmp_path):
        store = TruthStore(tmp_path, "tiny", 42)
        store.save("1a", {1: 10, 2: 20}, {(1, "t"): 1}, max_size=2)
        # overlapping key: the recomputation (new value) wins
        store.save("1a", {2: 25, 3: 4}, {(3, "mc"): 9}, max_size=None)
        payload = store.load("1a")
        assert payload.counts == {1: 10, 2: 25, 3: 4}
        assert payload.unfiltered == {(1, "t"): 1, (3, "mc"): 9}
        assert payload.max_size is None
        # narrower save later must not shrink coverage
        store.save("1a", {7: 2}, max_size=3)
        payload = store.load("1a")
        assert payload.counts == {1: 10, 2: 25, 3: 4, 7: 2}
        assert payload.max_size is None

    def test_roundtrip_beyond_64_bits(self, tmp_path):
        """A subset bitset past bit 63 and an exact count no 64-bit
        integer holds both round-trip as python ints."""
        big_subset, big_count = 2**63 + 11, 10**30 + 7
        counts = {1: 7, 3: 0, big_subset: big_count}
        unfiltered = {(3, "t"): 5, (big_subset, "mc"): 12}
        store = TruthStore(tmp_path, "tiny", 42)
        store.save("1a", counts, unfiltered, max_size=4)
        payload = store.load("1a")
        assert payload.counts == counts
        assert payload.unfiltered == unfiltered
        assert payload.max_size == 4
        assert type(payload.counts[big_subset]) is int

    def test_known_queries_sorted(self, tmp_path):
        store = TruthStore(tmp_path, "tiny", 42)
        store.save("4a", {1: 1})
        store.save("1a", {1: 1})
        assert store.known_queries() == ["1a", "4a"]

    def test_corrupt_file_treated_as_absent(self, tmp_path):
        store = TruthStore(tmp_path, "tiny", 42)
        store.save("1a", {1: 10})
        store.path("1a").write_text("not json{")
        assert store.load("1a") is None

    def test_missing_is_none(self, tmp_path):
        store = TruthStore(tmp_path, "tiny", 42)
        assert store.load("nope") is None
        assert store.known_queries() == []

    def test_distinct_databases_do_not_collide(self, tmp_path):
        a = TruthStore(tmp_path, "tiny", 42)
        b = TruthStore(tmp_path, "tiny", 43)
        c = TruthStore(tmp_path, "small", 42)
        a.save("1a", {1: 10})
        assert b.load("1a") is None
        assert c.load("1a") is None

    def test_sweep_populates_and_reuses_store(self, tmp_path):
        spec = SweepSpec(
            scale="tiny", seed=42, query_names=("1a",),
            estimators=("PostgreSQL",),
        )
        first = run_sweep(spec, truth_root=tmp_path)
        store = TruthStore(tmp_path, "tiny", 42)
        assert store.known_queries() == ["1a"]
        payload = store.load("1a")
        assert payload.counts  # exact counts persisted

        # a fresh run preloads the stored counts instead of recomputing
        resources = build_resources(spec, truth_root=tmp_path)
        resources.truth.max_rows = 0  # any re-materialisation would raise
        rows = sweep_query(
            resources, resources.query("1a"), spec
        )
        assert rows == [r for r in first.rows if r.query == "1a"]

    def test_warm_run_does_not_rewrite_store(self, tmp_path):
        """A sweep that only consumed disk counts must not rewrite them."""
        spec = SweepSpec(
            scale="tiny", seed=42, query_names=("1a",),
            estimators=("PostgreSQL",),
        )
        run_sweep(spec, truth_root=tmp_path)
        store = TruthStore(tmp_path, "tiny", 42)
        stamp = store.path("1a").stat().st_mtime_ns
        run_sweep(spec, truth_root=tmp_path)  # warm: preload only
        assert store.path("1a").stat().st_mtime_ns == stamp

    def test_truth_root_conflicts_with_prebuilt_resources(self, tmp_path):
        resources = build_resources(SPEC)
        with pytest.raises(ValueError):
            run_sweep(SPEC, truth_root=tmp_path, resources=resources)

    def test_prebuilt_resources_rejected_in_pool_mode(self):
        resources = build_resources(SPEC)
        with pytest.raises(ValueError):
            run_sweep(SPEC, processes=2, resources=resources)

    def test_partial_compute_does_not_claim_full_coverage(self, tmp_path):
        """save_truth without an explicit max_size must stamp the widest
        coverage actually enumerated, never more."""
        resources = build_resources(SPEC, truth_root=tmp_path)
        ws = resources.workspace(resources.query("6a"))
        ws.compute_truth(max_size=2)
        ws.save_truth()
        payload = TruthStore(tmp_path, "tiny", 42).load("6a")
        assert payload.max_size == 2
        assert not payload.covers(None)

    def test_stored_counts_match_oracle(self, tmp_path):
        spec = SweepSpec(
            scale="tiny", seed=42, query_names=("1a",),
            estimators=("PostgreSQL",),
        )
        run_sweep(spec, truth_root=tmp_path)
        payload = TruthStore(tmp_path, "tiny", 42).load("1a")
        suite = ExperimentSuite(scale="tiny", query_names=["1a"])
        query = suite.queries[0]
        tcard = suite.workspace(query).true_card
        for subset, count in payload.counts.items():
            assert tcard(subset) == float(count)

    def test_payload_json_is_stable(self, tmp_path):
        store = TruthStore(tmp_path, "tiny", 42)
        store.save("1a", {3: 4, 1: 10})
        raw = json.loads(store.path("1a").read_text())
        assert raw["version"] == 1
        assert list(raw["counts"]) == ["1", "3"]  # sorted, stringified


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-v"])
