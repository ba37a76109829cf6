"""Differential harness for the zero-redundancy sweep machinery.

Every sharing/caching layer — shm-attached databases, worker-persistent
workspaces, the grid-point resource cache, the plan-bookkeeping caches
— is execution policy.  The proof obligation is always the same: the
optimised path and a fresh-per-unit reference must produce
repr-identical rows and identical stored payloads.
"""

from __future__ import annotations

import pytest

from repro.pipeline.driver import build_resources, clear_grid_caches, run_sweep
from repro.pipeline.grid import SweepSpec
from repro.pipeline.results import ResultStore
from repro.pipeline.truthstore import TruthStore

QUERIES = ("3a", "6a")


def _spec() -> SweepSpec:
    return SweepSpec(scale="tiny", seed=42, query_names=QUERIES)


def _row_reprs(result):
    return [repr(r) for r in result.rows]


def _stored_state(result_root, truth_root, spec):
    """Everything the stores hold, in comparable (repr-level) form."""
    rstore = ResultStore.for_spec(result_root, spec)
    rows = {q: sorted(map(repr, rstore.load(q).values())) for q in QUERIES}
    tstore = TruthStore(
        truth_root, spec.scale, spec.seed,
        correlation=spec.correlation, dataset=spec.dataset,
    )
    truth = {}
    for q in QUERIES:
        payload = tstore.load(q)
        assert payload is not None
        truth[q] = (payload.counts, payload.unfiltered, payload.max_size)
    return rows, truth


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_grid_caches()
    yield
    clear_grid_caches()


class TestDifferentialStores:
    def test_optimised_paths_match_reference_stores(self, tmp_path):
        """shm-pooled + warm caches vs fresh-per-unit: identical stores."""
        spec = _spec()

        # reference: sequential, one fresh resources object, cold caches
        ref_root = tmp_path / "ref"
        resources = build_resources(spec, truth_root=ref_root / "truth")
        ref = run_sweep(
            spec, resources=resources, result_root=ref_root / "results"
        )
        ref_state = _stored_state(
            ref_root / "results", ref_root / "truth", spec
        )

        # optimised: pooled with shm shipping, all caches on
        opt_root = tmp_path / "opt"
        opt = run_sweep(
            spec,
            processes=2,
            truth_root=opt_root / "truth",
            result_root=opt_root / "results",
        )
        opt_state = _stored_state(
            opt_root / "results", opt_root / "truth", spec
        )

        assert _row_reprs(opt) == _row_reprs(ref)
        assert opt_state == ref_state

    def test_analytic_plan_cache_matches_closed_form(self, imdb_tiny):
        """The cached analytic closed form against the uncached
        reference, to the bit, for every connected subset (filtered and
        unfiltered) of every analytic estimator."""
        from repro.cardinality.analytic import AnalyticEstimator
        from repro.pipeline.resources import standard_estimators
        from repro.query.join_graph import JoinGraph
        from repro.query.subgraphs import connected_subsets
        from repro.workloads import job_query

        from reference import analytic

        estimators = [
            est for est in standard_estimators(imdb_tiny).values()
            if isinstance(est, AnalyticEstimator)
        ]
        assert estimators
        for name in QUERIES:
            query = job_query(name)
            selected = list(query.selections)
            for est in estimators:
                for subset in connected_subsets(JoinGraph(query)):
                    for alias in [None] + selected:
                        if alias and not query.alias_bit(alias) & subset:
                            continue
                        assert est.cardinality(query, subset, alias).hex() == (
                            analytic.cardinality(est, query, subset, alias)
                            .hex()
                        ), (name, est.name, subset, alias)

    def test_workspace_reuse_across_runs_rows_identical(self):
        """A warm shared resources object prices exactly like a cold one."""
        spec = _spec()
        cold = run_sweep(spec)
        from repro.pipeline.instrument import snapshot

        before = snapshot()
        warm = run_sweep(spec)  # same grid point: cache hit, 0 generations
        assert (snapshot() - before).db_generations == 0
        assert _row_reprs(warm) == _row_reprs(cold)


class TestWorkspaceLru:
    def test_cap_bounds_live_workspaces(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKSPACE_CAP", "2")
        spec = SweepSpec(
            scale="tiny", seed=42, query_names=("1a", "2a", "4a", "6a")
        )
        res = build_resources(spec)
        for q in res.queries:
            res.workspace(q)
            assert len(res._workspaces) <= 2
        # most-recently-used survive
        assert set(res._workspaces) == {"4a", "6a"}

    def test_eviction_does_not_change_rows(self, monkeypatch):
        spec = SweepSpec(
            scale="tiny", seed=42, query_names=("1a", "2a", "4a", "6a")
        )
        monkeypatch.setenv("REPRO_WORKSPACE_CAP", "0")  # unbounded
        unbounded = run_sweep(spec)
        clear_grid_caches()
        monkeypatch.setenv("REPRO_WORKSPACE_CAP", "1")  # evict constantly
        tight = run_sweep(spec)
        assert _row_reprs(tight) == _row_reprs(unbounded)

    def test_compute_truth_is_sequential_only(self):
        spec = SweepSpec(scale="tiny", seed=42, query_names=("3a",))
        res = build_resources(spec)
        ws = res.workspace(res.query("3a"))
        with pytest.raises(ValueError, match="sequential"):
            ws.compute_truth(processes=2)
        assert ws.compute_truth(processes=1)

    def test_adopt_queries_merges_by_name(self):
        from repro.pipeline.tasks import spec_queries

        spec_a = SweepSpec(scale="tiny", seed=42, query_names=("3a",))
        spec_b = SweepSpec(scale="tiny", seed=42, query_names=("3a", "6a"))
        res = build_resources(spec_a)
        original = res.query("3a")
        res.adopt_queries(spec_queries(spec_b))
        assert {q.name for q in res.queries} == {"3a", "6a"}
        assert res.query("3a") is original  # warm state kept


class TestSideCacheBound:
    def test_warm_side_cache_is_lru_bounded(self, monkeypatch):
        from repro.kernels import oracle as okernel

        cache = okernel._SideCache(cap=4)
        for i in range(10):
            cache[(i, "t")] = i
            assert len(cache) <= 4
        assert set(cache) == {(i, "t") for i in range(6, 10)}
        # get() refreshes recency: (6, "t") must outlive the next insert
        assert cache.get((6, "t")) == 6
        cache[(10, "t")] = 10
        assert (6, "t") in cache
        assert (7, "t") not in cache

    def test_truth_oracle_side_cache_peaks_below_cap(
        self, imdb_tiny, monkeypatch
    ):
        """Regression: the warm pass must not outgrow the LRU cap."""
        from repro.cardinality import TrueCardinalities
        from repro.kernels import oracle as okernel
        from repro.workloads import job_query

        monkeypatch.setattr(okernel, "SIDE_CACHE_CAP", 8)
        truth = TrueCardinalities(imdb_tiny)
        query = job_query("6a")
        truth.compute_all(query, warm_unfiltered=True)
        state = truth._peek_state(query)
        side = getattr(state, "kernel_unfiltered_side", None)
        assert side is not None and len(side) > 0
        assert len(side) <= 8
        assert side.cap == 8


class TestPhaseTimers:
    def test_unit_reports_carry_phase_breakdown(self):
        reports = []
        run_sweep(_spec(), progress=reports.append)
        priced = [r for r in reports if r.priced]
        assert priced, "expected freshly priced units"
        for report in priced:
            names = [n for n, _ in report.phases]
            assert "dp" in names
            assert all(s > 0 for _, s in report.phases)
            # phase sites are disjoint: the breakdown cannot exceed the
            # unit's wall time by more than the sequential setup slice
            assert sum(s for _, s in report.phases) <= (
                report.unit_seconds + report.setup_seconds + 0.05
            )
        # one-time resource construction lands on the first unit only
        assert priced[0].setup_seconds > 0
        assert all(r.setup_seconds == 0 for r in priced[1:])

    def test_deep_units_split_estimate_dp_execute(self):
        """A deep unit charges the subexpression estimator loop, planning
        and the simulated engine to three separate phases."""
        from repro.physical import IndexConfig
        from repro.pipeline.driver import run_deep_sweep
        from repro.pipeline.grid import (
            TRUE_SOURCE,
            DeepConfig,
            DeepSpec,
            subexpr_deep_config,
        )

        spec = DeepSpec(
            scale="tiny",
            seed=42,
            query_names=QUERIES,
            estimators=("PostgreSQL", TRUE_SOURCE),
            configs=(
                subexpr_deep_config(4),
                DeepConfig(name="pk", kind="runtime", indexes=IndexConfig.PK),
            ),
        )
        reports = []
        run_deep_sweep(spec, progress=reports.append)
        priced = [r for r in reports if r.priced]
        assert priced, "expected freshly priced units"
        for report in priced:
            names = {n for n, _ in report.phases}
            assert {"estimate", "dp", "execute"} <= names
            assert sum(s for _, s in report.phases) <= (
                report.unit_seconds + report.setup_seconds + 0.05
            )

    def test_render_includes_breakdown(self):
        from repro.pipeline.results import UnitReport

        report = UnitReport(
            query="3a", index=1, total=2, priced=10, cached=0,
            unit_seconds=0.5, setup_seconds=0.25,
            phases=(("truth", 0.3), ("dp", 0.2)),
        )
        rendered = report.render()
        assert "+0.25s setup" in rendered
        assert "truth=0.30s" in rendered
        assert "dp=0.20s" in rendered

    def test_generate_phase_accumulates(self):
        from repro.pipeline.instrument import phase_snapshot, phase_delta
        from repro.pipeline.tasks import make_database

        before = phase_snapshot()
        make_database("imdb", "tiny", 42)
        delta = dict(phase_delta(before))
        assert delta.get("generate", 0.0) > 0
