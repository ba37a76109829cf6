"""Differential harness for the vectorized kernels.

``repro.kernels`` is the one production path for the three hottest
loops — subgraph enumeration, oracle materialisation, DP candidate
pricing.  The contract against the pure-python reference in
``tests/reference/`` is **bit-identity**: same subset lists, same
``JoinEdge`` objects, same counts, same plan reprs, same cost floats,
same stored bytes.  The truth-oracle and DP ends of that contract live
in ``test_truth_differential.py`` and ``test_dp.py``; this module pins
the enumeration kernels, the shared key encoder, and the end-to-end
sweep (rows *and* persisted truth files).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cardinality import TrueCardinalities
from repro.catalog.column import NULL_INT
from repro.errors import EnumerationError
from repro.kernels.subgraph import MAX_VERTICES
from repro.query.join_graph import JoinGraph
from repro.query.query import JoinEdge, Query, Relation
from repro.query.subgraphs import (
    SubgraphCatalog,
    connected_subsets,
    csg_cmp_pairs,
)
from repro.util.bitset import popcount
from repro.util.joinkeys import combine_keys
from repro.workloads import job_query

from reference import subgraphs as reference
from reference.truth import ReferenceTrueCardinalities
from test_truth_differential import _random_case


# --------------------------------------------------------------------- #
# subgraph enumeration kernels
# --------------------------------------------------------------------- #

#: JOB queries spanning the size range (29a is the 17-relation flagship)
JOB_CASES = ("1a", "3a", "13d", "17b", "29a")


def _case_query(case):
    if isinstance(case, str):
        return job_query(case)
    return _random_case(case, max_rel=9)[1]


SUBGRAPH_CASES = list(JOB_CASES) + list(range(6))


class TestSubgraphParity:
    @pytest.mark.parametrize("case", SUBGRAPH_CASES)
    def test_connected_subsets_identical(self, case):
        graph = JoinGraph(_case_query(case))
        assert connected_subsets(graph) == reference.connected_subsets(graph)

    @pytest.mark.parametrize("case", ["13d", 2])
    @pytest.mark.parametrize("max_size", [1, 2, 3, 7])
    def test_connected_subsets_max_size_identical(self, case, max_size):
        graph = JoinGraph(_case_query(case))
        assert connected_subsets(graph, max_size) == (
            reference.connected_subsets(graph, max_size)
        )

    @pytest.mark.parametrize("case", SUBGRAPH_CASES)
    def test_csg_cmp_pairs_identical(self, case):
        graph = JoinGraph(_case_query(case))
        assert csg_cmp_pairs(graph) == reference.csg_cmp_pairs(graph)

    @pytest.mark.parametrize("case", ["3a", "29a", 0, 3])
    def test_pair_edges_same_objects(self, case):
        """Not just equal: the kernel must hand back the graph's own
        ``JoinEdge`` instances, in ``edges_between`` order."""
        graph = JoinGraph(_case_query(case))
        vectorized = SubgraphCatalog(graph).pair_edges
        expected = reference.pair_edges(graph)
        assert len(vectorized) == len(expected)
        for (s1, s2, edges), (r1, r2, ref_edges) in zip(vectorized, expected):
            assert (s1, s2) == (r1, r2)
            assert len(edges) == len(ref_edges)
            assert all(e is r for e, r in zip(edges, ref_edges))

    @pytest.mark.parametrize("case", ["13d", "29a", 1, 4])
    def test_expansion_parents_identical(self, case):
        graph = JoinGraph(_case_query(case))
        catalog = SubgraphCatalog(graph)
        for subset in catalog.csgs:
            if popcount(subset) > 1:
                assert catalog.expansion_parent(subset) == (
                    reference.expansion_parent(graph, subset)
                )

    def test_too_wide_graph_names_its_query(self):
        n = MAX_VERTICES + 1
        query = Query(
            "wide",
            [Relation(f"r{i}", "t") for i in range(n)],
            {},
            [
                JoinEdge(f"r{i}", "ref", f"r{i - 1}", "id", "pk_fk",
                         pk_side=f"r{i - 1}")
                for i in range(1, n)
            ],
        )
        with pytest.raises(EnumerationError, match="'wide' joins 63"):
            connected_subsets(JoinGraph(query))


# --------------------------------------------------------------------- #
# the shared composite-key encoder
# --------------------------------------------------------------------- #


class TestCombineKeys:
    @pytest.mark.parametrize("seed", range(5))
    def test_codes_equal_iff_all_columns_equal(self, seed):
        rng = np.random.default_rng(97 * (seed + 1))
        n_cols = int(rng.integers(1, 4))
        left = [rng.integers(-2, 9, size=40) for _ in range(n_cols)]
        right = [rng.integers(-2, 9, size=55) for _ in range(n_cols)]
        for column in (*left, *right):
            column[rng.random(len(column)) < 0.1] = NULL_INT
        lcomb, rcomb, lids, rids = combine_keys(left, right)
        # dropped rows are exactly the ones with a NULL key component
        assert np.array_equal(
            lids, np.nonzero(~np.any([c == NULL_INT for c in left], 0))[0]
        )
        assert np.array_equal(
            rids, np.nonzero(~np.any([c == NULL_INT for c in right], 0))[0]
        )
        code_match = lcomb[:, None] == rcomb[None, :]
        column_match = np.ones_like(code_match)
        for lk, rk in zip(left, right):
            column_match &= lk[lids][:, None] == rk[rids][None, :]
        assert np.array_equal(code_match, column_match)


# --------------------------------------------------------------------- #
# the synthetic chain workload
# --------------------------------------------------------------------- #


class TestChainCase:
    def test_shape(self):
        from repro.workloads import chain_case

        db, query = chain_case(n_relations=8, n_rows=60, analyze=False)
        assert query.n_relations == 8
        assert len(query.joins) == 7
        graph = JoinGraph(query)
        # a chain of n relations has exactly n·(n+1)/2 connected subsets
        assert len(connected_subsets(graph)) == 8 * 9 // 2

    def test_oracle_and_dp_parity(self):
        """A small chain instance end to end: the kernel oracle and the
        batched pricer against the reference oracle and the scalar loop
        — identical counts, plan and cost bits."""
        from repro.workloads import chain_case

        db, query = chain_case(n_relations=8, n_rows=60)
        production = _price_chain(db, query, TrueCardinalities, "optimize")
        expected = _price_chain(
            db, query, ReferenceTrueCardinalities, "optimize_scalar"
        )
        assert production == expected

    def test_chain16_prices_end_to_end(self):
        """A 16-relation chain prices end to end with no ``max_rows`` cap
        — 136 connected subsets, every one on a maximal-depth expansion
        chain."""
        from repro.workloads import chain_case

        db, query = chain_case(n_relations=16)
        counts, plan_repr, cost_hex = _price_chain(
            db, query, TrueCardinalities, "optimize"
        )
        assert len(counts) == 16 * 17 // 2
        assert plan_repr.count("Scan(") == 16
        assert plan_repr.count("Join(") == 15
        assert float.fromhex(cost_hex) > 0


def _price_chain(db, query, oracle_cls, method):
    """Oracle + exhaustive DP: every observable (counts, plan repr, cost
    bits)."""
    from repro.cost import SimpleCostModel
    from repro.enumeration import DPEnumerator, QueryContext
    from repro.physical import IndexConfig, PhysicalDesign

    oracle = oracle_cls(db)
    counts = oracle.compute_all(query, warm_unfiltered=True)
    dp = DPEnumerator(
        SimpleCostModel(db),
        PhysicalDesign(db, IndexConfig.PK_FK),
        allow_nlj=True,
    )
    plan, cost = getattr(dp, method)(QueryContext(query), oracle.bind(query))
    return counts, repr(plan), cost.hex()


# --------------------------------------------------------------------- #
# end to end: sweep rows and persisted truth bytes
# --------------------------------------------------------------------- #


def _reference_sweep(spec, root, monkeypatch):
    """``run_sweep`` on the reference path: python oracle joins and the
    scalar DP loop for every cell."""
    from repro.enumeration import dp as dp_module
    from repro.pipeline import WorkloadResources, run_sweep
    from repro.pipeline.tasks import make_database, spec_queries
    from repro.pipeline.truthstore import TruthStore

    db = make_database(spec.dataset, spec.scale, spec.seed,
                       correlation=spec.correlation)
    resources = WorkloadResources(
        db=db,
        queries=spec_queries(spec),
        truth=ReferenceTrueCardinalities(db),
        truth_store=TruthStore(root, spec.scale, spec.seed,
                               correlation=spec.correlation,
                               dataset=spec.dataset),
    )
    with monkeypatch.context() as patch:
        patch.setattr(dp_module, "optimize_batched", lambda *args: None)
        return run_sweep(spec, resources=resources, result_root=root)


class TestSweepParity:
    def test_sweep_rows_and_stores_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """A full (tiny) sweep on the kernels and on the reference path:
        identical row reprs, byte-identical truth-store and result-store
        files."""
        from repro.pipeline import SweepSpec, run_sweep

        # byte-compares per-query files: JSON storage mechanics
        monkeypatch.setenv("REPRO_STORE", "json")

        spec = SweepSpec(
            scale="tiny",
            seed=42,
            query_names=("1a", "6a"),
            estimators=("PostgreSQL", "HyPer"),
        )
        outputs = {}
        for path in ("kernels", "reference"):
            root = tmp_path / path
            if path == "kernels":
                result = run_sweep(spec, truth_root=root, result_root=root)
            else:
                result = _reference_sweep(spec, root, monkeypatch)
            files = {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*.json"))
                if not p.name.startswith(".")
            }
            assert files, "sweep persisted nothing"
            outputs[path] = ([repr(r) for r in result.rows], files)
        assert outputs["kernels"] == outputs["reference"]

    def test_python_store_replays_identically_under_numpy(
        self, tmp_path, monkeypatch
    ):
        """Warm-replay: rows priced on the python reference path must
        replay byte-for-byte through the production (numpy) path."""
        from repro.pipeline import SweepSpec, run_sweep

        spec = SweepSpec(
            scale="tiny", seed=42, query_names=("4a",),
            estimators=("PostgreSQL",),
        )
        root = tmp_path / "store"
        cold = _reference_sweep(spec, root, monkeypatch)
        assert cold.priced_cells > 0
        warm = run_sweep(spec, truth_root=root, result_root=root)
        assert warm.priced_cells == 0
        assert [repr(r) for r in warm.rows] == [repr(r) for r in cold.rows]
