"""Integration tests: every experiment module reproduces its paper-shape.

These run on a tiny suite (subset of JOB queries, tiny database) so they
finish quickly; the benchmark harness regenerates the full-size versions.
Each test asserts the *qualitative* finding of the corresponding table or
figure — the invariants listed in DESIGN.md §4.

Figures 3, 5, 6, 7 and 8 are asserted on their production body, the
deep fold ``from_deep_frames`` that ``repro run`` renders.  A finding
that only shows at a grid point the deep artifacts do not fix (the
engine ablation's timeouts need a tight work budget) is asserted on the
live reference loop in :mod:`reference.experiments` instead.
"""

import numpy as np
import pytest

from reference import experiments as reference
from repro.experiments import ExperimentSuite
from repro.experiments import (
    ablation,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    table1,
    table2,
    table3,
)
from repro.experiments import frame as frame_mod
from repro.experiments.harness import ESTIMATOR_ORDER
from repro.physical import IndexConfig
from repro.pipeline import SweepSpec
from repro.plans.shapes import TreeShape

QUERIES = [
    "1a", "2a", "4a", "5c", "6a", "13a", "13d", "16d", "17b", "25c", "32a",
]


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(scale="tiny", query_names=QUERIES)


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    """Fold a module's ``-deep`` artifact over the suite's queries.

    One store for the module, so ``fig5-deep`` replays ``fig3-deep``'s
    PostgreSQL cells and ``fig7-deep`` ``fig6-deep``'s PK cells.
    """
    root = tmp_path_factory.mktemp("deep-store")
    base = SweepSpec(scale="tiny", seed=42, query_names=tuple(QUERIES))

    def fold(module):
        name = module.__name__.rsplit(".", 1)[-1] + "-deep"
        run = frame_mod.run_report(
            name, base, result_root=root, truth_root=root
        )
        return module.from_deep_frames(run.frames)

    return fold


class TestTable1:
    def test_shape(self, suite):
        result = table1.run(suite)
        assert result.n_selections > 20
        for name in ESTIMATOR_ORDER:
            pct = result.percentiles[name]
            assert pct[50] < 3, f"{name}: median q-error must be near 1"
            assert pct[100] >= pct[95] >= pct[50]
        # sampling-based estimators have far smaller tails than the
        # histogram / magic-constant ones (the paper's key contrast)
        assert result.percentiles["DBMS A"][95] < result.percentiles["DBMS B"][95]
        assert result.percentiles["HyPer"][95] < result.percentiles["DBMS C"][95]
        assert "Table 1" in result.render()


class TestFig3:
    def test_error_growth_and_underestimation(self, deep):
        result = deep(fig3)
        pg = result.percentiles["PostgreSQL"]
        # spread (p95/p5) grows with the join count
        spread = {
            j: np.log10(max(pg[j][95], 1e-12) / max(pg[j][5], 1e-12))
            for j in pg
        }
        assert spread[3] > spread[1]
        # medians drift into underestimation territory
        assert pg[3][50] < pg[0][50]
        assert pg[3][50] < 0.9
        # DBMS A analogue keeps medians closest to 1 at high join counts
        damped_median = result.percentiles["DBMS A"][3][50]
        assert abs(np.log10(damped_median)) < abs(np.log10(pg[3][50]))
        # DBMS B analogue underestimates hardest
        assert result.percentiles["DBMS B"][3][50] <= pg[3][50] * 1.01
        # the fraction of >=10x misestimates grows with joins
        wrong = result.wrong_10x["PostgreSQL"]
        assert wrong[3] >= wrong[1]
        assert "Figure 3" in result.render()


class TestFig4:
    def test_tpch_easier_than_job(self, suite):
        result = fig4.run(suite, tpch_scale="tiny", max_subexpr_size=6)
        job_spread = result.spread(fig4.JOB_FIG4)
        tpch_spread = result.spread(fig4.TPCH_FIG4)
        assert tpch_spread < 1.0, "TPC-H estimates must stay tight"
        assert job_spread > 2.0, "JOB estimates must blow up"
        assert "Figure 4" in result.render()


class TestFig5:
    def test_true_distincts_worsen_underestimation(self, deep):
        result = deep(fig5)
        top = max(result.percentiles["default"])
        for joins in range(2, top + 1):
            d = result.median_at("default", joins)
            e = result.median_at("true-distinct", joins)
            assert e <= d * 1.05, (
                "exact distinct counts must not raise the medians"
            )
        assert "Figure 5" in result.render()


class TestFig6:
    def test_engine_ablation(self, suite):
        # the 2e6 work budget makes the default engine time out, which
        # the deep grid's default budget does not on these queries
        result = reference.run_engine_ablation(suite, work_budget=2e6)
        default = result.distributions["default"]
        no_nlj = result.distributions["no-nlj"]
        rehash = result.distributions["no-nlj+rehash"]
        # disabling NLJ removes the timeouts (paper Figure 6b)
        assert no_nlj.timeouts <= default.timeouts
        assert rehash.timeouts == 0
        # the >=10x tail shrinks monotonically across the scenarios
        assert no_nlj.fraction_at_least(10) <= default.fraction_at_least(10)
        assert rehash.fraction_at_least(10) <= no_nlj.fraction_at_least(10)
        assert "Figure 6" in result.render()

    def test_engine_ablation_tail_on_deep_fold(self, deep):
        result = deep(fig6).ablation
        default = result.distributions["default"]
        no_nlj = result.distributions["no-nlj"]
        rehash = result.distributions["no-nlj+rehash"]
        assert no_nlj.fraction_at_least(10) <= default.fraction_at_least(10)
        assert rehash.fraction_at_least(10) <= no_nlj.fraction_at_least(10)
        assert "Figure 6" in result.render()

    def test_injection_table(self, suite, deep):
        result = deep(fig6).injection
        assert set(result.distributions) == set(ESTIMATOR_ORDER)
        for dist in result.distributions.values():
            assert len(dist.slowdowns) == len(suite.queries)
            assert all(s > 0 for s in dist.slowdowns)
        assert "4.1" in result.render()


class TestFig7:
    def test_fk_widens_tail(self, deep):
        result = deep(fig7)
        pk = result.by_config[IndexConfig.PK]
        fk = result.by_config[IndexConfig.PK_FK]
        assert fk.fraction_at_least(2.0) >= pk.fraction_at_least(2.0), (
            "more indexes => harder optimization problem (Figure 7)"
        )
        assert "Figure 7" in result.render()


class TestFig8:
    def test_true_cards_tighten_costs(self, deep):
        result = deep(fig8)
        for model in fig8.COST_MODELS:
            est = result.panels[(model, "PostgreSQL")]
            true = result.panels[(model, "true")]
            assert true.correlation > est.correlation, model
            assert true.correlation > 0.5, model
        # cardinality quality dwarfs cost model choice: the worst
        # true-card panel still beats the best estimate panel
        worst_true = min(
            result.panels[(m, "true")].correlation for m in fig8.COST_MODELS
        )
        best_est = max(
            result.panels[(m, "PostgreSQL")].correlation
            for m in fig8.COST_MODELS
        )
        assert worst_true > best_est
        assert "Figure 8" in result.render()


class TestFig9:
    def test_plan_space_shape(self, suite):
        result = fig9.run(suite, query_names=["6a", "13a", "25c"], n_plans=80)
        for by_config in result.normalized_costs.values():
            for costs in by_config.values():
                assert np.all(costs > 0)
                assert costs.max() / costs.min() > 1.5, (
                    "join order must matter by orders of magnitude"
                )
        # FK indexes make good plans rarer than having no indexes
        assert (
            result.fraction_within_1_5[IndexConfig.PK_FK]
            <= result.fraction_within_1_5[IndexConfig.NONE] + 0.05
        )
        assert "Figure 9" in result.render()


class TestTable2:
    def test_shape_ordering(self, suite):
        result = table2.run(suite)
        for config in (IndexConfig.PK, IndexConfig.PK_FK):
            zz = result.percentile(config, TreeShape.ZIG_ZAG, 50)
            ld = result.percentile(config, TreeShape.LEFT_DEEP, 50)
            rd = result.percentile(config, TreeShape.RIGHT_DEEP, 50)
            assert zz >= 1.0 - 1e-9
            assert zz <= ld + 1e-9, "zig-zag supersets left-deep"
            assert rd >= ld - 1e-9, "right-deep worst (paper Table 2)"
        # the right-deep penalty grows with FK indexes
        assert result.percentile(
            IndexConfig.PK_FK, TreeShape.RIGHT_DEEP, 95
        ) >= result.percentile(IndexConfig.PK, TreeShape.RIGHT_DEEP, 95) - 1e-9
        assert "Table 2" in result.render()


class TestTable3:
    def test_dp_beats_heuristics(self, suite):
        result = table3.run(suite, quickpick_plans=100)
        for config in (IndexConfig.PK, IndexConfig.PK_FK):
            dp_med = result.percentile(config, "true", "Dynamic Programming", 50)
            assert dp_med == pytest.approx(1.0)
            for heuristic in ("Quickpick-1000", "Greedy Operator Ordering"):
                assert result.percentile(config, "true", heuristic, 50) >= 1.0
                # with truth, DP is never beaten at the max either
                assert result.percentile(
                    config, "true", heuristic, 100
                ) >= result.percentile(
                    config, "true", "Dynamic Programming", 100
                ) - 1e-9
        # estimation-induced loss exceeds heuristic-induced loss (paper §6.3)
        est_loss = result.percentile(
            IndexConfig.PK_FK, "PostgreSQL", "Dynamic Programming", 50
        )
        heur_loss = result.percentile(
            IndexConfig.PK_FK, "true", "Greedy Operator Ordering", 50
        )
        assert est_loss >= heur_loss - 1e-9
        assert "Table 3" in result.render()


class TestAblations:
    def test_quickpick_sweep_monotone(self, suite):
        result = ablation.quickpick_sample_sweep(
            suite, sample_sizes=(5, 50), seed=1
        )
        med5, _ = result.stats[5]
        med50, _ = result.stats[50]
        assert med50 <= med5 + 1e-9
        assert "Quickpick" in result.render()

    def test_cmm_sweep_default_is_reference(self, suite):
        result = ablation.cmm_parameter_sweep(
            suite, taus=(0.2,), lams=(2.0,),
        )
        assert result.relative_cost[(0.2, 2.0)] == pytest.approx(1.0)

    def test_error_scaling_monotone_tail(self, suite):
        result = ablation.error_scaling(suite, factors=(1.0, 1000.0))
        assert result.frac_slow[1.0] <= result.frac_slow[1000.0] + 0.05
        assert "error" in result.render().lower()

    def test_hedging_tail_shrinks(self, suite):
        result = ablation.hedging(suite, factors=(1.0, 4.0))
        assert result.stats[4.0][2] <= result.stats[1.0][2] + 1e-9
        assert "hedged" in result.render().lower() or "pessimistic" in (
            result.render().lower()
        )

    def test_join_sampling_beats_synopses(self, suite):
        result = ablation.join_sampling_comparison(
            suite, max_subexpr_size=4
        )
        assert result.within_2x["join-sampling"] >= (
            result.within_2x["PostgreSQL"] - 0.05
        )
        assert "join-sample" in result.render()

    def test_correlation_sweep_runs(self):
        result = ablation.correlation_sweep(
            ["13d"], correlations=(0.0, 0.8), scale="tiny",
            max_subexpr_size=4,
        )
        assert set(result.median_ratio) == {0.0, 0.8}
        # correlated data must be underestimated at least as badly
        top = max(result.median_ratio[0.8])
        assert (
            result.median_ratio[0.8][top]
            <= result.median_ratio[0.0][top] * 1.5
        )
        assert "correlation" in result.render()
