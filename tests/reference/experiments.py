"""Reference live loops of the deep paper figures.

Production renders Figures 3, 5, 6, 7, 8 and the Section 4.1 table from
one body per figure: the stored-row fold (``deep_report_specs`` +
``from_deep_frames``, reached through ``repro run`` and ``repro
report``).  These are the loops that fold replaced: each measures its
figure directly against a live :class:`ExperimentSuite`, one query at a
time, so they are the most direct statement of what the fold must
render — and, with their free parameters (``max_subexpr_size``,
``work_budget``, ``config`` …), the way to test a finding at a grid
point the deep artifacts do not fix.
"""

from __future__ import annotations

import numpy as np

from repro.cardinality import PostgresEstimator
from repro.cardinality.qerror import signed_ratio
from repro.cost import (
    PostgresCostModel,
    SimpleCostModel,
    TunedPostgresCostModel,
)
from repro.enumeration.dp import DPEnumerator
from repro.experiments.fig3 import PERCENTILES, Fig3Result
from repro.experiments.fig5 import Fig5Result
from repro.experiments.fig6 import Fig6Result, SlowdownDistribution
from repro.experiments.fig7 import Fig7Result
from repro.experiments.fig8 import (
    CARD_SOURCES,
    COST_MODELS,
    Fig8Result,
    Panel,
)
from repro.experiments.harness import ESTIMATOR_ORDER, ExperimentSuite
from repro.experiments.runtime import SCENARIOS, RuntimeRunner
from repro.physical import IndexConfig
from repro.query.subgraphs import connected_subsets
from repro.util.bitset import popcount
from repro.util.stats import geometric_mean


def run_fig3(suite: ExperimentSuite, max_subexpr_size: int = 7) -> Fig3Result:
    """Compute error distributions over all subexpressions of the suite."""
    ratios: dict[str, dict[int, list[float]]] = {
        name: {} for name in ESTIMATOR_ORDER
    }
    for query in suite.queries:
        ws = suite.workspace(query)
        ws.compute_truth(max_size=max_subexpr_size)
        true_card = ws.true_card
        subsets = connected_subsets(ws.graph, max_size=max_subexpr_size)
        cards = {name: ws.card(name) for name in ESTIMATOR_ORDER}
        for subset in subsets:
            joins = popcount(subset) - 1
            true_rows = true_card(subset)
            for name, card in cards.items():
                ratio = signed_ratio(card(subset), true_rows)
                ratios[name].setdefault(joins, []).append(ratio)

    percentiles: dict[str, dict[int, dict[float, float]]] = {}
    wrong_10x: dict[str, dict[int, float]] = {}
    for name, by_joins in ratios.items():
        percentiles[name] = {}
        wrong_10x[name] = {}
        for joins, values in by_joins.items():
            arr = np.asarray(values)
            percentiles[name][joins] = {
                p: float(np.percentile(arr, p)) for p in PERCENTILES
            }
            wrong_10x[name][joins] = float(
                np.mean((arr >= 10) | (arr <= 0.1))
            )
    return Fig3Result(
        max_joins=max_subexpr_size - 1,
        ratios=ratios,
        percentiles=percentiles,
        wrong_10x=wrong_10x,
    )


def run_fig5(suite: ExperimentSuite, max_subexpr_size: int = 7) -> Fig5Result:
    default_est = PostgresEstimator(suite.db, use_true_distincts=False)
    exact_est = PostgresEstimator(suite.db, use_true_distincts=True)
    ratios: dict[str, dict[int, list[float]]] = {
        "default": {},
        "true-distinct": {},
    }
    for query in suite.queries:
        ws = suite.workspace(query)
        ws.compute_truth(max_size=max_subexpr_size)
        true_card = ws.true_card
        d_card = default_est.bind(query)
        e_card = exact_est.bind(query)
        for subset in connected_subsets(ws.graph, max_size=max_subexpr_size):
            joins = popcount(subset) - 1
            true_rows = true_card(subset)
            ratios["default"].setdefault(joins, []).append(
                signed_ratio(d_card(subset), true_rows)
            )
            ratios["true-distinct"].setdefault(joins, []).append(
                signed_ratio(e_card(subset), true_rows)
            )
    percentiles = {
        variant: {
            joins: {
                p: float(np.percentile(np.asarray(vals), p))
                for p in PERCENTILES
            }
            for joins, vals in by_joins.items()
        }
        for variant, by_joins in ratios.items()
    }
    return Fig5Result(ratios=ratios, percentiles=percentiles)


def run_injection(
    suite: ExperimentSuite,
    config: IndexConfig = IndexConfig.PK,
    scenario_name: str = "default",
    work_budget: float | None = None,
) -> Fig6Result:
    """The Section 4.1 table: per-estimator slowdown distributions."""
    runner = RuntimeRunner(suite, work_budget=work_budget)
    scenario = SCENARIOS[scenario_name]
    distributions: dict[str, SlowdownDistribution] = {}
    for name in ESTIMATOR_ORDER:
        slowdowns: list[float] = []
        timeouts = 0
        for query in suite.queries:
            ratio, timed_out = runner.slowdown(
                query, suite.workspace(query).card(name), config, scenario
            )
            slowdowns.append(ratio)
            timeouts += int(timed_out)
        distributions[name] = SlowdownDistribution(name, slowdowns, timeouts)
    return Fig6Result(
        distributions=distributions,
        title=(
            f"Section 4.1: slowdown vs true-cardinality plan "
            f"({config.value}, engine={scenario.name})"
        ),
    )


def run_engine_ablation(
    suite: ExperimentSuite,
    config: IndexConfig = IndexConfig.PK,
    estimator: str = "PostgreSQL",
    work_budget: float | None = None,
) -> Fig6Result:
    """Figure 6a–c: one estimator across the three engine scenarios."""
    runner = RuntimeRunner(suite, work_budget=work_budget)
    distributions: dict[str, SlowdownDistribution] = {}
    for scenario in SCENARIOS.values():
        slowdowns: list[float] = []
        timeouts = 0
        for query in suite.queries:
            ratio, timed_out = runner.slowdown(
                query, suite.workspace(query).card(estimator), config, scenario
            )
            slowdowns.append(ratio)
            timeouts += int(timed_out)
        distributions[scenario.name] = SlowdownDistribution(
            scenario.name, slowdowns, timeouts
        )
    return Fig6Result(
        distributions=distributions,
        title=(
            f"Figure 6: {estimator} estimates, {config.value}, "
            "engine risk ablation"
        ),
    )


def run_fig7(
    suite: ExperimentSuite,
    estimator: str = "PostgreSQL",
    configs: tuple[IndexConfig, ...] = (IndexConfig.PK, IndexConfig.PK_FK),
    work_budget: float | None = None,
) -> Fig7Result:
    runner = RuntimeRunner(suite, work_budget=work_budget)
    scenario = SCENARIOS["no-nlj+rehash"]
    by_config: dict[IndexConfig, SlowdownDistribution] = {}
    median_runtime: dict[IndexConfig, float] = {}
    for config in configs:
        slowdowns: list[float] = []
        runtimes: list[float] = []
        timeouts = 0
        for query in suite.queries:
            card = suite.workspace(query).card(estimator)
            plan = runner.plan_for(query, card, config, scenario)
            ms, timed_out = runner.execute_ms(query, plan, config, scenario)
            optimal = runner.optimal_runtime(query, config, scenario)
            slowdowns.append(ms / max(optimal, 1e-9))
            runtimes.append(ms)
            timeouts += int(timed_out)
        by_config[config] = SlowdownDistribution(
            config.value, slowdowns, timeouts
        )
        runtimes.sort()
        median_runtime[config] = runtimes[len(runtimes) // 2]
    return Fig7Result(by_config=by_config, median_runtime_ms=median_runtime)


def _make_cost_model(name: str, db):
    if name == "standard":
        return PostgresCostModel(db)
    if name == "tuned":
        return TunedPostgresCostModel(db)
    if name == "simple":
        return SimpleCostModel(db)
    raise ValueError(f"unknown cost model {name!r}")


def run_fig8(
    suite: ExperimentSuite,
    config: IndexConfig = IndexConfig.PK_FK,
    work_budget: float | None = None,
) -> Fig8Result:
    runner = RuntimeRunner(suite, work_budget=work_budget)
    scenario = SCENARIOS["no-nlj+rehash"]
    design = suite.design(config)
    panels: dict[tuple[str, str], Panel] = {}
    runtime_by_model: dict[str, list[float]] = {m: [] for m in COST_MODELS}

    for model_name in COST_MODELS:
        cost_model = _make_cost_model(model_name, suite.db)
        dp = DPEnumerator(cost_model, design, allow_nlj=False)
        for source in CARD_SOURCES:
            panel = Panel(cost_model=model_name, card_source=source)
            for query in suite.queries:
                ws = suite.workspace(query)
                card = (
                    ws.true_card if source == "true"
                    else ws.card("PostgreSQL")
                )
                plan, cost = dp.optimize(ws.context, card)
                ms, _ = runner.execute_ms(query, plan, config, scenario)
                panel.costs.append(cost)
                panel.runtimes_ms.append(ms)
                if source == "true":
                    runtime_by_model[model_name].append(max(ms, 1e-9))
            panel.fit()
            panels[(model_name, source)] = panel

    base = runtime_by_model["standard"]
    runtime_vs_standard = {
        name: geometric_mean(
            [r / b for r, b in zip(values, base)]
        )
        for name, values in runtime_by_model.items()
    }
    return Fig8Result(panels=panels, runtime_vs_standard=runtime_vs_standard)
