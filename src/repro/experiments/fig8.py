"""Figure 8: predicted cost vs (simulated) runtime for three cost models.

Six panels, as in the paper: {standard, tuned, simple C_mm} × {PostgreSQL
estimates, true cardinalities}.  For each combination the optimizer picks
a plan, the engine executes it, and we relate the model's predicted cost
to the measured runtime with a log–log linear fit.  Reported per panel:

* the Pearson correlation of log(cost) vs log(runtime),
* the median absolute percentage error of the fitted runtime predictor
  (the paper's ε; 38% → 30% when tuning, with true cardinalities),

plus the runtime-improvement summary of Section 5.4: the geometric-mean
runtime of the plans each model picks (under true cardinalities),
relative to the standard model's plans.

Expected shape: with estimates the point cloud is diffuse regardless of
the model; with true cardinalities it tightens; tuned ≥ standard and
simple ≈ tuned — cost model choice is second-order next to cardinality
quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.report import format_table
from repro.physical import IndexConfig
from repro.util.stats import geometric_mean

COST_MODELS = ("standard", "tuned", "simple")
CARD_SOURCES = ("PostgreSQL", "true")


@dataclass
class Panel:
    """One scatter panel: paired (cost, runtime) plus fit quality."""

    cost_model: str
    card_source: str
    costs: list[float] = field(repr=False, default_factory=list)
    runtimes_ms: list[float] = field(repr=False, default_factory=list)
    correlation: float = float("nan")
    median_error: float = float("nan")

    def fit(self) -> None:
        logc = np.log10(np.maximum(np.asarray(self.costs), 1e-9))
        logr = np.log10(np.maximum(np.asarray(self.runtimes_ms), 1e-9))
        if len(logc) < 3:
            raise ValueError("not enough points to fit")
        self.correlation = float(np.corrcoef(logc, logr)[0, 1])
        slope, intercept = np.polyfit(logc, logr, 1)
        predicted = 10 ** (slope * logc + intercept)
        real = np.asarray(self.runtimes_ms)
        self.median_error = float(
            np.median(np.abs(real - predicted) / np.maximum(real, 1e-9))
        )


@dataclass
class Fig8Result:
    panels: dict[tuple[str, str], Panel]
    #: geo-mean runtime of each model's plan relative to 'standard'
    runtime_vs_standard: dict[str, float]

    def render(self) -> str:
        rows = [
            [
                panel.cost_model,
                panel.card_source,
                len(panel.costs),
                panel.correlation,
                (
                    f"{panel.median_error:.0%}"
                    if panel.median_error == panel.median_error
                    else "-"  # NaN below the 3-point fit minimum
                ),
            ]
            for panel in self.panels.values()
        ]
        table = format_table(
            ["cost model", "cardinalities", "n", "log-log corr",
             "median pred. error"],
            rows,
            title="Figure 8: cost model vs simulated runtime",
        )
        extra = "\n".join(
            f"geo-mean runtime vs standard model ({name}): {ratio:.2f}x"
            for name, ratio in self.runtime_vs_standard.items()
        )
        return table + "\n" + extra


# --------------------------------------------------------------------- #
# replay path: cost model comparison from sweep rows
# --------------------------------------------------------------------- #

#: replay config name -> SweepSpec cost-model knob
REPLAY_COST_MODELS = (
    ("standard", "standard"),
    ("tuned", "tuned"),
    ("cmm", "simple"),
)


def report_specs(base):
    from dataclasses import replace

    from repro.pipeline.grid import EnumeratorConfig
    from repro.physical import IndexConfig

    return (
        replace(
            base,
            estimators=("PostgreSQL",),
            configs=tuple(
                EnumeratorConfig(
                    name, indexes=IndexConfig.PK_FK, cost_model=model
                )
                for name, model in REPLAY_COST_MODELS
            ),
        ),
    )


@dataclass
class Fig8ReplayResult:
    """Predicted (estimate-based) vs true plan cost, per cost model.

    The deep path fits cost against simulated runtime; the replay path
    fits the optimizer's *believed* cost (``est_cost``) against the
    plan's true-cardinality cost — the same does-the-model-rank-plans
    question, answerable from the grid alone.
    """

    panels: dict[str, Panel]
    #: geo-mean true cost of each model's chosen plans vs 'standard'
    true_cost_vs_standard: dict[str, float]

    def render(self) -> str:
        rows = [
            [
                name,
                len(panel.costs),
                panel.correlation,
                (
                    f"{panel.median_error:.0%}"
                    if panel.median_error == panel.median_error
                    else "-"
                ),
            ]
            for name, panel in self.panels.items()
        ]
        table = format_table(
            ["cost model", "n", "log-log corr", "median pred. error"],
            rows,
            title=(
                "Figure 8 (sweep replay): believed cost vs true plan cost "
                "(PostgreSQL estimates)"
            ),
        )
        extra = "\n".join(
            f"geo-mean true plan cost vs standard model ({name}): "
            f"{ratio:.2f}x"
            for name, ratio in self.true_cost_vs_standard.items()
        )
        return table + "\n" + extra


# --------------------------------------------------------------------- #
# deep replay path: cost vs simulated runtime from stored DeepRows
# --------------------------------------------------------------------- #


def _deep_configs():
    """One runtime config per cost model (PK+FK, no-nlj+rehash engine)."""
    from repro.experiments.runtime import SCENARIOS, runtime_deep_config

    scenario = SCENARIOS["no-nlj+rehash"]
    return tuple(
        runtime_deep_config(
            IndexConfig.PK_FK, scenario, cost_model=model
        )
        for model in COST_MODELS
    )


def deep_report_specs(base):
    """One runtime frame: each cost model plans with PostgreSQL estimates
    and with true cardinalities; every plan is executed."""
    from repro.pipeline.grid import TRUE_SOURCE, DeepSpec

    return (
        DeepSpec.from_base(
            base,
            estimators=("PostgreSQL", TRUE_SOURCE),
            configs=_deep_configs(),
        ),
    )


def from_deep_frames(frames) -> Fig8Result:
    """Fold stored simulated runtimes into the deep Figure 8.

    Per panel the model's believed cost (``plan_cost_est``) against the
    plan's simulated runtime, with the log–log fit quality, plus Section
    5.4's geo-mean runtime of each model's true-cardinality plans
    relative to the standard model's.  Panels with fewer than three
    points keep NaN fit statistics (rendered as "-") instead of crashing.
    """
    frame = frames[0]
    configs = dict(zip(COST_MODELS, _deep_configs()))
    panels: dict[tuple[str, str], Panel] = {}
    runtime_by_model: dict[str, list[float]] = {m: [] for m in COST_MODELS}

    for model_name in COST_MODELS:
        config = configs[model_name]
        for source in CARD_SOURCES:
            panel = Panel(cost_model=model_name, card_source=source)
            rows = frame.select(
                kind="runtime", estimator=source, config=config.name
            )
            panel.costs = [r.plan_cost_est for r in rows]
            panel.runtimes_ms = [r.sim_runtime_ms for r in rows]
            if source == "true":
                runtime_by_model[model_name].extend(
                    max(r.sim_runtime_ms, 1e-9) for r in rows
                )
            if len(rows) >= 3:
                panel.fit()
            panels[(model_name, source)] = panel

    base_runtimes = runtime_by_model["standard"]
    runtime_vs_standard = {
        name: geometric_mean(
            [r / b for r, b in zip(values, base_runtimes)]
        )
        for name, values in runtime_by_model.items()
    }
    return Fig8Result(panels=panels, runtime_vs_standard=runtime_vs_standard)


def from_frames(frames) -> Fig8ReplayResult:
    frame = frames[0]
    panels: dict[str, Panel] = {}
    true_costs: dict[str, list[float]] = {}
    for config in frame.config_names:
        rows = frame.select(estimator="PostgreSQL", config=config)
        panel = Panel(cost_model=config, card_source="PostgreSQL")
        panel.costs = [r.est_cost for r in rows]
        panel.runtimes_ms = [r.true_cost for r in rows]
        if len(rows) >= 3:
            panel.fit()
        # under 3 points the fit stays NaN (rendered as "-"): a 2-query
        # smoke grid should degrade, not crash
        panels[config] = panel
        true_costs[config] = [max(r.true_cost, 1e-9) for r in rows]
    base = true_costs["standard"]
    true_cost_vs_standard = {
        name: geometric_mean([v / b for v, b in zip(values, base)])
        for name, values in true_costs.items()
    }
    return Fig8ReplayResult(
        panels=panels, true_cost_vs_standard=true_cost_vs_standard
    )
