"""Figure 7: slowdowns under richer physical designs (Section 4.3).

Same methodology as Figure 6c (no nested-loop joins, rehashing enabled),
comparing the primary-key-only configuration against primary + foreign
key indexes.  Expected shape: with FK indexes available, a much larger
fraction of queries lands ≥ 2× above the true-cardinality plan — more
indexes widen the plan space and make misestimates dangerous, even though
absolute runtimes generally improve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.fig6 import Fig6Result, SlowdownDistribution
from repro.physical import IndexConfig


@dataclass
class Fig7Result:
    by_config: dict[IndexConfig, SlowdownDistribution]
    #: geometric-style summary: median absolute runtime per config (ms)
    median_runtime_ms: dict[IndexConfig, float]

    def render(self) -> str:
        inner = Fig6Result(
            distributions={
                cfg.value: dist for cfg, dist in self.by_config.items()
            },
            title="Figure 7: slowdown vs true-cardinality plan "
            "(no-nlj + rehash engine)",
        )
        extra = "\n".join(
            f"median absolute runtime [{cfg.value}]: {ms:.2f} ms"
            for cfg, ms in self.median_runtime_ms.items()
        )
        return inner.render() + "\n" + extra


# --------------------------------------------------------------------- #
# replay path: PK vs PK+FK slowdowns from sweep rows
# --------------------------------------------------------------------- #


def report_specs(base):
    from dataclasses import replace

    from repro.pipeline.grid import DEFAULT_CONFIGS

    return (
        replace(
            base,
            estimators=("PostgreSQL",),
            configs=DEFAULT_CONFIGS,
        ),
    )


@dataclass
class Fig7ReplayResult:
    """Per-config slowdown distributions plus their medians."""

    by_config: dict[str, SlowdownDistribution]
    median_slowdown: dict[str, float]

    def render(self) -> str:
        inner = Fig6Result(
            distributions=dict(self.by_config),
            title=(
                "Figure 7 (sweep replay): plan-cost slowdown by "
                "physical design (PostgreSQL estimates)"
            ),
        )
        extra = "\n".join(
            f"median plan-cost slowdown [{name}]: {median:.3f}"
            for name, median in self.median_slowdown.items()
        )
        return inner.render() + "\n" + extra


def from_frames(frames) -> Fig7ReplayResult:
    frame = frames[0]
    by_config: dict[str, SlowdownDistribution] = {}
    median_slowdown: dict[str, float] = {}
    for config in frame.config_names:
        slowdowns = [
            row.slowdown
            for row in frame.select(estimator="PostgreSQL", config=config)
        ]
        by_config[config] = SlowdownDistribution(config, slowdowns)
        ordered = sorted(slowdowns)
        median_slowdown[config] = ordered[len(ordered) // 2]
    return Fig7ReplayResult(
        by_config=by_config, median_slowdown=median_slowdown
    )


# --------------------------------------------------------------------- #
# deep replay path: simulated runtimes from stored DeepRows
# --------------------------------------------------------------------- #

#: the physical designs the deep artifact compares (the paper's §4.3)
DEEP_INDEX_CONFIGS = (IndexConfig.PK, IndexConfig.PK_FK)


def _deep_configs():
    from repro.experiments.runtime import SCENARIOS, runtime_deep_config

    scenario = SCENARIOS["no-nlj+rehash"]
    return tuple(
        runtime_deep_config(indexes, scenario)
        for indexes in DEEP_INDEX_CONFIGS
    )


def deep_report_specs(base):
    """One runtime frame: PostgreSQL estimates + truth baseline on the
    no-nlj+rehash engine, PK vs PK+FK designs.

    The PK config is content-identical to Figure 6's ``no-nlj+rehash``
    cells, so a store warmed by ``fig6-deep`` already covers half of
    this artifact's PostgreSQL/truth rows.
    """
    from repro.pipeline.grid import TRUE_SOURCE, DeepSpec

    return (
        DeepSpec.from_base(
            base,
            estimators=("PostgreSQL", TRUE_SOURCE),
            configs=_deep_configs(),
        ),
    )


def from_deep_frames(frames) -> Fig7Result:
    """Fold stored simulated runtimes into the deep Figure 7.

    Per-design slowdowns vs the true-cardinality plan, plus the median
    absolute runtime each design achieves.
    """
    from repro.experiments.fig6 import deep_slowdowns

    frame = frames[0]
    by_config: dict[IndexConfig, SlowdownDistribution] = {}
    median_runtime: dict[IndexConfig, float] = {}
    for indexes, config in zip(DEEP_INDEX_CONFIGS, _deep_configs()):
        slowdowns, timeouts = deep_slowdowns(
            frame, config.name, "PostgreSQL"
        )
        by_config[indexes] = SlowdownDistribution(
            indexes.value, slowdowns, timeouts
        )
        runtimes = sorted(
            row.sim_runtime_ms
            for row in frame.select(
                kind="runtime", estimator="PostgreSQL", config=config.name
            )
        )
        median_runtime[indexes] = runtimes[len(runtimes) // 2]
    return Fig7Result(by_config=by_config, median_runtime_ms=median_runtime)
