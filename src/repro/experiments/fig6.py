"""Figure 6 and the Section 4.1 injection table.

Two experiments on the primary-key-only physical design, the two halves
of :func:`from_deep_frames`:

* ``injection`` — inject each system's estimates into the planner and
  bucket the runtime slowdowns vs the true-cardinality plan (the table
  in Section 4.1, columns ``<0.9`` … ``>100``; ``repro run section4.1``).
* ``ablation`` — PostgreSQL estimates only, across the three engine
  scenarios: (a) default, (b) no nested-loop joins, (c) plus runtime
  hash-table rehashing (Figure 6a–c; ``repro run fig6``).

Expected shape: (a) suffers timeouts / >100× cases caused by nested-loop
joins picked on underestimates; (b) removes the timeouts; (c) leaves only
a small tail above 2×.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.harness import ESTIMATOR_ORDER
from repro.experiments.report import (
    SLOWDOWN_BUCKETS,
    bucketize_slowdowns,
    format_table,
)
from repro.physical import IndexConfig

_BUCKET_LABELS = [label for _, _, label in SLOWDOWN_BUCKETS]


@dataclass
class SlowdownDistribution:
    """Slowdowns of one (estimator, scenario, config) combination."""

    label: str
    slowdowns: list[float] = field(repr=False)
    timeouts: int = 0

    @property
    def buckets(self) -> dict[str, float]:
        return bucketize_slowdowns(self.slowdowns)

    def fraction_at_least(self, threshold: float) -> float:
        if not self.slowdowns:
            return 0.0
        return sum(s >= threshold for s in self.slowdowns) / len(self.slowdowns)


@dataclass
class Fig6Result:
    distributions: dict[str, SlowdownDistribution]
    title: str

    def render(self) -> str:
        rows = []
        for name, dist in self.distributions.items():
            buckets = dist.buckets
            rows.append(
                [name]
                + [f"{buckets[label]:.1%}" for label in _BUCKET_LABELS]
                + [dist.timeouts]
            )
        return format_table(
            ["source"] + _BUCKET_LABELS + ["timeouts"], rows, title=self.title
        )


# --------------------------------------------------------------------- #
# replay path: the Section 4.1 table from sweep rows
# --------------------------------------------------------------------- #


def report_specs(base):
    """One PK-only frame, all five estimators."""
    from dataclasses import replace

    from repro.pipeline.grid import EnumeratorConfig

    return (
        replace(
            base,
            estimators=tuple(ESTIMATOR_ORDER),
            configs=(EnumeratorConfig("pk", indexes=IndexConfig.PK),),
        ),
    )


def from_frames(frames) -> Fig6Result:
    """Per-estimator plan-cost slowdown buckets, straight off the grid.

    The deep fold (:func:`from_deep_frames`) simulates execution with
    engine-risk scenarios; the replay path buckets the sweep's
    standalone-optimizer slowdowns (``true_cost / optimal_cost``) — the
    same injected-estimate mechanism, measured in cost space.
    """
    frame = frames[0]
    config = frame.config_names[0]
    distributions: dict[str, SlowdownDistribution] = {}
    for name in frame.estimator_names:
        slowdowns = [
            row.slowdown for row in frame.select(estimator=name, config=config)
        ]
        distributions[name] = SlowdownDistribution(name, slowdowns)
    return Fig6Result(
        distributions=distributions,
        title=(
            f"Section 4.1 (sweep replay): plan-cost slowdown vs "
            f"true-cardinality plan ({config})"
        ),
    )


# --------------------------------------------------------------------- #
# deep replay path: simulated runtimes from stored DeepRows
# --------------------------------------------------------------------- #


def _deep_configs():
    """PK-design runtime configs, one per engine risk scenario."""
    from repro.experiments.runtime import SCENARIOS, runtime_deep_config

    return tuple(
        runtime_deep_config(IndexConfig.PK, scenario)
        for scenario in SCENARIOS.values()
    )


def deep_report_specs(base):
    """One runtime frame: five estimators + the truth baseline, PK
    design, all three engine risk scenarios (Section 4.1 + Figure 6)."""
    from repro.pipeline.grid import TRUE_SOURCE, DeepSpec

    return (
        DeepSpec.from_base(
            base,
            estimators=tuple(ESTIMATOR_ORDER) + (TRUE_SOURCE,),
            configs=_deep_configs(),
        ),
    )


def _runtime_by_query(frame, config_name: str, estimator: str):
    """query -> (sim runtime ms, timed out), in workload order."""
    return {
        row.query: (row.sim_runtime_ms, row.timed_out)
        for row in frame.select(
            kind="runtime", estimator=estimator, config=config_name
        )
    }


def deep_slowdowns(
    frame, config_name: str, estimator: str
) -> tuple[list[float], int]:
    """Per-query slowdowns vs the truth plan, plus the timeout count.

    Exactly :meth:`RuntimeRunner.slowdown` replayed from stored rows:
    the estimator plan's simulated runtime over the true-cardinality
    plan's, in workload order.
    """
    from repro.pipeline.grid import TRUE_SOURCE

    est_rows = _runtime_by_query(frame, config_name, estimator)
    true_rows = _runtime_by_query(frame, config_name, TRUE_SOURCE)
    slowdowns: list[float] = []
    timeouts = 0
    for query in frame.query_names:
        if query not in est_rows or query not in true_rows:
            continue
        ms, timed_out = est_rows[query]
        slowdowns.append(ms / max(true_rows[query][0], 1e-9))
        timeouts += timed_out
    return slowdowns, timeouts


@dataclass
class Fig6DeepResult:
    """The Section 4.1 injection table plus the Figure 6a–c ablation."""

    injection: Fig6Result
    ablation: Fig6Result

    def render(self) -> str:
        return self.injection.render() + "\n\n" + self.ablation.render()


def from_deep_frames(frames) -> Fig6DeepResult:
    """Fold stored simulated runtimes into the deep Figure 6 artifacts.

    The injection half holds per-estimator slowdown buckets on the
    default engine (the Section 4.1 table) and the ablation half holds
    PostgreSQL across the three engine scenarios (Figure 6a–c).
    """
    from repro.experiments.runtime import SCENARIOS, runtime_deep_config

    frame = frames[0]
    config_of = {
        scenario.name: runtime_deep_config(IndexConfig.PK, scenario).name
        for scenario in SCENARIOS.values()
    }

    distributions: dict[str, SlowdownDistribution] = {}
    for name in ESTIMATOR_ORDER:
        slowdowns, timeouts = deep_slowdowns(
            frame, config_of["default"], name
        )
        distributions[name] = SlowdownDistribution(name, slowdowns, timeouts)
    injection = Fig6Result(
        distributions=distributions,
        title=(
            f"Section 4.1: slowdown vs true-cardinality plan "
            f"({IndexConfig.PK.value}, engine=default)"
        ),
    )

    ablation_dists: dict[str, SlowdownDistribution] = {}
    for scenario in SCENARIOS.values():
        slowdowns, timeouts = deep_slowdowns(
            frame, config_of[scenario.name], "PostgreSQL"
        )
        ablation_dists[scenario.name] = SlowdownDistribution(
            scenario.name, slowdowns, timeouts
        )
    ablation = Fig6Result(
        distributions=ablation_dists,
        title=(
            f"Figure 6: PostgreSQL estimates, {IndexConfig.PK.value}, "
            "engine risk ablation"
        ),
    )
    return Fig6DeepResult(injection=injection, ablation=ablation)
