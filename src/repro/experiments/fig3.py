"""Figure 3: join-estimate error distributions by join count.

For every connected subexpression (up to a configurable size) of every
workload query, compute the *signed* estimate/truth ratio per estimator
and summarise, per number of joins, the 5/25/50/75/95th percentiles —
exactly the boxplot series of Figure 3.  The accompanying text statistics
("for PostgreSQL 16% of the 1-join estimates are wrong by a factor >= 10,
32% at 2 joins, 52% at 3") are reported as well.

Expected shape: spread grows (roughly exponentially) with the join count;
medians drift below 1 (systematic underestimation); the DBMS B analogue
degrades worst; the DBMS A analogue keeps medians closest to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.cardinality.qerror import signed_ratio
from repro.experiments.harness import ESTIMATOR_ORDER
from repro.experiments.report import format_table
from repro.util.bitset import popcount

PERCENTILES = (5, 25, 50, 75, 95)


@dataclass
class Fig3Result:
    """ratios[estimator][n_joins] = list of signed est/true ratios."""

    max_joins: int
    ratios: dict[str, dict[int, list[float]]] = field(repr=False)
    percentiles: dict[str, dict[int, dict[float, float]]] = field(
        default_factory=dict
    )
    wrong_10x: dict[str, dict[int, float]] = field(default_factory=dict)

    def render(self) -> str:
        blocks = []
        for name in ESTIMATOR_ORDER:
            rows = []
            for joins in sorted(self.percentiles[name]):
                pct = self.percentiles[name][joins]
                n = len(self.ratios[name][joins])
                rows.append(
                    [joins, n]
                    + [pct[p] for p in PERCENTILES]
                    + [self.wrong_10x[name][joins]]
                )
            blocks.append(
                format_table(
                    ["#joins", "n", "p5", "p25", "median", "p75", "p95",
                     "frac >10x wrong"],
                    rows,
                    title=f"Figure 3 ({name}): est/true ratio by join count",
                )
            )
        return "\n\n".join(blocks)


# --------------------------------------------------------------------- #
# replay path: the sweep-row-shaped Figure 3
# --------------------------------------------------------------------- #


def report_specs(base):
    """One PK+FK frame, all five estimators, full workload by default."""
    from repro.pipeline.grid import EnumeratorConfig
    from repro.physical import IndexConfig

    return (
        replace(
            base,
            estimators=tuple(ESTIMATOR_ORDER),
            configs=(
                EnumeratorConfig("pk+fk", indexes=IndexConfig.PK_FK),
            ),
        ),
    )


@dataclass
class Fig3ReplayResult:
    """Full-query q-errors grouped by each query's join count.

    The deep fold (:func:`from_deep_frames`) measures every
    *subexpression*; the replay path reads the same
    growth-with-join-count story off the sweep grid, where each query
    contributes its full-query q-error at its own join count.
    """

    #: q_errors[estimator][n_joins] = q-errors of the queries that size
    q_errors: dict[str, dict[int, list[float]]] = field(repr=False)

    def percentile(self, estimator: str, joins: int, pct: float) -> float:
        values = np.asarray(self.q_errors[estimator][joins])
        return float(np.percentile(values, pct))

    def render(self) -> str:
        blocks = []
        for name in sorted(self.q_errors):
            rows = []
            for joins in sorted(self.q_errors[name]):
                values = np.asarray(self.q_errors[name][joins])
                rows.append([
                    joins,
                    len(values),
                    float(np.median(values)),
                    float(np.percentile(values, 95)),
                    float(values.max()),
                    float(np.mean(values >= 10)),
                ])
            blocks.append(
                format_table(
                    ["#joins", "n", "median", "p95", "max", "frac >=10x"],
                    rows,
                    title=(
                        f"Figure 3 (sweep replay, {name}): full-query "
                        "q-error by join count"
                    ),
                )
            )
        return "\n\n".join(blocks)


def from_frames(frames) -> Fig3ReplayResult:
    frame = frames[0]
    config = frame.config_names[0]
    q_errors: dict[str, dict[int, list[float]]] = {
        name: {} for name in frame.estimator_names
    }
    for row in frame.select(config=config):
        q_errors[row.estimator].setdefault(
            frame.joins(row.query), []
        ).append(row.q_error)
    return Fig3ReplayResult(q_errors=q_errors)


# --------------------------------------------------------------------- #
# deep replay path: the paper-faithful Figure 3 from stored DeepRows
# --------------------------------------------------------------------- #

#: subexpression-size cap of the deep artifact (what `repro run fig3`
#: renders)
DEEP_MAX_SUBEXPR_SIZE = 6


def deep_report_specs(base):
    """One subexpression frame: all five estimators, every connected
    subexpression up to :data:`DEEP_MAX_SUBEXPR_SIZE` relations."""
    from repro.pipeline.grid import DeepSpec, subexpr_deep_config

    return (
        DeepSpec.from_base(
            base,
            estimators=tuple(ESTIMATOR_ORDER),
            configs=(subexpr_deep_config(DEEP_MAX_SUBEXPR_SIZE),),
        ),
    )


def from_deep_frames(frames) -> Fig3Result:
    """Fold stored subexpression observations into the *deep* Figure 3.

    Signed estimate/truth ratios of every connected subexpression,
    summarised per join count, folded from persisted
    :class:`~repro.pipeline.grid.DeepRow`\\ s.  Because stored floats
    round-trip bit-exactly and rows replay in the pricing order (query →
    subexpression size → bitset), the rendered result is the same
    whether the rows were just priced or replayed from a store.
    """
    frame = frames[0]
    ratios: dict[str, dict[int, list[float]]] = {
        name: {} for name in ESTIMATOR_ORDER
    }
    for row in frame.select(kind="subexpr"):
        joins = popcount(row.subset) - 1
        ratios[row.estimator].setdefault(joins, []).append(
            signed_ratio(row.est_card, row.true_card)
        )

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
        max_joins=DEEP_MAX_SUBEXPR_SIZE - 1,
        ratios=ratios,
        percentiles=percentiles,
        wrong_10x=wrong_10x,
    )
