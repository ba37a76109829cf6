"""Figure 5: PostgreSQL estimates with default vs *true* distinct counts.

Section 3.4: the most important join-estimation statistic in PostgreSQL
is the distinct count, which the sample-based ANALYZE systematically
underestimates for skewed columns.  Replacing the estimated distinct
counts with exact ones *tightens the variance* of the join-estimate
errors but — surprisingly — makes the systematic *underestimation worse*,
because the too-small distinct counts had inflated the estimates toward
the correlation-inflated truth ("two wrongs make a right").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cardinality.qerror import signed_ratio
from repro.experiments.report import format_table
from repro.util.bitset import popcount

PERCENTILES = (5, 25, 50, 75, 95)


@dataclass
class Fig5Result:
    """ratios[variant][n_joins]; variants: 'default', 'true-distinct'."""

    ratios: dict[str, dict[int, list[float]]] = field(repr=False)
    percentiles: dict[str, dict[int, dict[float, float]]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        blocks = []
        for variant, by_joins in self.percentiles.items():
            rows = [
                [joins] + [by_joins[joins][p] for p in PERCENTILES]
                for joins in sorted(by_joins)
            ]
            blocks.append(
                format_table(
                    ["#joins", "p5", "p25", "median", "p75", "p95"],
                    rows,
                    title=f"Figure 5 ({variant}): est/true ratio",
                )
            )
        return "\n\n".join(blocks)

    def median_at(self, variant: str, joins: int) -> float:
        return self.percentiles[variant][joins][50]

    def spread_at(self, variant: str, joins: int) -> float:
        pct = self.percentiles[variant][joins]
        return float(np.log10(max(pct[95], 1e-12) / max(pct[5], 1e-12)))


# --------------------------------------------------------------------- #
# replay path: default vs true distinct counts from sweep rows
# --------------------------------------------------------------------- #

#: the two estimator variants the replay compares (the second is an
#: extended-registry variant, see repro.pipeline.resources)
FIG5_VARIANTS = ("PostgreSQL", "PostgreSQL (true distincts)")


def report_specs(base):
    from dataclasses import replace

    from repro.pipeline.grid import EnumeratorConfig
    from repro.physical import IndexConfig

    return (
        replace(
            base,
            estimators=FIG5_VARIANTS,
            configs=(
                EnumeratorConfig("pk+fk", indexes=IndexConfig.PK_FK),
            ),
        ),
    )


@dataclass
class Fig5ReplayResult:
    """Per-variant full-query q-errors grouped by join count."""

    #: q_errors[variant][n_joins] = q-errors of the queries that size
    q_errors: dict[str, dict[int, list[float]]] = field(repr=False)

    def median_at(self, variant: str, joins: int) -> float:
        return float(np.median(np.asarray(self.q_errors[variant][joins])))

    def render(self) -> str:
        blocks = []
        for variant in FIG5_VARIANTS:
            by_joins = self.q_errors[variant]
            rows = [
                [
                    joins,
                    len(by_joins[joins]),
                    float(np.median(np.asarray(by_joins[joins]))),
                    float(np.percentile(np.asarray(by_joins[joins]), 95)),
                ]
                for joins in sorted(by_joins)
            ]
            blocks.append(
                format_table(
                    ["#joins", "n", "median q-err", "p95 q-err"],
                    rows,
                    title=(
                        f"Figure 5 (sweep replay, {variant}): full-query "
                        "q-error by join count"
                    ),
                )
            )
        return "\n\n".join(blocks)


def from_frames(frames) -> Fig5ReplayResult:
    frame = frames[0]
    q_errors: dict[str, dict[int, list[float]]] = {
        variant: {} for variant in FIG5_VARIANTS
    }
    for row in frame.rows:
        q_errors[row.estimator].setdefault(
            frame.joins(row.query), []
        ).append(row.q_error)
    return Fig5ReplayResult(q_errors=q_errors)


# --------------------------------------------------------------------- #
# deep replay path: the paper-faithful Figure 5 from stored DeepRows
# --------------------------------------------------------------------- #

#: deep variant label -> the estimator (cardinality source) that prices it
DEEP_VARIANT_SOURCES = (
    ("default", "PostgreSQL"),
    ("true-distinct", "PostgreSQL (true distincts)"),
)

#: subexpression-size cap (shared with fig3's deep artifact, so the two
#: figures share every "PostgreSQL" subexpression cell in the store)
DEEP_MAX_SUBEXPR_SIZE = 6


def deep_report_specs(base):
    """One subexpression frame over the two distinct-count variants."""
    from repro.pipeline.grid import DeepSpec, subexpr_deep_config

    return (
        DeepSpec.from_base(
            base,
            estimators=tuple(src for _, src in DEEP_VARIANT_SOURCES),
            configs=(subexpr_deep_config(DEEP_MAX_SUBEXPR_SIZE),),
        ),
    )


def from_deep_frames(frames) -> Fig5Result:
    """Fold stored subexpression observations into the *deep* Figure 5.

    Per-subexpression signed ratios under default vs true distinct
    counts, folded from persisted rows.
    """
    frame = frames[0]
    ratios: dict[str, dict[int, list[float]]] = {
        variant: {} for variant, _ in DEEP_VARIANT_SOURCES
    }
    for variant, source in DEEP_VARIANT_SOURCES:
        for row in frame.select(kind="subexpr", estimator=source):
            joins = popcount(row.subset) - 1
            ratios[variant].setdefault(joins, []).append(
                signed_ratio(row.est_card, row.true_card)
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
