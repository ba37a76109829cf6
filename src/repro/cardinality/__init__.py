"""Cardinality estimation: the paper's five estimator families plus truth.

The systems the paper measures are anonymised ("DBMS A/B/C", PostgreSQL,
HyPer); we implement estimators reproducing the *described behaviours*:

* :class:`PostgresEstimator` — per-attribute MCVs + histograms + sampled
  distinct counts, independence, the textbook join formula (Section 2.3).
* :class:`SamplingEstimator` — HyPer-style per-table samples with a
  magic-constant fallback when the sample yields zero matches.
* :class:`DampedEstimator` — "DBMS A": sampled base estimates plus damped
  join selectivities, giving medians closest to the truth.
* :class:`CoarseHistogramEstimator` — "DBMS B": coarse histograms and
  aggressive underestimation, frequently clamping to 1 row.
* :class:`MagicConstantEstimator` — "DBMS C": magic constants everywhere,
  producing the largest base-table errors including huge overestimates.
* :class:`TrueCardinalities` — the exact oracle (Section 2.4).
* :class:`InjectedCardinalities` — the paper's cardinality-injection
  mechanism: per-subexpression overrides over any fallback estimator.
"""

from repro.cardinality.base import BoundCard, CardinalityEstimator
from repro.cardinality.extensions import (
    JoinSamplingEstimator,
    PessimisticEstimator,
)
from repro.cardinality.injection import InjectedCardinalities
from repro.cardinality.postgres import PostgresEstimator
from repro.cardinality.profiles import (
    CoarseHistogramEstimator,
    DampedEstimator,
    MagicConstantEstimator,
)
from repro.cardinality.qerror import q_error, signed_ratio
from repro.cardinality.sampling import SamplingEstimator
from repro.cardinality.truth import MaterialisationPlan, TrueCardinalities

__all__ = [
    "MaterialisationPlan",
    "CardinalityEstimator",
    "BoundCard",
    "PostgresEstimator",
    "SamplingEstimator",
    "DampedEstimator",
    "CoarseHistogramEstimator",
    "MagicConstantEstimator",
    "TrueCardinalities",
    "InjectedCardinalities",
    "JoinSamplingEstimator",
    "PessimisticEstimator",
    "q_error",
    "signed_ratio",
]
