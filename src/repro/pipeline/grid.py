"""The sweep grid: what gets optimized, and what comes back.

The paper's core methodology is a full cross product — every workload
query × every estimator analogue × every enumerator/physical-design
configuration (Sections 3–6).  A :class:`SweepSpec` names one such grid
declaratively (and picklably, so multiprocessing workers can rebuild the
exact same world from it); a :class:`SweepRow` is one grid cell's
outcome; a :class:`SweepResult` aggregates them.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

from repro.catalog.schema import Database
from repro.cost import (
    CostModel,
    PostgresCostModel,
    SimpleCostModel,
    TunedPostgresCostModel,
)
from repro.physical import IndexConfig
from repro.pipeline.resources import ESTIMATOR_ORDER
from repro.plans.shapes import TreeShape

COST_MODELS = ("simple", "standard", "tuned")


def make_cost_model(name: str, db: Database) -> CostModel:
    if name == "simple":
        return SimpleCostModel(db)
    if name == "standard":
        return PostgresCostModel(db)
    if name == "tuned":
        return TunedPostgresCostModel(db)
    raise ValueError(
        f"unknown cost model {name!r}; choose from {COST_MODELS}"
    )


@dataclass(frozen=True)
class EnumeratorConfig:
    """One enumerator/engine configuration of the sweep grid.

    ``allow_smj`` is always False: sort-merge joins are not supported,
    but the field stays because :func:`~repro.pipeline.tasks.
    config_fingerprint` hashes every field, so dropping it would change
    every stored cell key.
    """

    name: str
    indexes: IndexConfig = IndexConfig.PK_FK
    shape: TreeShape = TreeShape.BUSHY
    allow_nlj: bool = False
    allow_smj: bool = False
    cost_model: str = "simple"

    def __post_init__(self) -> None:
        # queue spec files are outside input and may carry any value
        if self.allow_smj is not False:
            raise ValueError(
                f"config {self.name!r}: allow_smj={self.allow_smj!r}; "
                "sort-merge joins are not supported"
            )


#: the default grid: the paper's two main physical designs (§4.2–4.3, §6)
DEFAULT_CONFIGS: tuple[EnumeratorConfig, ...] = (
    EnumeratorConfig("pk", indexes=IndexConfig.PK),
    EnumeratorConfig("pk+fk", indexes=IndexConfig.PK_FK),
)


@dataclass(frozen=True)
class SweepSpec:
    """A fully deterministic description of one sweep.

    Everything a worker process needs to rebuild the exact same database,
    workload, and estimator line-up lives here — results are therefore
    identical no matter how the grid is partitioned across processes.
    ``dataset`` names the generator + workload pair (``imdb`` or
    ``tpch``, see :mod:`repro.pipeline.tasks`); ``correlation`` only
    shapes the IMDB generator.
    """

    scale: str = "tiny"
    seed: int = 42
    correlation: float = 0.8
    query_names: tuple[str, ...] | None = None
    estimators: tuple[str, ...] = tuple(ESTIMATOR_ORDER)
    configs: tuple[EnumeratorConfig, ...] = DEFAULT_CONFIGS
    dataset: str = "imdb"
    # only for stepwise.py; goes with the next benchmark change
    oracle_processes: ClassVar[int] = 1


# --------------------------------------------------------------------- #
# deep measurements
# --------------------------------------------------------------------- #

#: the two deep observation kinds the result store persists
DEEP_KINDS = ("subexpr", "runtime")

#: estimator name denoting the truth oracle as a cardinality source in
#: deep runtime cells (the paper's "true cardinalities" injections)
TRUE_SOURCE = "true"


@dataclass(frozen=True)
class DeepConfig:
    """One configuration of the *deep* measurement grid.

    The paper's headline figures are deep measurements: per-subexpression
    estimate/truth ratios (Figures 3/5) and injected-estimate simulated
    runtimes (Figures 6–8).  A :class:`DeepConfig` names one such
    measurement setup the way an :class:`EnumeratorConfig` names one
    optimizer setup — declaratively and picklably, with every field part
    of the cell fingerprint.

    ``kind`` selects which knobs matter: ``"subexpr"`` cells enumerate
    connected subexpressions up to ``max_subexpr_size`` (0 = no cap);
    ``"runtime"`` cells plan with ``cost_model`` under the engine risk
    knobs (``allow_nlj``, ``rehash`` — Section 4.1's scenarios) on the
    ``indexes`` design and execute the plan (``work_budget`` 0 = the
    engine's default timeout).  Unused knobs keep their defaults so
    equal setups fingerprint equal across artifacts — a warm Figure 6
    store partially warms Figure 7.
    """

    name: str
    kind: str
    # subexpr knob
    max_subexpr_size: int = 0
    # runtime knobs
    indexes: IndexConfig = IndexConfig.PK
    allow_nlj: bool = True
    rehash: bool = False
    cost_model: str = "tuned"
    work_budget: float = 0.0


def subexpr_deep_config(max_subexpr_size: int = 0) -> DeepConfig:
    """The canonical subexpression-enumeration config (Figures 3/5).

    A shared canonical name means every artifact that enumerates the
    same subexpression cap shares the same fingerprint — and therefore
    the same stored rows.
    """
    return DeepConfig(
        name=f"subexpr{max_subexpr_size or 'full'}",
        kind="subexpr",
        max_subexpr_size=max_subexpr_size,
    )


@dataclass(frozen=True)
class DeepSpec:
    """A fully deterministic description of one deep sweep.

    Field names deliberately mirror :class:`SweepSpec` (the database
    identity half is shared verbatim) so the resource builder, the
    result store, and the workload helpers serve both spec kinds.
    ``estimators`` are cardinality *sources*: the registry names plus
    :data:`TRUE_SOURCE` for the truth oracle (runtime cells compare
    injected estimates against the true-cardinality plan).
    """

    scale: str = "tiny"
    seed: int = 42
    correlation: float = 0.8
    query_names: tuple[str, ...] | None = None
    estimators: tuple[str, ...] = tuple(ESTIMATOR_ORDER)
    configs: tuple[DeepConfig, ...] = ()
    dataset: str = "imdb"
    # only for stepwise.py; goes with the next benchmark change
    oracle_processes: ClassVar[int] = 1

    @classmethod
    def from_base(
        cls,
        base: "SweepSpec",
        estimators: tuple[str, ...],
        configs: tuple[DeepConfig, ...],
    ) -> "DeepSpec":
        """A deep spec inheriting a shallow spec's database identity."""
        return cls(
            scale=base.scale,
            seed=base.seed,
            correlation=base.correlation,
            query_names=base.query_names,
            estimators=estimators,
            configs=configs,
            dataset=base.dataset,
        )


@dataclass(frozen=True)
class DeepRow:
    """One deep observation of the paper's figure-grade measurements.

    ``kind == "subexpr"``: one connected subexpression of ``query`` —
    ``subset`` is its canonical relation bitset, ``true_card`` the exact
    count and ``est_card`` the estimator's belief (Figures 3/5 fold
    signed ratios from these).

    ``kind == "runtime"``: one injected-estimate optimizer+engine run —
    ``plan_cost_est`` is the cost the planner believed (under the
    injected cardinalities), ``plan_cost_true`` the chosen plan recosted
    with true cardinalities, ``sim_runtime_ms`` the simulated execution
    time, and ``timed_out`` flags a work-budget abort (Figures 6–8 fold
    slowdowns and cost-vs-runtime fits from these).

    Unused fields hold their zero defaults; every float survives the
    JSON store round trip bit-exactly.
    """

    kind: str
    query: str
    estimator: str
    config: str
    subset: int = 0
    true_card: float = 0.0
    est_card: float = 0.0
    plan_cost_true: float = 0.0
    plan_cost_est: float = 0.0
    sim_runtime_ms: float = 0.0
    timed_out: int = 0


@dataclass
class DeepResult:
    """All deep rows of one deep sweep, in deterministic grid order.

    ``priced_cells`` / ``cached_cells`` count *cells* (one cell = one
    (query × estimator × deep-config) measurement, which may own many
    subexpression rows); an identical-spec re-run reports
    ``priced_cells == 0``.
    """

    spec: DeepSpec
    rows: list[DeepRow] = field(default_factory=list)
    priced_cells: int = 0
    cached_cells: int = 0


@dataclass(frozen=True)
class SweepRow:
    """One (query × estimator × config) cell of the sweep.

    ``est_cost`` is the optimizer's belief (plan cost under the injected
    estimates); ``true_cost`` is the chosen plan recosted with true
    cardinalities; ``optimal_cost`` is the true-cardinality optimum of
    the same configuration; ``slowdown`` is their ratio — the paper's
    standalone-optimizer plan-quality metric (Section 6).  ``q_error`` is
    the full-query estimate's q-error.
    """

    query: str
    estimator: str
    config: str
    est_cost: float
    true_cost: float
    optimal_cost: float
    slowdown: float
    q_error: float


@dataclass
class SweepResult:
    """All rows of one sweep, in deterministic grid order.

    ``priced_cells`` / ``cached_cells`` split the grid into cells this
    run actually computed versus cells replayed from a persistent
    :class:`~repro.pipeline.results.ResultStore` — an identical-spec
    re-run reports ``priced_cells == 0``.
    """

    spec: SweepSpec
    rows: list[SweepRow] = field(default_factory=list)
    priced_cells: int = 0
    cached_cells: int = 0

    def row(self, query: str, estimator: str, config: str) -> SweepRow:
        for r in self.rows:
            if (r.query, r.estimator, r.config) == (query, estimator, config):
                return r
        raise KeyError((query, estimator, config))

    def keyed(self) -> dict[tuple[str, str, str], SweepRow]:
        return {(r.query, r.estimator, r.config): r for r in self.rows}

    def to_csv(self, path: str | Path) -> Path:
        path = Path(path)
        names = [f.name for f in fields(SweepRow)]
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=names)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(asdict(row))
        return path

    def render(self) -> str:
        from repro.experiments.report import format_table

        rows = [
            [
                r.query,
                r.estimator,
                r.config,
                r.est_cost,
                r.true_cost,
                r.slowdown,
                r.q_error,
            ]
            for r in self.rows
        ]
        return format_table(
            ["query", "estimator", "config", "est cost", "true cost",
             "slowdown", "q-error"],
            rows,
            title=(
                f"Sweep: scale={self.spec.scale} seed={self.spec.seed} — "
                f"{len(self.rows)} grid cells"
            ),
        )
