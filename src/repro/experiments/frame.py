"""Analysis frames: figure/table presentation rebuilt on sweep rows.

The replayable-analytics contract has three layers share one data model:
the **storage layer** persists priced :class:`~repro.pipeline.grid.
SweepRow`\\ s (:class:`~repro.pipeline.results.ResultStore` + manifest
index), the **aggregation layer** folds them
(:mod:`repro.pipeline.aggregate`), and this module is the
**presentation layer**: an :class:`AnalysisFrame` is the slice of sweep
rows one figure or table renders from, built by *replaying* the result
store and pricing only the cells the store does not cover.

With a warm store, :func:`build_frame` performs **zero database
generation and zero cell pricing** — `repro report` renders every
registered artifact straight from disk (the counters in
:mod:`repro.pipeline.instrument` let tests assert exactly that).  And
because stored floats round-trip bit-exactly, the replayed artifact is
byte-identical to the recomputed one.

Each experiment module registers a replay artifact here by exporting

* ``report_specs(base) -> tuple[SweepSpec, ...]`` — the grid slices the
  artifact needs (most artifacts need one; Figure 4 needs a JOB and a
  TPC-H frame), and
* ``from_frames(frames) -> result`` — the pure fold from rows to a
  renderable result.

The paper-faithful *deep* measurements — subexpression-level error
distributions (Figures 3/5) and injected-estimate simulated runtimes
(Figures 6–8) — are replayable too: those modules also export
``deep_report_specs`` + ``from_deep_frames`` over a :class:`DeepFrame`
of stored :class:`~repro.pipeline.grid.DeepRow`\\ s, registered as the
``fig3-deep`` … ``fig8-deep`` artifacts.  That fold is the figures' only
production body: ``repro run fig3`` renders ``fig3-deep`` with no store.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.pipeline.driver import run_cells
from repro.pipeline.grid import DeepRow, DeepSpec, SweepRow, SweepSpec
from repro.pipeline.kinds import DEEP_KIND, SWEEP_KIND


@dataclass
class AnalysisFrame:
    """Sweep rows for one spec, in canonical grid order, with provenance.

    ``replayed_cells`` / ``priced_cells`` record how the frame was
    materialised: a warm store replays everything, a cold run prices
    everything, and a partially covered store prices exactly the delta.
    Both paths yield bit-identical ``rows``.
    """

    spec: SweepSpec
    rows: tuple[SweepRow, ...]
    priced_cells: int
    replayed_cells: int
    #: per-query relation counts (from workload metadata, no database)
    n_relations: dict[str, int] = field(repr=False)

    # ------------------------------------------------------------------ #

    def joins(self, query: str) -> int:
        """Number of joins of a workload query (relations - 1)."""
        return self.n_relations[query] - 1

    def select(
        self,
        query: str | None = None,
        estimator: str | None = None,
        config: str | None = None,
    ) -> list[SweepRow]:
        """Rows matching the given coordinates, in canonical order."""
        return [
            r
            for r in self.rows
            if (query is None or r.query == query)
            and (estimator is None or r.estimator == estimator)
            and (config is None or r.config == config)
        ]

    def row(self, query: str, estimator: str, config: str) -> SweepRow:
        for r in self.rows:
            if (r.query, r.estimator, r.config) == (query, estimator, config):
                return r
        raise KeyError((query, estimator, config))

    @property
    def query_names(self) -> list[str]:
        """Queries present, in canonical workload order."""
        seen: dict[str, None] = {}
        for r in self.rows:
            seen.setdefault(r.query, None)
        return list(seen)

    @property
    def estimator_names(self) -> list[str]:
        return list(self.spec.estimators)

    @property
    def config_names(self) -> list[str]:
        return [c.name for c in self.spec.configs]


def _materialise(
    spec,
    kind,
    frame_cls,
    result_root,
    truth_root,
    processes,
    progress,
    resume,
):
    """The one frame builder: any kind's rows through ``run_cells``.

    With ``result_root`` pointing at a warm store the call touches no
    database generator and no optimizer — it is a pure indexed read.
    Without a store it is the recompute path.  Either way the returned
    rows are bit-identical.
    """
    units = kind.decompose(spec)
    result = run_cells(
        spec,
        kind,
        processes=processes,
        truth_root=truth_root,
        result_root=result_root,
        resume=resume,
        progress=progress,
    )
    return frame_cls(
        spec=spec,
        rows=tuple(result.rows),
        priced_cells=result.priced_cells,
        replayed_cells=result.cached_cells,
        n_relations={u.query: u.n_relations for u in units},
    )


def build_frame(
    spec: SweepSpec,
    result_root=None,
    truth_root=None,
    processes: int = 1,
    progress=None,
    resume: bool = True,
) -> AnalysisFrame:
    """Materialise a spec's rows: replay what the store covers, price the rest."""
    return _materialise(
        spec,
        SWEEP_KIND,
        AnalysisFrame,
        result_root,
        truth_root,
        processes,
        progress,
        resume,
    )


# --------------------------------------------------------------------- #
# deep frames
# --------------------------------------------------------------------- #


@dataclass
class DeepFrame:
    """Deep rows for one deep spec, in canonical grid order.

    The deep twin of :class:`AnalysisFrame`: the slice of
    :class:`~repro.pipeline.grid.DeepRow`\\ s one paper-faithful artifact
    folds from — subexpression error distributions for Figures 3/5,
    injected-estimate simulated runtimes for Figures 6–8 — materialised
    by replaying the result store and pricing only the missing deep
    cells.  ``priced_cells``/``replayed_cells`` count deep *cells* (one
    cell may own many subexpression rows).
    """

    spec: DeepSpec
    rows: tuple[DeepRow, ...]
    priced_cells: int
    replayed_cells: int
    #: per-query relation counts (from workload metadata, no database)
    n_relations: dict[str, int] = field(repr=False)

    # ------------------------------------------------------------------ #

    def joins(self, query: str) -> int:
        """Number of joins of a workload query (relations - 1)."""
        return self.n_relations[query] - 1

    def select(
        self,
        kind: str | None = None,
        query: str | None = None,
        estimator: str | None = None,
        config: str | None = None,
    ) -> list[DeepRow]:
        """Rows matching the given coordinates, in canonical order."""
        return [
            r
            for r in self.rows
            if (kind is None or r.kind == kind)
            and (query is None or r.query == query)
            and (estimator is None or r.estimator == estimator)
            and (config is None or r.config == config)
        ]

    @property
    def query_names(self) -> list[str]:
        """Queries present, in canonical workload order."""
        seen: dict[str, None] = {}
        for r in self.rows:
            seen.setdefault(r.query, None)
        return list(seen)

    @property
    def estimator_names(self) -> list[str]:
        return list(self.spec.estimators)

    @property
    def config_names(self) -> list[str]:
        return [c.name for c in self.spec.configs]


def build_deep_frame(
    spec: DeepSpec,
    result_root=None,
    truth_root=None,
    processes: int = 1,
    progress=None,
    resume: bool = True,
) -> DeepFrame:
    """Materialise a deep spec's rows: replay the store, price the rest.

    Same contract as :func:`build_frame` — both are the same generic
    builder parameterised by kind: a warm store makes this a pure
    indexed read (zero database generation, zero deep cell pricing) and
    either path yields bit-identical rows.
    """
    return _materialise(
        spec,
        DEEP_KIND,
        DeepFrame,
        result_root,
        truth_root,
        processes,
        progress,
        resume,
    )


# --------------------------------------------------------------------- #
# report registry
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ReportDef:
    """One replayable artifact: its grid requirements and its fold.

    ``deep`` artifacts request :class:`DeepSpec`\\ s and fold
    :class:`DeepFrame`\\ s — the paper-faithful measurements — instead of
    sweep-row reshapings.
    """

    name: str
    specs: Callable[[SweepSpec], tuple]
    build: Callable[[Sequence], object]
    deep: bool = False


def _registry() -> dict[str, ReportDef]:
    # imported lazily: experiment modules are heavyweight (numpy) and
    # none of them import this module back, so there is no cycle
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

    modules = {
        "fig3": fig3,
        "fig4": fig4,
        "fig5": fig5,
        "fig6": fig6,
        "fig7": fig7,
        "fig8": fig8,
        "fig9": fig9,
        "table1": table1,
        "table2": table2,
        "table3": table3,
        "ablation": ablation,
    }
    registry = {
        name: ReportDef(
            name=name,
            specs=module.report_specs,
            build=module.from_frames,
        )
        for name, module in modules.items()
    }
    # the paper-faithful deep variants: same figures, folded from stored
    # DeepRows (subexpression ratios, simulated runtimes) instead of
    # sweep-row reshapings
    deep_modules = {
        "fig3-deep": fig3,
        "fig5-deep": fig5,
        "fig6-deep": fig6,
        "fig7-deep": fig7,
        "fig8-deep": fig8,
    }
    registry.update({
        name: ReportDef(
            name=name,
            specs=module.deep_report_specs,
            build=module.from_deep_frames,
            deep=True,
        )
        for name, module in deep_modules.items()
    })
    return registry


def available_reports() -> list[str]:
    """Names `repro report` accepts, in paper order."""
    return list(_registry())


@dataclass
class ReportRun:
    """One rendered artifact plus the frames it was folded from."""

    name: str
    text: str
    frames: tuple[AnalysisFrame | DeepFrame, ...]

    @property
    def priced_cells(self) -> int:
        return sum(f.priced_cells for f in self.frames)

    @property
    def replayed_cells(self) -> int:
        return sum(f.replayed_cells for f in self.frames)


def run_report(
    name: str,
    base: SweepSpec,
    result_root=None,
    truth_root=None,
    processes: int = 1,
    progress=None,
    resume: bool = True,
) -> ReportRun:
    """Build a registered artifact's frames and render it.

    ``base`` carries the database identity (dataset, scale, seed,
    correlation) and an optional query restriction; the report itself
    owns its estimator and enumerator-config axes (deep artifacts: their
    cardinality-source and deep-config axes).  Unknown names raise
    ``KeyError`` listing the registry.
    """
    registry = _registry()
    definition = registry.get(name)
    if definition is None:
        raise KeyError(
            f"unknown report {name!r}; choose from {', '.join(registry)}"
        )
    builder = build_deep_frame if definition.deep else build_frame
    frames = tuple(
        builder(
            spec,
            result_root=result_root,
            truth_root=truth_root,
            processes=processes,
            progress=progress,
            resume=resume,
        )
        for spec in definition.specs(base)
    )
    result = definition.build(frames)
    return ReportRun(name=name, text=result.render(), frames=frames)
