"""The four workloads: inputs, set-up, timed region and output checks.

This file is the *child* side of the harness.  ``run.py`` starts it once
per set-up, per repeat and per traced pass::

    python benchmarks/e2e/workloads.py '<request json>'

and reads one JSON object from the last line of its output.  Every child
is a fresh interpreter with no ``REPRO_*`` variable, so each repeat pays
its own imports and starts with cold process-level caches — what a user
running ``repro sweep`` or ``repro report`` pays.

Inputs.  ``--seed`` is the database seed.  The query set of each
workload is fixed — the first variant of each JOB family, capped by
relation count — because a seeded *draw* of queries moved ``wall_s`` by
19 % between seeds (a handful of variants such as 29c and 22d cost 3x
their siblings), which would bury any change a later PR makes.  One
variant per family keeps every distinct join graph of JOB in the sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

#: the deep artifacts ``deep_grid_warm_truth`` prices
DEEP_ARTIFACTS = ("fig3-deep", "fig6-deep")

#: passes ``report_all_warm`` makes over the artifact registry
REPORT_PASSES = 2

SMOKE_QUERIES = ("1a", "2a", "3a")


@dataclass(frozen=True)
class Workload:
    """One named set of inputs; the reasons live in ``BENCHMARK.json``."""

    name: str
    #: which timed region runs: ``sweep``, ``deep`` or ``reports``
    region: str
    scale: str = "tiny"
    processes: int = 1
    #: keep first variants whose join graph has at most this many relations
    max_relations: int | None = None
    exclude: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("job_sweep_cold", "sweep"),
        # 17a alone runs 11.5 s at medium against 12 s for the other 21
        # units together: with it the pooled makespan is one unit's time
        # and the scheduler, shm attach and packing measure nothing
        Workload(
            "medium_sweep_pooled",
            "sweep",
            scale="medium",
            processes=2,
            max_relations=9,
            exclude=("17a",),
        ),
        Workload("deep_grid_warm_truth", "deep"),
        Workload("report_all_warm", "reports", max_relations=9),
    )
}


def query_names(workload: Workload, smoke: bool) -> tuple[str, ...]:
    """First variant of each JOB family, within the workload's cap."""
    if smoke:
        return SMOKE_QUERIES
    from repro.workloads import job_queries

    return tuple(
        q.name
        for q in job_queries()
        if q.name.endswith("a")
        and q.name not in workload.exclude
        and (
            workload.max_relations is None
            or q.n_relations <= workload.max_relations
        )
    )


def base_spec(workload: Workload, seed: int, smoke: bool):
    from repro.pipeline import SweepSpec

    return SweepSpec(
        scale="tiny" if smoke else workload.scale,
        seed=seed,
        query_names=query_names(workload, smoke),
    )


# --------------------------------------------------------------------- #
# outputs: digests and checks
# --------------------------------------------------------------------- #


def digest(rows, texts) -> str:
    """sha256 over canonical rows (exact float reprs) and rendered text."""
    sha = hashlib.sha256()
    for row in rows:
        sha.update(repr(row).encode())
        sha.update(b"\n")
    for text in texts:
        sha.update(text.encode())
        sha.update(b"\0")
    return sha.hexdigest()


def non_finite_rows(rows) -> int:
    """Rows holding a NaN or infinite float: cells without a usable row."""
    if not rows:
        return 0
    float_fields = [
        f.name
        for f in fields(rows[0])
        if isinstance(getattr(rows[0], f.name), float)
    ]
    return sum(
        1
        for row in rows
        if not all(math.isfinite(getattr(row, name)) for name in float_fields)
    )


def disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# --------------------------------------------------------------------- #
# timed regions — public entry points only
# --------------------------------------------------------------------- #


@dataclass
class Outcome:
    """What a timed region produced, for checking and digesting."""

    rows: list
    texts: list
    priced: int
    replayed: int
    #: every pass over the artifacts rendered the same text
    passes_agree: bool = True


def expected_cells(workload: Workload, base) -> int:
    """Cells the region must deliver, from the grid definition alone."""
    from repro.experiments.frame import available_reports
    from repro.pipeline import SWEEP_KIND

    def cells(kind, spec):
        return sum(len(unit.cells) for unit in kind.decompose(spec))

    if workload.region == "sweep":
        return cells(SWEEP_KIND, base)
    names, passes = (
        (DEEP_ARTIFACTS, 1)
        if workload.region == "deep"
        else (available_reports(), REPORT_PASSES)
    )
    total = 0
    for name in names:
        specs_of, _, kind, _ = artifact(name)
        total += sum(cells(kind, spec) for spec in specs_of(base))
    return total * passes


def artifact(name: str):
    """``(specs, fold, kind, frame class)`` of a registered artifact.

    The documented contract of every experiment module: ``report_specs``
    + ``from_frames``, and ``deep_report_specs`` + ``from_deep_frames``
    behind the ``-deep`` names.
    """
    import importlib

    from repro.experiments.frame import AnalysisFrame, DeepFrame
    from repro.pipeline import DEEP_KIND, SWEEP_KIND

    module = importlib.import_module(
        "repro.experiments." + name.removesuffix("-deep")
    )
    if name.endswith("-deep"):
        return (
            module.deep_report_specs,
            module.from_deep_frames,
            DEEP_KIND,
            DeepFrame,
        )
    return module.report_specs, module.from_frames, SWEEP_KIND, AnalysisFrame


def run_region(
    workload: Workload, base, root: Path, progress=None,
    passes: int = REPORT_PASSES,
) -> Outcome:
    """The untraced timed region of a workload."""
    from repro.experiments.frame import available_reports, run_report
    from repro.pipeline import ResultStore, run_sweep
    from repro.pipeline.aggregate import aggregate_deep_store, aggregate_store

    truth, results = root / "truth", root / "results"
    if workload.region == "sweep":
        result = run_sweep(
            base,
            processes=workload.processes,
            truth_root=truth,
            result_root=results,
            progress=progress,
        )
        return Outcome(
            result.rows, [], result.priced_cells, result.cached_cells
        )
    if workload.region == "deep":
        runs = [
            run_report(
                name, base, result_root=results, truth_root=truth,
                progress=progress,
            )
            for name in DEEP_ARTIFACTS
        ]
        return Outcome(
            [row for run in runs for f in run.frames for row in f.rows],
            [run.text for run in runs],
            sum(run.priced_cells for run in runs),
            sum(run.replayed_cells for run in runs),
        )
    priced = replayed = 0
    rendered = []
    for _ in range(passes):
        texts = []
        for name in available_reports():
            run = run_report(
                name, base, result_root=results, truth_root=truth,
                processes=workload.processes, progress=progress,
            )
            texts.append(run.text)
            priced += run.priced_cells
            replayed += run.replayed_cells
        # `repro report summary all`: the store-wide folds ride along
        store = ResultStore.for_spec(results, base)
        texts.append(aggregate_store(store).render())
        texts.append(aggregate_deep_store(store).render())
        rendered.append(texts)
    return Outcome(
        [], rendered[0], priced, replayed,
        passes_agree=all(texts == rendered[0] for texts in rendered),
    )


def check_outcome(workload: Workload, base, outcome: Outcome, delta) -> dict:
    """Output checks that hold for any seed; ``delta`` = counter deltas."""
    wanted = expected_cells(workload, base)
    checks = {
        "every_cell_delivered": outcome.priced + outcome.replayed == wanted,
    }
    if workload.region == "sweep":
        checks["cold_store_priced_everything"] = outcome.replayed == 0
        checks["one_row_per_cell"] = len(outcome.rows) == wanted
    elif workload.region == "deep":
        checks["deep_cells_all_priced"] = outcome.replayed == 0
        checks["no_shallow_pricing"] = delta.cells_priced == 0
    else:
        checks["passes_agree"] = outcome.passes_agree
        checks["warm_priced_nothing"] = outcome.priced == 0
        checks["warm_db_generations_zero"] = delta.db_generations == 0
        checks["warm_cells_priced_zero"] = delta.cells_priced == 0
        checks["warm_deep_cells_priced_zero"] = delta.deep_cells_priced == 0
    return checks


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #


def build_fixture(workload: Workload, base, root: Path) -> str:
    """Fill the store a warm workload starts from; returns its digest.

    ``deep_grid_warm_truth`` starts from what a cold sweep of its queries
    leaves (truth complete, no deep rows); ``report_all_warm`` from a
    store that holds every artifact.  Both fill with two processes.
    """
    if workload.region == "deep":
        workload = replace(workload, region="sweep")
    outcome = run_region(replace(workload, processes=2), base, root, passes=1)
    return digest(outcome.rows, outcome.texts)


# --------------------------------------------------------------------- #
# child entry point
# --------------------------------------------------------------------- #


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any pool worker it reaped."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def request_inputs(request: dict):
    """``(workload, base spec)`` a child request names."""
    workload = WORKLOADS[request["workload"]]
    return workload, base_spec(workload, request["seed"], request["smoke"])


def prepare_root(request: dict) -> Path:
    """The repeat's own store root: a copy of the fixture, or empty."""
    root = Path(request["dir"])
    if request.get("fixture"):
        shutil.copytree(request["fixture"], root)
    else:
        root.mkdir(parents=True)
    return root


def timed_child(request: dict) -> dict:
    """One untraced repeat: set up, run the region, check, describe."""
    from repro.experiments.frame import available_reports
    from repro.pipeline import instrument

    available_reports()  # imports every experiment module before the clock
    workload, base = request_inputs(request)
    root = prepare_root(request)

    reports = []
    counters_before = instrument.snapshot()
    phases_before = instrument.phase_snapshot()
    setup_s = time.time() - request["spawned_at"]
    started = time.perf_counter()
    outcome = run_region(workload, base, root, progress=reports.append)
    wall_s = time.perf_counter() - started

    delta = instrument.snapshot() - counters_before
    phases = dict(instrument.phase_delta(phases_before))
    if workload.processes > 1:
        # pool workers time their own phases; only the reports carry them
        for report in reports:
            for name, seconds in report.phases:
                phases[name] = phases.get(name, 0.0) + seconds
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        # the work done: cells priced, or replayed where nothing is priced
        "cells": (
            outcome.replayed
            if workload.region == "reports"
            else outcome.priced
        ),
        "failed_cells": non_finite_rows(outcome.rows),
        "checks": check_outcome(workload, base, outcome, delta),
        "digest": digest(outcome.rows, outcome.texts),
        "counters": asdict(delta),
        "phases": phases,
        "unit_seconds": [r.unit_seconds for r in reports if r.priced],
    }


def fixture_child(request: dict) -> dict:
    workload, base = request_inputs(request)
    fixture_digest = build_fixture(workload, base, Path(request["dir"]))
    return {
        "fixture_s": time.time() - request["spawned_at"],
        "digest": fixture_digest,
    }


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    if request["mode"] == "traced":
        from stepwise import traced_child

        result = traced_child(request)
    elif request["mode"] == "fixture":
        result = fixture_child(request)
    else:
        result = timed_child(request)
    import numpy

    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
