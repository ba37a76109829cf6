"""Benchmark fixtures.

Two shared suites and one deep-artifact store, built once per session:

* ``suite_full`` — all 113 JOB queries at ``small`` scale; used by the
  estimation-quality benchmarks (Table 1, Figures 3–5), whose cost is
  dominated by the exact-cardinality oracle.
* ``suite_exec`` — a 36-query cross-section of the workload (every
  structure family represented, sizes 4–13 relations) used by the
  execution / enumeration benchmarks (Figures 6–9, Tables 2–3), where
  each query is optimized and executed under many configurations.
* ``deep_fold`` — folds a module's ``-deep`` artifact (Figures 3 and 5
  over the whole workload, the runtime figures over the same
  cross-section) through one temporary result store, so ``fig5-deep``
  replays ``fig3-deep``'s PostgreSQL cells and ``fig7-deep`` and
  ``fig8-deep`` replay the runtime cells they share.

Every benchmark prints the regenerated table/figure rows; run with
``pytest benchmarks/ --benchmark-only -s`` to see them inline.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentSuite
from repro.experiments import frame as frame_mod
from repro.pipeline import SweepSpec

#: representative cross-section for the expensive runtime experiments
EXEC_QUERIES = [
    "1a", "1d", "2a", "2d", "3a", "3c", "4a", "5c", "6a", "6f",
    "7c", "8c", "9d", "10c", "11d", "12c", "13a", "13d", "14c", "15d",
    "16d", "17a", "17b", "17e", "18c", "19d", "20c", "21c", "23a", "24a",
    "25c", "26c", "31c", "32a", "32b", "33a", "33c",
]


@pytest.fixture(scope="session")
def suite_full() -> ExperimentSuite:
    return ExperimentSuite(scale="small")


@pytest.fixture(scope="session")
def suite_exec() -> ExperimentSuite:
    return ExperimentSuite(scale="small", query_names=EXEC_QUERIES)


@pytest.fixture(scope="session")
def deep_fold(tmp_path_factory):
    """``fold(module, query_names)``: the module's deep figure at
    ``small``, priced into (or replayed from) the session's store."""
    root = tmp_path_factory.mktemp("deep-store")

    def fold(module, query_names=None):
        name = module.__name__.rsplit(".", 1)[-1] + "-deep"
        base = SweepSpec(
            scale="small",
            seed=42,
            query_names=tuple(query_names) if query_names else None,
        )
        run = frame_mod.run_report(
            name, base, result_root=root, truth_root=root
        )
        return module.from_deep_frames(run.frames)

    return fold


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing.

    Experiments are deterministic and expensive; repeating them would
    only re-measure caching.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
