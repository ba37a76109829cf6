"""What-if physical design study (the Section 4.3 / Figure 7 mechanism).

Scenario: a DBA considers adding foreign-key indexes to speed up an
analytical workload.  This example shows the paper's double-edged result:

* absolute runtimes improve with more indexes, but
* the optimizer's exposure to cardinality misestimates grows — the same
  queries planned with (incorrect) estimates drift much further from
  their true-cardinality optima once FK indexes exist.

Run:  python examples/whatif_index_design.py
"""

import numpy as np

from repro.experiments import ExperimentSuite
from repro.experiments.runtime import SCENARIOS, RuntimeRunner
from repro.physical import IndexConfig

QUERIES = ["1a", "2a", "5c", "6a", "8c", "13d", "16d", "21c", "25c", "32a"]


def main() -> None:
    print("building suite (small synthetic IMDB, 10 JOB queries)...")
    suite = ExperimentSuite(scale="small", query_names=QUERIES)
    runner = RuntimeRunner(suite)
    scenario = SCENARIOS["no-nlj+rehash"]

    print(f"\n{'config':18s} {'median runtime':>15s} {'geo-mean slowdown':>18s} "
          f"{'worst slowdown':>15s}")
    for config in (IndexConfig.NONE, IndexConfig.PK, IndexConfig.PK_FK):
        runtimes = []
        slowdowns = []
        for query in suite.queries:
            card = suite.workspace(query).card("PostgreSQL")
            plan = runner.plan_for(query, card, config, scenario)
            ms, _ = runner.execute_ms(query, plan, config, scenario)
            optimal = runner.optimal_runtime(query, config, scenario)
            runtimes.append(ms)
            slowdowns.append(ms / max(optimal, 1e-9))
        print(
            f"{config.value:18s} {np.median(runtimes):12.2f} ms "
            f"{float(np.exp(np.mean(np.log(slowdowns)))):17.2f}x "
            f"{max(slowdowns):14.1f}x"
        )

    print(
        "\nreading guide: runtimes drop as indexes are added, but the "
        "slowdown columns (estimate-planned vs true-cardinality-planned) "
        "grow — 'the more indexes are available, the harder the job of "
        "the query optimizer becomes' (Section 4.3)."
    )


if __name__ == "__main__":
    main()
