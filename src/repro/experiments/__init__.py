"""Experiment harness: one module per table/figure of the paper.

===========  ==========================================================
Module       Reproduces
===========  ==========================================================
``table1``   Table 1 — base-table selection q-errors per estimator
``fig3``     Figure 3 — join estimate error growth with join count
``fig4``     Figure 4 — JOB vs TPC-H per-query estimation errors
``fig5``     Figure 5 — default vs true distinct counts
``fig6``     Figure 6 + §4.1 table — slowdowns from injected estimates,
             engine risk ablation (NLJ / rehashing)
``fig7``     Figure 7 — PK-only vs PK+FK index configurations
``fig8``     Figure 8 — cost model vs runtime correlation
``fig9``     Figure 9 — Quickpick plan-space cost distributions
``table2``   Table 2 — restricted tree shapes
``table3``   Table 3 — DP vs Quickpick-1000 vs GOO
``ablation`` beyond-paper sensitivity studies
===========  ==========================================================

Every module has a **replay path** (``report_specs`` + ``from_frames``)
that folds its finding from sweep rows — rendered by ``repro report``
straight from a warm :class:`~repro.pipeline.results.ResultStore` with
zero database generation (see :mod:`repro.experiments.frame`).  The
paper-faithful measurements have one body each:

* Figures 3, 5, 6 (with the Section 4.1 table), 7 and 8 are the **deep
  fold** (``deep_report_specs`` + ``from_deep_frames``) over stored
  subexpression and simulated-runtime rows; ``repro run fig3`` prints
  exactly ``repro report fig3-deep``, priced in memory.
* ``table1``, ``fig4``, ``fig9``, ``table2``, ``table3`` and the
  ablations measure live against an :class:`ExperimentSuite`
  (``run(suite)``).
"""

from repro.experiments.harness import ExperimentSuite

__all__ = ["ExperimentSuite"]
