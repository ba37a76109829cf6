"""Exhaustive dynamic programming over csg–cmp pairs (Section 6).

Enumerates every bushy join order without cross products — the same
search space as PostgreSQL's DP — and optionally restricts the tree shape
to left-deep, right-deep, or zig-zag (Section 6.2).  Plan alternatives
are priced with an arbitrary cost model and an arbitrary (injectable)
cardinality source, which is exactly the standalone-optimizer methodology
the paper uses for its Section 6 experiments.

Pricing runs one union-size level at a time in :mod:`repro.kernels.dp`
for every cost model; a NaN cardinality raises
:class:`~repro.errors.EstimationError`.
"""

from __future__ import annotations

from repro.cardinality.base import BoundCard
from repro.cost.base import CostModel
from repro.enumeration.context import QueryContext
from repro.kernels.dp import optimize_batched
from repro.physical.design import PhysicalDesign
from repro.plans.plan import PlanNode, annotate_estimates
from repro.plans.shapes import TreeShape


class DPEnumerator:
    """Exhaustive (optionally shape-restricted) join-order enumeration.

    Parameters
    ----------
    cost_model:
        Prices plan alternatives.
    design:
        Physical design; controls index-nested-loop availability.
    allow_nlj:
        Enable the risky non-index nested-loop join (paper's default
        engine, Figure 6a).
    shape:
        Tree-shape restriction (default: bushy = unrestricted).
    """

    def __init__(
        self,
        cost_model: CostModel,
        design: PhysicalDesign,
        allow_nlj: bool = False,
        allow_smj: bool = False,
        shape: TreeShape = TreeShape.BUSHY,
        kernels: None = None,
    ) -> None:
        # ``kernels`` survives only for benchmarks/e2e/stepwise.py
        if kernels is not None:
            raise ValueError(
                f"kernels={kernels!r}: the numpy kernels are the only "
                "pricing path; pass None"
            )
        # ``allow_smj`` survives only for benchmarks/e2e/stepwise.py
        if allow_smj is not False:
            raise ValueError(
                f"allow_smj={allow_smj!r}: sort-merge joins are not "
                "supported; pass False"
            )
        self.cost_model = cost_model
        self.design = design
        self.allow_nlj = allow_nlj
        self.shape = shape

    def optimize(
        self, context: QueryContext, card: BoundCard
    ) -> tuple[PlanNode, float]:
        """The cheapest plan for the context's query and its cost.

        The returned plan is annotated with the estimates it was optimized
        under (``est_rows``), which the executor later uses for hash-table
        sizing.
        """
        plan, cost = optimize_batched(self, context, card)
        annotate_estimates(plan, card)
        return plan, cost
