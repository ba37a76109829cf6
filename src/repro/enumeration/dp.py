"""Exhaustive dynamic programming over csg–cmp pairs (Section 6).

Enumerates every bushy join order without cross products — the same
search space as PostgreSQL's DP — and optionally restricts the tree shape
to left-deep, right-deep, or zig-zag (Section 6.2).  Plan alternatives
are priced with an arbitrary cost model and an arbitrary (injectable)
cardinality source, which is exactly the standalone-optimizer methodology
the paper uses for its Section 6 experiments.

Pricing runs one union-size level at a time in :mod:`repro.kernels.dp`
for every cost model; the candidate-at-a-time scalar loop
(:meth:`DPEnumerator.optimize_scalar`) prices only what the kernel
declines — sort-merge joins and NaN cardinalities.  Both produce the
identical plan and the IEEE-identical cost.
"""

from __future__ import annotations

from repro.cardinality.base import BoundCard
from repro.cost.base import CostModel, plan_cost
from repro.enumeration.candidates import candidate_joins
from repro.enumeration.context import QueryContext
from repro.errors import EnumerationError
from repro.kernels.dp import optimize_batched
from repro.physical.design import PhysicalDesign
from repro.plans.plan import PlanNode, ScanNode, annotate_estimates
from repro.plans.shapes import TreeShape


class DPEnumerator:
    """Exhaustive (optionally shape-restricted) join-order enumeration.

    Parameters
    ----------
    cost_model:
        Prices plan alternatives.
    design:
        Physical design; controls index-nested-loop availability.
    allow_nlj / allow_smj:
        Enable the risky non-index nested-loop join (paper's default
        engine, Figure 6a) / sort-merge joins.
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
        self.cost_model = cost_model
        self.design = design
        self.allow_nlj = allow_nlj
        self.allow_smj = allow_smj
        self.shape = shape

    # ------------------------------------------------------------------ #

    def _shape_admits(self, left: PlanNode, right: PlanNode) -> bool:
        if self.shape is TreeShape.BUSHY:
            return True
        left_base = isinstance(left, ScanNode)
        right_base = isinstance(right, ScanNode)
        if self.shape is TreeShape.LEFT_DEEP:
            return right_base
        if self.shape is TreeShape.RIGHT_DEEP:
            return left_base
        if self.shape is TreeShape.ZIG_ZAG:
            return left_base or right_base
        raise EnumerationError(f"unknown shape {self.shape!r}")

    def optimize(
        self, context: QueryContext, card: BoundCard
    ) -> tuple[PlanNode, float]:
        """The cheapest plan for the context's query and its cost.

        The returned plan is annotated with the estimates it was optimized
        under (``est_rows``), which the executor later uses for hash-table
        sizing.
        """
        batched = optimize_batched(self, context, card)
        if batched is None:
            return self.optimize_scalar(context, card)
        plan, cost = batched
        annotate_estimates(plan, card)
        return plan, cost

    def optimize_scalar(
        self, context: QueryContext, card: BoundCard
    ) -> tuple[PlanNode, float]:
        """:meth:`optimize` priced one candidate at a time.

        Every candidate join is built as a :class:`JoinNode` and priced
        through the cost model's ``join_cost``; the first strict
        improvement per union wins.  :meth:`optimize` runs this loop
        for the two inputs the batched kernel declines — sort-merge
        joins enabled and NaN cardinalities; the differential tests call
        it directly.
        """
        query = context.query
        best: dict[int, tuple[float, PlanNode]] = {}
        for i in range(query.n_relations):
            scan = context.scan_node(i)
            cost = self.cost_model.scan_cost(scan, card)
            best[scan.subset] = (cost, scan)

        # pair_edges is precomputed once per catalog: re-optimizing the
        # same query under another estimator or cost model skips the
        # edges_between derivation for every csg–cmp pair.  The loop
        # binds every per-candidate attribute lookup to a local once —
        # attribute churn was a measurable slice of it.
        best_get = best.get
        join_cost = self.cost_model.join_cost
        shape_admits = self._shape_admits
        bushy = self.shape is TreeShape.BUSHY
        design = self.design
        allow_nlj = self.allow_nlj
        allow_smj = self.allow_smj
        for s1, s2, edges in context.catalog.pair_edges:
            union = s1 | s2
            current = best_get(union)
            for a, b in ((s1, s2), (s2, s1)):
                entry_a = best_get(a)
                entry_b = best_get(b)
                if entry_a is None or entry_b is None:
                    # unreachable under a shape restriction
                    continue
                cost_a, plan_a = entry_a
                cost_b, plan_b = entry_b
                if not bushy and not shape_admits(plan_a, plan_b):
                    continue
                for node in candidate_joins(
                    query,
                    plan_a,
                    plan_b,
                    edges,
                    design,
                    allow_nlj=allow_nlj,
                    allow_smj=allow_smj,
                ):
                    op_cost = join_cost(node, card)
                    total = cost_a + op_cost
                    if node.algorithm != "inlj":
                        total += cost_b
                    if current is None or total < current[0]:
                        current = (total, node)
            if current is not None:
                best[union] = current

        final = best.get(query.all_mask)
        if final is None:
            raise EnumerationError(
                f"no {self.shape.value} plan found for query {query.name!r} "
                "(join graph disconnected?)"
            )
        cost, plan = final
        annotate_estimates(plan, card)
        return plan, cost

    def optimal_cost(self, context: QueryContext, card: BoundCard) -> float:
        """Convenience: just the optimal plan's cost."""
        return self.optimize(context, card)[1]

    def recost(
        self, plan: PlanNode, card: BoundCard
    ) -> float:
        """Re-evaluate a plan's cost under another cardinality source.

        The paper's methodology (Section 6): optimize with estimates, then
        recompute the chosen plan's cost with the true cardinalities as a
        proxy for its real runtime.
        """
        return plan_cost(plan, self.cost_model, card)


def count_plans_considered(context: QueryContext) -> int:
    """Number of csg–cmp pairs — a proxy for DP search-space size."""
    return len(context.catalog.pairs)
