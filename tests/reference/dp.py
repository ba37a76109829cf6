"""Reference DP: the candidate-at-a-time csg–cmp loop.

:func:`optimize_scalar` is :meth:`DPEnumerator.optimize
<repro.enumeration.dp.DPEnumerator.optimize>` priced one candidate at a
time: every candidate join is built as a :class:`JoinNode` through
:func:`~repro.enumeration.candidates.candidate_joins` and priced with the
cost model's scalar ``join_cost``; the first strict improvement per
union wins.  The level-batched kernel (:mod:`repro.kernels.dp`) must
return the identical plan and the IEEE-identical cost.
"""

from __future__ import annotations

from repro.enumeration.candidates import candidate_joins
from repro.errors import EnumerationError
from repro.plans.plan import PlanNode, ScanNode, annotate_estimates
from repro.plans.shapes import TreeShape


def shape_admits(shape: TreeShape, left: PlanNode, right: PlanNode) -> bool:
    """Whether ``shape`` admits joining ``left`` (outer) with ``right``."""
    if shape is TreeShape.BUSHY:
        return True
    left_base = isinstance(left, ScanNode)
    right_base = isinstance(right, ScanNode)
    if shape is TreeShape.LEFT_DEEP:
        return right_base
    if shape is TreeShape.RIGHT_DEEP:
        return left_base
    if shape is TreeShape.ZIG_ZAG:
        return left_base or right_base
    raise EnumerationError(f"unknown shape {shape!r}")


def optimize_scalar(enumerator, context, card) -> tuple[PlanNode, float]:
    """The cheapest plan under ``enumerator``'s knobs, and its cost."""
    query = context.query
    model = enumerator.cost_model
    best: dict[int, tuple[float, PlanNode]] = {}
    for i in range(query.n_relations):
        scan = context.scan_node(i)
        best[scan.subset] = (model.scan_cost(scan, card), scan)

    for s1, s2, edges in context.catalog.pair_edges:
        union = s1 | s2
        current = best.get(union)
        for a, b in ((s1, s2), (s2, s1)):
            entry_a = best.get(a)
            entry_b = best.get(b)
            if entry_a is None or entry_b is None:
                # unreachable under a shape restriction
                continue
            cost_a, plan_a = entry_a
            cost_b, plan_b = entry_b
            if not shape_admits(enumerator.shape, plan_a, plan_b):
                continue
            for node in candidate_joins(
                query, plan_a, plan_b, edges, enumerator.design,
                allow_nlj=enumerator.allow_nlj,
            ):
                total = cost_a + model.join_cost(node, card)
                if node.algorithm != "inlj":
                    total += cost_b
                if current is None or total < current[0]:
                    current = (total, node)
        if current is not None:
            best[union] = current

    final = best.get(query.all_mask)
    if final is None:
        raise EnumerationError(
            f"no {enumerator.shape.value} plan found for query "
            f"{query.name!r} (join graph disconnected?)"
        )
    cost, plan = final
    annotate_estimates(plan, card)
    return plan, cost
