"""Plan execution: real numpy joins + deterministic simulated time.

The executor walks the plan tree bottom-up.  Every operator (a) computes
its *actual* result from the data and (b) charges simulated work
proportional to the work a single-threaded in-memory engine would do,
including the two estimate-gated risks Section 4 dissects: quadratic
nested-loop joins and estimate-sized hash tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PlanError
from repro.execution.context import ExecutionContext, OperatorStats
from repro.execution.result import ResultSet
from repro.plans.plan import JoinNode, PlanNode, ScanNode
from repro.query.query import JoinEdge, Query
from repro.util.joinkeys import equi_join_indices


@dataclass
class ExecutionResult:
    """Outcome of executing one plan."""

    result: ResultSet
    work_units: float
    simulated_ms: float

    @property
    def n_rows(self) -> int:
        return self.result.n_rows


def execute_plan(
    plan: PlanNode, query: Query, ctx: ExecutionContext
) -> ExecutionResult:
    """Execute ``plan`` against ``ctx.db``; raises
    :class:`~repro.errors.WorkBudgetExceeded` on timeout."""
    result = _execute(plan, query, ctx)
    return ExecutionResult(
        result=result, work_units=ctx.work_done, simulated_ms=ctx.simulated_ms
    )


# --------------------------------------------------------------------- #
# node dispatch
# --------------------------------------------------------------------- #


def _execute(node: PlanNode, query: Query, ctx: ExecutionContext) -> ResultSet:
    if isinstance(node, ScanNode):
        return _execute_scan(node, query, ctx)
    if isinstance(node, JoinNode):
        if node.algorithm == "hash":
            return _execute_hash_join(node, query, ctx)
        if node.algorithm == "nlj":
            return _execute_nested_loop(node, query, ctx)
        if node.algorithm == "inlj":
            return _execute_index_nested_loop(node, query, ctx)
    raise PlanError(f"cannot execute node {node!r}")


def _execute_scan(
    node: ScanNode, query: Query, ctx: ExecutionContext
) -> ResultSet:
    table = ctx.db.table(node.table)
    ctx.charge(table.n_rows * ctx.config.scan_tuple)
    pred = query.selection_of(node.alias)
    if pred is None:
        ids = np.arange(table.n_rows, dtype=np.int64)
    else:
        ids = np.nonzero(pred.evaluate(table))[0].astype(np.int64)
    ctx.record(
        OperatorStats(
            label=f"scan {node.alias}",
            in_left=table.n_rows,
            out_rows=len(ids),
            work=table.n_rows * ctx.config.scan_tuple,
        )
    )
    return ResultSet(node.subset, {node.alias: ids})


# --------------------------------------------------------------------- #
# join helpers
# --------------------------------------------------------------------- #


def _edge_keys(
    result: ResultSet, query: Query, ctx: ExecutionContext, edges: list[JoinEdge],
    side_subset: int,
) -> list[np.ndarray]:
    """Key arrays (one per edge) for the side of each edge inside
    ``side_subset``."""
    keys = []
    for edge in edges:
        alias = (
            edge.left_alias
            if query.alias_bit(edge.left_alias) & side_subset
            else edge.right_alias
        )
        _, col = edge.side(alias)
        table = ctx.db.table(query.relation_for(alias).table)
        keys.append(table.column(col).values[result.row_ids[alias]])
    return keys


def _merge_results(
    node: JoinNode, left: ResultSet, right: ResultSet,
    lidx: np.ndarray, ridx: np.ndarray,
) -> ResultSet:
    row_ids = {alias: ids[lidx] for alias, ids in left.row_ids.items()}
    row_ids.update({alias: ids[ridx] for alias, ids in right.row_ids.items()})
    return ResultSet(node.subset, row_ids)


def _join_indices(
    node: JoinNode, query: Query, ctx: ExecutionContext,
    left: ResultSet, right: ResultSet,
) -> tuple[np.ndarray, np.ndarray]:
    left_keys = _edge_keys(left, query, ctx, node.edges, left.subset)
    right_keys = _edge_keys(right, query, ctx, node.edges, right.subset)
    return equi_join_indices(left_keys, right_keys)


# --------------------------------------------------------------------- #
# join operators
# --------------------------------------------------------------------- #


def _hash_buckets(ctx: ExecutionContext, node: JoinNode, build_rows: int) -> int:
    """Number of hash buckets: from the actual build size when rehashing,
    from the planner estimate otherwise (PostgreSQL 9.4 vs 9.5).

    Estimates are only trusted within the range that matters: a NaN,
    infinite, or otherwise out-of-range ``est_rows`` is clamped to the
    actual build size (``int(inf)`` raises ``OverflowError``, and a huge
    finite estimate would size an absurd bucket array; above the build
    size the chain length is 1 either way, so clamping is behaviour-
    preserving for every finite estimate)."""
    if ctx.config.rehash:
        basis = build_rows
    else:
        est = node.left.est_rows
        if np.isfinite(est):
            basis = int(min(est, max(build_rows, 1)))
        else:
            basis = build_rows  # NaN/inf -> actual
    basis = max(basis, ctx.config.min_buckets)
    return 1 << int(np.ceil(np.log2(basis)))


def _execute_hash_join(
    node: JoinNode, query: Query, ctx: ExecutionContext
) -> ResultSet:
    left = _execute(node.left, query, ctx)  # build side
    right = _execute(node.right, query, ctx)  # probe side
    cfg = ctx.config
    build_n, probe_n = left.n_rows, right.n_rows
    buckets = _hash_buckets(ctx, node, build_n)
    # average collision-chain length: undersized tables (estimate ≪ actual)
    # make every probe walk a long chain
    chain = max(1.0, build_n / buckets)
    lidx, ridx = _join_indices(node, query, ctx, left, right)
    work = (
        build_n * cfg.build_tuple
        + probe_n * cfg.probe_tuple * chain
        + len(lidx) * cfg.output_tuple
    )
    ctx.charge(work)
    ctx.record(
        OperatorStats(
            label=f"hash(chain={chain:.1f})",
            in_left=build_n,
            in_right=probe_n,
            out_rows=len(lidx),
            work=work,
        )
    )
    return _merge_results(node, left, right, lidx, ridx)


def _execute_nested_loop(
    node: JoinNode, query: Query, ctx: ExecutionContext
) -> ResultSet:
    left = _execute(node.left, query, ctx)
    right = _execute(node.right, query, ctx)
    cfg = ctx.config
    pair_work = float(left.n_rows) * float(right.n_rows) * cfg.nlj_pair
    # quadratic pre-flight: a plan that compares 10^10 pairs must time out
    # here, not after materialising anything
    ctx.ensure_budget_for(pair_work)
    lidx, ridx = _join_indices(node, query, ctx, left, right)
    work = pair_work + len(lidx) * cfg.output_tuple
    ctx.charge(work)
    ctx.record(
        OperatorStats(
            label="nlj",
            in_left=left.n_rows,
            in_right=right.n_rows,
            out_rows=len(lidx),
            work=work,
        )
    )
    return _merge_results(node, left, right, lidx, ridx)


def _execute_index_nested_loop(
    node: JoinNode, query: Query, ctx: ExecutionContext
) -> ResultSet:
    if not isinstance(node.right, ScanNode):
        raise PlanError("inlj inner side must be a base-table scan")
    left = _execute(node.left, query, ctx)
    cfg = ctx.config
    inner_alias = node.right.alias
    inner_table = ctx.db.table(node.right.table)
    edge = node.index_edge
    assert edge is not None
    _, inner_col = edge.side(inner_alias)
    outer_alias, outer_col = edge.other(inner_alias)
    outer_table = ctx.db.table(query.relation_for(outer_alias).table)
    probe_keys = outer_table.column(outer_col).values[
        left.row_ids[outer_alias]
    ]
    index = ctx.design.index(inner_table.name, inner_col)
    probe_positions, inner_rows = index.lookup_many(probe_keys)
    fetched = len(inner_rows)
    work = left.n_rows * cfg.index_lookup + fetched * cfg.index_fetch
    ctx.charge(work)

    # the inner selection applies only AFTER fetching matches (§2.4)
    keep = np.ones(fetched, dtype=bool)
    pred = query.selection_of(inner_alias)
    if pred is not None and fetched:
        mask = pred.evaluate(inner_table)
        keep &= mask[inner_rows]
    # residual join edges beyond the indexed one
    for other_edge in node.edges:
        if other_edge is edge:
            continue
        o_alias, o_col = other_edge.other(inner_alias)
        _, i_col = other_edge.side(inner_alias)
        o_table = ctx.db.table(query.relation_for(o_alias).table)
        o_vals = o_table.column(o_col).values[
            left.row_ids[o_alias][probe_positions]
        ]
        i_vals = inner_table.column(i_col).values[inner_rows]
        keep &= o_vals == i_vals
    lidx = probe_positions[keep]
    inner_ids = inner_rows[keep]
    out_work = len(lidx) * cfg.output_tuple
    ctx.charge(out_work)
    ctx.record(
        OperatorStats(
            label=f"inlj {inner_alias}",
            in_left=left.n_rows,
            in_right=fetched,
            out_rows=len(lidx),
            work=work + out_work,
        )
    )
    row_ids = {alias: ids[lidx] for alias, ids in left.row_ids.items()}
    row_ids[inner_alias] = inner_ids
    return ResultSet(node.subset, row_ids)

