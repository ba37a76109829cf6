"""The disk-oriented PostgreSQL-style cost model (Section 5.1).

"The cost of an operator is defined as a weighted sum of the number of
accessed disk pages (both sequential and random) and the amount of data
processed in memory."  The default weights below are PostgreSQL's
shipped cost variables; :class:`TunedPostgresCostModel` applies the
paper's main-memory tuning — multiplying the CPU parameters by 50 to
shrink the (in-memory unrealistic) 400× gap between processing a tuple
and reading a page (Section 5.3).
"""

from __future__ import annotations

import numpy as np

from repro.cardinality.base import BoundCard
from repro.cost.base import CostModel
from repro.kernels.dp import ALGO_HASH, ALGO_INLJ, ALGO_NLJ
from repro.plans.plan import JoinNode, ScanNode


class PostgresCostModel(CostModel):
    """Weighted page + CPU cost model with PostgreSQL's default weights."""

    def __init__(
        self,
        db,
        seq_page_cost: float = 1.0,
        random_page_cost: float = 4.0,
        cpu_tuple_cost: float = 0.01,
        cpu_index_tuple_cost: float = 0.005,
        cpu_operator_cost: float = 0.0025,
        cpu_multiplier: float = 1.0,
    ) -> None:
        self.db = db
        self.seq_page_cost = seq_page_cost
        self.random_page_cost = random_page_cost
        self.cpu_tuple_cost = cpu_tuple_cost * cpu_multiplier
        self.cpu_index_tuple_cost = cpu_index_tuple_cost * cpu_multiplier
        self.cpu_operator_cost = cpu_operator_cost * cpu_multiplier
        self.name = "postgres" if cpu_multiplier == 1.0 else "postgres-tuned"

    # ------------------------------------------------------------------ #

    def scan_cost(self, node: ScanNode, card: BoundCard) -> float:
        table = self.db.table(node.table)
        pred = card.query.selection_of(node.alias)
        n_preds = 0 if pred is None else max(len(pred.columns()), 1)
        return (
            table.n_pages * self.seq_page_cost
            + table.n_rows * self.cpu_tuple_cost
            + table.n_rows * n_preds * self.cpu_operator_cost
        )

    def join_cost(self, node: JoinNode, card: BoundCard) -> float:
        out_rows = card(node.subset)
        left_rows = card(node.left.subset)
        if node.algorithm == "hash":
            right_rows = card(node.right.subset)
            build = left_rows * (self.cpu_operator_cost + self.cpu_tuple_cost)
            probe = right_rows * self.cpu_operator_cost * len(node.edges)
            return build + probe + out_rows * self.cpu_tuple_cost
        if node.algorithm == "nlj":
            right_rows = card(node.right.subset)
            compare = left_rows * right_rows * self.cpu_operator_cost
            return compare + out_rows * self.cpu_tuple_cost
        if node.algorithm == "inlj":
            fetched = self.inner_join_cardinality(node, card)
            # each outer tuple descends the index (random page), each
            # fetched match touches the heap (discounted random page,
            # assuming correlation/caching) plus index-tuple CPU
            lookup = left_rows * (self.random_page_cost + self.cpu_operator_cost)
            fetch = fetched * (
                0.25 * self.random_page_cost + self.cpu_index_tuple_cost
            )
            return lookup + fetch + out_rows * self.cpu_tuple_cost
        raise ValueError(f"unknown algorithm {node.algorithm!r}")

    def batch_join_costs(
        self,
        algo: np.ndarray,
        out_rows: np.ndarray,
        left_rows: np.ndarray,
        right_rows: np.ndarray,
        fetched: np.ndarray,
        n_edges: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`join_cost`, one float64 operation per scalar
        one in the same order: ``(build + probe) + out``, ``compare +
        out`` and ``(lookup + fetch) + out``."""
        cpu_op = self.cpu_operator_cost
        op = np.empty_like(out_rows)
        hash_ = algo == ALGO_HASH
        if hash_.any():
            op[hash_] = (
                left_rows[hash_] * (cpu_op + self.cpu_tuple_cost)
                + right_rows[hash_] * cpu_op * n_edges[hash_]
            )
        nlj = algo == ALGO_NLJ
        if nlj.any():
            op[nlj] = left_rows[nlj] * right_rows[nlj] * cpu_op
        inlj = algo == ALGO_INLJ
        if inlj.any():
            op[inlj] = left_rows[inlj] * (
                self.random_page_cost + cpu_op
            ) + fetched[inlj] * (
                0.25 * self.random_page_cost + self.cpu_index_tuple_cost
            )
        op += out_rows * self.cpu_tuple_cost
        return op


class TunedPostgresCostModel(PostgresCostModel):
    """Main-memory tuning: CPU cost parameters multiplied by 50."""

    def __init__(self, db, cpu_multiplier: float = 50.0) -> None:
        super().__init__(db, cpu_multiplier=cpu_multiplier)
        self.name = "postgres-tuned"
