"""The paper's simple main-memory cost function C_mm (Section 5.4).

    C_mm(T) = τ·|R|                         if T = R or σ(R)
            = |T| + C(T1) + C(T2)           if T = T1 ⋈_HJ T2
            = C(T1) + λ·|T1|·max(|T1⋈R|/|T1|, 1)   if T = T1 ⋈_INL T2
                                            (T2 = R or σ(R))

τ ≤ 1 discounts table scans relative to joins; λ ≥ 1 prices an index
lookup relative to a hash-table lookup.  The paper sets τ = 0.2, λ = 2.
Despite ignoring I/O entirely, this model predicts main-memory runtimes
nearly as well as the tuned PostgreSQL model once the cardinalities are
right — the paper's headline cost-model result.
"""

from __future__ import annotations

import numpy as np

from repro.cardinality.base import BoundCard
from repro.cost.base import CostModel
from repro.kernels.dp import ALGO_INLJ, ALGO_NLJ
from repro.plans.plan import JoinNode, ScanNode


class SimpleCostModel(CostModel):
    """C_mm: tuple counts only."""

    def __init__(self, db, tau: float = 0.2, lam: float = 2.0) -> None:
        if not 0 < tau <= 1:
            raise ValueError("tau must be in (0, 1]")
        if lam < 1:
            raise ValueError("lambda must be >= 1")
        self.db = db
        self.tau = tau
        self.lam = lam
        self.name = "simple"

    def scan_cost(self, node: ScanNode, card: BoundCard) -> float:
        return self.tau * self.db.table(node.table).n_rows

    def join_cost(self, node: JoinNode, card: BoundCard) -> float:
        out_rows = card(node.subset)
        left_rows = card(node.left.subset)
        if node.algorithm == "hash":
            # |T| + C(T1) + C(T2): the operator's own contribution is |T|
            return out_rows
        if node.algorithm == "inlj":
            fetched = self.inner_join_cardinality(node, card)
            return self.lam * max(fetched, left_rows)
        if node.algorithm == "nlj":
            # not part of the paper's formula (it disables non-index NLJ);
            # priced quadratically so it is available when enabled
            return left_rows * card(node.right.subset)
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
        """Vectorized :meth:`join_cost`; ``n_edges`` is unused (C_mm does
        not price hash probes per join predicate).

        Cardinalities are ≥ 1 by the estimator contract, so
        ``np.maximum`` cannot diverge from python's ``max`` on signed
        zeros.
        """
        op = out_rows.copy()  # hash: the operator's contribution is |T|
        nlj = algo == ALGO_NLJ
        if nlj.any():
            op[nlj] = left_rows[nlj] * right_rows[nlj]
        inlj = algo == ALGO_INLJ
        if inlj.any():
            op[inlj] = self.lam * np.maximum(fetched[inlj], left_rows[inlj])
        return op
