"""Physical plan trees.

A plan is a binary tree of :class:`JoinNode` over :class:`ScanNode` leaves.
Each node records the relation subset it produces (a bitmask over the
query's relations) and, once an optimizer has chosen it, the cardinality
the optimizer *believed* the node would produce (``est_rows``).  The
executor uses that belief to size hash tables — the mechanism behind the
paper's undersized-hash-table pathology (Section 4.1).

Join algorithms:

``hash``
    In-memory hash join; the **left** child is the build side, the right
    child the probe side.
``nlj``
    Nested-loop join *without* index — the risky algorithm the paper
    disables in Figure 6b.
``inlj``
    Index-nested-loop join; the right child must be a base-table scan with
    an index on its join column.  The scan's selection (if any) is applied
    *after* the index lookup, which is why costing needs the unfiltered
    intermediate size (Section 2.4).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import PlanError
from repro.query.query import JoinEdge, Query

JOIN_ALGORITHMS = ("hash", "nlj", "inlj")


class PlanNode:
    """Base class for plan tree nodes."""

    subset: int
    est_rows: float

    def children(self) -> tuple["PlanNode", ...]:
        raise NotImplementedError

    def iter_nodes(self) -> Iterator["PlanNode"]:
        """All nodes of the subtree, post-order (children first)."""
        for child in self.children():
            yield from child.iter_nodes()
        yield self

    def leaf_count(self) -> int:
        return self.subset.bit_count()

    def pretty(self, query: Query | None = None, indent: int = 0) -> str:
        """Readable multi-line rendering of the plan tree."""
        raise NotImplementedError


class ScanNode(PlanNode):
    """Base-table access: sequential scan plus (optional) selection.

    ``alias``/``table`` identify the relation, ``rel_index`` its bit.  The
    selection predicate is looked up from the query at execution time so
    plans stay light-weight.
    """

    def __init__(self, rel_index: int, alias: str, table: str) -> None:
        self.rel_index = rel_index
        self.alias = alias
        self.table = table
        self.subset = 1 << rel_index
        self.est_rows = float("nan")

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def pretty(self, query: Query | None = None, indent: int = 0) -> str:
        pad = "  " * indent
        sel = ""
        if query is not None and query.selection_of(self.alias) is not None:
            sel = f" σ{query.selection_of(self.alias)!r}"
        est = "" if self.est_rows != self.est_rows else f" (est={self.est_rows:.0f})"
        return f"{pad}Scan {self.alias}[{self.table}]{sel}{est}"

    def __repr__(self) -> str:
        return f"Scan({self.alias})"


class JoinNode(PlanNode):
    """A binary join of two sub-plans using ``algorithm``.

    ``edges`` are the join predicates connecting the two sides.  For
    ``inlj``, ``index_edge`` names the edge whose right-side column is
    looked up through an index; the remaining edges are applied as a
    post-filter (residual predicates).
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        algorithm: str,
        edges: list[JoinEdge],
        index_edge: JoinEdge | None = None,
    ) -> None:
        if algorithm not in JOIN_ALGORITHMS:
            raise PlanError(f"unknown join algorithm {algorithm!r}")
        if left.subset & right.subset:
            raise PlanError("join children overlap")
        if not edges:
            raise PlanError("cross-product join (no edges) is not allowed")
        if algorithm == "inlj":
            if not isinstance(right, ScanNode):
                raise PlanError("inlj inner side must be a base-table scan")
            if index_edge is None:
                raise PlanError("inlj requires an index_edge")
        self.left = left
        self.right = right
        self.algorithm = algorithm
        self.edges = edges
        self.index_edge = index_edge
        self.subset = left.subset | right.subset
        self.est_rows = float("nan")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def pretty(self, query: Query | None = None, indent: int = 0) -> str:
        pad = "  " * indent
        est = "" if self.est_rows != self.est_rows else f" (est={self.est_rows:.0f})"
        head = f"{pad}{self.algorithm.upper()}{est}"
        return "\n".join(
            [
                head,
                self.left.pretty(query, indent + 1),
                self.right.pretty(query, indent + 1),
            ]
        )

    def __repr__(self) -> str:
        return f"Join({self.algorithm}, {self.left!r}, {self.right!r})"


def annotate_estimates(plan: PlanNode, card) -> None:
    """Stamp ``est_rows`` on every node from the bound cardinality ``card``.

    The executor reads these annotations to size hash tables, mirroring
    how PostgreSQL 9.4 sizes them from planner estimates.
    """
    for node in plan.iter_nodes():
        node.est_rows = float(card(node.subset))
