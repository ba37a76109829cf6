"""Reference truth oracle: one python join per connected subset.

:class:`ReferenceTrueCardinalities` keeps the production oracle's state,
caches and ``max_rows`` guard but materialises every subexpression the
original way — its expansion parent (the bit-scan reference) joined with
a freshly gathered singleton result through
:func:`~repro.util.joinkeys.equi_join_indices`, one subset at a time in
level order.  It never warms a side cache and never batches, so every
count it reports comes from the plainest join this codebase has.
"""

from __future__ import annotations

import numpy as np

from repro.cardinality.truth import TrueCardinalities, _KeyedResult
from repro.errors import EstimationError
from repro.util.bitset import popcount
from repro.util.joinkeys import equi_join_indices

from reference.subgraphs import connected_subsets, expansion_parent


class ReferenceTrueCardinalities(TrueCardinalities):
    """The exact cardinality oracle without the :mod:`repro.kernels` path."""

    def _relation_result(self, state, bit: int, filtered: bool) -> _KeyedResult:
        rel = state.query.relation_at(bit.bit_length() - 1)
        table = self.db.table(rel.table)
        if filtered:
            row_ids = self._base_rows(state, rel.alias)
        else:
            row_ids = np.arange(table.n_rows, dtype=np.int64)
        keys = {}
        for edge in state.query.joins:
            if rel.alias in edge.aliases():
                _, col = edge.side(rel.alias)
                if (rel.alias, col) not in keys:
                    keys[(rel.alias, col)] = table.column(col).values[row_ids]
        return _KeyedResult(n_rows=len(row_ids), keys=keys)

    def _join(self, state, subset, parent, left, bit, right, count_only=False):
        query = state.query
        edges = state.graph.edges_between(parent, bit)
        r_alias = query.relation_at(bit.bit_length() - 1).alias
        left_cols = []
        right_cols = []
        for edge in edges:
            o_alias, o_col = edge.other(r_alias)
            _, r_col = edge.side(r_alias)
            left_cols.append(left.keys[(o_alias, o_col)])
            right_cols.append(right.keys[(r_alias, r_col)])
        lidx, ridx = equi_join_indices(left_cols, right_cols)
        n_out = len(lidx)
        if n_out > self.max_rows:
            raise EstimationError(
                f"intermediate result of {query.name!r} exceeds max_rows "
                f"({n_out} > {self.max_rows})"
            )
        if count_only:
            return _KeyedResult(n_rows=n_out, keys={})
        keys = {}
        for alias, col in self._outgoing_key_columns(state, subset):
            if (alias, col) in left.keys:
                keys[(alias, col)] = left.keys[(alias, col)][lidx]
            else:
                keys[(alias, col)] = right.keys[(alias, col)][ridx]
        return _KeyedResult(n_rows=n_out, keys=keys)

    def _materialize(self, state, subset: int) -> _KeyedResult:
        result = state.results.get(subset)
        if result is not None:
            return result
        if popcount(subset) == 1:
            result = self._relation_result(state, subset, filtered=True)
        else:
            if not state.graph.is_connected(subset):
                raise EstimationError(
                    f"subset {subset:#x} of query {state.query.name!r} "
                    "is not connected"
                )
            parent, bit = expansion_parent(state.graph, subset)
            left = self._materialize(state, parent)
            right = self._relation_result(state, bit, filtered=True)
            result = self._join(state, subset, parent, left, bit, right)
        state.results[subset] = result
        state.counts[subset] = result.n_rows
        return result

    def _unfiltered_count(self, state, subset: int, alias: str) -> int:
        query = state.query
        bit = query.alias_bit(alias)
        if not (bit & subset):
            raise EstimationError(f"alias {alias!r} not in subset {subset:#x}")
        if popcount(subset) == 1:
            return self.db.table(query.relation_for(alias).table).n_rows
        key = (subset, alias)
        count = state.unfiltered_counts.get(key)
        if count is not None:
            return count
        outer = subset ^ bit
        if not state.graph.is_connected(outer) or not state.graph.connects(
            outer, bit
        ):
            raise EstimationError(
                "unfiltered intermediate requires a connected outer side "
                f"(subset {subset:#x}, alias {alias!r})"
            )
        left = self._materialize(state, outer)
        right = self._relation_result(state, bit, filtered=False)
        joined = self._join(
            state, subset, outer, left, bit, right, count_only=True
        )
        state.unfiltered_counts[key] = joined.n_rows
        return joined.n_rows

    def compute_all(self, query, max_size=None, warm_unfiltered=False):
        """Sequential level walk; ``warm_unfiltered`` is execution policy
        and ignored here."""
        state = self._state(query)
        if state.covered(max_size):
            return dict(state.counts)
        cap = state.graph.n if max_size is None else max_size
        levels: dict[int, list[int]] = {}
        for subset in connected_subsets(state.graph, cap):
            levels.setdefault(popcount(subset), []).append(subset)
        for size in sorted(levels):
            if size > 1:
                self._evict(state, keep_min_size=size - 1)
            for subset in levels[size]:
                self._count(state, subset)
        state.widen_cover(max_size)
        return dict(state.counts)
