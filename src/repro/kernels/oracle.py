"""Vectorized truth-oracle materialisation (per-level batched semi-joins).

Every oracle join has the same shape: an already-materialised *parent*
result (compressed to its outgoing key columns) extended by one base
relation along the expansion edge(s).  A plain per-join equi-join (the
reference in ``tests/reference/truth.py``) re-gathers and re-encodes the
base relation's key columns and sorts the *parent* side for every
single join; this kernel inverts that:

* the base-relation side is built **once** per ``(alias, key columns,
  filtered)`` into a sorted probe (:class:`_Probe`) cached on the
  query state — one ``argsort`` of a base table column serves every
  subset that expands by that relation;
* each join is then a binary-search **probe**: ``searchsorted`` of the
  parent's key codes against the sorted base side, per-parent-row match
  counts, and a ``repeat``-based expansion — no sort of the (large)
  parent side at all, and a pure count (no expansion) for the
  ``count_only`` unfiltered-intermediate path;
* :func:`compute_levels` batches all of one size level's probes into
  one ``searchsorted`` per (expansion relation, edge signature) group
  and slices the outgoing key columns per subset afterwards.

Only *counts* (and which rows pair with which) are observable through
the oracle's interface — the internal row order of a materialisation is
not — so the kernel is free to emit matches in parent-major order where
the reference emits right-major order.  Counts, the ``max_rows`` guard,
and every downstream join result are bit-identical; the differential
tests in ``tests/test_truth_differential.py`` compare the two end to
end.

Multi-column probes encode composite keys with base-side value ranges
(strides); when the range product would overflow int64 the join falls
back to the shared :func:`~repro.util.joinkeys.combine_keys` encode via
:func:`~repro.util.joinkeys.equi_join_indices` — same counts, slower.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.catalog.column import NULL_INT
from repro.errors import EstimationError
from repro.util.joinkeys import equi_join_indices

_RANGE_LIMIT = 2**62


@dataclass
class _Probe:
    """Sorted base-relation side of an expansion join, built once.

    ``sorted_codes`` are the (composite) key codes of the valid
    (non-NULL) base rows in ascending order; ``positions[k]`` maps the
    k-th sorted code back to its row position within the singleton
    result (= index into ``row_ids``).  ``mins``/``ranges`` are the
    per-column encode parameters for multi-column keys (``None`` for
    the single-column fast path).  ``fallback`` marks a probe whose
    composite domain overflowed — joins against it take the shared
    ``equi_join_indices`` path instead.
    """

    row_ids: np.ndarray
    sorted_codes: np.ndarray
    positions: np.ndarray
    mins: list[int] | None
    ranges: list[int] | None
    fallback: bool
    #: lazily-built code histogram (see :func:`_ensure_hist`), which
    #: replaces binary search entirely for in-range codes;
    #: ``hist_tried`` marks the build attempt so an over-wide code range
    #: is only measured once
    hist_starts: np.ndarray | None = None
    hist_lo: int = 0
    hist_tried: bool = False


def _state_probes(state) -> dict:
    probes = getattr(state, "kernel_probes", None)
    if probes is None:
        probes = {}
        state.kernel_probes = probes
    return probes


def _vertex_edge_lists(state) -> dict:
    """Per-vertex ``(other endpoint, edge bucket)`` lists, sorted by the
    other endpoint — the single-bit ``edges_between`` fast path."""
    per = getattr(state, "kernel_vertex_edges", None)
    if per is None:
        per = {}
        for (i, j), bucket in state.graph._edges.items():
            per.setdefault(j, []).append((i, bucket))
            per.setdefault(i, []).append((j, bucket))
        for lst in per.values():
            lst.sort(key=lambda e: e[0])
        state.kernel_vertex_edges = per
    return per


def _edges_between(state, a: int, b: int):
    """Memoised ``graph.edges_between`` for the oracle's hot join loop.

    The graph is immutable and the oracle asks for the same (parent,
    expansion bit) edge lists over and over — once during the bottom-up
    walk and again for every unfiltered-intermediate probe the DP layer
    requests — so the edge scan is worth caching per query state.  When
    ``b`` is a single vertex (every oracle expansion), the scan walks
    only that vertex's adjacency list instead of the full bit
    cross-product; the ascending-``i`` walk reproduces the
    ``edges_between`` order exactly.
    """
    cache = getattr(state, "kernel_edges", None)
    if cache is None:
        cache = {}
        state.kernel_edges = cache
    edges = cache.get((a, b))
    if edges is None:
        if b & (b - 1) == 0:
            edges = []
            for i, bucket in _vertex_edge_lists(state).get(
                b.bit_length() - 1, ()
            ):
                if (a >> i) & 1:
                    edges.extend(bucket)
        else:
            edges = state.graph.edges_between(a, b)
        cache[(a, b)] = edges
    return edges


def _singleton_rows(truth, state, alias: str, filtered: bool) -> np.ndarray:
    if filtered:
        return truth._base_rows(state, alias)
    table = truth.db.table(state.query.relation_for(alias).table)
    return np.arange(table.n_rows, dtype=np.int64)


def _build_probe(truth, state, alias, cols, filtered) -> _Probe:
    table = truth.db.table(state.query.relation_for(alias).table)
    row_ids = _singleton_rows(truth, state, alias, filtered)
    values = [table.column(col).values[row_ids] for col in cols]
    valid = np.ones(len(row_ids), dtype=bool)
    for column in values:
        valid &= column != NULL_INT
    positions = np.nonzero(valid)[0].astype(np.int64)
    empty = np.empty(0, dtype=np.int64)
    if len(positions) == 0:
        return _Probe(row_ids, empty, empty, None, None, False)
    if len(cols) == 1:
        codes = values[0][positions]
        mins = ranges = None
    else:
        mins, ranges = [], []
        span = 1
        for column in values:
            kept = column[positions]
            lo = int(kept.min())
            width = int(kept.max()) - lo + 1
            mins.append(lo)
            ranges.append(width)
            span *= width
            if span > _RANGE_LIMIT:
                return _Probe(row_ids, empty, empty, None, None, True)
        codes = np.zeros(len(positions), dtype=np.int64)
        for column, lo, width in zip(values, mins, ranges):
            codes = codes * np.int64(width) + (
                column[positions] - np.int64(lo)
            )
    order = np.argsort(codes, kind="stable")
    return _Probe(
        row_ids, codes[order], positions[order], mins, ranges, False
    )


def _probe_for(truth, state, bit: int, edges, filtered: bool) -> _Probe:
    r_alias = state.query.relation_at(bit.bit_length() - 1).alias
    cols = tuple(edge.side(r_alias)[1] for edge in edges)
    key = (r_alias, cols, filtered)
    probes = _state_probes(state)
    probe = probes.get(key)
    if probe is None:
        probe = _build_probe(truth, state, r_alias, cols, filtered)
        probes[key] = probe
    return probe


def _left_columns(state, left, bit: int, edges) -> list[np.ndarray]:
    r_alias = state.query.relation_at(bit.bit_length() - 1).alias
    out = []
    for edge in edges:
        o_alias, o_col = edge.other(r_alias)
        out.append(left.keys[(o_alias, o_col)])
    return out


def _left_codes(probe: _Probe, left_cols: list[np.ndarray]) -> np.ndarray:
    """Parent-side key codes under the probe's encoding.

    Values outside the base side's per-column range cannot match any
    base row; their (wrapped, meaningless) codes are replaced by a -1
    sentinel that sorts below every valid code — NULL_INT on a
    single-column probe needs no special case because the base side
    holds no NULLs.
    """
    if probe.mins is None:
        return left_cols[0]
    ok = np.ones(len(left_cols[0]), dtype=bool)
    codes = np.zeros(len(left_cols[0]), dtype=np.int64)
    for column, lo, width in zip(left_cols, probe.mins, probe.ranges):
        ok &= (column >= lo) & (column < lo + width)
        codes = codes * np.int64(width) + (column - np.int64(lo))
    return np.where(ok, codes, np.int64(-1))


#: a probe gets a count histogram only when its code range is at most
#: this many times its row count (plus a small floor), and never wider
#: than ``_HIST_LIMIT`` codes: a sparse range would spend memory on
#: empty buckets that binary search does without
_HIST_DENSITY = 4
_HIST_FLOOR = 1 << 12
_HIST_LIMIT = 1 << 22


def _ensure_hist(probe) -> None:
    """Build the probe's code histogram once, if its range is dense.

    The histogram is stored as ``hist_starts``: entry ``c`` is the first
    position of code ``hist_lo + c`` in ``sorted_codes`` and the final
    entry is their count, so a code's match count is the difference of
    two neighbouring entries.
    """
    if probe.hist_tried:
        return
    probe.hist_tried = True
    sc = probe.sorted_codes
    if len(sc):
        lo = int(sc[0])
        span = int(sc[-1]) - lo + 1
        if span <= min(_HIST_LIMIT, _HIST_DENSITY * len(sc) + _HIST_FLOOR):
            starts = np.zeros(span + 1, dtype=np.int64)
            np.cumsum(np.bincount(sc - np.int64(lo), minlength=span),
                      out=starts[1:])
            probe.hist_starts = starts
            probe.hist_lo = lo


def _hist_lookup(probe, codes) -> tuple[np.ndarray, np.ndarray]:
    """Per-code (match count, first position); out-of-range codes get a
    zero count and an arbitrary position."""
    idx = codes - np.int64(probe.hist_lo)
    ok = (idx >= 0) & (idx < len(probe.hist_starts) - 1)
    safe = np.where(ok, idx, 0)
    starts = probe.hist_starts[safe]
    counts = np.where(ok, probe.hist_starts[safe + 1] - starts, np.int64(0))
    return counts, starts


def _match_counts(probe, codes) -> tuple[np.ndarray, np.ndarray]:
    """Per-row match counts plus first-match positions.

    With the histogram available both come from O(rows) gathers.  A
    start position is only ever *used* where the count is positive
    (``_expand_matches`` repeats it ``count`` times), and there it equals
    ``searchsorted(..., "left")`` exactly — out-of-range codes get an
    arbitrary start and a zero count, just like the binary-search path's
    unused insertion points.
    """
    _ensure_hist(probe)
    if probe.hist_starts is not None:
        return _hist_lookup(probe, codes)
    lo = probe.sorted_codes.searchsorted(codes, side="left")
    hi = probe.sorted_codes.searchsorted(codes, side="right")
    return (hi - lo).astype(np.int64, copy=False), lo


def _count_matches(probe, codes) -> np.ndarray:
    """Per-row match counts only (no match positions); exact integers
    whether they come from the histogram or from binary search."""
    return _match_counts(probe, codes)[0]


def _expand_matches(counts, lo, positions):
    """Row-index pairs from per-parent-row counts (parent-major order)."""
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    lidx = np.arange(len(counts), dtype=np.int64).repeat(counts)
    starts = lo.repeat(counts)
    run_starts = np.concatenate(([0], counts.cumsum()[:-1]))
    offsets = np.arange(total, dtype=np.int64) - run_starts.repeat(counts)
    ridx = positions[starts + offsets]
    return lidx, ridx


def _guard(truth, state, n_out: int) -> None:
    if n_out > truth.max_rows:
        raise EstimationError(
            f"intermediate result of {state.query.name!r} exceeds max_rows "
            f"({n_out} > {truth.max_rows})"
        )


def _fallback_join(truth, state, left, bit, edges, filtered):
    """Shared-encode path for overflowing composite domains."""
    r_alias = state.query.relation_at(bit.bit_length() - 1).alias
    table = truth.db.table(state.query.relation_for(r_alias).table)
    row_ids = _singleton_rows(truth, state, r_alias, filtered)
    right_cols = [
        table.column(edge.side(r_alias)[1]).values[row_ids] for edge in edges
    ]
    lidx, ridx = equi_join_indices(
        _left_columns(state, left, bit, edges), right_cols
    )
    return lidx, ridx, row_ids


def _result_keys(
    truth, state, subset, left, bit, lidx, ridx, right_row_ids
) -> dict:
    """Slice the outgoing key columns of the joined result."""
    query = state.query
    r_alias = query.relation_at(bit.bit_length() - 1).alias
    table = truth.db.table(query.relation_for(r_alias).table)
    keys: dict[tuple[str, str], np.ndarray] = {}
    for alias, col in truth._outgoing_key_columns(state, subset):
        if (alias, col) in left.keys:
            keys[(alias, col)] = left.keys[(alias, col)][lidx]
        else:
            keys[(alias, col)] = table.column(col).values[
                right_row_ids[ridx]
            ]
    return keys


def expand_join(
    truth,
    state,
    subset: int,
    parent: int,
    left,
    bit: int,
    filtered: bool = True,
    count_only: bool = False,
):
    """One expansion join: ``parent ⋈ relation(bit)``.

    Applies the ``max_rows`` guard and returns the compressed result;
    the base side comes from the cached probe rather than a freshly
    gathered singleton result.  ``filtered=False`` joins the relation
    before its selection (the unfiltered intermediates INLJ costing
    needs); ``count_only`` skips the key gather.
    """
    from repro.cardinality.truth import _KeyedResult

    edges = _edges_between(state, parent, bit)
    probe = _probe_for(truth, state, bit, edges, filtered)
    if probe.fallback:
        lidx, ridx, row_ids = _fallback_join(
            truth, state, left, bit, edges, filtered
        )
        n_out = len(lidx)
        _guard(truth, state, n_out)
        if count_only:
            return _KeyedResult(n_rows=n_out, keys={})
        keys = _result_keys(
            truth, state, subset, left, bit, lidx, ridx, row_ids
        )
        return _KeyedResult(n_rows=n_out, keys=keys)
    codes = _left_codes(probe, _left_columns(state, left, bit, edges))
    if count_only:
        n_out = int(_count_matches(probe, codes).sum())
        _guard(truth, state, n_out)
        return _KeyedResult(n_rows=n_out, keys={})
    counts, lo = _match_counts(probe, codes)
    n_out = int(counts.sum())
    _guard(truth, state, n_out)
    lidx, ridx = _expand_matches(counts, lo, probe.positions)
    keys = _result_keys(
        truth, state, subset, left, bit, lidx, ridx, probe.row_ids
    )
    return _KeyedResult(n_rows=n_out, keys=keys)


#: side-cache entry cap per truth state; comfortably above the largest
#: JOB query's expansion-candidate count (a 17-relation query stays in
#: the low thousands) yet bounding a long multi-query sweep's footprint
SIDE_CACHE_CAP = 4096


class _SideCache(OrderedDict):
    """Bounded LRU for warm unfiltered counts (drop-in dict surface).

    The warm pass speculates: it counts *every* neighbour expansion of
    every live subset, and only some are ever promoted.  Unbounded,
    that speculation accumulated across a whole multi-query sweep; the
    LRU keeps the working set of the query being priced and quietly
    forgets the rest.  An evicted entry is never wrong — the promotion
    path falls through to the lazy join and recomputes the identical
    count — so the cap is pure memory policy.
    """

    def __init__(self, cap: int | None = None) -> None:
        super().__init__()
        # read the module constant at construction (test-patchable)
        self.cap = SIDE_CACHE_CAP if cap is None else cap

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.cap:
            self.popitem(last=False)

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not default:
            self.move_to_end(key)
        return value


def release_caches(state) -> None:
    """Drop ``state``'s probes and warm side cache.

    Both are pure caches rebuilt on demand, so releasing them between
    work units trades a rebuild on a later visit for memory: a long-lived
    oracle otherwise keeps every pinned query's probe histograms alive.
    """
    state.kernel_probes = None
    state.kernel_unfiltered_side = None


def _side_cache(state) -> _SideCache:
    """Memory-only unfiltered-count side cache (see ``compute_levels``).

    Entries are *candidates*, not observations: they reach the
    observable ``state.unfiltered_counts`` only when a caller actually
    requests them — in request order, with the ``max_rows`` guard
    applied at promotion time — so the side cache never changes counts
    or stored bytes.
    """
    side = getattr(state, "kernel_unfiltered_side", None)
    if side is None:
        side = _SideCache()
        state.kernel_unfiltered_side = side
    return side


#: most parent rows the warm pass probes in one batched call: bounds the
#: concatenated code and count arrays that sit beside a level's live
#: materialisations
_WARM_BATCH_ROWS = 1 << 16


def _row_batches(members, rows_of):
    """Consecutive runs of ``members`` holding at most
    ``_WARM_BATCH_ROWS`` rows each (a larger member runs alone)."""
    batch, rows = [], 0
    for member in members:
        n = rows_of(member)
        if batch and rows + n > _WARM_BATCH_ROWS:
            yield batch
            batch, rows = [], 0
        batch.append(member)
        rows += n
    if batch:
        yield batch


def _warm_unfiltered_level(truth, state, subsets) -> None:
    """Count each live subset's unfiltered-neighbour expansions.

    For every materialised ``outer`` in ``subsets`` and every
    neighbouring relation ``bit``, counts ``outer ⋈ unfiltered(bit)``
    with one batched probe per (relation, key columns) group — these
    are exactly the intermediates index-nested-loop pricing asks for
    later, when ``outer``'s rows would already be evicted.
    """
    side = _side_cache(state)
    query = state.query
    groups: dict[tuple, list[tuple[int, int, list]]] = {}
    for outer in subsets:
        if outer not in state.results:
            continue  # preloaded count without rows; served lazily later
        neigh = state.graph.neighbors(outer)
        while neigh:
            bit = neigh & -neigh
            neigh ^= bit
            r_alias = query.relation_at(bit.bit_length() - 1).alias
            if (outer | bit, r_alias) in side:
                continue
            edges = _edges_between(state, outer, bit)
            sig = (bit, tuple(edge.side(r_alias)[1] for edge in edges))
            groups.setdefault(sig, []).append((outer, bit, edges))
    for (bit, _cols), members in groups.items():
        r_alias = query.relation_at(bit.bit_length() - 1).alias
        probe = _probe_for(truth, state, bit, members[0][2], filtered=False)
        if probe.fallback:
            continue
        for batch in _row_batches(
            members, lambda m: state.results[m[0]].n_rows
        ):
            code_parts = [
                _left_codes(
                    probe,
                    _left_columns(state, state.results[outer], b, edges),
                )
                for outer, b, edges in batch
            ]
            bounds = np.cumsum([0] + [len(c) for c in code_parts])
            counts = _count_matches(probe, np.concatenate(code_parts))
            totals = np.concatenate(([0], np.cumsum(counts)))
            for k, (outer, b, _edges) in enumerate(batch):
                side[(outer | b, r_alias)] = int(
                    totals[bounds[k + 1]] - totals[bounds[k]]
                )


def _rebuild_levels(truth, state, needed: set) -> None:
    """Re-materialise evicted parent results level-wise, batched.

    ``needed`` holds subsets whose *filtered count is already cached*
    (they were materialised before and passed the ``max_rows`` guard),
    so rebuilding them cannot raise and their build order is
    unobservable — only ``state.results``/``state.counts`` membership
    matters, and both end up with exactly the set the per-subset
    recursive path would produce.  One dual ``searchsorted`` per
    (expansion relation, key columns) group per size level replaces one
    probe per subset.
    """
    if not needed:
        return
    from repro.cardinality.truth import _KeyedResult
    from repro.util.bitset import popcount

    by_size: dict[int, list[int]] = {}
    for s in needed:
        by_size.setdefault(popcount(s), []).append(s)
    for size in sorted(by_size):
        groups: dict[tuple, list[int]] = {}
        edges_of: dict[int, list] = {}
        parent_of: dict[int, tuple[int, int]] = {}
        for subset in by_size[size]:
            if subset in state.results:
                continue
            parent, bit = state.catalog.expansion_parent(subset)
            parent_of[subset] = (parent, bit)
            edges = _edges_between(state, parent, bit)
            edges_of[subset] = edges
            r_alias = state.query.relation_at(bit.bit_length() - 1).alias
            sig = (bit, tuple(edge.side(r_alias)[1] for edge in edges))
            groups.setdefault(sig, []).append(subset)
        for (bit, _cols), members in groups.items():
            probe = _probe_for(
                truth, state, bit, edges_of[members[0]], filtered=True
            )
            if probe.fallback:
                continue  # left to the recursive fallback-join path
            lefts = [
                truth._materialize(state, parent_of[s][0]) for s in members
            ]
            code_parts = [
                _left_codes(
                    probe,
                    _left_columns(state, left, parent_of[s][1], edges_of[s]),
                )
                for s, left in zip(members, lefts)
            ]
            bounds = np.cumsum([0] + [len(c) for c in code_parts])
            counts, lo = _match_counts(probe, np.concatenate(code_parts))
            for k, (s, left) in enumerate(zip(members, lefts)):
                span = slice(int(bounds[k]), int(bounds[k + 1]))
                n_out = int(counts[span].sum())
                lidx, ridx = _expand_matches(
                    counts[span], lo[span], probe.positions
                )
                keys = _result_keys(
                    truth, state, s, left, parent_of[s][1], lidx, ridx,
                    probe.row_ids,
                )
                state.results[s] = _KeyedResult(n_rows=n_out, keys=keys)
                state.counts[s] = n_out


def prefetch_unfiltered(truth, query, items) -> None:
    """Bulk-warm the unfiltered-intermediate count cache.

    ``items`` is an ordered list of ``(subset, alias)`` requests — the
    order the scalar DP loop would issue them in.  All still-uncached,
    well-formed items are counted with one dual ``searchsorted`` per
    (expansion relation, key columns) group instead of one python call
    chain each; the ``max_rows`` guard is then applied *in item order*,
    so the first offending item raises the identical
    :class:`~repro.errors.EstimationError` with the identical cache
    state as the per-item path.  Items the batch cannot handle with
    identical observable behaviour — disconnected outer side,
    overflowing composite probe, or an outer whose parent chain holds a
    subset never counted before (rebuilding it could trip the
    ``max_rows`` guard out of item order) — are skipped here and served
    by the per-item path exactly as before.
    """
    from repro.util.bitset import popcount

    state = truth._state(query)
    todo: list[tuple[int, str, int]] = []
    for subset, alias in items:
        bit = query.alias_bit(alias)
        if subset == bit or (subset, alias) in state.unfiltered_counts:
            continue
        todo.append((subset, alias, bit))
    if not todo:
        return

    # anything the warm side cache already counted just needs promotion
    # (guard applied in item order, below); everything else resolves its
    # outer side and collects the evicted ancestors that must be
    # re-materialised.  Chains with an uncounted subset are left
    # entirely to the per-item path (guard ordering).  "outer and
    # subset both connected" is equivalent to the per-item path's
    # "outer connected and bit adjacent to outer" (a connected union
    # with a connected outer forces a crossing edge), and the catalog's
    # csg set makes both checks O(1).
    side = getattr(state, "kernel_unfiltered_side", None)
    n_out: dict[int, int] = {}
    catalog = state.catalog
    resolved: list[tuple[int, int, int]] = []
    chains: set[int] = set()
    for i, (subset, alias, bit) in enumerate(todo):
        if side is not None:
            warm = side.get((subset, alias))
            if warm is not None:
                n_out[i] = warm
                continue
        outer = subset ^ bit
        if not catalog.is_csg(outer) or not catalog.is_csg(subset):
            continue
        chain: list[int] = []
        cur, ok = outer, True
        while cur not in state.results and popcount(cur) >= 2:
            if cur not in state.counts:
                ok = False
                break
            chain.append(cur)
            cur, _bit = state.catalog.expansion_parent(cur)
        if not ok:
            continue
        chains.update(chain)
        resolved.append((i, outer, bit))
    _rebuild_levels(truth, state, chains)

    # one probe group per cached probe object (≡ one per expansion
    # relation + key-column signature)
    groups: dict[int, tuple[_Probe, list[tuple[int, np.ndarray]]]] = {}
    for i, outer, bit in resolved:
        left = truth._materialize(state, outer)
        edges = _edges_between(state, outer, bit)
        probe = _probe_for(truth, state, bit, edges, filtered=False)
        if probe.fallback:
            continue
        codes = _left_codes(probe, _left_columns(state, left, bit, edges))
        groups.setdefault(id(probe), (probe, []))[1].append((i, codes))

    for probe, members in groups.values():
        bounds = np.cumsum([0] + [len(codes) for _, codes in members])
        counts = _count_matches(
            probe, np.concatenate([codes for _, codes in members])
        )
        totals = np.concatenate(([0], np.cumsum(counts)))
        for k, (i, _codes) in enumerate(members):
            n_out[i] = int(totals[bounds[k + 1]] - totals[bounds[k]])

    for i, (subset, alias, bit) in enumerate(todo):
        count = n_out.get(i)
        if count is None:
            continue
        _guard(truth, state, count)
        state.unfiltered_counts[(subset, alias)] = count


# --------------------------------------------------------------------- #
# level-batched bulk computation
# --------------------------------------------------------------------- #


def compute_levels(
    truth, state, plan, cap: int, warm_unfiltered: bool = False
) -> None:
    """The sequential ``compute_all`` walk: one batched probe per
    (expansion relation, edge signature) group per size level.

    Matches a subset-at-a-time walk exactly: same eviction policy,
    counts stored in level order, and the ``max_rows`` guard raised at
    the first offending subset in level order (earlier subsets' results
    are already stored when it fires).  With
    ``warm_unfiltered`` each level's unfiltered-neighbour counts are
    also probed while the level is live (see
    :func:`_warm_unfiltered_level`).
    """
    from repro.cardinality.truth import _KeyedResult

    for subset in plan.levels[1]:
        truth._count(state, subset)
    if warm_unfiltered and cap >= 2:
        _warm_unfiltered_level(truth, state, plan.levels[1])
    for size in range(2, cap + 1):
        truth._evict(state, keep_min_size=size - 1)
        pending = [s for s in plan.levels[size] if s not in state.counts]
        # group by expansion target so one searchsorted serves the group
        groups: dict[tuple, list[int]] = {}
        for subset in pending:
            result = state.results.get(subset)
            if result is not None:
                state.counts[subset] = result.n_rows
                continue
            parent, bit = plan.parent[subset]
            if parent not in state.results:
                # partially preloaded counts: rebuild the parent chain
                # through the oracle's recursive _materialize
                truth._materialize(state, parent)
            edges = _edges_between(state, parent, bit)
            r_alias = state.query.relation_at(bit.bit_length() - 1).alias
            sig = (bit, tuple(edge.side(r_alias)[1] for edge in edges))
            groups.setdefault(sig, []).append(subset)

        probed: dict[int, tuple] = {}
        for (bit, _cols), members in groups.items():
            parents = [plan.parent[s] for s in members]
            edges_of = {
                s: _edges_between(state, p, b)
                for s, (p, b) in zip(members, parents)
            }
            probe = _probe_for(
                truth, state, bit, edges_of[members[0]], filtered=True
            )
            if probe.fallback:
                for s in members:
                    probed[s] = (None, None, None, probe)
                continue
            code_parts = []
            boundaries = [0]
            for s, (p, b) in zip(members, parents):
                left = state.results[p]
                code_parts.append(
                    _left_codes(probe, _left_columns(state, left, b, edges_of[s]))
                )
                boundaries.append(boundaries[-1] + len(code_parts[-1]))
            counts, lo = _match_counts(probe, np.concatenate(code_parts))
            for i, s in enumerate(members):
                span = slice(boundaries[i], boundaries[i + 1])
                probed[s] = (counts[span], lo[span], None, probe)

        # guard + expand + store, in level order
        for subset in plan.levels[size]:
            if subset in state.counts and subset not in probed:
                continue
            entry = probed.get(subset)
            parent, bit = plan.parent[subset]
            left = state.results[parent]
            if entry is None or entry[0] is None:
                result = expand_join(
                    truth, state, subset, parent, left, bit
                )
            else:
                counts, lo, _, probe = entry
                n_out = int(counts.sum())
                _guard(truth, state, n_out)
                lidx, ridx = _expand_matches(counts, lo, probe.positions)
                keys = _result_keys(
                    truth, state, subset, left, bit, lidx, ridx,
                    probe.row_ids,
                )
                result = _KeyedResult(n_rows=n_out, keys=keys)
            state.results[subset] = result
            state.counts[subset] = result.n_rows
        if warm_unfiltered and size < plan.n:
            _warm_unfiltered_level(truth, state, plan.levels[size])
