"""Batched DP pricing: one union-size level of csg–cmp pairs per call.

The textbook DP loop walks ``catalog.pair_edges`` one pair at a time,
builds a :class:`JoinNode` per candidate, prices it with the cost
model's ``join_cost``, and keeps the first strict improvement.  This
kernel prices *every* candidate of a union-size level in a handful of
array operations and only constructs the plan nodes that actually win —
the winning plans and costs are bit-identical to that loop's, which
the differential tests keep as the reference:

* the candidate *visit order* of that loop (pair position →
  orientation → algorithm) is encoded as an integer ``rank``; a winner
  per union is the candidate with minimal ``(cost, rank)``, which is
  exactly "first candidate achieving the global minimum under strict
  ``<``";
* cost arithmetic preserves that loop's float association
  (``(cost_a + op_cost) + cost_b``) elementwise in float64, so every
  total is the identical IEEE double;
* candidate structure (which pairs admit an index-nested-loop join,
  which need the unfiltered cardinality, which orientations a tree-shape
  restriction admits) depends only on the catalog, physical design, and
  enumerator knobs — it is built once and cached per catalog.

Every cost model prices a level through its ``batch_join_costs``.  A
NaN in any cardinality or cost array raises
:class:`~repro.errors.EstimationError`: estimators promise finite
cardinalities ≥ 1, and a NaN would make the winner depend on comparison
order rather than on cost.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.errors import EnumerationError, EstimationError
from repro.kernels.subgraph import popcounts
from repro.plans.plan import JoinNode, PlanNode
from repro.plans.shapes import TreeShape

#: algorithm codes used in the candidate tables and by every cost model's
#: ``batch_join_costs``, in ``candidate_joins``' generation order
#: (hash → nlj → inlj)
ALGO_HASH, ALGO_NLJ, ALGO_INLJ = 0, 1, 2
_ALGO_NAMES = ("hash", "nlj", "inlj")


@dataclass(eq=False)  # identity semantics: used as a weak cache key
class _CandidateTables:
    """Card-independent candidate structure for one (catalog, DP config)."""

    csgs: list[int]  # connected subsets, catalog order
    index: dict[int, int]  # subset mask -> position in ``csgs``
    a: np.ndarray  # per candidate: csg position of the left input
    b: np.ndarray  # csg position of the right input
    u: np.ndarray  # csg position of the union
    algo: np.ndarray  # ALGO_* code
    rank: np.ndarray  # candidate-at-a-time visit order (increasing)
    pair: np.ndarray  # position in catalog.pair_edges (for the edge list)
    n_edges: np.ndarray  # len() of that edge list
    level_bounds: list[tuple[int, int]]  # candidate row range per union size
    unf_rows: np.ndarray  # inlj rows whose fetched size is unfiltered
    unf_aliases: list[str]  # inner alias per such row
    unf_unions: list[int]  # union mask per such row


def _build_tables(context, design, shape, allow_nlj) -> _CandidateTables:
    # Shape admission is static: singletons are always priced as
    # ScanNode leaves and composites as JoinNodes, so "is this input a
    # base relation" reduces to a popcount test on the subset —
    # catalog-static, cacheable.
    catalog = context.catalog
    query = context.query
    csgs = catalog.csgs
    index = {s: i for i, s in enumerate(csgs)}
    pe = catalog.pair_edges
    n_pairs = len(pe)
    n = query.n_relations
    aliases = [query.relation_at(i).alias for i in range(n)]
    has_selection = [query.selection_of(al) is not None for al in aliases]

    s1 = np.fromiter((t[0] for t in pe), dtype=np.int64, count=n_pairs)
    s2 = np.fromiter((t[1] for t in pe), dtype=np.int64, count=n_pairs)
    i1 = np.fromiter((index[t[0]] for t in pe), dtype=np.int64, count=n_pairs)
    i2 = np.fromiter((index[t[1]] for t in pe), dtype=np.int64, count=n_pairs)
    iu = np.fromiter(
        (index[t[0] | t[1]] for t in pe), dtype=np.int64, count=n_pairs
    )
    pair_n_edges = np.fromiter(
        (len(t[2]) for t in pe), dtype=np.int64, count=n_pairs
    )
    single1 = (s1 & (s1 - 1)) == 0
    single2 = (s2 & (s2 - 1)) == 0

    # candidate row blocks, one per (orientation, algorithm); reordered
    # to union-size level order at the end.  Each block:
    # (pair positions, a idx, b idx, algo code, rank = visit order, unf)
    blocks: list[tuple[np.ndarray, ...]] = []

    def block(orient, pos, ia, ib, code, offset, needs_unf=None):
        rank = (pos * 2 + orient) * 4 + offset
        algo = np.full(len(pos), code, dtype=np.int64)
        if needs_unf is None:
            needs_unf = np.zeros(len(pos), dtype=bool)
        blocks.append((pos, ia[pos], ib[pos], algo, rank, needs_unf))

    for orient, (ia, ib, a_single, b_single, sb) in enumerate(
        ((i1, i2, single1, single2, s2), (i2, i1, single2, single1, s1))
    ):
        if shape is TreeShape.BUSHY:
            admit = np.ones(n_pairs, dtype=bool)
        elif shape is TreeShape.LEFT_DEEP:
            admit = b_single
        elif shape is TreeShape.RIGHT_DEEP:
            admit = a_single
        elif shape is TreeShape.ZIG_ZAG:
            admit = a_single | b_single
        else:
            raise EnumerationError(f"unknown shape {shape!r}")
        pos = np.flatnonzero(admit)
        if not len(pos):
            continue
        block(orient, pos, ia, ib, ALGO_HASH, 0)
        if allow_nlj:
            block(orient, pos, ia, ib, ALGO_NLJ, 1)
        # inlj needs the per-pair index check, but only where the inner
        # side is a base relation
        inlj_pos = [
            int(p)
            for p in np.flatnonzero(admit & b_single)
            if design.usable_index_edge(
                query, pe[p][2], aliases[int(sb[p]).bit_length() - 1]
            )
            is not None
        ]
        if inlj_pos:
            pos = np.asarray(inlj_pos, dtype=np.int64)
            needs_unf = np.fromiter(
                (has_selection[int(sb[p]).bit_length() - 1] for p in pos),
                dtype=bool,
                count=len(pos),
            )
            block(orient, pos, ia, ib, ALGO_INLJ, 2, needs_unf)

    masks = np.asarray(csgs, dtype=np.int64)
    if blocks:
        pair = np.concatenate([blk[0] for blk in blocks])
        a = np.concatenate([blk[1] for blk in blocks])
        b = np.concatenate([blk[2] for blk in blocks])
        algo = np.concatenate([blk[3] for blk in blocks])
        rank = np.concatenate([blk[4] for blk in blocks])
        unf = np.concatenate([blk[5] for blk in blocks])
        u = iu[pair]
        # stable sort by union size so level ranges are contiguous slices
        order = np.argsort(popcounts(masks)[u], kind="stable")
        pair, a, b, u = pair[order], a[order], b[order], u[order]
        algo, rank, unf = algo[order], rank[order], unf[order]
    else:
        pair = a = b = u = algo = rank = np.empty(0, dtype=np.int64)
        unf = np.zeros(0, dtype=bool)

    levels = popcounts(masks)[u] if len(u) else np.empty(0, dtype=np.int64)
    bounds = np.searchsorted(levels, np.arange(2, n + 2))
    level_bounds = [
        (int(bounds[k]), int(bounds[k + 1])) for k in range(n - 1)
    ]
    unf_rows = np.flatnonzero(unf)
    unf_aliases = [
        aliases[int(masks[b[r]]).bit_length() - 1] for r in unf_rows
    ]
    unf_unions = [int(masks[u[r]]) for r in unf_rows]
    return _CandidateTables(
        csgs=csgs,
        index=index,
        a=a,
        b=b,
        u=u,
        algo=algo,
        rank=rank,
        pair=pair,
        n_edges=pair_n_edges[pair],
        level_bounds=level_bounds,
        unf_rows=unf_rows,
        unf_aliases=unf_aliases,
        unf_unions=unf_unions,
    )


#: per-catalog cache of candidate tables, keyed by the DP knobs that
#: shape them; dies with the catalog (which owns the pair_edges the
#: tables index into)
_tables_cache: "weakref.WeakKeyDictionary[object, dict]" = (
    weakref.WeakKeyDictionary()
)


class _CardVectors:
    """Gathered cardinality vectors for one (bound card, tables) pair."""

    __slots__ = ("cards", "unf")

    def __init__(self) -> None:
        self.cards: np.ndarray | None = None
        self.unf: np.ndarray | None = None


#: per-BoundCard cache of the gathered per-csg cardinality vectors: a
#: bound card memoises every subset individually, so the vector gather
#: is deterministic per (card, candidate tables) — but re-gathering it
#: per enumerator config was the dominant python loop left in batched
#: pricing.  Two weak levels: dies with the bound card, and per card
#: with the candidate tables (whose own cache dies with the catalog).
_vector_cache: "weakref.WeakKeyDictionary[object, weakref.WeakKeyDictionary]" = (
    weakref.WeakKeyDictionary()
)


def _vectors_for(card, tables) -> _CardVectors | None:
    try:
        per_card = _vector_cache.get(card)
        if per_card is None:
            per_card = weakref.WeakKeyDictionary()
            _vector_cache[card] = per_card
    except TypeError:
        return None  # not weakref-able: price uncached
    holder = per_card.get(tables)
    if holder is None:
        holder = _CardVectors()
        per_card[tables] = holder
    return holder


def _tables_for(context, design, shape, allow_nlj) -> _CandidateTables:
    per_catalog = _tables_cache.get(context.catalog)
    if per_catalog is None:
        per_catalog = {}
        _tables_cache[context.catalog] = per_catalog
    key = (design, shape, bool(allow_nlj))
    tables = per_catalog.get(key)
    if tables is None:
        tables = _build_tables(context, design, shape, allow_nlj)
        per_catalog[key] = tables
    return tables


def _raise_nan(query, card, what: str):
    raise EstimationError(
        f"NaN {what} for query {query.name!r} under estimator "
        f"{card.name!r}"
    )


def optimize_batched(enumerator, context, card):
    """Level-batched ``DPEnumerator.optimize``.

    Returns ``(plan, cost)`` — the identical plan tree and IEEE-identical
    cost the candidate-at-a-time loop would produce (``est_rows`` not yet
    annotated).  Raises :class:`~repro.errors.EstimationError` on a NaN
    cardinality or cost.
    """
    query = context.query
    n = query.n_relations
    model = enumerator.cost_model
    t = _tables_for(
        context, enumerator.design, enumerator.shape, enumerator.allow_nlj
    )
    n_csgs = len(t.csgs)
    best_cost = np.full(n_csgs, np.inf, dtype=np.float64)
    entry = np.full(n_csgs, -1, dtype=np.int64)
    has = np.zeros(n_csgs, dtype=bool)

    scans = [context.scan_node(i) for i in range(n)]
    for scan in scans:
        j = t.index[scan.subset]
        best_cost[j] = model.scan_cost(scan, card)
        has[j] = True

    from repro.cardinality.truth import TrueCardinalities

    estimator = getattr(card, "estimator", None)
    truth_state = (
        estimator._peek_state(query)
        if isinstance(estimator, TrueCardinalities)
        else None
    )

    # gather every subset's cardinality; with a warm truth oracle the
    # counts dict is read directly (``BoundCard._get`` is a bare
    # ``float()`` of the same integer, so the values are identical).
    # The gathered vector is cached per (bound card, tables): the card
    # memoises each subset, so every re-gather would produce the same
    # floats — sweeping five configs against one estimator gathers once.
    vec = _vectors_for(card, t)
    cards = vec.cards if vec is not None else None
    if cards is None:
        cards = np.empty(n_csgs, dtype=np.float64)
        counts = truth_state.counts if truth_state is not None else None
        for i, subset in enumerate(t.csgs):
            c = counts.get(subset) if counts is not None else None
            cards[i] = card(subset) if c is None else float(c)
        if np.isnan(cards).any():
            _raise_nan(query, card, "cardinality")
        cards.flags.writeable = False
        if vec is not None:
            vec.cards = cards
    fetched = cards[t.u] if len(t.u) else np.empty(0, dtype=np.float64)
    if len(t.unf_rows):
        unf = vec.unf if vec is not None else None
        if unf is None:
            if isinstance(estimator, TrueCardinalities):
                # the truth oracle answers these with real joins —
                # bulk-warm its cache with one batched probe per
                # expansion relation
                from repro.kernels.oracle import prefetch_unfiltered

                prefetch_unfiltered(
                    estimator, query, list(zip(t.unf_unions, t.unf_aliases))
                )
                truth_state = estimator._peek_state(query)
            unf_cache = (
                truth_state.unfiltered_counts
                if truth_state is not None
                else None
            )
            unf = np.empty(len(t.unf_rows), dtype=np.float64)
            for k, (union, alias) in enumerate(
                zip(t.unf_unions, t.unf_aliases)
            ):
                c = (
                    unf_cache.get((union, alias))
                    if unf_cache is not None
                    else None
                )
                unf[k] = (
                    card.unfiltered(union, alias) if c is None else float(c)
                )
            if np.isnan(unf).any():
                _raise_nan(query, card, "unfiltered cardinality")
            unf.flags.writeable = False
            if vec is not None:
                vec.unf = unf
        fetched[t.unf_rows] = unf

    for lo, hi in t.level_bounds:
        if lo == hi:
            continue
        rows = np.arange(lo, hi, dtype=np.int64)
        valid = has[t.a[rows]] & has[t.b[rows]]
        if not valid.all():
            # under a shape restriction some inputs never got an entry
            rows = rows[valid]
            if not len(rows):
                continue
        a, b, u, algo = t.a[rows], t.b[rows], t.u[rows], t.algo[rows]
        op = model.batch_join_costs(
            algo, cards[u], cards[a], cards[b], fetched[rows],
            t.n_edges[rows],
        )
        total = best_cost[a] + op
        noninlj = algo != ALGO_INLJ
        total[noninlj] += best_cost[b][noninlj]
        if np.isnan(total).any():
            _raise_nan(query, card, "plan cost")
        # winner per union: minimal cost, earliest visit rank on ties —
        # exactly the candidate-at-a-time loop's strict-< improvement rule
        order = np.lexsort((t.rank[rows], total, u))
        u_sorted = u[order]
        firsts = np.ones(len(order), dtype=bool)
        firsts[1:] = u_sorted[1:] != u_sorted[:-1]
        win = order[firsts]
        best_cost[u[win]] = total[win]
        entry[u[win]] = rows[win]
        has[u[win]] = True

    root = t.index.get(query.all_mask)
    if root is None or not has[root]:
        raise EnumerationError(
            f"no {enumerator.shape.value} plan found for query "
            f"{query.name!r} (join graph disconnected?)"
        )
    pair_edges = context.catalog.pair_edges

    def build(ci: int) -> PlanNode:
        mask = t.csgs[ci]
        if mask & (mask - 1) == 0:
            return scans[mask.bit_length() - 1]
        r = int(entry[ci])
        left = build(int(t.a[r]))
        right = build(int(t.b[r]))
        edges = pair_edges[int(t.pair[r])][2]
        code = int(t.algo[r])
        if code == ALGO_INLJ:
            edge = enumerator.design.usable_index_edge(
                query, edges, right.alias
            )
            return JoinNode(left, right, "inlj", edges, index_edge=edge)
        return JoinNode(left, right, _ALGO_NAMES[code], edges)

    return build(root), float(best_cost[root])
