"""Differential harness: truth oracle vs brute force on random schemas.

Each case builds a *randomized* small database (3–6 relations, seeded) —
random row counts, random key domains with dangling references and NULLs,
a random spanning-tree join graph with optional extra n:m edges, random
base selections — and counts every connected subexpression three ways:

1. the production oracle's ``compute_all`` (the batched kernel walk over
   the explicit plan),
2. the python reference oracle in ``tests/reference/truth.py`` (one
   equi-join per subset), and
3. an independent brute force that enumerates connected subsets with its
   own adjacency walk and joins with dense numpy broadcasting.

All of them must agree exactly — on the *set* of connected subsets and on
every count.  Any divergence pins a bug in the plan construction, the
expansion-parent machinery, key compression or NULL handling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cardinality import TrueCardinalities
from repro.catalog.column import NULL_INT, Column
from repro.catalog.schema import Database
from repro.catalog.table import Table
from repro.query.predicates import Comparison
from repro.query.query import JoinEdge, Query, Relation

from reference.truth import ReferenceTrueCardinalities

CASE_SEEDS = list(range(10))


# --------------------------------------------------------------------- #
# random case generation
# --------------------------------------------------------------------- #


def _random_case(seed: int, max_rel: int = 7) -> tuple[Database, Query]:
    """A seeded random database + SPJ query over 3 to ``max_rel - 1``
    relations (the default reproduces the original 3–6 relation draws
    exactly; the kernel-parity tests widen to 3–8)."""
    rng = np.random.default_rng(1_000_003 * (seed + 1))
    n_rel = int(rng.integers(3, max_rel))
    db = Database(f"rand{seed}")
    n_rows = [int(rng.integers(8, 36)) for _ in range(n_rel)]
    # every relation i > 0 references one earlier relation (spanning tree)
    ref_of = [None] + [int(rng.integers(0, i)) for i in range(1, n_rel)]
    for i in range(n_rel):
        columns = [
            Column("id", np.arange(1, n_rows[i] + 1)),
            Column("val", rng.integers(0, 6, size=n_rows[i])),
        ]
        if ref_of[i] is not None:
            # dangling references beyond the target's id range are legal
            fk = rng.integers(1, n_rows[ref_of[i]] + 4, size=n_rows[i])
            fk[rng.random(n_rows[i]) < 0.12] = NULL_INT
            columns.append(Column("ref", fk))
        db.add_table(Table(f"t{i}", columns, primary_key="id"))

    relations = [Relation(f"r{i}", f"t{i}") for i in range(n_rel)]
    joins = [
        JoinEdge(f"r{i}", "ref", f"r{ref_of[i]}", "id", "pk_fk",
                 pk_side=f"r{ref_of[i]}")
        for i in range(1, n_rel)
    ]
    # optionally one extra n:m edge between two fk columns, forming a cycle
    fk_holders = [i for i in range(1, n_rel)]
    if len(fk_holders) >= 2 and rng.random() < 0.6:
        a, b = sorted(rng.choice(fk_holders, size=2, replace=False))
        if a != b:
            joins.append(JoinEdge(f"r{a}", "ref", f"r{b}", "ref", "fk_fk"))

    selections = {}
    ops = ("=", "<", ">", "!=")
    for i in range(n_rel):
        if rng.random() < 0.45:
            op = ops[int(rng.integers(0, len(ops)))]
            selections[f"r{i}"] = Comparison("val", op, int(rng.integers(0, 6)))

    return db, Query(f"rand{seed}", relations, selections, joins)


# --------------------------------------------------------------------- #
# independent brute force
# --------------------------------------------------------------------- #


def _filtered_ids(db: Database, query: Query) -> dict[str, np.ndarray]:
    ids = {}
    for rel in query.relations:
        table = db.table(rel.table)
        pred = query.selections.get(rel.alias)
        if pred is None:
            ids[rel.alias] = np.arange(table.n_rows, dtype=np.int64)
        else:
            ids[rel.alias] = np.nonzero(pred.evaluate(table))[0].astype(np.int64)
    return ids


def _connected_masks(query: Query) -> list[int]:
    """All connected alias subsets, via an adjacency walk of our own."""
    n = len(query.relations)
    adjacency = [0] * n
    index = {rel.alias: i for i, rel in enumerate(query.relations)}
    for edge in query.joins:
        a, b = (index[x] for x in edge.aliases())
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    masks = []
    for mask in range(1, 1 << n):
        frontier = mask & -mask
        seen = frontier
        while frontier:
            grow = 0
            bits = frontier
            while bits:
                bit = bits & -bits
                grow |= adjacency[bit.bit_length() - 1] & mask & ~seen
                bits ^= bit
            seen |= grow
            frontier = grow
        if seen == mask:
            masks.append(mask)
    return masks


def _brute_count(db: Database, query: Query, mask: int,
                 filtered: dict[str, np.ndarray]) -> int:
    """Join the subset with dense O(m·r) broadcasting, NULLs excluded."""
    aliases = [rel.alias for rel in query.relations
               if query.alias_bit(rel.alias) & mask]
    tables = {rel.alias: db.table(rel.table) for rel in query.relations}
    included = [aliases[0]]
    tuples = {aliases[0]: filtered[aliases[0]]}
    remaining = aliases[1:]
    while remaining:
        nxt = next(
            a for a in remaining
            if any(
                set(e.aliases()) == {a, b}
                for e in query.joins for b in included
            )
        )
        edges = [
            e for e in query.joins
            if nxt in e.aliases() and e.other(nxt)[0] in included
        ]
        new_ids = filtered[nxt]
        m = len(tuples[included[0]])
        ok = np.ones((m, len(new_ids)), dtype=bool)
        for edge in edges:
            other_alias, other_col = edge.other(nxt)
            _, new_col = edge.side(nxt)
            left = tables[other_alias].column(other_col).values[
                tuples[other_alias]
            ]
            right = tables[nxt].column(new_col).values[new_ids]
            ok &= (
                (left[:, None] == right[None, :])
                & (left[:, None] != NULL_INT)
                & (right[None, :] != NULL_INT)
            )
        li, ri = np.nonzero(ok)
        tuples = {a: ids[li] for a, ids in tuples.items()}
        tuples[nxt] = new_ids[ri]
        included.append(nxt)
        remaining.remove(nxt)
    return len(tuples[included[0]])


def _brute_force_counts(db: Database, query: Query) -> dict[int, int]:
    filtered = _filtered_ids(db, query)
    return {
        mask: _brute_count(db, query, mask, filtered)
        for mask in _connected_masks(query)
    }


# --------------------------------------------------------------------- #
# the differential assertions
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", CASE_SEEDS)
def test_oracle_matches_brute_force(seed):
    db, query = _random_case(seed)
    oracle = TrueCardinalities(db).compute_all(query)
    brute = _brute_force_counts(db, query)
    # identical subset *sets* (connectivity agreement) and counts
    assert oracle == brute


class TestKernelBackendParity:
    """The kernel oracle must be bit-identical to the python reference.

    Counts are exact integers and unfiltered counts promote through the
    same ``max_rows`` guard, so every observable — the subset set, every
    count, every unfiltered count, and the guard's error message — must
    agree exactly with :class:`ReferenceTrueCardinalities`.
    """

    @pytest.mark.parametrize("seed", CASE_SEEDS)
    def test_counts_identical(self, seed):
        db, query = _random_case(seed, max_rel=9)  # 3–8 relations
        reference = ReferenceTrueCardinalities(db).compute_all(query)
        assert TrueCardinalities(db).compute_all(query) == reference

    @staticmethod
    def _all_unfiltered(db, query, oracle_cls):
        """Every (subset, selected alias) unfiltered cardinality, with
        guard errors captured as comparable strings."""
        from repro.errors import EstimationError
        from repro.util.bitset import popcount

        oracle = oracle_cls(db)
        counts = oracle.compute_all(query, warm_unfiltered=True)
        out = {}
        for subset in counts:
            if popcount(subset) < 2:
                continue
            for alias in query.selections:
                if not (query.alias_bit(alias) & subset):
                    continue
                try:
                    value = oracle.cardinality(
                        query, subset, unfiltered_alias=alias
                    )
                    out[(subset, alias)] = value.hex()
                except EstimationError as exc:
                    out[(subset, alias)] = f"error: {exc}"
        return counts, out

    @pytest.mark.parametrize("seed", CASE_SEEDS[:6])
    def test_unfiltered_counts_identical(self, seed):
        """The warm side cache must promote exactly the values the
        reference computes on demand."""
        db, query = _random_case(seed, max_rel=9)
        if not query.selections:
            pytest.skip("case drew no base selections")
        ref_counts, ref_unf = self._all_unfiltered(
            db, query, ReferenceTrueCardinalities
        )
        counts, unf = self._all_unfiltered(db, query, TrueCardinalities)
        assert counts == ref_counts
        assert unf == ref_unf

    @pytest.mark.parametrize("seed", CASE_SEEDS[:6])
    @pytest.mark.parametrize(
        "knob, value", [("_HIST_LIMIT", 0), ("_WARM_BATCH_ROWS", 1)]
    )
    def test_probe_paths_small_cases_skip_identical(
        self, monkeypatch, seed, knob, value
    ):
        """Binary-search probes (no histogram) and one-member warm
        batches — paths the small random cases never reach by default —
        count exactly like the reference."""
        from repro.kernels import oracle

        db, query = _random_case(seed, max_rel=9)
        if not query.selections:
            pytest.skip("case drew no base selections")
        expected = self._all_unfiltered(db, query, ReferenceTrueCardinalities)
        monkeypatch.setattr(oracle, knob, value)
        assert self._all_unfiltered(db, query, TrueCardinalities) == expected

    @pytest.mark.parametrize("seed", [0, 4])
    def test_max_rows_guard_message_identical(self, seed):
        """The first guard violation (and its message) must be the same
        subset on both paths — level order is part of the contract."""
        from repro.errors import EstimationError
        from repro.util.bitset import popcount

        db, query = _random_case(seed)
        full = TrueCardinalities(db).compute_all(query)
        cap = max(n for s, n in full.items() if popcount(s) > 1) - 1
        messages = {}
        for oracle_cls in (ReferenceTrueCardinalities, TrueCardinalities):
            with pytest.raises(EstimationError) as excinfo:
                oracle_cls(db, max_rows=cap).compute_all(query)
            messages[oracle_cls] = str(excinfo.value)
        assert len(set(messages.values())) == 1


def test_capped_then_full_identical():
    """A truncated run followed by a full one on the same oracle must
    converge to exactly a fresh full enumeration (no truncated cache
    reuse)."""
    db, query = _random_case(3)
    fresh = TrueCardinalities(db).compute_all(query)
    oracle = TrueCardinalities(db)
    capped = oracle.compute_all(query, max_size=2)
    assert set(capped) < set(fresh)
    assert oracle.compute_all(query) == fresh
