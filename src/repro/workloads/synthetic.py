"""Synthetic stress workloads for the enumeration and oracle kernels.

The JOB queries top out at 17 relations but their join graphs are
star-heavy, so the truth oracle's *depth* — long parent chains of
connected subsets — is never really exercised.  A pure PK–FK **chain**
is the opposite extreme: every connected subset is an interval, a
length-``n`` chain has ``n·(n+1)/2`` of them, and every composite
materialisation sits at the end of a maximal-length expansion chain.
That shape is the worst case for per-subset python overhead and the
best case for the level-batched numpy kernels, which makes it the
natural scale case (``tests/test_kernels.py`` prices a 16-relation
chain end to end).

Row counts are uniform and every foreign key lands on an existing
parent row, so intermediate results never exceed the base-table size —
the oracle needs no ``max_rows`` safety valve at any chain length.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.column import Column
from repro.catalog.schema import Database, ForeignKey
from repro.catalog.statistics import analyze_database
from repro.catalog.table import Table
from repro.query.predicates import Comparison
from repro.query.query import JoinEdge, Query, Relation


def chain_case(
    n_relations: int = 16,
    n_rows: int = 2000,
    seed: int = 11,
    analyze: bool = True,
) -> tuple[Database, Query]:
    """A length-``n_relations`` PK–FK chain database and its SPJ query.

    Table ``c0`` is the head; every ``c<i>`` holds a dense ``ref``
    foreign key into ``c<i-1>.id`` (no dangling references, no NULLs),
    plus a ``val`` column that every third relation filters on — the
    selections keep unfiltered-cardinality lookups (index-nested-loop
    costing under ``PK_FK``) in play.  Deterministic for a given
    ``(n_relations, n_rows, seed)``.
    """
    if n_relations < 2:
        raise ValueError("a chain needs at least 2 relations")
    rng = np.random.default_rng(seed)
    db = Database(f"chain{n_relations}")
    for i in range(n_relations):
        columns = [
            Column("id", np.arange(1, n_rows + 1)),
            Column("val", rng.integers(0, 8, size=n_rows)),
        ]
        if i:
            columns.append(
                Column("ref", rng.integers(1, n_rows + 1, size=n_rows))
            )
        db.add_table(Table(f"c{i}", columns, primary_key="id"))
        if i:
            db.add_foreign_key(ForeignKey(f"c{i}", "ref", f"c{i - 1}", "id"))

    relations = [Relation(f"r{i}", f"c{i}") for i in range(n_relations)]
    joins = [
        JoinEdge(f"r{i}", "ref", f"r{i - 1}", "id", "pk_fk",
                 pk_side=f"r{i - 1}")
        for i in range(1, n_relations)
    ]
    selections = {
        f"r{i}": Comparison("val", "<", 6)
        for i in range(0, n_relations, 3)
    }
    if analyze:
        analyze_database(db, sample_size=min(n_rows, 512))
    return db, Query(f"chain{n_relations}", relations, selections, joins)
