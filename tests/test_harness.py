"""Experiment harness: suite construction, caching, lookups."""

import pytest

from repro.experiments import ExperimentSuite
from repro.experiments.harness import ESTIMATOR_ORDER
from repro.physical import IndexConfig


class TestSuite:
    def test_default_loads_all_113(self):
        suite = ExperimentSuite(scale="tiny")
        assert len(suite.queries) == 113

    def test_subset_selection(self, suite_tiny):
        assert [q.name for q in suite_tiny.queries][:2] == ["1a", "2a"]

    def test_estimator_lineup(self, suite_tiny):
        assert list(suite_tiny.estimators) == ESTIMATOR_ORDER

    def test_context_cached(self, suite_tiny):
        q = suite_tiny.queries[0]
        ws = suite_tiny.workspace(q)
        assert ws.context is suite_tiny.workspace(q).context

    def test_card_cached(self, suite_tiny):
        q = suite_tiny.queries[0]
        ws = suite_tiny.workspace(q)
        assert ws.card("PostgreSQL") is suite_tiny.workspace(q).card(
            "PostgreSQL"
        )
        assert ws.true_card is suite_tiny.workspace(q).true_card

    def test_design_cached(self, suite_tiny):
        assert suite_tiny.design(IndexConfig.PK) is suite_tiny.design(
            IndexConfig.PK
        )
        assert suite_tiny.design(IndexConfig.PK) is not suite_tiny.design(
            IndexConfig.PK_FK
        )

    def test_query_lookup(self, suite_tiny):
        assert suite_tiny.query("13d").name == "13d"
        with pytest.raises(KeyError):
            suite_tiny.query("99x")

    def test_external_db_accepted(self, toy_db):
        suite = ExperimentSuite(db=toy_db, query_names=[])
        assert suite.db is toy_db
        assert suite.queries == []

    def test_unknown_estimator_raises(self, suite_tiny):
        with pytest.raises(KeyError):
            suite_tiny.workspace(suite_tiny.queries[0]).card("NoSuchDBMS")
