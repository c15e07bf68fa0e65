"""TPC-H plan tests: every query runs deterministically, plan shapes
carry the paper's request mix, and the year helper.  Whether the answers
are right is checked against SQLite in ``tests/test_tpch_oracle.py``."""

import pytest

from repro.tpch.datagen import generate
from repro.tpch.queries import QUERY_IDS, query_builder
from repro.tpch.queries.util import d, year_of
from repro.tpch.workload import load_tpch
from tests.helpers import make_database

SCALE = 0.15


@pytest.fixture(scope="module")
def data():
    return generate(scale=SCALE, seed=42)


@pytest.fixture(scope="module")
def db(data):
    database = make_database(
        cache_blocks=512, bufferpool_pages=48, work_mem_rows=400,
        btree_order=64,
    )
    load_tpch(database, data=data)
    return database


class TestAllQueriesRun:
    @pytest.mark.parametrize("qid", QUERY_IDS)
    def test_query_executes_and_is_deterministic(self, db, qid):
        first = db.run_query(query_builder(qid), label=f"Q{qid}")
        second = db.run_query(query_builder(qid), label=f"Q{qid}")
        assert first.rows == second.rows
        assert first.sim_seconds > 0


class TestPlanShapes:
    def test_q9_assigns_two_priorities(self, db):
        """Q9's supplier/orders index scans land on adjacent priorities
        (Table 5 of the paper)."""
        result = db.run_query(query_builder(9), label="Q9")
        priorities = sorted(result.stats.by_priority)
        assert len(priorities) == 2
        assert priorities[1] == priorities[0] + 1

    def test_q18_generates_temp_data(self, db):
        from repro.storage.requests import RequestType

        result = db.run_query(query_builder(18), label="Q18")
        temp = result.stats.by_type.get(RequestType.TEMP_WRITE)
        assert temp is not None and temp.blocks > 0

    def test_q1_is_sequential_only(self, db):
        from repro.storage.requests import RequestType

        result = db.run_query(query_builder(1), label="Q1")
        assert RequestType.RANDOM not in result.stats.by_type
        assert RequestType.TEMP_WRITE not in result.stats.by_type


class TestYearHelper:
    @pytest.mark.parametrize("text,year", [
        ("1992-01-01", 1992),
        ("1992-12-31", 1992),
        ("1995-06-17", 1995),
        ("1998-08-02", 1998),
    ])
    def test_year_of(self, text, year):
        assert year_of(d(text)) == year
