"""Unit tests for the Database facade: DDL, queries, concurrency."""

import pytest

from repro.db import CatalogError, schema
from repro.db.errors import ExecutionError, StorageError
from repro.db.executor import (
    Hash,
    HashJoin,
    IndexScan,
    NestedLoopIndexJoin,
    Project,
    SeqScan,
)
from repro.db.plan import PULSE, PlanNode
from tests.helpers import make_database, trace_requests


@pytest.fixture
def db():
    database = make_database()
    t = database.create_table("t", schema(("id", "int"), ("v", "float")))
    t.heap.bulk_load((i, float(i)) for i in range(300))
    database.create_index("t_id", "t", "id")
    return database


class TestDDL:
    def test_create_table_registers_in_catalog(self, db):
        rel = db.catalog.relation("t")
        assert rel.row_count == 300
        assert rel.oid >= 1000

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.create_table("t", schema(("x", "int")))

    def test_create_index_builds_over_existing_rows(self, db):
        index = db.catalog.index("t_id")
        assert index.btree.entry_count == 300

    def test_index_on_lookup(self, db):
        rel = db.catalog.relation("t")
        assert rel.index_on("id").name == "t_id"
        with pytest.raises(CatalogError):
            rel.index_on("v")

    def test_database_pages_counts_heap_and_index(self, db):
        assert db.database_pages() > 0


class TestRunQuery:
    def test_result_carries_rows_time_stats(self, db):
        res = db.run_query(SeqScan(db.catalog.relation("t")), label="scan")
        assert res.row_count == 300
        assert res.sim_seconds > 0
        assert res.stats.total.blocks > 0
        assert res.label == "scan"

    def test_builder_callable_accepted(self, db):
        res = db.run_query(lambda d: SeqScan(d.catalog.relation("t")))
        assert res.row_count == 300

    def test_bad_builder_rejected(self, db):
        from repro.db.errors import ExecutionError

        with pytest.raises(ExecutionError):
            db.run_query(lambda d: "not a plan")

    def test_collect_false_discards_rows(self, db):
        res = db.run_query(SeqScan(db.catalog.relation("t")), collect=False)
        assert res.rows == []
        assert res.sim_seconds > 0

    def test_query_ids_increment(self, db):
        r1 = db.run_query(SeqScan(db.catalog.relation("t")), collect=False)
        r2 = db.run_query(SeqScan(db.catalog.relation("t")), collect=False)
        assert r2.query_id == r1.query_id + 1

    def test_registry_cleaned_after_query(self, db):
        plan = IndexScan(db.catalog.index("t_id"), lo=0, hi=10)
        db.run_query(plan, collect=False)
        assert db.registry.active_queries == 0

    def test_temp_files_cleaned_after_query(self, db):
        plan = HashJoin(
            SeqScan(db.catalog.relation("t")),
            Hash(SeqScan(db.catalog.relation("t")), key=lambda r: r[0]),
            probe_key=lambda r: r[0],
        )
        db.run_query(plan, collect=False)
        assert db.temp.live_count == 0

    def test_result_before_finish_rejected(self, db):
        execution = db.start_query(SeqScan(db.catalog.relation("t")))
        with pytest.raises(ExecutionError):
            execution.result()


class TestConcurrency:
    def test_concurrent_results_match_isolated(self, db):
        builder = lambda d: SeqScan(d.catalog.relation("t"))  # noqa: E731
        isolated = db.run_query(builder).rows
        results = db.run_concurrent(
            [("s1", builder), ("s2", builder)], collect=True
        )
        assert [r.rows for r in results] == [isolated, isolated]

    def test_concurrent_executions_interleave_time(self, db):
        """Each co-runner's elapsed time includes the other's work."""
        builder = lambda d: SeqScan(d.catalog.relation("t"))  # noqa: E731
        db.pool.clear()
        solo = db.run_query(builder, collect=False).sim_seconds
        db.pool.clear()
        results = db.run_concurrent(
            [("s1", builder), ("s2", builder)], quantum=16
        )
        assert all(r.sim_seconds > solo * 0.8 for r in results)

    def test_rule5_registry_spans_concurrent_queries(self, db):
        """While two index queries co-run, the registry sees both."""
        observed = []

        def probe_builder(d):
            plan = IndexScan(d.catalog.index("t_id"), lo=0, hi=250)
            return plan

        ex1 = db.start_query(probe_builder, "q1")
        ex2 = db.start_query(probe_builder, "q2")
        assert db.registry.active_queries == 2
        ex1.run_to_completion()
        ex2.run_to_completion()
        assert db.registry.active_queries == 0

    def test_reset_measurements(self, db):
        db.run_query(SeqScan(db.catalog.relation("t")), collect=False)
        db.reset_measurements()
        assert db.clock.now == 0.0
        assert db.storage.stats.overall.total.requests == 0


class _FailAfter(PlanNode):
    """Passes ``rows`` rows of its child through, then raises."""

    def __init__(self, child, rows):
        super().__init__(child, label="FailAfter")
        self.rows = rows

    def execute_batch(self, ctx):
        passed = 0
        for item in self.children[0].execute_batch(ctx):
            if item is not PULSE:
                if passed == self.rows:
                    raise StorageError("injected mid-query failure")
                item = item[:self.rows - passed]
                passed += len(item)
            yield item


class TestFailedQuery:
    """An operator that raises mid-``step()`` must not leak (ISSUE 16)."""

    @staticmethod
    def _make_db():
        database = make_database()
        for name in ("t", "u"):
            rel = database.create_table(
                name, schema(("id", "int"), ("v", "float"))
            )
            rel.heap.bulk_load((i, float(i)) for i in range(300))
            database.create_index(f"{name}_id", name, "id")
        database.reset_measurements()
        return database

    @staticmethod
    def _failing_plan(db):
        """The build side (an index scan on ``u`` at level 0, so the
        query holds Rule-5 registry entries) exceeds work_mem and spills;
        the probe side dies after routing 150 rows into its own spill
        partitions."""
        return HashJoin(
            _FailAfter(SeqScan(db.catalog.relation("t")), rows=150),
            Hash(IndexScan(db.catalog.index("u_id")), key=lambda r: r[0]),
            probe_key=lambda r: r[0],
        )

    @staticmethod
    def _follow_up(db):
        """Random access to ``t`` at level 1: alone in the registry it
        takes the top random priority; beside a leaked level-0 entry it
        would be pushed one priority down."""
        return NestedLoopIndexJoin(
            Project(
                SeqScan(db.catalog.relation("u"), pred=lambda r: r[0] < 40),
                lambda r: (r[0],),
            ),
            IndexScan(db.catalog.index("t_id")),
            outer_key=lambda r: r[0],
        )

    def test_failure_releases_everything(self):
        db = self._make_db()
        execution = db.start_query(self._failing_plan(db), snapshot=True)
        with pytest.raises(StorageError, match="injected"):
            execution.run_to_completion()
        assert db.temp.created >= 16  # both sides really spilled
        assert db.temp.live_count == 0
        assert db.temp.deleted == db.temp.created
        assert db.registry.active_queries == 0
        assert db.registry.gl_low is None
        assert not db.txn_manager.mvcc._active_snapshots
        assert execution.done and execution.error is not None
        assert execution.step() is False
        with pytest.raises(ExecutionError, match="failed"):
            execution.result()

    def test_following_query_runs_as_on_a_fresh_database(self):
        fresh = self._make_db()
        used = self._make_db()
        with pytest.raises(StorageError):
            used.run_query(self._failing_plan(used))
        traces = []
        for db in (fresh, used):
            db.pool.clear()  # same (empty) pool; the registry is the point
            trace = trace_requests(db)
            result = db.run_query(self._follow_up(db))
            traces.append((result.rows, trace))
        assert traces[0][1]  # the follow-up really reached storage
        assert traces[1] == traces[0]

    def test_cleanup_error_does_not_mask_the_first(self):
        db = self._make_db()

        def failing_trim(file, sem):
            raise StorageError("trim failed too")

        db.storage_manager.trim_file = failing_trim
        with pytest.raises(StorageError, match="injected"):
            db.run_query(self._failing_plan(db))
        assert db.registry.active_queries == 0
