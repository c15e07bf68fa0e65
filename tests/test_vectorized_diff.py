"""Differential tests: vectorized vs row-at-a-time execution.

The vectorization invariant (ISSUE 2, DESIGN.md §7): batch-at-a-time
execution changes only real wall-clock time.  The simulated world —
request counts per type, blocks, buffer-pool hit/miss accounting, the
final simulated clock and the result rows — must be bit-identical to the
row-at-a-time reference path (``vectorized=False``).
"""

from __future__ import annotations

import pytest

from repro.db.executor import (
    Hash,
    HashAggregate,
    HashJoin,
    Limit,
    SeqScan,
    Sort,
)
from repro.db.exprs import agg_count, agg_sum
from repro.db.tuples import schema
from repro.tpch.datagen import generate
from repro.tpch.queries import query_builder
from repro.tpch.workload import load_tpch
from tests.helpers import make_database, trace_requests

SCALE = 0.08


def _snapshot(db, result):
    """Everything about a run that vectorization must not change."""
    overall = db.storage.stats.overall
    return {
        "rows": result.rows,
        "sim_seconds": result.sim_seconds,
        "clock_now": db.clock.now,
        "clock_background": db.clock.background,
        "total_requests": overall.total.requests,
        "total_blocks": overall.total.blocks,
        "by_type": {
            rtype.name: (counts.requests, counts.blocks)
            for rtype, counts in sorted(
                overall.by_type.items(), key=lambda kv: kv[0].name
            )
        },
        "pool_hits": db.pool.hits,
        "pool_misses": db.pool.misses,
        "temp_created": db.temp.created,
    }


def _run_both(make_db, plan_builder, label):
    """Run one plan on two identical databases, one per execution mode.

    Each snapshot carries the full ordered request trace: the invariant
    is *same requests in the same order* (DESIGN.md §7), not merely the
    same totals.
    """
    snaps = {}
    for vectorized in (False, True):
        db = make_db(vectorized)
        trace = trace_requests(db)
        result = db.run_query(plan_builder, label=label)
        snaps[vectorized] = _snapshot(db, result)
        snaps[vectorized]["request_trace"] = trace
    return snaps[False], snaps[True]


class TestTPCHDifferential:
    """One representative TPC-H query under both execution paths."""

    @pytest.fixture(scope="class")
    def data(self):
        return generate(scale=SCALE, seed=7)

    def _make_db(self, data, vectorized):
        db = make_database(
            cache_blocks=512,
            bufferpool_pages=48,
            work_mem_rows=400,
            btree_order=64,
            vectorized=vectorized,
        )
        load_tpch(db, data=data)
        db.reset_measurements()
        return db

    def test_q3_identical_simulation(self, data):
        row_snap, vec_snap = _run_both(
            lambda v: self._make_db(data, v), query_builder(3), "Q3"
        )
        assert vec_snap == row_snap

    def test_q1_identical_simulation(self, data):
        row_snap, vec_snap = _run_both(
            lambda v: self._make_db(data, v), query_builder(1), "Q1"
        )
        assert vec_snap == row_snap


class TestSpillDifferential:
    """Grace hash join + external sort + agg spill under both paths."""

    ROWS = 3000

    def _make_db(self, vectorized):
        db = make_database(
            cache_blocks=256,
            bufferpool_pages=24,
            work_mem_rows=150,  # far below ROWS: every blocking op spills
            vectorized=vectorized,
        )
        t = db.create_table("t", schema(("k", "int"), ("v", "int")))
        t.heap.bulk_load((i % 97, i) for i in range(self.ROWS))
        db.reset_measurements()
        return db

    @staticmethod
    def _spill_plan(db):
        rel = db.catalog.relation("t")
        join = HashJoin(
            SeqScan(rel),
            Hash(SeqScan(rel, project=lambda r: (r[0], r[1] % 7)),
                 key=lambda r: r[0]),
            probe_key=lambda r: r[0],
            project=lambda a, b: (a[0], a[1], b[1]),
        )
        agg = HashAggregate(
            join,
            group_key=lambda r: (r[0], r[2]),
            aggs=[agg_sum(lambda r: r[1]), agg_count()],
        )
        return Sort(agg, key=lambda r: (r[0], r[1]))

    def test_spilling_plan_identical_simulation(self):
        row_snap, vec_snap = _run_both(
            self._make_db, self._spill_plan, "spill"
        )
        assert row_snap["temp_created"] > 0  # the plan really spilled
        assert vec_snap == row_snap


class TestBatchSpillDifferential:
    """Batch-granular spilling (ISSUE 16) under both execution paths.

    The hash build crosses ``work_mem`` in the middle of a scan batch,
    the probe side spills whole batches, and the hash aggregate's group
    table fills in the middle of a join-output batch, so its overflow
    rows are a strict subset of their batch.  Routing must still place
    every temp page where the row executor places it.
    """

    ROWS = 2500
    WORK_MEM = 130

    def _make_db(self, vectorized):
        db = make_database(
            cache_blocks=256,
            bufferpool_pages=24,
            work_mem_rows=self.WORK_MEM,
            vectorized=vectorized,
        )
        t = db.create_table("t", schema(("k", "int"), ("v", "int")))
        t.heap.bulk_load((i % 211, i) for i in range(self.ROWS))
        # No batch boundary (page or read-ahead window) lands on work_mem.
        assert self.WORK_MEM % t.heap.rows_per_page
        db.reset_measurements()
        return db

    @staticmethod
    def _join_plan(db):
        rel = db.catalog.relation("t")
        join = HashJoin(
            SeqScan(rel),
            Hash(SeqScan(rel, pred=lambda r: r[1] % 3 == 0),
                 key=lambda r: r[0]),
            probe_key=lambda r: r[0],
            project=lambda a, b: (a[0], a[1], b[1]),
        )
        # Every probe row is its own group (k = v % 211 and v % 400 fix v
        # below ROWS): the group table fills after WORK_MEM of them and
        # later groups overflow, while the resident ones aggregate on.
        return HashAggregate(
            join,
            group_key=lambda r: (r[0], r[1] % 400),
            aggs=[agg_sum(lambda r: r[2]), agg_count()],
        )

    @staticmethod
    def _fused_plan(db):
        """Aggregate fused directly onto a scan: the group table fills
        in the middle of a page batch."""
        return HashAggregate(
            SeqScan(db.catalog.relation("t")),
            group_key=lambda r: r[0],
            aggs=[agg_sum(lambda r: r[1]), agg_count()],
        )

    @pytest.mark.parametrize("plan", ["_join_plan", "_fused_plan"])
    def test_three_executors_identical_simulation(self, plan):
        snaps = {}
        for vectorized in (False, True):
            db = self._make_db(vectorized)
            trace = trace_requests(db)
            result = db.run_query(getattr(self, plan), label=plan)
            snaps[vectorized] = _snapshot(db, result)
            snaps[vectorized]["request_trace"] = trace
            snaps[vectorized]["pool_evictions"] = db.pool.evictions
        row = snaps[False]
        assert row["temp_created"] == (24 if plan == "_join_plan" else 8)
        assert row["by_type"]["TEMP_WRITE"][0] > 0
        assert snaps[True] == row


class TestLimitDifferential:
    """Truncation over a *streaming* child: the row path stops pulling —
    and stops charging upstream CPU — at exactly the n-th row, so Limit
    must run its subtree row-granular to stay bit-identical."""

    def _make_db(self, vectorized):
        db = make_database(vectorized=vectorized)
        t = db.create_table("t", schema(("k", "int"), ("v", "int")))
        t.heap.bulk_load((i, i * 2) for i in range(2000))
        db.reset_measurements()
        return db

    def test_limit_over_streaming_scan_identical_simulation(self):
        row_snap, vec_snap = _run_both(
            self._make_db,
            lambda db: Limit(
                SeqScan(db.catalog.relation("t"), pred=lambda r: r[0] % 3 == 0),
                n=17,
            ),
            "limit",
        )
        assert len(row_snap["rows"]) == 17
        assert vec_snap == row_snap


class TestPushDifferential:
    """All 22 TPC-H queries: row vs vectorized, bit for bit.

    One database per execution path runs the whole query set in
    sequence, so the comparison also covers cumulative state — the
    simulated clock, pool counters and temp-file counts carry across
    queries (DESIGN.md §7).
    """

    @pytest.fixture(scope="class")
    def runs(self):
        data = generate(scale=0.05, seed=11)
        out = {}
        for vectorized in (False, True):
            db = make_database(
                cache_blocks=512,
                bufferpool_pages=48,
                work_mem_rows=400,
                btree_order=64,
                vectorized=vectorized,
            )
            load_tpch(db, data=data)
            db.reset_measurements()
            trace = trace_requests(db)
            per_query = {}
            for qid in range(1, 23):
                start = len(trace)
                result = db.run_query(query_builder(qid), label=f"Q{qid}")
                snap = _snapshot(db, result)
                snap["request_trace"] = tuple(trace[start:])
                per_query[qid] = snap
            out[vectorized] = per_query
        return out

    @pytest.mark.parametrize("qid", range(1, 23))
    def test_query_identical_simulation(self, runs, qid):
        assert runs[True][qid] == runs[False][qid]


class TestVectorizedDefault:
    def test_engine_vectorized_by_default(self):
        assert make_database().vectorized is True

    def test_flag_reaches_engine(self):
        assert make_database(vectorized=False).vectorized is False
