"""Pinned executor traces: what a plan does to the simulated world.

Each test runs a plan and compares a fingerprint of the run with the one
pinned in ``tests/golden/executor_traces.json``: a hash of the result
rows, the simulated clock, the pool counters, the temp files created,
the per-type request counts and a hash of the ordered request trace
(DESIGN.md §7).  The fingerprints were recorded while a row-at-a-time
executor still ran beside the batch executor and matched it bit for bit.
Whether the rows are *right* is checked independently: by
``tests/test_tpch_oracle.py`` and by the plain-Python references below.

Regenerate intentionally (after a change that is *supposed* to move the
simulated world) with

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_vectorized_diff.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from repro.db.executor import Hash, HashAggregate, HashJoin, SeqScan, Sort
from repro.db.exprs import agg_count, agg_sum
from repro.db.tuples import schema
from repro.tpch.datagen import generate
from repro.tpch.queries import query_builder
from repro.tpch.workload import load_tpch
from tests.helpers import make_database, trace_requests

SCALE = 0.08
GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "executor_traces.json"


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _fingerprint(db, result, trace) -> dict:
    """What a run leaves in the simulated world, small enough to pin:
    hashes stand in for the result rows and the ordered request trace."""
    by_type = db.storage.stats.overall.by_type
    return {
        "rows": len(result.rows),
        "rows_sha256": _sha256(result.rows),
        "sim_seconds": repr(result.sim_seconds),
        "clock_now": repr(db.clock.now),
        "clock_background": repr(db.clock.background),
        "pool_hits": db.pool.hits,
        "pool_misses": db.pool.misses,
        "pool_evictions": db.pool.evictions,
        "temp_created": db.temp.created,
        "by_type": {
            rtype.name: [counts.requests, counts.blocks]
            for rtype, counts in by_type.items()
        },
        "requests": len(trace),
        "trace_sha256": _sha256(tuple(trace)),
    }


def _check_golden(name: str, fingerprint: dict) -> None:
    """Compare with the pinned fingerprint ``name`` (or re-pin it)."""
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden[name] = fingerprint
        lines = (
            f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
            for key in sorted(golden)
        )
        GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        pytest.skip(f"golden fingerprint {name!r} regenerated")
    assert name in golden, f"no pinned fingerprint {name!r}; regenerate"
    assert fingerprint == golden[name]


def _run(db, plan_builder, label):
    """Run one plan, recording every request that reaches storage."""
    trace = trace_requests(db)
    result = db.run_query(plan_builder, label=label)
    return result, _fingerprint(db, result, trace)


class TestTPCHDifferential:
    """One join query and one aggregate query on a small, spilling setup."""

    @pytest.fixture(scope="class")
    def data(self):
        return generate(scale=SCALE, seed=7)

    def _make_db(self, data):
        db = make_database(
            cache_blocks=512,
            bufferpool_pages=48,
            work_mem_rows=400,
            btree_order=64,
        )
        load_tpch(db, data=data)
        db.reset_measurements()
        return db

    def test_q3_identical_simulation(self, data):
        _, fingerprint = _run(self._make_db(data), query_builder(3), "Q3")
        _check_golden("tpch_q3", fingerprint)

    def test_q1_identical_simulation(self, data):
        _, fingerprint = _run(self._make_db(data), query_builder(1), "Q1")
        _check_golden("tpch_q1", fingerprint)


class TestSpillDifferential:
    """Grace hash join + external sort + agg spill."""

    ROWS = 3000

    def _make_db(self):
        db = make_database(
            cache_blocks=256,
            bufferpool_pages=24,
            work_mem_rows=150,  # far below ROWS: every blocking op spills
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

    def _expected_rows(self):
        """The plan's answer, computed directly in Python."""
        rows = [(i % 97, i) for i in range(self.ROWS)]
        build: dict = {}
        for k, v in rows:
            build.setdefault(k, []).append(v % 7)
        groups: dict = {}
        for k, v in rows:
            for w in build[k]:
                total, count = groups.get((k, w), (0, 0))
                groups[(k, w)] = (total + v, count + 1)
        return sorted(key + value for key, value in groups.items())

    def test_spilling_plan_identical_simulation(self):
        db = self._make_db()
        result, fingerprint = _run(db, self._spill_plan, "spill")
        assert db.temp.created > 0  # the plan really spilled
        assert result.rows == self._expected_rows()
        _check_golden("spill", fingerprint)


class TestBatchSpillDifferential:
    """Batch-granular spilling.

    The hash build crosses ``work_mem`` in the middle of a scan batch,
    the probe side spills whole batches, and the hash aggregate's group
    table fills in the middle of a join-output batch, so its overflow
    rows are a strict subset of their batch.  Routing must still place
    every temp page where a row-by-row routing places it.
    """

    ROWS = 2500
    WORK_MEM = 130

    def _make_db(self):
        db = make_database(
            cache_blocks=256,
            bufferpool_pages=24,
            work_mem_rows=self.WORK_MEM,
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

    def _expected_rows(self, plan):
        """Each plan's answer, computed directly in Python."""
        rows = [(i % 211, i) for i in range(self.ROWS)]
        groups: dict = {}
        if plan == "_fused_plan":
            for k, v in rows:
                total, count = groups.get(k, (0, 0))
                groups[k] = (total + v, count + 1)
            return sorted((k,) + value for k, value in groups.items())
        build: dict = {}
        for k, v in rows:
            if v % 3 == 0:
                build.setdefault(k, []).append(v)
        for k, v in rows:
            for w in build.get(k, ()):
                total, count = groups.get((k, v % 400), (0, 0))
                groups[(k, v % 400)] = (total + w, count + 1)
        return sorted(key + value for key, value in groups.items())

    @pytest.mark.parametrize("plan", ["_join_plan", "_fused_plan"])
    def test_three_executors_identical_simulation(self, plan):
        db = self._make_db()
        result, fingerprint = _run(db, getattr(self, plan), plan)
        assert db.temp.created == (24 if plan == "_join_plan" else 8)
        assert fingerprint["by_type"]["TEMP_WRITE"][0] > 0
        assert sorted(result.rows) == self._expected_rows(plan)
        _check_golden(f"batch_spill{plan}", fingerprint)


class TestPushDifferential:
    """All 22 TPC-H queries, each against its pinned fingerprint.

    One database runs the whole query set in sequence, so the pins also
    cover cumulative state — the simulated clock, pool counters and
    temp-file counts carry across queries (DESIGN.md §7).
    """

    @pytest.fixture(scope="class")
    def fingerprints(self):
        db = make_database(
            cache_blocks=512,
            bufferpool_pages=48,
            work_mem_rows=400,
            btree_order=64,
        )
        load_tpch(db, data=generate(scale=0.05, seed=11))
        db.reset_measurements()
        trace = trace_requests(db)
        out = {}
        for qid in range(1, 23):
            start = len(trace)
            result = db.run_query(query_builder(qid), label=f"Q{qid}")
            out[qid] = _fingerprint(db, result, trace[start:])
        return out

    @pytest.mark.parametrize("qid", range(1, 23))
    def test_query_identical_simulation(self, fingerprints, qid):
        _check_golden(f"tpch22_Q{qid:02d}", fingerprints[qid])
