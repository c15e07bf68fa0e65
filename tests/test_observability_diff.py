"""Differential tests: observability on vs off (DESIGN.md §14).

The observability invariant: attaching an :class:`Observer` (metrics +
tracing) changes *nothing* about the simulated world.  Rows, the ordered
request trace, per-type request/block counts, buffer-pool accounting and
the simulated clock must be bit-identical with and without telemetry —
across all 22 TPC-H queries.  Telemetry itself must also be
deterministic: two identical observed runs render byte-identical JSON.
"""

from __future__ import annotations

import pytest

from repro.obs import Observer
from repro.tpch.datagen import generate
from repro.tpch.queries import query_builder, query_label
from repro.tpch.workload import load_tpch
from tests.helpers import make_database, trace_requests

SCALE = 0.05
ALL_QUERIES = tuple(range(1, 23))


def _snapshot(db, result):
    """Everything about a run the observer must not change."""
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


def _build(data, observer=None):
    db = make_database(
        cache_blocks=512,
        bufferpool_pages=48,
        work_mem_rows=400,
        btree_order=64,
        observer=observer,
    )
    load_tpch(db, data=data)
    db.reset_measurements()
    if observer is not None:
        observer.reset()
    return db


@pytest.fixture(scope="module")
def data():
    return generate(scale=SCALE, seed=11)


class TestObserverBitIdentity:
    """All 22 queries, one long-lived database per arm."""

    @pytest.fixture(scope="class")
    def snapshots(self, data):
        arms = {}
        for name, observer in (("off", None), ("on", Observer())):
            db = _build(data, observer)
            trace = trace_requests(db)
            per_query = {}
            for qid in ALL_QUERIES:
                result = db.run_query(
                    query_builder(qid), label=query_label(qid)
                )
                snap = _snapshot(db, result)
                snap["request_trace"] = list(trace)
                per_query[qid] = snap
            arms[name] = per_query
        return arms

    @pytest.mark.parametrize("qid", ALL_QUERIES)
    def test_query_identical(self, snapshots, qid):
        assert snapshots["off"][qid] == snapshots["on"][qid]


class TestTelemetryDeterminism:
    def _telemetry(self, data):
        obs = Observer()
        db = _build(data, obs)
        for qid in (1, 6, 14):
            db.run_query(query_builder(qid), label=query_label(qid))
        db.storage_manager.recovery_summary()  # publish recovery gauges
        return obs.telemetry_json()

    def test_identical_runs_identical_bytes(self, data):
        assert self._telemetry(data) == self._telemetry(data)

    def test_telemetry_carries_latency_histograms(self, data):
        obs = Observer()
        db = _build(data, obs)
        db.run_query(query_builder(6), label="Q6")
        telemetry = obs.telemetry()
        hists = telemetry["metrics"]["histograms"]
        assert any(key.startswith("io_dispatch_seconds") for key in hists)
        for summary in hists.values():
            assert summary["p50"] <= summary["p95"] <= summary["p99"]
            assert summary["count"] > 0
        assert telemetry["trace"]["spans"] > 0

    def test_disabled_observer_records_nothing(self, data):
        obs = Observer(enabled=False)
        db = _build(data, obs)
        db.run_query(query_builder(6), label="Q6")
        snap = obs.metrics.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
        assert obs.tracer.roots == []
