"""Tests for ``Database.explain_analyze`` (operator-level profiling).

Two invariants (DESIGN.md §14):

* **closure** — per-node self-times are non-negative and sum *exactly*
  to the query's simulated elapsed time;
* **transparency** — a profiled run is bit-identical to a plain
  ``run_query`` on an identical database: same rows, same simulated
  clock, same storage counters.
"""

from __future__ import annotations

import pytest

from repro.db.executor import Limit, SeqScan
from repro.db.tuples import schema
from repro.obs import Observer
from repro.tpch.datagen import generate
from repro.tpch.queries import query_builder, query_label
from repro.tpch.workload import load_tpch
from tests.helpers import make_database

SCALE = 0.05
QUERIES = (1, 3, 6)  # aggregate, join pipeline, filtered scalar aggregate


@pytest.fixture(scope="module")
def data():
    return generate(scale=SCALE, seed=11)


def _make_db(data, observer=None):
    db = make_database(
        cache_blocks=512,
        bufferpool_pages=48,
        work_mem_rows=400,
        btree_order=64,
        observer=observer,
    )
    load_tpch(db, data=data)
    db.reset_measurements()
    return db


class TestClosure:
    @pytest.mark.parametrize("qid", QUERIES)
    def test_self_times_sum_to_sim_elapsed(self, data, qid):
        db = _make_db(data)
        profile = db.explain_analyze(
            query_builder(qid), label=query_label(qid)
        )
        for prof in profile.root.walk():
            assert prof.self_io_seconds >= -1e-12
            assert prof.self_cpu_seconds >= -1e-12
        assert profile.total_self_seconds() == pytest.approx(
            profile.sim_seconds, abs=1e-9
        )
        assert profile.io_seconds + profile.cpu_seconds == pytest.approx(
            profile.sim_seconds, abs=1e-9
        )

    @pytest.mark.parametrize("qid", (2, 17))  # a Materialize with two parents
    def test_shared_subtree_is_wrapped_once(self, data, qid):
        db = _make_db(data)
        profile = db.explain_analyze(
            query_builder(qid), label=query_label(qid)
        )
        assert profile.root.rows_out == len(profile.result.rows)
        assert profile.total_self_seconds() == pytest.approx(
            profile.sim_seconds, abs=1e-9
        )

    def test_rows_and_counters_populated(self, data):
        db = _make_db(data)
        profile = db.explain_analyze(query_builder(1), label="Q1")
        assert profile.root.rows_out == len(profile.result.rows) > 0
        # The scan leaves actually read the table.
        leaves = [p for p in profile.root.walk() if not p.children]
        assert sum(p.rows_out for p in leaves) > 0
        assert sum(p.pool_hits + p.pool_misses
                   for p in profile.root.walk()) > 0
        rendered = profile.render()
        assert "explain analyze" in rendered and "self io s" in rendered
        as_dict = profile.as_dict()
        assert as_dict["plan"]["children"], "plan tree should nest"


    def test_scan_under_limit_keeps_its_own_rows_and_io(self):
        """Limit pulls its child's batches through the profiled entry
        point, so the scan below it is measured, not folded into Limit."""
        db = make_database()
        t = db.create_table("t", schema(("k", "int"), ("v", "int")))
        t.heap.bulk_load((i, i * 2) for i in range(2000))
        db.reset_measurements()
        profile = db.explain_analyze(
            Limit(SeqScan(t, pred=lambda r: r[0] % 3 == 0), n=17),
            label="limit",
        )
        assert len(profile.result.rows) == 17
        (scan,) = profile.root.children
        assert scan.op == "SeqScan"
        assert scan.rows_out >= 17
        assert scan.pool_misses > 0 and scan.self_io_seconds > 0
        assert profile.root.pool_misses == 0
        assert profile.root.self_io_seconds == pytest.approx(0.0, abs=1e-12)


class TestTransparency:
    def test_profiled_run_is_bit_identical(self, data):
        plain = _make_db(data)
        result = plain.run_query(query_builder(6), label="Q6")

        profiled = _make_db(data)
        profile = profiled.explain_analyze(query_builder(6), label="Q6")

        assert profile.result.rows == result.rows
        assert profile.sim_seconds == result.sim_seconds
        assert profiled.clock.now == plain.clock.now
        assert profiled.clock.background == plain.clock.background
        assert profiled.pool.hits == plain.pool.hits
        assert profiled.pool.misses == plain.pool.misses
        overall_a = plain.storage.stats.overall.total
        overall_b = profiled.storage.stats.overall.total
        assert (overall_b.requests, overall_b.blocks) == (
            overall_a.requests, overall_a.blocks
        )

    def test_plan_is_unwrapped_after_profiling(self, data):
        db = _make_db(data)
        db.explain_analyze(query_builder(6), label="Q6")
        # A second, unprofiled run still works and produces rows: every
        # per-instance wrapper was undone.
        again = db.run_query(query_builder(6), label="Q6-again")
        assert again.rows


class TestSpanEmission:
    def test_operator_spans_attach_under_query_span(self, data):
        obs = Observer()
        db = _make_db(data, observer=obs)
        obs.reset()
        profile = db.explain_analyze(query_builder(6), label="Q6")
        roots = obs.tracer.roots
        assert len(roots) == 1 and roots[0].cat == "query"
        cats = {span.cat for root in roots for span in _walk(root)}
        assert "operator" in cats and "io" in cats
        op_names = {
            span.name for root in roots for span in _walk(root)
            if span.cat == "operator"
        }
        assert profile.root.label in op_names


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)
