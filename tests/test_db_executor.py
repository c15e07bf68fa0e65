"""Unit tests for executor operators against brute-force references."""

import pytest

from repro.db import schema
from repro.db.executor import (
    Filter,
    Hash,
    HashAggregate,
    HashJoin,
    IndexScan,
    Limit,
    Materialize,
    NestedLoopIndexJoin,
    Project,
    SeqScan,
    Sort,
    StreamAggregate,
    TopN,
)
from repro.db.exprs import agg_avg, agg_count, agg_max, agg_min, agg_sum
from repro.db.errors import ExecutionError
from tests.helpers import make_database

ROWS_A = [(i, i % 7, float(i % 13)) for i in range(400)]
ROWS_B = [(i, f"b{i}") for i in range(0, 400, 3)]


@pytest.fixture
def db():
    database = make_database(work_mem_rows=64)  # small: joins/sorts spill
    a = database.create_table("a", schema(("id", "int"), ("grp", "int"), ("val", "float")))
    a.heap.bulk_load(ROWS_A)
    b = database.create_table("b", schema(("id", "int"), ("tag", "str", 6)))
    b.heap.bulk_load(ROWS_B)
    database.create_index("a_id", "a", "id")
    database.create_index("b_id", "b", "id")
    return database


def run(db, plan):
    return db.run_query(plan, label="test").rows


class TestScans:
    def test_seqscan_all(self, db):
        rows = run(db, SeqScan(db.catalog.relation("a")))
        assert rows == ROWS_A

    def test_seqscan_pred_and_project(self, db):
        plan = SeqScan(
            db.catalog.relation("a"),
            pred=lambda r: r[1] == 3,
            project=lambda r: (r[0],),
        )
        assert run(db, plan) == [(i,) for i, g, _ in ROWS_A if g == 3]

    def test_indexscan_range(self, db):
        plan = IndexScan(db.catalog.index("a_id"), lo=10, hi=20)
        assert run(db, plan) == [r for r in ROWS_A if 10 <= r[0] <= 20]

    def test_indexscan_point(self, db):
        plan = IndexScan(db.catalog.index("a_id"), lo=42, hi=42)
        assert run(db, plan) == [ROWS_A[42]]

    def test_indexscan_without_fetch_returns_entries(self, db):
        plan = IndexScan(db.catalog.index("a_id"), lo=5, hi=7, fetch=False)
        rows = run(db, plan)
        assert [key for key, _rid in rows] == [5, 6, 7]


class TestHashJoin:
    def expected_inner(self):
        b_by_id = {i: (i, t) for i, t in ROWS_B}
        return [ra + b_by_id[ra[0]] for ra in ROWS_A if ra[0] in b_by_id]

    def test_inner_join_spilling(self, db):
        # build side 400 rows > work_mem 64 -> grace spill path
        plan = HashJoin(
            SeqScan(db.catalog.relation("a")),
            Hash(SeqScan(db.catalog.relation("b")), key=lambda r: r[0]),
            probe_key=lambda r: r[0],
        )
        assert sorted(run(db, plan)) == sorted(self.expected_inner())
        assert db.temp.created > 0  # it really spilled
        assert db.temp.live_count == 0  # and cleaned up after itself

    def test_inner_join_in_memory(self, db):
        db.work_mem_rows = 10_000
        plan = HashJoin(
            SeqScan(db.catalog.relation("a")),
            Hash(SeqScan(db.catalog.relation("b")), key=lambda r: r[0]),
            probe_key=lambda r: r[0],
        )
        assert sorted(run(db, plan)) == sorted(self.expected_inner())
        assert db.temp.created == 0

    def test_semi_join(self, db):
        plan = HashJoin(
            SeqScan(db.catalog.relation("a")),
            Hash(SeqScan(db.catalog.relation("b")), key=lambda r: r[0]),
            probe_key=lambda r: r[0],
            mode="semi",
        )
        b_ids = {i for i, _ in ROWS_B}
        assert sorted(run(db, plan)) == sorted(
            r for r in ROWS_A if r[0] in b_ids
        )

    def test_anti_join(self, db):
        plan = HashJoin(
            SeqScan(db.catalog.relation("a")),
            Hash(SeqScan(db.catalog.relation("b")), key=lambda r: r[0]),
            probe_key=lambda r: r[0],
            mode="anti",
        )
        b_ids = {i for i, _ in ROWS_B}
        assert sorted(run(db, plan)) == sorted(
            r for r in ROWS_A if r[0] not in b_ids
        )

    def test_left_join_pads_with_none(self, db):
        plan = HashJoin(
            SeqScan(db.catalog.relation("a")),
            Hash(SeqScan(db.catalog.relation("b")), key=lambda r: r[0]),
            probe_key=lambda r: r[0],
            mode="left",
            project=lambda l, r: (l[0], r[1] if r else None),
        )
        rows = dict(run(db, plan))
        assert rows[0] == "b0"
        assert rows[1] is None

    def test_join_pred_filters_pairs(self, db):
        plan = HashJoin(
            SeqScan(db.catalog.relation("a")),
            Hash(SeqScan(db.catalog.relation("b")), key=lambda r: r[0]),
            probe_key=lambda r: r[0],
            join_pred=lambda l, r: l[1] == 0,  # only grp-0 probe rows
        )
        assert all(row[1] == 0 for row in run(db, plan))

    def test_build_child_must_be_hash(self, db):
        with pytest.raises(ExecutionError):
            HashJoin(
                SeqScan(db.catalog.relation("a")),
                SeqScan(db.catalog.relation("b")),
                probe_key=lambda r: r[0],
            )

    def test_unknown_mode_rejected(self, db):
        with pytest.raises(ExecutionError):
            HashJoin(
                SeqScan(db.catalog.relation("a")),
                Hash(SeqScan(db.catalog.relation("b")), key=lambda r: r[0]),
                probe_key=lambda r: r[0],
                mode="full",
            )


class TestNestedLoopIndexJoin:
    def test_inner(self, db):
        outer = SeqScan(db.catalog.relation("b"))
        plan = NestedLoopIndexJoin(
            outer,
            IndexScan(db.catalog.index("a_id")),
            outer_key=lambda r: r[0],
        )
        rows = run(db, plan)
        assert len(rows) == len(ROWS_B)
        assert all(rb[0] == ra_id for rb, _tag, ra_id, *_ in []) or True
        for row in rows:
            assert row[0] == row[2]  # b.id == a.id

    def test_anti_with_pred(self, db):
        outer = SeqScan(db.catalog.relation("b"), pred=lambda r: r[0] < 30)
        plan = NestedLoopIndexJoin(
            outer,
            IndexScan(db.catalog.index("a_id")),
            outer_key=lambda r: r[0],
            mode="anti",
            join_pred=lambda l, r: r[1] == 0,  # match only grp-0 rows
        )
        rows = run(db, plan)
        expected = [
            (i, t) for i, t in ROWS_B if i < 30 and ROWS_A[i][1] != 0
        ]
        assert rows == expected


class TestSort:
    def test_in_memory_sort(self, db):
        db.work_mem_rows = 10_000
        plan = Sort(SeqScan(db.catalog.relation("a")), key=lambda r: -r[0])
        assert run(db, plan) == sorted(ROWS_A, key=lambda r: -r[0])

    def test_external_sort_spills_and_matches(self, db):
        plan = Sort(
            SeqScan(db.catalog.relation("a")), key=lambda r: (r[2], r[0])
        )
        assert run(db, plan) == sorted(ROWS_A, key=lambda r: (r[2], r[0]))
        assert db.temp.created > 0
        assert db.temp.live_count == 0

    def test_reverse_sort(self, db):
        plan = Sort(
            SeqScan(db.catalog.relation("a")), key=lambda r: r[0], reverse=True
        )
        assert run(db, plan)[0] == ROWS_A[-1]


class TestAggregates:
    def test_hash_aggregate_matches_reference(self, db):
        plan = HashAggregate(
            SeqScan(db.catalog.relation("a")),
            group_key=lambda r: r[1],
            aggs=[
                agg_count(),
                agg_sum(lambda r: r[2]),
                agg_min(lambda r: r[0]),
                agg_max(lambda r: r[0]),
                agg_avg(lambda r: r[2]),
            ],
        )
        rows = {r[0]: r[1:] for r in run(db, plan)}
        for grp in range(7):
            members = [r for r in ROWS_A if r[1] == grp]
            count, total, mn, mx, avg = rows[grp]
            assert count == len(members)
            assert total == pytest.approx(sum(r[2] for r in members))
            assert mn == min(r[0] for r in members)
            assert mx == max(r[0] for r in members)
            assert avg == pytest.approx(total / count)

    def test_hash_aggregate_spills_on_many_groups(self, db):
        plan = HashAggregate(
            SeqScan(db.catalog.relation("a")),
            group_key=lambda r: r[0],  # 400 groups > work_mem 64
            aggs=[agg_count()],
        )
        rows = run(db, plan)
        assert len(rows) == 400
        assert all(count == 1 for _, count in rows)
        assert db.temp.created > 0

    def test_having_filters_groups(self, db):
        plan = HashAggregate(
            SeqScan(db.catalog.relation("a")),
            group_key=lambda r: r[1],
            aggs=[agg_count()],
            having=lambda row: row[1] > 57,
        )
        rows = run(db, plan)
        assert all(count > 57 for _, count in rows)

    def test_stream_aggregate_single_group(self, db):
        plan = StreamAggregate(
            SeqScan(db.catalog.relation("a")),
            aggs=[agg_sum(lambda r: r[0]), agg_count()],
        )
        [(total, count)] = run(db, plan)
        assert total == sum(r[0] for r in ROWS_A)
        assert count == len(ROWS_A)

    def test_stream_aggregate_grouped_sorted_input(self, db):
        db.work_mem_rows = 10_000
        plan = StreamAggregate(
            Sort(SeqScan(db.catalog.relation("a")), key=lambda r: r[1]),
            aggs=[agg_count()],
            group_key=lambda r: r[1],
        )
        rows = dict(run(db, plan))
        for grp in range(7):
            assert rows[grp] == sum(1 for r in ROWS_A if r[1] == grp)

    def test_stream_aggregate_empty_input(self, db):
        plan = StreamAggregate(
            SeqScan(db.catalog.relation("a"), pred=lambda r: False),
            aggs=[agg_count()],
        )
        assert run(db, plan) == []


class TestMisc:
    def test_filter_project_limit(self, db):
        plan = Limit(
            Project(
                Filter(SeqScan(db.catalog.relation("a")), pred=lambda r: r[1] == 1),
                fn=lambda r: (r[0] * 10,),
            ),
            n=5,
        )
        expected = [(r[0] * 10,) for r in ROWS_A if r[1] == 1][:5]
        assert run(db, plan) == expected

    def test_topn_matches_sorted_head(self, db):
        plan = TopN(SeqScan(db.catalog.relation("a")), key=lambda r: -r[2], n=10)
        expected = sorted(ROWS_A, key=lambda r: -r[2])[:10]
        assert run(db, plan) == expected

    def test_materialize_replays_without_rescanning(self, db):
        mat = Materialize(SeqScan(db.catalog.relation("a")))
        first = run(db, mat)
        db.reset_measurements()
        second = run(db, mat)
        assert first == second == ROWS_A
        assert db.storage.stats.overall.total.requests == 0

    def test_limit_stops_pulling_after_n_rows(self, db):
        big = db.create_table("big", schema(("k", "int"), ("v", "int")))
        big.heap.bulk_load((i, i) for i in range(20000))
        db.reset_measurements()
        assert run(db, Limit(SeqScan(big), n=3)) == [(0, 0), (1, 1), (2, 2)]
        assert 0 < db.pool.misses < big.heap.num_pages

    def test_limit_zero(self, db):
        assert run(db, Limit(SeqScan(db.catalog.relation("a")), n=0)) == []

    def test_invalid_limit_rejected(self, db):
        with pytest.raises(ExecutionError):
            Limit(SeqScan(db.catalog.relation("a")), n=-1)
