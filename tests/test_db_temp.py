"""Unit tests for the temp-file manager: lifetime, TRIM, workaround."""

import pytest

from repro.core.semantics import SemanticInfo
from repro.db.errors import ExecutionError, StorageError
from repro.db.temp import TEMP_ROWS_PER_PAGE, SpillFile, route_rows
from repro.storage.requests import RequestType
from repro.tpch.datagen import generate
from repro.tpch.queries import query_builder
from repro.tpch.workload import load_tpch
from tests.helpers import make_database


@pytest.fixture
def db():
    return make_database(bufferpool_pages=8)


class TestLifecycle:
    def test_write_read_roundtrip(self, db):
        spill = db.temp.create(query_id=1)
        rows = [(i, i * 2) for i in range(500)]
        for row in rows:
            spill.append(row)
        spill.finish_writing()
        assert list(spill.read_all()) == rows

    def test_read_autocloses_write_phase(self, db):
        spill = db.temp.create(query_id=1)
        spill.append((1,))
        assert list(spill.read_all()) == [(1,)]

    def test_append_after_finish_rejected(self, db):
        spill = db.temp.create(query_id=1)
        spill.append((1,))
        spill.finish_writing()
        with pytest.raises(ExecutionError):
            spill.append((2,))

    def test_read_after_delete_rejected(self, db):
        spill = db.temp.create(query_id=1)
        spill.append((1,))
        spill.delete()
        with pytest.raises(ExecutionError):
            list(spill.read_all())

    def test_double_delete_is_noop(self, db):
        spill = db.temp.create(query_id=1)
        spill.append((1,))
        spill.delete()
        spill.delete()
        assert db.temp.deleted == 1

    def test_empty_spill_file(self, db):
        spill = db.temp.create(query_id=1)
        assert list(spill.read_all()) == []
        spill.delete()


class TestStorageEffects:
    def test_spill_generates_temp_writes(self, db):
        """Generation phase: a write stream at priority 1."""
        spill = db.temp.create(query_id=1)
        for i in range(1000):  # >> pool, forces evictions
            spill.append((i,))
        spill.finish_writing()
        counts = db.storage.stats.overall.by_type.get(RequestType.TEMP_WRITE)
        assert counts is not None and counts.blocks > 0

    def test_delete_issues_trim(self, db):
        spill = db.temp.create(query_id=1)
        for i in range(1000):
            spill.append((i,))
        spill.finish_writing()
        spill.delete()
        counts = db.storage.stats.overall.by_type.get(RequestType.TRIM_TEMP)
        assert counts is not None and counts.blocks > 0

    def test_trim_releases_cache_blocks(self, db):
        spill = db.temp.create(query_id=1)
        for i in range(1000):
            spill.append((i,))
        spill.finish_writing()
        cache = db.storage.backend.cache
        assert cache.occupancy > 0  # temp blocks cached at priority 1
        spill.delete()
        assert cache.occupancy == 0

    def test_legacy_workaround_demotes_blocks(self):
        """use_trim=False: the sequential eviction-scan workaround."""
        db = make_database(use_trim=False, bufferpool_pages=8)
        spill = db.temp.create(query_id=1)
        for i in range(1000):
            spill.append((i,))
        spill.finish_writing()
        cache = db.storage.backend.cache
        resident_before = cache.occupancy
        assert resident_before > 0
        spill.delete()
        # Blocks got demoted to the eviction group, not invalidated...
        demoted = cache.group_sizes()[db.assignment.policy_set.non_caching_eviction]
        assert demoted == cache.occupancy > 0
        # ...and the workaround itself cost (sequential) read time.
        counts = db.storage.stats.overall.by_type.get(RequestType.TRIM_TEMP)
        assert counts is not None and counts.blocks > 0


class TestDeleteFailure:
    def test_failed_trim_does_not_leave_the_file_registered(self, db):
        def failing_trim(file, sem):
            raise StorageError("device gone")

        db.storage_manager.trim_file = failing_trim
        spill = db.temp.create(query_id=1)
        spill.append((1,))
        with pytest.raises(StorageError):
            spill.delete()
        assert spill.deleted
        assert db.temp.live_count == 0
        assert db.pool.resident_pages == 0  # its frames are gone too


class TestQueryCleanup:
    def test_cleanup_query_deletes_leaks(self, db):
        a = db.temp.create(query_id=7)
        b = db.temp.create(query_id=7)
        other = db.temp.create(query_id=8)
        a.append((1,))
        b.append((2,))
        other.append((3,))
        assert db.temp.cleanup_query(7) == 2
        assert db.temp.live_count == 1
        assert not other.deleted


def _pages(spill):
    return [list(page.rows) for page in spill.file.pages]


def _new_page_calls(db):
    """Record the (fileid, pageno) of every ``pool.new_page``, in order."""
    calls = []
    original = db.pool.new_page

    def spy(file, page, sem):
        pageno = original(file, page, sem)
        calls.append((file.fileid, pageno))
        return pageno

    db.pool.new_page = spy
    return calls


class TestBatchAppend:
    """``append_rows`` is ``append`` in a loop, page for page."""

    @staticmethod
    def _both(rows, prefix=()):
        per_row = make_database(bufferpool_pages=8).temp.create(query_id=1)
        batched = make_database(bufferpool_pages=8).temp.create(query_id=1)
        for spill in (per_row, batched):
            for row in prefix:
                spill.append(row)
        for row in rows:
            per_row.append(row)
        batched.append_rows(rows)
        return per_row, batched

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 200])
    def test_same_pages_as_per_row(self, count):
        assert TEMP_ROWS_PER_PAGE == 64  # the counts bracket one page
        rows = [(i, -i) for i in range(count)]
        per_row, batched = self._both(rows)
        assert _pages(batched) == _pages(per_row)
        assert batched.row_count == per_row.row_count == count
        assert list(batched.read_all()) == rows
        assert [r for b in per_row.read_batches() for r in b] == rows

    def test_batch_straddling_a_half_full_page(self):
        prefix = [(i,) for i in range(32)]
        rows = [(100 + i,) for i in range(100)]
        per_row, batched = self._both(rows, prefix)
        assert [len(p) for p in _pages(batched)] == [64, 64, 4]
        assert _pages(batched) == _pages(per_row)
        assert batched.row_count == per_row.row_count == 132
        assert list(batched.read_all()) == prefix + rows

    @pytest.mark.parametrize("rows_before", [0, 10, 64])
    def test_writes_rejected_after_finish_and_after_delete(self, db, rows_before):
        """Also with an open page that still has room (10 rows)."""
        for end in (SpillFile.finish_writing, SpillFile.delete):
            spill = db.temp.create(query_id=1)
            spill.append_rows([(i,) for i in range(rows_before)])
            end(spill)
            with pytest.raises(ExecutionError):
                spill.append((1,))
            with pytest.raises(ExecutionError):
                spill.append_rows([(1,), (2,)])
            assert spill.row_count == rows_before


class TestRouteRows:
    def test_allocates_pages_in_per_row_order(self):
        """The page-order invariant: one ``new_page`` sequence, whether
        rows are routed one call at a time or a batch at a time."""
        rows = [(i * 7919 % 1009, i) for i in range(3000)]

        def key(row):
            return row[0]

        runs = []
        for batched in (False, True):
            db = make_database(bufferpool_pages=8)
            calls = _new_page_calls(db)
            parts = [db.temp.create(query_id=1) for _ in range(8)]
            if batched:
                for start in range(0, len(rows), 700):
                    route_rows(parts, key, rows[start:start + 700])
            else:
                for row in rows:
                    parts[hash(key(row)) % 8].append(row)
            runs.append((calls, [_pages(part) for part in parts]))
        per_row, routed = runs
        assert len(per_row[0]) >= 3000 // TEMP_ROWS_PER_PAGE
        assert len({fileid for fileid, _ in per_row[0]}) == 8
        assert routed == per_row


class TestOneTagPerStream:
    """Guard (a count, not a timing): spilling builds semantic tags per
    file, never per row.  Over a spilling Q18 each spill file costs one
    tag at creation and one at the ``finish_writing`` flush; the pool is
    large enough that no temp page is evicted (and tagged) earlier."""

    @pytest.fixture(scope="class")
    def data(self):
        return generate(scale=0.3, seed=11)

    @pytest.mark.parametrize("work_mem_rows", [400, 200])
    def test_q18_tags_bounded_by_files_created(
        self, data, work_mem_rows, monkeypatch
    ):
        db = make_database(
            cache_blocks=512,
            bufferpool_pages=1024,
            work_mem_rows=work_mem_rows,
            btree_order=64,
        )
        load_tpch(db, data=data)
        db.reset_measurements()
        calls = []
        build = SemanticInfo.temp_data.__func__

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(SemanticInfo, "temp_data", classmethod(counting))
        db.run_query(query_builder(18), label="Q18")

        assert db.pool.evictions == 0
        written = db.storage.stats.overall.by_type[RequestType.TEMP_WRITE]
        assert written.blocks > 300  # ~20 000 rows went through the spill path
        assert 0 < len(calls) <= 2 * db.temp.created
