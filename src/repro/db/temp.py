"""Temporary data management (Section 4.2.3).

Temporary data has a two-phase lifetime: a *generation* phase (one write
stream) and a *consumption* phase (one or more read streams), after which
the file is deleted.  The manager:

* routes generation/consumption through the buffer pool with temp
  semantics (priority 1 under hStorage-DB);
* on delete, drops the file's resident frames (no writeback of deleted
  data) and issues TRIM (the "non-caching and eviction" priority) so the
  cache releases its blocks promptly — modelling an EXT4-style file system;
* alternatively supports the paper's legacy-FS workaround: a sequential
  re-read of the file with the eviction priority (``use_trim=False``).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.semantics import SemanticInfo
from repro.db.bufferpool import BufferPool
from repro.db.errors import ExecutionError
from repro.db.heap import iter_page_row_batches
from repro.db.pages import DbFile, FileKind, HeapPage
from repro.db.storage_manager import StorageManager

TEMP_ROWS_PER_PAGE = 64
"""Rows per temp page: spill rows are wide (joined tuples), so the
estimate is conservative."""


_NO_OPEN_PAGE = (None,) * TEMP_ROWS_PER_PAGE
"""Stand-in for the open page's row list when no page is open: it reads
as full, so the next append takes the page-roll path, where the file's
lifetime state is checked."""


class SpillFile:
    """One temporary file: append rows, read them back, delete.

    The file is one generation stream and one or more consumption
    streams of the same object by the same query (Section 4.2.3), so a
    single semantic tag, built here, rides on every request it issues.
    """

    def __init__(
        self, manager: "TempFileManager", file: DbFile, query_id: int | None
    ) -> None:
        self._manager = manager
        self.file = file
        self.query_id = query_id
        self.row_count = 0
        self._sem = SemanticInfo.temp_data(oid=file.oid, query_id=query_id)
        self._tail = _NO_OPEN_PAGE  # the open page's row list
        self._writing = True
        self._deleted = False

    # ------------------------------------------------------------ generation

    def append(self, row) -> None:
        tail = self._tail
        if len(tail) >= TEMP_ROWS_PER_PAGE:
            tail = self._roll()
        tail.append(row)
        self.row_count += 1

    def append_rows(self, rows: list) -> None:
        """Append a batch: same pages as one :meth:`append` per row."""
        tail = self._tail
        pos, count = 0, len(rows)
        while pos < count:
            room = TEMP_ROWS_PER_PAGE - len(tail)
            if room <= 0:
                tail = self._roll()
                room = TEMP_ROWS_PER_PAGE
            tail.extend(rows[pos:pos + room])
            pos += room
        self.row_count += count

    def _roll(self) -> list:
        """Open the next page; the only place generation state is checked."""
        if not self._writing:
            raise ExecutionError("append after finish_writing")
        if self._deleted:
            raise ExecutionError("append to a deleted spill file")
        page = HeapPage(TEMP_ROWS_PER_PAGE)
        self._manager.pool.new_page(self.file, page, self._sem)
        self._tail = page.rows
        return page.rows

    def finish_writing(self) -> None:
        """End the generation phase.

        The spill's dirty pages are flushed as batched multi-page writes:
        the generation write stream reaches storage in large sequential
        requests instead of trickling out through later pool evictions.
        """
        self._tail = _NO_OPEN_PAGE
        if self._writing and self.file.num_pages:
            self._manager.pool.flush_file(self.file)
        self._writing = False

    # ----------------------------------------------------------- consumption

    def read_all(self) -> Iterator:
        """One consumption read stream over all spilled rows."""
        if self._deleted:
            raise ExecutionError("read of a deleted spill file")
        if self._writing:
            self.finish_writing()
        pool = self._manager.pool
        npages = self.file.num_pages
        if npages == 0:
            return
        for page in pool.get_range(self.file, 0, npages, self._sem):
            for _, row in page.live_rows():
                yield row

    def read_batches(self) -> Iterator[list]:
        """Batched consumption stream: one list of rows per temp page.

        Same page requests as :meth:`read_all`; hash joins and hash
        aggregates use this to rebuild spill partitions a page at a time.
        """
        if self._deleted:
            raise ExecutionError("read of a deleted spill file")
        if self._writing:
            self.finish_writing()
        yield from iter_page_row_batches(
            self._manager.pool, self.file, self._sem
        )

    # --------------------------------------------------------------- cleanup

    def delete(self) -> None:
        """End of lifetime: drop frames and release cache blocks."""
        if self._deleted:
            return
        self._deleted = True
        self._tail = _NO_OPEN_PAGE
        self._manager._delete(self)

    @property
    def deleted(self) -> bool:
        return self._deleted


def route_rows(partitions: list[SpillFile], key, rows) -> None:
    """Append each row to partition ``hash(key(row)) % len(partitions)``.

    Rows are routed one by one in arrival order, never partition by
    partition: every page roll calls ``pool.new_page``, and the global
    order of those calls across the partitions fixes the pool's LRU and
    eviction order, hence the request trace and simulated time.
    """
    appends = [part.append for part in partitions]
    count = len(appends)
    for row in rows:
        appends[hash(key(row)) % count](row)


class TempFileManager:
    """Creates and destroys spill files; tracks leaks per query."""

    def __init__(
        self,
        storage_manager: StorageManager,
        pool: BufferPool,
        use_trim: bool = True,
    ) -> None:
        self.storage_manager = storage_manager
        self.pool = pool
        self.use_trim = use_trim
        self._live: dict[int, SpillFile] = {}
        self.created = 0
        self.deleted = 0

    def create(self, query_id: int | None = None) -> SpillFile:
        file = self.storage_manager.create_file(FileKind.TEMP)
        file.oid = -file.fileid  # negative oids mark temp objects
        spill = SpillFile(self, file, query_id)
        self._live[file.fileid] = spill
        self.created += 1
        return spill

    def _delete(self, spill: SpillFile) -> None:
        # Book-keeping first: a TRIM that raises must not leave the file
        # registered as live forever (it is already marked deleted).
        self._live.pop(spill.file.fileid, None)
        self.deleted += 1
        self.pool.drop_file(spill.file)
        sem = SemanticInfo.temp_delete(
            oid=spill.file.oid, query_id=spill.query_id
        )
        if spill.file.extent_map.extents:
            if self.use_trim:
                self.storage_manager.trim_file(spill.file, sem)
            else:
                # Legacy-FS workaround: sequential re-read at the
                # "non-caching and eviction" priority.
                self.storage_manager.evict_scan_file(spill.file, sem)

    def cleanup_query(self, query_id: int | None) -> int:
        """Delete any spill files a finished query left behind."""
        leaked = [
            spill
            for spill in self._live.values()
            if spill.query_id == query_id
        ]
        for spill in leaked:
            spill.delete()
        return len(leaked)

    @property
    def live_count(self) -> int:
        return len(self._live)
