"""Heap files: row storage with sequential scan and random fetch.

Mutations accept an optional transaction; when one is passed, the change
is WAL-logged (a physiological record carrying the rid and row images)
before control returns — the redo/undo unit of ARIES-lite recovery
(DESIGN.md §8).  Without a transaction the write is unlogged, exactly as
before.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.semantics import SemanticInfo
from repro.db.bufferpool import BufferPool
from repro.db.errors import StorageLayoutError
from repro.db.pages import DbFile, HeapPage
from repro.db.tuples import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.txn.manager import Transaction
    from repro.db.txn.mvcc import MVCCManager, Snapshot

Rid = tuple[int, int]
"""Row identifier: (page number, slot)."""


def iter_page_row_batches(
    pool: BufferPool, file: DbFile, sem: SemanticInfo
) -> Iterator[list]:
    """Scan a page file yielding one batch (list of live rows) per page.

    The scan loop shared by heap files and spill files: pages arrive one
    read-ahead window at a time (same requests, in the same order, as a
    `get_range` scan), each page's live rows come back as a fresh list,
    and all-tombstone pages are skipped.
    """
    npages = file.num_pages
    if npages == 0:
        return
    for pages in pool.get_range_batches(file, 0, npages, sem):
        for page in pages:
            batch = page.live_row_list()
            if batch:
                yield batch


class HeapFile:
    """Rows of one relation, packed into fixed-capacity heap pages."""

    def __init__(self, file: DbFile, schema: Schema, rows_per_page: int) -> None:
        if rows_per_page < 1:
            raise StorageLayoutError("rows_per_page must be >= 1")
        self.file = file
        self.schema = schema
        self.rows_per_page = rows_per_page
        self.row_count = 0

    @property
    def num_pages(self) -> int:
        return self.file.num_pages

    # ------------------------------------------------------------- bulk load

    def bulk_load(self, rows: Iterable[tuple]) -> int:
        """Append rows directly into page storage, outside measurement.

        Loading models restoring a prepared database image: it does not go
        through the buffer pool and charges no simulated I/O (the paper
        measures query executions on an already-loaded database).
        """
        page: HeapPage | None = None
        loaded = 0
        for row in rows:
            if page is None or page.full:
                page = HeapPage(self.rows_per_page)
                self.file.allocate_page(page)
            page.append(row)
            loaded += 1
        self.row_count += loaded
        return loaded

    # ----------------------------------------------------------- query paths

    def scan(
        self, pool: BufferPool, sem: SemanticInfo
    ) -> Iterator[tuple[Rid, tuple]]:
        """Full sequential scan yielding (rid, row)."""
        npages = self.num_pages
        if npages == 0:
            return
        for pageno, page in enumerate(pool.get_range(self.file, 0, npages, sem)):
            for slot, row in page.live_rows():
                yield (pageno, slot), row

    def scan_batches(self, pool: BufferPool, sem: SemanticInfo) -> Iterator[list]:
        """Sequential scan yielding one batch (list of live rows) per page.

        Same page requests in the same order as :meth:`scan` — whole-page
        row batches come straight off ``HeapPage.rows`` (copied, filtered
        only when the page has tombstones) without per-row generator hops.
        """
        yield from iter_page_row_batches(pool, self.file, sem)

    def fetch(self, pool: BufferPool, rid: Rid, sem: SemanticInfo):
        """Random row fetch by rid; None if the slot was deleted."""
        pageno, slot = rid
        page = pool.get_page(self.file, pageno, sem)
        return page.get(slot)

    # ------------------------------------------------------- snapshot reads

    def fetch_visible(
        self,
        pool: BufferPool,
        rid: Rid,
        sem: SemanticInfo,
        snapshot: "Snapshot",
        mvcc: "MVCCManager",
    ):
        """The row version visible under ``snapshot`` (MVCC, DESIGN.md §10).

        Issues exactly the page read :meth:`fetch` would; version
        resolution is in-memory.  Returns None when the row is invisible
        at the snapshot (deleted before it, or born after it).
        """
        pageno, slot = rid
        page = pool.get_page(self.file, pageno, sem)
        return mvcc.resolve(self.file.fileid, rid, page.get(slot), snapshot)

    def scan_snapshot(
        self,
        pool: BufferPool,
        sem: SemanticInfo,
        snapshot: "Snapshot",
        mvcc: "MVCCManager",
    ) -> Iterator[list]:
        """Sequential scan of the versions visible under ``snapshot``.

        Page requests are identical (same order, same read-ahead windows)
        to :meth:`scan_batches`; each page's slots are resolved against
        the version chains, so the scan sees a transaction-consistent
        image no matter which writers commit mid-flight.  Files no
        transaction ever versioned take the plain fast path per page.
        """
        npages = self.num_pages
        if npages == 0:
            return
        fileid = self.file.fileid
        pageno = 0
        for pages in pool.get_range_batches(self.file, 0, npages, sem):
            for page in pages:
                if mvcc.file_tracked(fileid):
                    batch = mvcc.visible_page_rows(
                        fileid, pageno, page.rows, snapshot
                    )
                else:
                    batch = page.live_row_list()
                pageno += 1
                if batch:
                    yield batch

    # -------------------------------------------------------------- mutation

    def insert(
        self,
        pool: BufferPool,
        row: tuple,
        sem: SemanticInfo,
        txn: "Transaction | None" = None,
    ) -> Rid:
        """Append one row through the buffer pool (update streams)."""
        rid = self._place(pool, row, sem)
        if txn is not None:
            txn.manager.log_heap_insert(txn, self, rid, row)
        return rid

    def _place(self, pool: BufferPool, row: tuple, sem: SemanticInfo) -> Rid:
        if self.num_pages:
            pageno = self.num_pages - 1
            page = pool.get_page(self.file, pageno, sem)
            if not page.full:
                slot = page.append(row)
                pool.mark_dirty(self.file, pageno, sem)
                self.row_count += 1
                return (pageno, slot)
        page = HeapPage(self.rows_per_page)
        pageno = pool.new_page(self.file, page, sem)
        slot = page.append(row)
        self.row_count += 1
        return (pageno, slot)

    def update(
        self,
        pool: BufferPool,
        rid: Rid,
        new_row: tuple,
        sem: SemanticInfo,
        txn: "Transaction | None" = None,
    ) -> tuple | None:
        """Replace the row at ``rid`` in place; returns the old row.

        Returns ``None`` (and changes nothing) if the slot holds no live
        row.  The OLTP point-update path: one page read, one in-place
        write, one ``HEAP_UPDATE`` record carrying both images.
        """
        pageno, slot = rid
        page = pool.get_page(self.file, pageno, sem)
        old_row = page.get(slot)
        if old_row is None:
            return None
        page.rows[slot] = new_row
        pool.mark_dirty(self.file, pageno, sem)
        if txn is not None:
            txn.manager.log_heap_update(txn, self, rid, old_row, new_row)
        return old_row

    def delete(
        self,
        pool: BufferPool,
        rid: Rid,
        sem: SemanticInfo,
        txn: "Transaction | None" = None,
    ) -> bool:
        """Tombstone one row (RF2); True if it existed."""
        pageno, slot = rid
        page = pool.get_page(self.file, pageno, sem)
        old_row = page.get(slot)
        deleted = page.delete(slot)
        if deleted:
            pool.mark_dirty(self.file, pageno, sem)
            self.row_count -= 1
            if txn is not None:
                txn.manager.log_heap_delete(txn, self, rid, old_row)
        return deleted
