"""Page objects and database files.

A :class:`DbFile` owns an ordered list of page objects — the simulator's
"persistent" contents — together with an :class:`~repro.storage.block.ExtentMap`
placing each page in the storage system's LBA space.  Timing is charged by
the storage manager; page *contents* are shared Python objects (the
simulation models placement and service time, not byte durability — see
DESIGN.md §5).
"""

from __future__ import annotations

import enum
from typing import Iterator

from repro.db.errors import StorageLayoutError
from repro.storage.block import ExtentMap


class FileKind(enum.Enum):
    """What a file stores; drives the write-path classification."""

    HEAP = "heap"
    INDEX = "index"
    TEMP = "temp"
    LOG = "log"


class HeapPage:
    """A slotted page holding whole rows; deleted slots become ``None``.

    ``num_deleted`` counts tombstoned slots so scans can skip the per-row
    liveness check on the (overwhelmingly common) pages without deletions.

    ``page_lsn`` is the LSN of the last WAL record applied to this page
    (0 when the page was never touched by a logged transaction).  It
    drives the flush-respects-WAL protocol and ARIES conditional redo.
    """

    __slots__ = ("rows", "capacity", "num_deleted", "page_lsn")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise StorageLayoutError("page capacity must be >= 1 row")
        self.capacity = capacity
        self.rows: list = []
        self.num_deleted = 0
        self.page_lsn = 0

    @property
    def full(self) -> bool:
        return len(self.rows) >= self.capacity

    def append(self, row) -> int:
        """Add a row; returns its slot number."""
        if self.full:
            raise StorageLayoutError("append to a full page")
        self.rows.append(row)
        return len(self.rows) - 1

    def get(self, slot: int):
        """Row at ``slot`` or None if deleted/absent."""
        if 0 <= slot < len(self.rows):
            return self.rows[slot]
        return None

    def delete(self, slot: int) -> bool:
        """Tombstone a slot; True if a live row was deleted."""
        if 0 <= slot < len(self.rows) and self.rows[slot] is not None:
            self.rows[slot] = None
            self.num_deleted += 1
            return True
        return False

    def live_rows(self) -> Iterator[tuple[int, tuple]]:
        """(slot, row) pairs for non-deleted rows."""
        if self.num_deleted == 0:
            yield from enumerate(self.rows)
            return
        for slot, row in enumerate(self.rows):
            if row is not None:
                yield slot, row

    def live_row_list(self) -> list:
        """All live rows of the page as a fresh list (one row batch)."""
        if self.num_deleted == 0:
            return self.rows[:]
        return [row for row in self.rows if row is not None]


class DbFile:
    """A growable, extent-mapped sequence of pages."""

    def __init__(
        self,
        fileid: int,
        kind: FileKind,
        extent_map: ExtentMap,
        oid: int | None = None,
    ) -> None:
        self.fileid = fileid
        self.kind = kind
        self.extent_map = extent_map
        self.oid = oid
        self.pages: list = []

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    def allocate_page(self, page) -> int:
        """Append a page object; returns its page number."""
        self.pages.append(page)
        pageno = len(self.pages) - 1
        # Materialise the LBA mapping eagerly so TRIM covers every page.
        self.extent_map.lba_of(pageno)
        return pageno

    def page(self, pageno: int):
        try:
            return self.pages[pageno]
        except IndexError:
            raise StorageLayoutError(
                f"file {self.fileid} has no page {pageno} "
                f"(only {len(self.pages)})"
            ) from None

    def lba_of(self, pageno: int) -> int:
        return self.extent_map.lba_of(pageno)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DbFile(id={self.fileid}, kind={self.kind.value}, "
            f"pages={self.num_pages}, oid={self.oid})"
        )
