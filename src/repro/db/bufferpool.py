"""DBMS buffer pool with semantic pass-through.

The paper instruments PostgreSQL so that buffer-pool requests carry the
semantic information collected in the optimizer/executor down to the
storage manager.  This buffer pool does the same: every page access takes
a :class:`~repro.core.semantics.SemanticInfo`, which is forwarded on a
miss (read path) and remembered per-frame for the writeback path (dirty
evictions classify as updates for regular data, as temp writes for
temporary data — Rules 4 and 3 respectively).

Replacement is LRU.  PostgreSQL uses clock-sweep; at the storage layer the
difference is immaterial for the studied effects (DESIGN.md §6).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.semantics import ContentType, SemanticInfo
from repro.db.errors import StorageError
from repro.db.pages import DbFile, FileKind
from repro.db.storage_manager import StorageManager


@dataclass
class Frame:
    file: DbFile
    pageno: int
    page: object
    dirty: bool = False
    dirty_query: int | None = None


class BufferPool:
    """Fixed-capacity page cache between the executor and storage."""

    def __init__(
        self,
        capacity_pages: int,
        storage_manager: StorageManager,
        read_ahead_pages: int | None = None,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one page")
        self.capacity = capacity_pages
        self.storage_manager = storage_manager
        self.read_ahead = (
            read_ahead_pages
            if read_ahead_pages is not None
            else storage_manager.params.read_ahead_pages
        )
        self._frames: OrderedDict[tuple[int, int], Frame] = OrderedDict()
        self.flush_hook = None
        """Optional callable invoked with the dirty frames of each
        writeback batch *before* their writes are submitted.  The
        transaction manager installs the flush-respects-WAL protocol here
        (force the log through the stolen pages' LSNs, then record the
        flushed images in the durable store) — the steal half of
        steal/no-force, DESIGN.md §8."""
        # One-entry memo of the most-recently-touched frame: repeat hits on
        # the same page (index-scan heap fetches, tail-page inserts, batch
        # runs) skip the OrderedDict machinery.  Invariant: when set, the
        # memo key IS the pool's MRU entry, so returning it without a
        # move_to_end leaves the LRU order exactly as it would have been.
        self._memo_key: tuple[int, int] | None = None
        self._memo_page: object | None = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.read_errors = 0
        """Storage reads that raised a typed
        :class:`~repro.db.errors.StorageError` (corrupt block, failed
        device).  The error always propagates — a failed fetch admits no
        frame and moves no LRU state, so the pool stays consistent and a
        later retry of the same page starts clean."""

    @property
    def _observer(self):
        """The storage system's Observer when attached and enabled."""
        obs = getattr(self.storage_manager.storage, "observer", None)
        return obs if obs is not None and obs.enabled else None

    # --------------------------------------------------------------- reads

    def _fetch(self, file: DbFile, runs: list[tuple[int, int]], sem) -> None:
        """Charge storage I/O for missing page runs, exception-safely.

        Sits directly on the CRC-verified read boundary (DESIGN.md §13):
        the storage stack below either delivers verified blocks or
        raises.  On a raise, nothing has been admitted yet — the caller's
        frames, memo and LRU order are exactly as before the call.
        """
        try:
            self.storage_manager.read_pages_batch(file, runs, sem)
        except StorageError:
            self.read_errors += 1
            obs = self._observer
            if obs is not None:
                obs.on_pool_read_error()
            raise

    def get_page(self, file: DbFile, pageno: int, sem: SemanticInfo):
        """Fetch one page, charging storage I/O on a miss."""
        key = (file.fileid, pageno)
        obs = self._observer
        if key == self._memo_key:
            self.hits += 1
            if obs is not None:
                obs.on_pool_hits(1)
            return self._memo_page
        frame = self._frames.get(key)
        if frame is not None:
            self.hits += 1
            if obs is not None:
                obs.on_pool_hits(1)
            self._frames.move_to_end(key)
            self._memo_key = key
            self._memo_page = frame.page
            return frame.page
        self.misses += 1
        if obs is not None:
            obs.on_pool_misses(1)
        self._fetch(file, [(pageno, 1)], sem)
        page = file.page(pageno)
        self._admit(Frame(file, pageno, page))
        return page

    def get_range(self, file: DbFile, start: int, count: int, sem: SemanticInfo):
        """Yield pages ``[start, start+count)``, batching missing runs.

        Misses within one read-ahead window are fetched with a single
        multi-block request per contiguous missing run, which is how a
        sequential scan turns into few large I/O requests.
        """
        for pages in self.get_range_batches(file, start, count, sem):
            yield from pages

    def get_range_batches(
        self, file: DbFile, start: int, count: int, sem: SemanticInfo
    ):
        """Yield the pages of ``[start, start+count)`` one window at a time.

        Same requests, hit/miss accounting and LRU behaviour as
        :meth:`get_range`, but each read-ahead window's pages come back as
        one list — the page source of sequential scans.
        """
        window = max(self.read_ahead, 1)
        end = start + count
        pos = start
        frames = self._frames
        fileid = file.fileid
        while pos < end:
            batch_end = min(pos + window, end)
            pages = self._fault_in_range(file, pos, batch_end, sem)
            if pages is not None:
                # Entirely-missing window: _fault_in_range admitted every
                # page itself (memo already on the last one); re-probing
                # the frame table per page would find each freshly-MRU.
                yield pages
                pos = batch_end
                continue
            pages = []
            key = None
            scan_from = pos
            first = (fileid, pos)
            if first == self._memo_key:
                # Memo serve (same invariant as get_page): at window
                # start the memo key IS the MRU entry, so skipping
                # move_to_end leaves the LRU order exactly as it would
                # have been.  Only the first page qualifies — after any
                # move_to_end below, the memo'd frame is no longer MRU
                # and must take the regular move-to-end path.
                pages.append(self._memo_page)
                key = first
                scan_from = pos + 1
            for pageno in range(scan_from, batch_end):
                key = (fileid, pageno)
                frame = frames.get(key)
                if frame is None:
                    # Evicted by our own read-ahead (pool smaller than the
                    # window): re-read the single page.
                    pages.append(self.get_page(file, pageno, sem))
                    key = None
                else:
                    frames.move_to_end(key)
                    pages.append(frame.page)
            if key is not None:
                self._memo_key = key
                self._memo_page = pages[-1]
            yield pages
            pos = batch_end

    def _fault_in_range(
        self, file: DbFile, start: int, end: int, sem: SemanticInfo
    ) -> list | None:
        """Fault in every missing page of ``[start, end)`` with one dispatch.

        The window's missing runs become one vectored read (statistics
        still count one request per run), and the evictions the new frames
        force are written back as one batched dispatch per victim file —
        the batched read-ahead of DESIGN.md §6.

        Returns the window's pages when the *whole* window was one
        missing run that fits the pool (the cold sequential-scan case):
        every page was just admitted in increasing order, so the caller's
        per-page frame-table probe + move_to_end pass would be a pure
        no-op reordering.  Returns None otherwise — including when the
        window exceeds capacity, where admissions evict one another and
        the caller's re-probe (with its single-page re-reads) is what
        keeps the request stream on the established behaviour.
        """
        runs: list[tuple[int, int]] = []
        run_start: int | None = None
        window_hits = 0
        window_misses = 0
        for pageno in range(start, end):
            missing = (file.fileid, pageno) not in self._frames
            if missing:
                self.misses += 1
                window_misses += 1
                if run_start is None:
                    run_start = pageno
            else:
                self.hits += 1
                window_hits += 1
            if not missing and run_start is not None:
                runs.append((run_start, pageno - run_start))
                run_start = None
        if run_start is not None:
            runs.append((run_start, end - run_start))
        obs = self._observer
        if obs is not None:
            if window_hits:
                obs.on_pool_hits(window_hits)
            if window_misses:
                obs.on_pool_misses(window_misses)
        if not runs:
            return None
        self._fetch(file, runs, sem)
        total = sum(count for _, count in runs)
        self._make_room(total)
        if runs[0] == (start, end - start) and total <= self.capacity:
            pages = []
            for pageno in range(start, end):
                page = file.page(pageno)
                self._admit(Frame(file, pageno, page))
                pages.append(page)
            return pages
        for run_begin, count in runs:
            for pageno in range(run_begin, run_begin + count):
                self._admit(Frame(file, pageno, file.page(pageno)))
        return None

    # --------------------------------------------------------------- writes

    def new_page(self, file: DbFile, page, sem: SemanticInfo) -> int:
        """Allocate a fresh page dirty in the pool (written on eviction)."""
        pageno = file.allocate_page(page)
        self._admit(
            Frame(file, pageno, page, dirty=True, dirty_query=sem.query_id)
        )
        return pageno

    def mark_dirty(self, file: DbFile, pageno: int, sem: SemanticInfo) -> None:
        """Mark an (already resident) page dirty."""
        key = (file.fileid, pageno)
        frame = self._frames.get(key)
        if frame is None:
            # Page was evicted between read and modify; re-admit it.
            self.get_page(file, pageno, sem)
            frame = self._frames[key]
        frame.dirty = True
        frame.dirty_query = sem.query_id

    # ------------------------------------------------------------- lifecycle

    def drop_file(self, file: DbFile) -> int:
        """Discard every frame of a (deleted) file without writeback."""
        keys = [key for key in self._frames if key[0] == file.fileid]
        for key in keys:
            del self._frames[key]
        if self._memo_key is not None and self._memo_key[0] == file.fileid:
            self._memo_key = self._memo_page = None
        return len(keys)

    def flush_all(self) -> int:
        """Write back every dirty frame (checkpoint); returns pages written.

        Dirty frames are grouped per file into batched writes, and the
        scheduler's writeback queue is drained afterwards, so a checkpoint
        leaves no I/O in flight.
        """
        written = self._write_back_batch(
            [frame for frame in self._frames.values() if frame.dirty]
        )
        self.storage_manager.drain()
        return written

    def flush_file(self, file: DbFile) -> int:
        """Write back one file's dirty frames (spill-file generation end)."""
        written = self._write_back_batch(
            [
                frame
                for frame in self._frames.values()
                if frame.dirty and frame.file.fileid == file.fileid
            ]
        )
        self.storage_manager.drain()
        return written

    def clear(self) -> None:
        """Empty the pool (cold-cache experiment resets); flushes first."""
        self.flush_all()
        self._frames.clear()
        self._memo_key = self._memo_page = None

    def discard_all(self) -> int:
        """Drop every frame *without* writeback (crash simulation)."""
        dropped = len(self._frames)
        self._frames.clear()
        self._memo_key = self._memo_page = None
        return dropped

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    def dirty_lbns(self) -> set[int]:
        """LBAs whose authoritative copy is a dirty frame in this pool.

        The migration planner excludes them each epoch (DESIGN.md §11):
        their on-storage image is stale, and the fresh image reaches
        storage only through a WAL-ordered flush — migrating the stale
        copy would be wasted work and would race that ordering.  Frames
        whose pages were never written have no LBA yet (``is_mapped``)
        and equally nothing on storage to migrate.
        """
        return {
            frame.file.extent_map.lba_of(frame.pageno)
            for frame in self._frames.values()
            if frame.dirty and frame.file.extent_map.is_mapped(frame.pageno)
        }

    # ------------------------------------------------------------- internals

    def _admit(self, frame: Frame) -> None:
        key = (frame.file.fileid, frame.pageno)
        if key in self._frames:
            # Keep the existing frame's dirty state; refresh recency.
            existing = self._frames[key]
            existing.dirty = existing.dirty or frame.dirty
            self._frames.move_to_end(key)
            self._memo_key = key
            self._memo_page = existing.page
            return
        self._make_room(1)
        self._frames[key] = frame
        self._memo_key = key
        self._memo_page = frame.page

    def _make_room(self, incoming: int) -> None:
        """Evict enough LRU victims for ``incoming`` new frames at once.

        Dirty victims are written back as one batched dispatch per file
        (the batched dirty-page eviction of DESIGN.md §6) instead of one
        request each.
        """
        overflow = len(self._frames) + incoming - self.capacity
        if overflow <= 0:
            return
        self._memo_key = self._memo_page = None
        victims = []
        evicted = 0
        for _ in range(overflow):
            if not self._frames:
                break
            _, victim = self._frames.popitem(last=False)
            evicted += 1
            if victim.dirty:
                victims.append(victim)
        self.evictions += evicted
        if evicted:
            obs = self._observer
            if obs is not None:
                obs.on_pool_evictions(evicted)
        self._write_back_batch(victims)

    def _write_back_batch(self, frames: list[Frame]) -> int:
        """Write back dirty frames, one batched async dispatch per group.

        Dirty-page writeback is background-writer work: it must reach
        storage (and take its place in the cache) but is off the critical
        path of whichever query triggered the eviction.
        """
        if frames and self.flush_hook is not None:
            self.flush_hook(frames)
        groups: dict[tuple, tuple[DbFile, int | None, list[int]]] = {}
        for frame in frames:
            key = (frame.file.fileid, frame.dirty_query)
            group = groups.get(key)
            if group is None:
                group = groups[key] = (frame.file, frame.dirty_query, [])
            group[2].append(frame.pageno)
            frame.dirty = False
        for file, query_id, pagenos in groups.values():
            self.storage_manager.write_pages_batch(
                file,
                pagenos,
                self._writeback_semantics(file, query_id),
                async_hint=True,
            )
        return len(frames)

    @staticmethod
    def _writeback_semantics(file: DbFile, query_id: int | None) -> SemanticInfo:
        """The tag of one (file, dirtying query) writeback group."""
        if file.kind is FileKind.TEMP:
            return SemanticInfo.temp_data(oid=file.oid, query_id=query_id)
        content = (
            ContentType.INDEX if file.kind is FileKind.INDEX else ContentType.TABLE
        )
        return SemanticInfo.update(content, oid=file.oid, query_id=query_id)
