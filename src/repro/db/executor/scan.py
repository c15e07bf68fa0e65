"""Scan operators: sequential heap scans and B+tree index scans."""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.registry import RandomOperatorRef
from repro.core.semantics import ContentType, SemanticInfo
from repro.db.catalog import Index, Relation
from repro.db.plan import PULSE, PULSE_EVERY, ExecutionContext, PlanNode

Pred = Callable[[tuple], bool]
Proj = Callable[[tuple], tuple]


class SeqScan(PlanNode):
    """Full table scan: sequential requests (Rule 1 traffic)."""

    def __init__(
        self,
        relation: Relation,
        pred: Pred | None = None,
        project: Proj | None = None,
        label: str | None = None,
    ) -> None:
        super().__init__(label=label or f"SeqScan({relation.name})")
        self.relation = relation
        self.pred = pred
        self.project = project

    def _batches(self, ctx: ExecutionContext, sem: SemanticInfo) -> Iterator[list]:
        """Page batches: current state, or the MVCC snapshot's view when
        the query carries one — same page requests either way."""
        if ctx.snapshot is not None and ctx.mvcc is not None:
            return self.relation.heap.scan_snapshot(
                ctx.pool, sem, ctx.snapshot, ctx.mvcc
            )
        return self.relation.heap.scan_batches(ctx.pool, sem)

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        sem = SemanticInfo.table_scan(self.relation.oid, query_id=ctx.query_id)
        pred, project = self.pred, self.project
        for batch in self._batches(ctx, sem):
            ctx.cpu_tick(len(batch))
            if pred is not None:
                batch = [row for row in batch if pred(row)]
            if project is not None:
                batch = [project(row) for row in batch]
            if batch:
                yield batch
            yield PULSE


class IndexScan(PlanNode):
    """B+tree range/point scan plus (optionally) heap fetches.

    Both the index pages and the fetched table pages are random requests
    issued by this operator, at the operator's effective plan level — the
    paper's "requests to access a table and its corresponding index are
    all random" (Section 4.2.2).

    No native ``execute_batch``: every emitted row sits between this
    operator's own random reads (btree descent, heap fetch), so its rows
    leave through the default one-row-batch adapter, and a downstream
    operator acts on each row before the next read here.
    """

    def __init__(
        self,
        index: Index,
        lo=None,
        hi=None,
        pred: Pred | None = None,
        project: Proj | None = None,
        fetch: bool = True,
        label: str | None = None,
    ) -> None:
        super().__init__(
            label=label or f"IndexScan({index.table.name}.{index.column})"
        )
        self.index = index
        self.lo = lo
        self.hi = hi
        self.pred = pred
        self.project = project
        self.fetch = fetch
        self._tags: tuple[SemanticInfo, SemanticInfo] | None = None

    def random_refs(self, level: int) -> list[RandomOperatorRef]:
        refs = [RandomOperatorRef(self.index.oid, level)]
        if self.fetch:
            refs.append(RandomOperatorRef(self.index.table.oid, level))
        return refs

    def _semantics(self, ctx: ExecutionContext) -> tuple[SemanticInfo, SemanticInfo]:
        """The (index, table) tags of this execution.

        A nested-loop join probes thousands of times per execution; the
        pair depends only on the node, the query and its level, so it is
        rebuilt only when one of those changes.
        """
        level = ctx.level(self)
        tags = self._tags
        if (
            tags is None
            or tags[0].level != level
            or tags[0].query_id != ctx.query_id
        ):
            tags = self._tags = (
                SemanticInfo.random_access(
                    ContentType.INDEX, self.index.oid, level,
                    query_id=ctx.query_id,
                ),
                SemanticInfo.random_access(
                    ContentType.TABLE, self.index.table.oid, level,
                    query_id=ctx.query_id,
                ),
            )
        return tags

    def _entries(
        self, ctx: ExecutionContext, lo, hi, sem_index: SemanticInfo
    ) -> Iterator[tuple]:
        """(key, rid) stream of the range scan.  Under a snapshot, the
        tree's live entries are merged (in key order) with tombstoned
        entries whose deletion the snapshot must not see — the B-tree
        itself is unversioned, so this is what keeps index scans on the
        same transaction-consistent image as heap scans."""
        live = self.index.btree.range_scan(ctx.pool, lo, hi, sem_index)
        snapshot, mvcc = ctx.snapshot, ctx.mvcc
        if snapshot is None or mvcc is None:
            yield from live
            return
        hidden = mvcc.hidden_index_entries(
            self.index.btree.file.fileid, lo, hi, snapshot
        )
        if not hidden:
            yield from live
            return
        resurrect = iter(hidden)
        nxt = next(resurrect, None)
        for key, rid in live:
            while nxt is not None and nxt[0] <= key:
                yield nxt
                nxt = next(resurrect, None)
            yield (key, rid)
        while nxt is not None:
            yield nxt
            nxt = next(resurrect, None)

    def _emit(
        self, ctx: ExecutionContext, lo, hi, sem_index: SemanticInfo,
        sem_table: SemanticInfo,
    ) -> Iterator[tuple]:
        heap = self.index.table.heap
        pred, project = self.pred, self.project
        snapshot, mvcc = ctx.snapshot, ctx.mvcc
        for _key, rid in self._entries(ctx, lo, hi, sem_index):
            ctx.cpu_tick()
            if self.fetch:
                if snapshot is not None and mvcc is not None:
                    row = heap.fetch_visible(
                        ctx.pool, rid, sem_table, snapshot, mvcc
                    )
                else:
                    row = heap.fetch(ctx.pool, rid, sem_table)
                if row is None:  # deleted since the entry was made
                    continue
            else:
                row = (_key, rid)
            if pred is not None and not pred(row):
                continue
            yield row

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        sem_index, sem_table = self._semantics(ctx)
        project = self.project
        seen = 0
        for row in self._emit(ctx, self.lo, self.hi, sem_index, sem_table):
            seen += 1
            if seen % PULSE_EVERY == 0:
                yield PULSE
            yield project(row) if project is not None else row

    def probe(self, ctx: ExecutionContext, key) -> list[tuple]:
        """Point probe used as the inner side of a nested-loop join.

        Returns plain rows (no pulses, no projection); the join applies
        its own pair projection.
        """
        sem_index, sem_table = self._semantics(ctx)
        rows = list(self._emit(ctx, key, key, sem_index, sem_table))
        if self.project is not None:
            rows = [self.project(row) for row in rows]
        return rows
