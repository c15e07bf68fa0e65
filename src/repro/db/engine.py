"""The Database facade: DDL, loading, query execution, concurrency.

This is the hStorage-DB "DBMS server": it owns the catalog, buffer pool,
storage manager (with its policy assignment table), temp-file manager and
the Rule-5 registry, and it drives query plans through the executor.

Concurrent workloads (the paper's Section 6.4 throughput test) are
simulated by *cooperative interleaving*: each stream's plan is advanced a
quantum of tuples at a time in round-robin order over one shared storage
system and one shared registry, reproducing both device-level interference
and concurrent policy assignment without OS threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.assignment import PolicyAssignmentTable
from repro.core.levels import compute_effective_levels, iter_nodes
from repro.core.registry import RandomOperatorRef
from repro.db.bufferpool import BufferPool
from repro.db.catalog import Catalog, Index, Relation
from repro.db.errors import ExecutionError, StorageError
from repro.db.heap import HeapFile
from repro.db.btree import BTree
from repro.db.pages import FileKind
from repro.db.plan import PULSE, ExecutionContext, PlanNode
from repro.db.storage_manager import StorageManager
from repro.db.temp import TempFileManager
from repro.db.tuples import Schema
from repro.sim.params import SimulationParameters
from repro.storage.stats import QueryStats
from repro.storage.system import StorageSystem

PlanBuilder = Callable[["Database"], PlanNode]


@dataclass
class QueryResult:
    """Outcome of one query execution."""

    query_id: int
    label: str
    rows: list[tuple]
    sim_seconds: float
    stats: QueryStats

    @property
    def row_count(self) -> int:
        return len(self.rows)


class QueryExecution:
    """A query being advanced cooperatively (concurrent workloads)."""

    def __init__(
        self,
        db: "Database",
        plan: PlanNode,
        label: str,
        collect: bool,
        snapshot=None,
    ) -> None:
        self.db = db
        self.plan = plan
        self.label = label
        self.collect = collect
        self.query_id = db._next_query_id()
        self.rows: list[tuple] = []
        self.started_at = db.clock.now
        self.finished_at: float | None = None
        self.error: Exception | None = None
        """What an operator raised mid-:meth:`step`; the execution then
        counts as finished (everything it held is released) and has no
        result."""

        # Observability: open this query's trace span (no-op without an
        # enabled observer; hooks never touch the simulation itself).
        obs = getattr(db.storage, "observer", None)
        self._obs = obs if obs is not None and obs.enabled else None
        self.span = (
            self._obs.on_query_start(label, self.query_id)
            if self._obs is not None
            else None
        )

        # MVCC: ``snapshot=True`` pins a fresh begin-timestamp snapshot
        # for the query's whole life; a Snapshot instance is used as-is
        # (caller owns its release); False/None read current state
        # exactly as before.
        self._owns_snapshot = False
        if snapshot is True:
            mgr = db.enable_wal()
            snapshot = mgr.mvcc.take_snapshot()
            self._owns_snapshot = True
        elif not snapshot:
            snapshot = None
        self.snapshot = snapshot

        levels = compute_effective_levels(plan)
        refs: list[RandomOperatorRef] = []
        for node in iter_nodes(plan):
            refs.extend(node.random_refs(levels[id(node)]))
        db.registry.register_query(self.query_id, refs)

        self.ctx = ExecutionContext(
            pool=db.pool,
            temp=db.temp,
            clock=db.clock,
            params=db.params,
            query_id=self.query_id,
            work_mem_rows=db.work_mem_rows,
            levels=levels,
            snapshot=self.snapshot,
            mvcc=db.txn_manager.mvcc if self.snapshot is not None else None,
        )
        self._iterator = plan.execute_batch(self.ctx)

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    def step(self, quantum: int = 64) -> bool:
        """Advance up to ``quantum`` items; returns False once exhausted.

        Items are row batches *or* scheduling pulses emitted inside
        blocking operator phases — both count against the quantum, so
        co-running queries interleave at I/O-ish granularity.  A batch
        counts as its row count, and batches are flattened into the
        result rows here, at the engine boundary.
        """
        if self.done:
            return False
        # Make this query's span current while its operators run, so I/O
        # and device events recorded below nest under the right query
        # even when several streams interleave cooperatively.
        tracer = self._obs.tracer if self._obs is not None else None
        pushed = tracer is not None and self.span is not None
        if pushed:
            tracer.push(self.span)
        try:
            consumed = 0
            while consumed < quantum:
                try:
                    item = next(self._iterator)
                except StopIteration:
                    self._finish()
                    return False
                except Exception as exc:
                    self._fail(exc)
                    raise
                if item is PULSE:
                    consumed += 1
                    continue
                consumed += len(item) or 1
                if self.collect:
                    self.rows.extend(item)
            return True
        finally:
            if pushed:
                tracer.pop()

    def run_to_completion(self) -> None:
        while self.step(4096):
            pass

    def _release(self) -> None:
        """Give back what the query holds outside itself: its snapshot,
        its Rule-5 registry entries and any spill file still live."""
        if self._owns_snapshot and self.db.txn_manager is not None:
            self._owns_snapshot = False
            mvcc = self.db.txn_manager.mvcc
            mvcc.release_snapshot(self.snapshot)
            mvcc.gc()  # versions only this snapshot could see are dead now
        self.db.registry.unregister_query(self.query_id)
        self.db.temp.cleanup_query(self.query_id)

    def _finish(self) -> None:
        self.ctx.flush_cpu()
        self._release()
        # Settle this query's in-flight writebacks so per-query statistics
        # and background accounting are complete when the result is read.
        self.db.storage.drain()
        self._close()

    def _fail(self, exc: Exception) -> None:
        """An operator raised: release as :meth:`_finish` would, so the
        database stays usable (the chaos harness keeps querying it)."""
        self.error = exc
        try:
            self._release()
        except StorageError:
            pass  # best effort: the operator's error is the one to report
        self._close()

    def _close(self) -> None:
        self.finished_at = self.db.clock.now
        if self._obs is not None:
            self._obs.on_query_finish(
                self.span, self.label, self.finished_at - self.started_at
            )

    def result(self) -> QueryResult:
        if self.error is not None:
            raise ExecutionError(
                f"query {self.label!r} failed: {self.error!r}"
            )
        if not self.done:
            raise ExecutionError(f"query {self.label!r} has not finished")
        return QueryResult(
            query_id=self.query_id,
            label=self.label,
            rows=self.rows,
            sim_seconds=self.finished_at - self.started_at,
            stats=self.db.storage.stats.query(self.query_id),
        )


class Database:
    """A single-node DBMS over one (possibly hybrid) storage system."""

    def __init__(
        self,
        storage: StorageSystem,
        assignment: PolicyAssignmentTable,
        params: SimulationParameters | None = None,
        bufferpool_pages: int = 256,
        work_mem_rows: int = 5000,
        btree_order: int = 128,
        use_trim: bool = True,
        placement: str | None = None,
    ) -> None:
        self.storage = storage
        self.assignment = assignment
        self.params = params if params is not None else SimulationParameters()
        self.work_mem_rows = work_mem_rows
        self.btree_order = btree_order

        self.catalog = Catalog()
        self.registry = assignment.registry
        self.storage_manager = StorageManager(storage, assignment, self.params)
        self.pool = BufferPool(bufferpool_pages, self.storage_manager)
        self.temp = TempFileManager(self.storage_manager, self.pool, use_trim)
        self._query_counter = 0
        self.txn_manager = None

        # Adaptive placement (DESIGN.md §11): the engine lives in the
        # storage system; the DBMS contributes its buffer-pool knowledge
        # (dirty pages must not be migrated — their storage image is
        # stale until a WAL-ordered flush replaces it).
        engine = self.storage_manager.placement
        if placement is None:
            self.placement = (
                engine.mode.value if engine is not None else "semantic"
            )
        else:
            if engine is not None and engine.mode.value != placement:
                raise ValueError(
                    f"database placement {placement!r} does not match the "
                    f"storage system's engine ({engine.mode.value!r})"
                )
            if engine is None and placement != "semantic":
                raise ValueError(
                    f"placement {placement!r} needs a storage system built "
                    "with a PlacementEngine (see harness.configs."
                    "build_storage); this one has none"
                )
            self.placement = placement
        self.storage_manager.wire_migration_exclusions(self.pool.dirty_lbns)

    # ------------------------------------------------------------------ DDL

    def create_table(self, name: str, schema: Schema) -> Relation:
        oid = self.catalog.allocate_oid()
        file = self.storage_manager.create_file(FileKind.HEAP, oid=oid)
        heap = HeapFile(
            file, schema, schema.rows_per_page(self.params.block_size)
        )
        relation = Relation(name=name, oid=oid, schema=schema, heap=heap)
        self.catalog.add_relation(relation)
        return relation

    def create_index(self, name: str, table_name: str, column: str) -> Index:
        relation = self.catalog.relation(table_name)
        key_pos = relation.schema.idx(column)
        oid = self.catalog.allocate_oid()
        file = self.storage_manager.create_file(FileKind.INDEX, oid=oid)
        btree = BTree(file, order=self.btree_order)
        index = Index(
            name=name,
            oid=oid,
            table=relation,
            column=column,
            key_pos=key_pos,
            btree=btree,
        )
        # Build bottom-up from the existing heap contents (out of band).
        pairs = (
            (row[key_pos], (pageno, slot))
            for pageno, page in enumerate(relation.heap.file.pages)
            for slot, row in page.live_rows()
        )
        btree.bulk_load(pairs)
        self.catalog.add_index(index)
        return index

    def bulk_load(self, table_name: str, rows: Iterable[tuple]) -> int:
        """Load rows outside measurement (restores a prepared image)."""
        return self.catalog.relation(table_name).heap.bulk_load(rows)

    # --------------------------------------------------------- transactions

    def enable_wal(self):
        """Attach the transaction subsystem (idempotent).

        Creates the write-ahead log and the :class:`TransactionManager`,
        installs the flush-respects-WAL hook on the buffer pool, and
        writes the baseline checkpoint that anchors recovery.  Call it
        *after* loading: bulk loads are unlogged, so recoverable history
        starts at this checkpoint's image of the database.  Query-only
        databases never call this, so their request streams are untouched.
        """
        if self.txn_manager is None:
            from repro.db.txn.manager import TransactionManager

            self.txn_manager = TransactionManager(self)
        return self.txn_manager

    def begin(self):
        """Start a transaction (enables the WAL subsystem on first use).

        The returned :class:`~repro.db.txn.manager.Transaction` is a
        context manager: commit on success, abort on exception.  Heap and
        B-tree mutations that are handed the transaction are WAL-logged;
        mutations without one stay unlogged (autocommit-style legacy
        paths keep their exact request streams).
        """
        return self.enable_wal().begin()

    def commit(self, txn) -> None:
        """Commit ``txn`` (forces the log through its commit record)."""
        txn.commit()

    def abort(self, txn) -> None:
        """Roll ``txn`` back (undo through the pool, CLR-logged)."""
        txn.abort()

    def checkpoint(self):
        """Write a WAL checkpoint (begin/end of OLTP measurement windows)."""
        if self.txn_manager is None:
            # Attaching the subsystem writes the baseline checkpoint —
            # that *is* the requested checkpoint, not a prelude to one.
            self.enable_wal()
            return self.txn_manager.wal.records[-1]
        return self.txn_manager.checkpoint()

    # -------------------------------------------------------------- queries

    def _next_query_id(self) -> int:
        self._query_counter += 1
        return self._query_counter

    def build_plan(self, plan_or_builder) -> PlanNode:
        if isinstance(plan_or_builder, PlanNode):
            return plan_or_builder
        plan = plan_or_builder(self)
        if not isinstance(plan, PlanNode):
            raise ExecutionError("plan builder did not return a PlanNode")
        return plan

    def start_query(
        self,
        plan_or_builder,
        label: str = "query",
        collect: bool = True,
        snapshot=None,
    ) -> QueryExecution:
        plan = self.build_plan(plan_or_builder)
        return QueryExecution(self, plan, label, collect, snapshot=snapshot)

    def run_query(
        self,
        plan_or_builder,
        label: str = "query",
        collect: bool = True,
        snapshot=None,
    ) -> QueryResult:
        """Run one query to completion; returns rows, simulated time, stats.

        ``snapshot=True`` executes the query against an MVCC snapshot
        taken at start (requires the WAL subsystem; DESIGN.md §10)."""
        execution = self.start_query(plan_or_builder, label, collect, snapshot)
        execution.run_to_completion()
        return execution.result()

    def run_concurrent(
        self,
        workloads: list[tuple],
        quantum: int = 64,
        collect: bool = False,
    ) -> list[QueryResult]:
        """Co-run several queries with round-robin tuple quanta.

        Each workload is ``(label, builder)`` or ``(label, builder,
        snapshot)`` — the optional third element is passed to
        :meth:`start_query`, so individual streams can read under an
        MVCC snapshot while others (e.g. an OLTP driver) run without.
        """
        executions = [
            self.start_query(
                item[1], item[0], collect, item[2] if len(item) > 2 else None
            )
            for item in workloads
        ]
        active = list(executions)
        while active:
            active = [ex for ex in active if ex.step(quantum)]
        return [ex.result() for ex in executions]

    def explain_analyze(
        self, plan_or_builder, label: str = "query", snapshot=None
    ):
        """Run one query with operator-level profiling (DESIGN.md §14).

        Returns a :class:`~repro.obs.profile.QueryProfile`: per-node rows
        in/out, batch counts, simulated CPU vs I/O self-time and buffer
        pool hit/miss counters, with node self-times summing exactly to
        the query's simulated elapsed time.  The profiled run is
        bit-identical to a plain :meth:`run_query` of the same plan.
        """
        from repro.obs.profile import profile_query

        return profile_query(self, plan_or_builder, label, snapshot=snapshot)

    # ---------------------------------------------------------------- admin

    @property
    def clock(self):
        return self.storage.clock

    @property
    def observer(self):
        """The storage system's attached Observer, if any."""
        return getattr(self.storage, "observer", None)

    def reset_measurements(self) -> None:
        """Zero clock and statistics (after loading, before an experiment)."""
        self.storage.drain()
        self.clock.reset()
        self.storage.stats.reset()
        if self.storage.placement is not None:
            # Load traffic must not seed the heat map; epochs re-anchor
            # at the (now zeroed) simulated clock.
            self.storage.placement.reset()

    def database_pages(self) -> int:
        """Total heap + index pages (for sizing caches in experiments)."""
        return self.catalog.total_heap_pages() + self.catalog.total_index_pages()
